// retry.h — the one failure model of the execution stack.
//
// Everything that retries, times out, or cancels in this codebase goes
// through the types here, so the batch campaign runner, the hmptd
// scheduler, and the client tools agree on what "transient" means and
// back off the same way:
//
//   * RetryPolicy — attempt budget, exponential backoff with
//     *deterministic* seeded jitter (mix_seed + xoshiro, a pure function
//     of (seed, stream, attempt) — two runs of the same campaign sleep
//     the same schedule), a per-attempt deadline and a total wall-clock
//     budget across attempts.
//   * CancelToken — cooperative cancellation + deadline in one object.
//     Work checks check() at its yield points (throws hmpt::Error with a
//     "canceled:" or "timeout:" prefix past the deadline) and sleeps via
//     sleep_for(), which wakes early on cancel — a timed-out or canceled
//     job stops burning its worker instead of finishing a doomed run.
//   * run_with_retries() — the retry loop itself: runs each attempt under
//     a child of the caller's token (so a cancel reaches it), records an
//     AttemptRecord per failure, classifies errors (terminal errors never
//     retry), backs off per the policy, and returns the attempt history.
//     Its one production caller is the scenario executor
//     (campaign/campaign.h) that batch runs and hmptd jobs share.
//
// Error classification is by message prefix, matching the protocol's
// prefix-tagged errors: "terminal:" and determinism violations
// ("conflicting outcome") never retry; "canceled:" aborts the loop;
// everything else — including "timeout:" — is transient and retried
// while budget remains.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/error.h"

namespace hmpt {

/// How (and whether) to retry a failing operation. The default policy is
/// one attempt, no deadline — exactly the pre-fault-tolerance behaviour.
struct RetryPolicy {
  int max_attempts = 1;           ///< total attempts (>= 1), not "extra"
  double initial_backoff_s = 0.05;  ///< sleep after the first failure
  double backoff_multiplier = 2.0;  ///< exponential growth per attempt
  double max_backoff_s = 5.0;       ///< backoff cap
  double jitter = 0.25;           ///< +/- fraction of the backoff, seeded
  std::uint64_t seed = 0;         ///< jitter stream seed (deterministic)
  /// Per-attempt deadline; 0 = none. Each attempt's CancelToken expires
  /// this many seconds after the attempt starts.
  double attempt_deadline_s = 0.0;
  /// Total wall-clock budget across attempts *and* backoff sleeps;
  /// 0 = none. An exhausted budget stops retrying (and caps the last
  /// attempt's deadline), reported as a timeout.
  double total_deadline_s = 0.0;

  /// The backoff before attempt `attempt + 1` (attempt is 1-based: the
  /// sleep after the attempt-th failure). Deterministic in
  /// (seed, stream, attempt): exponential base, multiplied by a jitter
  /// factor drawn from mix_seed(seed, stream, attempt), capped at
  /// max_backoff_s. `stream` identifies the job (e.g. a fingerprint
  /// hash) so concurrent jobs don't back off in lockstep.
  double backoff_s(int attempt, std::uint64_t stream = 0) const;

  /// Throws hmpt::Error on nonsensical settings (attempts < 1, negative
  /// times, jitter outside [0, 1)).
  void validate() const;
};

/// One failed attempt, kept for the job's failure report.
struct AttemptRecord {
  int attempt = 0;        ///< 1-based
  std::string error;      ///< what the attempt threw
  double seconds = 0.0;   ///< attempt wall time
};

/// "attempt 1: <err> (0.12s); attempt 2: ..." — the attempt history as
/// one line, for `failed: ...` job reports.
std::string format_attempts(const std::vector<AttemptRecord>& attempts);

/// True for errors that must never be retried: messages carrying a
/// "terminal:" or "canceled:" prefix (anywhere — wrapped errors keep
/// their classification) and outcome-store determinism violations
/// ("conflicting outcome"). Everything else is transient.
bool is_terminal_error(const std::string& what);

/// Cooperative cancellation + deadline. Copies share state: the worker
/// holds one end, the canceller (scheduler stop, a deadline) the other.
/// All operations are thread-safe.
class CancelToken {
 public:
  CancelToken();

  /// Arm (or tighten) the deadline `seconds` from now. The earliest
  /// deadline wins; never loosens an existing one.
  void set_deadline_after(double seconds);

  /// Request cancellation; wakes every sleep_for() and cancels every
  /// live child(). Idempotent.
  void cancel();

  /// A fresh token that this one's cancel() reaches, now or later. The
  /// child keeps its own deadline; its own cancel does not reach back.
  CancelToken child() const;

  bool canceled() const;          ///< cancel() was called
  bool expired() const;           ///< the deadline has passed
  /// Seconds until the deadline; infinity when none is set, <= 0 when
  /// already expired.
  double remaining_s() const;

  /// Throw hmpt::Error "canceled: ..." / "timeout: ..." when canceled or
  /// past the deadline; return otherwise. Work calls this at its yield
  /// points (loop heads, between phases).
  void check() const;

  /// Sleep up to `seconds`, waking early on cancel() or the deadline.
  /// Returns true when the full sleep elapsed, false when interrupted.
  bool sleep_for(double seconds) const;

 private:
  struct State;
  explicit CancelToken(std::shared_ptr<State> state);
  std::shared_ptr<State> state_;
};

/// What run_with_retries did: success, and the failure history.
struct RetryResult {
  bool ok = false;
  std::vector<AttemptRecord> failures;  ///< one record per failed attempt

  /// Total attempts made (failed + the successful one, if any).
  int attempts() const {
    return static_cast<int>(failures.size()) + (ok ? 1 : 0);
  }
};

/// Run `body` under the policy until one call returns normally. Each
/// call gets a fresh token (a child of `parent`, when given) armed with
/// the attempt deadline and the remaining total budget; terminal errors
/// and an exhausted budget stop the loop, transient ones back off and
/// retry. `stream` seeds the jitter (use a per-job id). Cancelling
/// `parent` cancels the live attempt, wakes the backoff, ends the loop.
RetryResult run_with_retries(
    const RetryPolicy& policy, std::uint64_t stream,
    const std::function<void(const CancelToken&)>& body,
    const CancelToken* parent = nullptr);

/// FNV-1a of a string as a jitter/fault stream id — the same hash the
/// scenario fingerprint uses, so "stream = fingerprint" is one call.
std::uint64_t stream_of(const std::string& text);

}  // namespace hmpt
