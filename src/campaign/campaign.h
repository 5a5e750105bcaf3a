// campaign.h — the engine that runs a scenario fleet.
//
// Takes the expanded scenario list of a ScenarioMatrix and executes each
// scenario through the Session facade on a freshly-built platform
// simulator, with
//   * scenario-level concurrency (common/thread_pool parallel_for; each
//     scenario owns its simulator, so scenarios are independent),
//   * a resumable on-disk OutcomeStore — with `resume` set, scenarios
//     whose fingerprint is already stored load instead of executing,
//   * a dry-run mode that only plans (no execution, no store writes),
//   * keep-going vs fail-fast error policy.
// Results come back in scenario order whatever the concurrency, so
// aggregation (runs.csv, ranked summaries) is deterministic and a resumed
// campaign reproduces its artefacts byte-for-byte.
//
// CampaignRunner and the hmptd scheduler share one scenario executor,
// execute_and_store(): a batch run and a daemon job retry, store and
// fail alike.
//
// Scaling beyond one process: shard_scenarios (scenario.h) deals the
// campaign into disjoint slices, each run by its own CampaignRunner with
// its own store, and merge.h reassembles the stores losslessly.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "campaign/outcome_store.h"
#include "campaign/scenario.h"
#include "common/retry.h"
#include "core/strategy.h"

namespace hmpt::campaign {

struct CampaignOptions {
  std::string output_dir = "campaign-out";  ///< store + aggregate artefacts
  /// On-disk outcome store layout (see outcome_store.h): one file per
  /// scenario (dir, the default) or one append-only packed log for
  /// fleet-scale campaigns. Stored bytes are identical either way, and
  /// hmpt_merge converts between formats losslessly.
  StoreFormat store_format = StoreFormat::Dir;
  bool resume = false;    ///< skip scenarios already in the store
  bool dry_run = false;   ///< plan only: no execution, no writes
  /// Record failed scenarios and keep running (exit status reports them);
  /// false = fail fast, first error aborts the campaign.
  bool keep_going = false;
  /// Concurrent scenarios (1 = serial, 0 = all hardware threads).
  int scenario_jobs = 1;
  /// Kept only because perfbench sets it; must be 1, nothing reads it.
  int measure_jobs = 1;
  /// Execution attempts per scenario (>= 1; 1 = fail fast). Transient
  /// failures are retried with the same deterministic backoff the daemon
  /// scheduler uses (common/retry); terminal errors never retry.
  int attempts = 1;
  /// Per-attempt deadline in seconds; 0 = none. Enforcement is
  /// cooperative (checked at attempt boundaries): an expired deadline
  /// fails the attempt, and it is retried while attempts remain.
  double scenario_timeout_s = 0.0;
};

struct ScenarioRun {
  enum class Status {
    Planned,   ///< dry run: would execute
    Executed,  ///< ran and was stored
    Cached,    ///< loaded from the store (--resume hit)
    Failed,    ///< threw; error holds the message (keep-going only)
  };

  Scenario scenario;             ///< what ran (or would run)
  /// Content address captured when the scenario ran. Aggregation and
  /// manifests use this stored string, never a recomputed hash, so a
  /// recorded-profile file changing on disk after the run cannot re-key
  /// a finished scenario. Empty only for hand-built results (aggregation
  /// then falls back to recomputing).
  std::string fingerprint;
  Status status = Status::Planned;
  /// Valid for Executed/Cached: the headline only (chosen placement,
  /// times, counts). `table`, `trajectory` and `sweep` are empty — the
  /// outcome store holds the rows, and OutcomeStore::load reads them.
  tuner::TuningOutcome outcome;
  std::string error;             ///< valid for Failed
  double seconds = 0.0;          ///< wall time of the execution (0 otherwise)
  /// Execution attempts made (retries included); 0 for Planned/Cached.
  /// Volatile — lands in status.json, never in runs.csv/summary.json.
  int attempts = 0;
};

/// The status's artefact spelling ("planned"/"executed"/"cached"/"failed").
const char* to_string(ScenarioRun::Status status);

/// Everything a campaign run (or a shard merge) produced, in scenario
/// order whatever the concurrency — aggregation over it is deterministic.
/// It holds one headline per scenario, never a sweep, so its size does
/// not grow with the configuration space.
struct CampaignResult {
  std::vector<ScenarioRun> runs;  ///< scenario order
  int executed = 0;               ///< ran fresh and were stored
  int cached = 0;                 ///< served from the outcome store
  int failed = 0;                 ///< recorded failures (keep-going)
  int planned = 0;                ///< dry-run entries
  double seconds = 0.0;           ///< campaign wall time

  /// True when no scenario failed (planned/cached/executed all count as
  /// success).
  bool ok() const { return failed == 0; }
};

/// Progress hook: fired (serialised, from any worker) when a scenario
/// finishes. `index` is the position in the scenario list.
using ScenarioCallback =
    std::function<void(std::size_t index, const ScenarioRun& run)>;

/// What execute_and_store() did with one scenario.
struct ScenarioExecution {
  std::optional<tuner::TuningOutcome> outcome;  ///< stored; empty on failure
  /// On failure: the one attempt's error, or "after N attempts: attempt
  /// 1: <error> (0.12s); ..." when there were several.
  std::string error;
  int attempts = 0;      ///< attempts made, retries included
  int timeouts = 0;      ///< attempts that ended in a "timeout:" error
  double seconds = 0.0;  ///< wall time of every attempt and backoff

  bool ok() const { return outcome.has_value(); }
};

/// The scenario executor: run `body` under `policy` until an attempt
/// succeeds (the fingerprint seeds the jitter), each attempt in a
/// campaign/attempt span that checks the token first, then save the
/// outcome to `store` — a failed save fails the attempt. Counts
/// `scenario.retries` and `scenario.timeouts`. Cancelling `parent`
/// reaches the attempt in flight.
ScenarioExecution execute_and_store(
    const Scenario& scenario, const std::string& fingerprint,
    const OutcomeStore& store, const RetryPolicy& policy,
    const std::function<tuner::TuningOutcome(const CancelToken&)>& body,
    const CancelToken* parent = nullptr);

class CampaignRunner {
 public:
  /// Validates the options (job counts); opening the underlying store
  /// writes nothing until the first outcome is saved.
  explicit CampaignRunner(CampaignOptions options);

  /// The options this runner was built with.
  const CampaignOptions& options() const { return options_; }
  /// The outcome store under options().output_dir.
  const OutcomeStore& store() const { return store_; }

  /// Execute (or plan, or resume) the scenario list.
  CampaignResult run(const std::vector<Scenario>& scenarios,
                     const ScenarioCallback& on_scenario = {}) const;

  /// Execute one scenario end to end: build the platform, resolve the
  /// workload by name, tune through a Session. Public so single-scenario
  /// callers (tests, tools) share the exact campaign execution path.
  /// `measure_jobs` is kept only because perfbench passes 1; any other
  /// value throws.
  static tuner::TuningOutcome execute(const Scenario& scenario,
                                      int measure_jobs = 1);

 private:
  CampaignOptions options_;
  OutcomeStore store_;
};

}  // namespace hmpt::campaign
