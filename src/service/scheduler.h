// scheduler.h — the bounded job scheduler behind hmptd.
//
// Clients submit fingerprinted scenarios; the scheduler dispatches them
// to a bounded worker pool (common/thread_pool parallel_for lanes running
// a pull loop), persists every finished outcome through the campaign
// OutcomeStore and fans completions out to subscribers (the daemon's
// watch streams).
//
// Semantics:
//   * Content-addressed dedup. The scenario fingerprint is the job id. A
//     submit whose fingerprint is already in the OutcomeStore is answered
//     Cached with zero re-execution; one already queued/running attaches
//     the submitter to the existing job instead of enqueuing a twin.
//   * FIFO with priority. Dispatch picks the highest priority first and
//     is FIFO (submission order) within a priority.
//   * Admission control. Per-client max_in_flight (incomplete jobs a
//     client may own) and a global queue capacity; a submit over either
//     limit throws hmpt::Error — the daemon turns it into a structured
//     `busy` error and the client backs off.
//   * Fault tolerance (common/retry). Every job runs through the batch
//     runner's scenario executor under the scheduler's RetryPolicy,
//     overridable per job (JobLimits): a provider failure or timeout is
//     retried with deterministic exponential backoff, each attempt runs
//     under a CancelToken armed with the attempt deadline and the job's
//     remaining total budget, and a job that exhausts its budget is
//     reported Failed with the full attempt history. Terminal errors
//     ("terminal:", store determinism violations) never retry.
//   * Cancellation. Queued jobs can be cancelled; running providers are
//     never interrupted by `cancel` (it returns false once a job
//     started), but scheduler teardown cancels the stop token every
//     attempt token derives from, so cooperative providers stop promptly.
//   * Drain / shutdown. drain() stops admission and blocks until every
//     admitted job is terminal; shutdown() drains, then stops and joins
//     the workers. Outcomes are byte-identical to batch runs because the
//     provider executes the same code path and the same store writes.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "campaign/outcome_store.h"
#include "campaign/scenario.h"
#include "common/retry.h"
#include "service/latency_store.h"
#include "service/provider.h"

namespace hmpt::service {

/// Lifecycle of a job; Done/Cached/Failed/Canceled are terminal.
enum class JobState { Queued, Running, Done, Cached, Failed, Canceled };
/// The state's wire spelling ("queued", "running", "done", ...).
const char* to_string(JobState state);
bool is_terminal(JobState state);

/// Per-job overrides of the scheduler's retry policy, carried on the
/// submit. Unset fields (0 / negative) fall back to the policy default.
struct JobLimits {
  int max_attempts = 0;      ///< total attempts; 0 = policy default
  double deadline_s = -1.0;  ///< total wall-clock budget; < 0 = default

  bool operator==(const JobLimits&) const = default;
};

/// A point-in-time view of one job.
struct JobStatus {
  std::string fingerprint;
  std::string label;          ///< scenario class (workload/platform/strategy)
  JobState state = JobState::Queued;
  int priority = 0;
  std::string error;          ///< Failed: the attempt history
  double seconds = 0.0;       ///< provider wall time (terminal states)
  int attempts = 0;           ///< provider attempts made (terminal states)
};

/// Aggregate queue counters for `status` responses.
struct SchedulerCounts {
  std::size_t queued = 0;
  std::size_t running = 0;
  std::size_t done = 0;      ///< executed to completion this process
  std::size_t cached = 0;    ///< answered from the store without running
  std::size_t failed = 0;
  std::size_t canceled = 0;
  std::size_t retries = 0;   ///< provider attempts beyond each job's first
  std::size_t timeouts = 0;  ///< attempts that ended in a deadline expiry
  bool draining = false;
  /// Worker utilization: provider wall time summed across lanes, and the
  /// wall clock since start(). busy / (uptime * workers) is the fraction
  /// of lane capacity spent executing. Both 0 before start().
  double busy_seconds = 0.0;
  double uptime_seconds = 0.0;
};

struct SchedulerOptions {
  int workers = 1;                  ///< bounded worker pool size (>= 1)
  int max_in_flight = 256;          ///< per-client incomplete-job cap
  std::size_t max_queue = 4096;     ///< global queued-job capacity
  /// Latency-store class-map bound (LRU eviction past it; see
  /// service/latency_store.h). Evicted classes fall back to the overall
  /// tracker for ETA estimates.
  std::size_t max_latency_classes = LatencyStore::kDefaultMaxClasses;
  /// The failure model every job runs under (see common/retry.h). The
  /// default is one attempt, no deadline — fail-fast, exactly the
  /// pre-retry behaviour.
  RetryPolicy retry;
};

class Scheduler {
 public:
  /// A connection-scoped identity for admission accounting.
  using ClientId = std::uint64_t;
  /// Completion hook: fired exactly once per job reaching a terminal
  /// state, serialised (one callback at a time), from a worker thread.
  using CompletionCallback = std::function<void(const JobStatus&)>;

  /// The provider must outlive the scheduler.
  Scheduler(ExecutionProvider& provider, campaign::OutcomeStore store,
            SchedulerOptions options);
  /// Stops and joins the workers; queued jobs are marked Canceled and
  /// in-flight attempts are canceled (cooperative providers stop).
  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Spawn the worker lanes. Idempotent; submit() before start() queues.
  void start();

  /// Mint a fresh client identity (per accepted connection).
  ClientId new_client();
  /// Release a client's admission accounting (connection closed). Its
  /// jobs keep running — results are content-addressed, never orphaned.
  void client_gone(ClientId client);

  /// Admit one scenario. Returns the job's status snapshot: Cached when
  /// the store already holds the fingerprint (zero re-execution), else
  /// Queued/Running/terminal for an attached duplicate, else a fresh
  /// Queued job. Throws hmpt::Error when draining or over the admission
  /// limits (per-client max_in_flight, global queue capacity).
  /// `admitted_new`, when given, is set to whether this submit enqueued
  /// a fresh job — the signal the daemon's journal keys on: an attach or
  /// a cache hit is already covered (or needs no coverage), so
  /// journaling it would leave a submit record no terminal ever matches.
  JobStatus submit(ClientId client, const campaign::Scenario& scenario,
                   int priority = 0, const JobLimits& limits = {},
                   bool* admitted_new = nullptr);

  /// Journal-replay admission: like submit() but exempt from the
  /// per-client and queue-capacity limits — every journaled job must be
  /// re-admitted on restart, however many there are. Only call before
  /// serving clients (the daemon replays during startup).
  JobStatus submit_replay(const campaign::Scenario& scenario,
                          int priority = 0, const JobLimits& limits = {});

  /// Status of a known fingerprint (this process's jobs plus anything in
  /// the store, reported Cached); nullopt for never-seen fingerprints.
  std::optional<JobStatus> status(const std::string& fingerprint) const;

  /// Block until the fingerprint's job is terminal; nullopt when the
  /// fingerprint is unknown (and not in the store).
  std::optional<JobStatus> wait(const std::string& fingerprint);

  /// Cancel a queued job (true). Running/terminal/unknown: false.
  bool cancel(const std::string& fingerprint);

  SchedulerCounts counts() const;
  const LatencyStore& latency() const { return latency_; }
  const campaign::OutcomeStore& store() const { return store_; }
  const SchedulerOptions& options() const { return options_; }

  /// Subscribe to completion events; returns a token for unsubscribe().
  std::uint64_t subscribe(CompletionCallback callback);
  void unsubscribe(std::uint64_t token);

  /// Stop admitting (submit throws "draining") and block until every
  /// admitted job is terminal. Workers keep executing; safe to call from
  /// any non-worker thread, concurrently.
  void drain();
  bool draining() const;

  /// drain(), then stop and join the worker lanes. Idempotent.
  void shutdown();

 private:
  struct Job {
    std::uint64_t sequence = 0;  ///< FIFO order within a priority
    int priority = 0;
    campaign::Scenario scenario;
    JobLimits limits;
    JobStatus status;
    std::set<ClientId> owners;   ///< clients charged for this job
  };

  /// The shared submit path; `replay` bypasses admission accounting.
  JobStatus admit(ClientId client, const campaign::Scenario& scenario,
                  int priority, const JobLimits& limits, bool replay,
                  bool* admitted_new = nullptr);
  void worker_loop();
  /// Pop the next dispatchable job (highest priority, lowest sequence);
  /// null when stopping.
  std::shared_ptr<Job> next_job();
  /// Run one job through the scenario executor to Done or Failed.
  void run_job(const std::shared_ptr<Job>& job);
  void notify_subscribers(const JobStatus& status);
  /// Balance a ++notifying_: decrement and wake drain() waiters.
  void finished_notifying();
  // Admission accounting (mutex_ held): incomplete jobs per client.
  std::size_t in_flight_of(ClientId client) const;
  void charge_owner(ClientId client);
  void release_owner(ClientId client);

  ExecutionProvider& provider_;
  campaign::OutcomeStore store_;
  SchedulerOptions options_;
  LatencyStore latency_;

  mutable std::mutex mutex_;
  std::condition_variable dispatch_;   ///< workers wait for queued jobs
  std::condition_variable terminal_;   ///< wait()/drain() wait here
  std::deque<std::shared_ptr<Job>> queue_;          ///< submission order
  std::map<std::string, std::shared_ptr<Job>> jobs_;  ///< by fingerprint
  std::map<ClientId, std::size_t> in_flight_;  ///< admission accounting
  std::uint64_t next_sequence_ = 0;
  ClientId next_client_ = 1;
  SchedulerCounts tallies_;  ///< done/cached/failed/... accumulators
  std::size_t running_ = 0;
  /// Completion callbacks still in flight; drain() waits for zero so the
  /// `drained` reply never overtakes a watcher's last event.
  std::size_t notifying_ = 0;
  bool draining_ = false;
  bool stopping_ = false;
  bool started_ = false;
  /// Lane-busy accounting for utilization stats: microseconds of
  /// provider wall time, summed as jobs retire.
  std::atomic<std::uint64_t> busy_us_{0};
  std::chrono::steady_clock::time_point started_at_{};  ///< set by start()
  /// Canceled when the scheduler stops; attempt tokens are its children,
  /// so this stops running providers and backoff sleeps alike.
  CancelToken stop_token_;

  std::mutex subscriber_mutex_;  ///< serialises completion callbacks
  std::map<std::uint64_t, CompletionCallback> subscribers_;
  std::uint64_t next_subscriber_ = 1;

  std::thread pump_;  ///< drives parallel_for over the worker loops
};

}  // namespace hmpt::service
