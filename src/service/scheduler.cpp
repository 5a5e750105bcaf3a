#include "service/scheduler.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "campaign/campaign.h"
#include "common/error.h"
#include "common/thread_name.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hmpt::service {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

const char* to_string(JobState state) {
  switch (state) {
    case JobState::Queued: return "queued";
    case JobState::Running: return "running";
    case JobState::Done: return "done";
    case JobState::Cached: return "cached";
    case JobState::Failed: return "failed";
    case JobState::Canceled: return "canceled";
  }
  return "?";
}

bool is_terminal(JobState state) {
  return state != JobState::Queued && state != JobState::Running;
}

Scheduler::Scheduler(ExecutionProvider& provider,
                     campaign::OutcomeStore store, SchedulerOptions options)
    : provider_(provider),
      store_(std::move(store)),
      options_(options),
      latency_(options_.max_latency_classes) {
  HMPT_REQUIRE(options_.workers >= 1, "scheduler needs >= 1 worker");
  HMPT_REQUIRE(options_.max_in_flight >= 1,
               "max_in_flight must be >= 1");
  HMPT_REQUIRE(options_.max_queue >= 1, "max_queue must be >= 1");
  options_.retry.validate();
}

Scheduler::~Scheduler() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
    // Unblock waiters: whatever is still queued will never run.
    for (const auto& job : queue_) {
      job->status.state = JobState::Canceled;
      ++tallies_.canceled;
      for (ClientId owner : job->owners) release_owner(owner);
      job->owners.clear();
    }
    queue_.clear();
  }
  // Reaches the attempts in flight (their tokens are its children) and the
  // backoff sleeps: teardown never waits out a retry schedule or a hang.
  stop_token_.cancel();
  dispatch_.notify_all();
  terminal_.notify_all();
  if (pump_.joinable()) pump_.join();
}

void Scheduler::start() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (started_) return;
  started_ = true;
  started_at_ = Clock::now();
  // Each parallel_for index is one long-lived worker lane pulling jobs
  // until shutdown; the pump thread is the calling lane.
  pump_ = std::thread([this] {
    set_current_thread_name("hmpt-pump");
    parallel_for(options_.workers,
                 static_cast<std::size_t>(options_.workers),
                 [this](std::size_t) { worker_loop(); });
  });
}

Scheduler::ClientId Scheduler::new_client() {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_client_++;
}

void Scheduler::client_gone(ClientId client) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [fingerprint, job] : jobs_) {
    (void)fingerprint;
    if (!is_terminal(job->status.state)) job->owners.erase(client);
  }
  in_flight_.erase(client);
}

std::size_t Scheduler::in_flight_of(ClientId client) const {
  const auto it = in_flight_.find(client);
  return it == in_flight_.end() ? 0 : it->second;
}

void Scheduler::charge_owner(ClientId client) { ++in_flight_[client]; }

void Scheduler::release_owner(ClientId client) {
  const auto it = in_flight_.find(client);
  if (it == in_flight_.end()) return;
  if (it->second <= 1)
    in_flight_.erase(it);
  else
    --it->second;
}

JobStatus Scheduler::submit(ClientId client,
                            const campaign::Scenario& scenario,
                            int priority, const JobLimits& limits,
                            bool* admitted_new) {
  return admit(client, scenario, priority, limits, /*replay=*/false,
               admitted_new);
}

JobStatus Scheduler::submit_replay(const campaign::Scenario& scenario,
                                   int priority, const JobLimits& limits) {
  return admit(/*client=*/0, scenario, priority, limits, /*replay=*/true);
}

JobStatus Scheduler::admit(ClientId client,
                           const campaign::Scenario& scenario,
                           int priority, const JobLimits& limits,
                           bool replay, bool* admitted_new) {
  const std::string fingerprint = scenario.fingerprint();
  if (admitted_new != nullptr) *admitted_new = false;
  static obs::Counter& submits = obs::metrics().counter("scheduler.submits");
  static obs::Counter& attached =
      obs::metrics().counter("scheduler.attached");
  static obs::Counter& cache_hits =
      obs::metrics().counter("scheduler.cache_hits");
  static obs::Counter& enqueued = obs::metrics().counter("scheduler.enqueued");
  static obs::Histogram& queue_depth =
      obs::metrics().histogram("scheduler.queue_depth");
  submits.add();
  std::optional<std::size_t> enqueued_depth;
  std::optional<JobStatus> cached_event;
  JobStatus snapshot;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (draining_ || stopping_)
      raise("draining: the scheduler is not admitting new work");

    const auto it = jobs_.find(fingerprint);
    if (it != jobs_.end() && !is_terminal(it->second->status.state)) {
      // Dedup: attach this client to the in-flight twin. The twin keeps
      // its original limits — the first submit's deadline/attempt budget
      // wins for a shared fingerprint.
      auto& job = it->second;
      if (!replay && job->owners.insert(client).second) {
        if (in_flight_of(client) >= static_cast<std::size_t>(
                                        options_.max_in_flight)) {
          job->owners.erase(client);
          raise("busy: client has " + std::to_string(in_flight_of(client)) +
                " jobs in flight (max " +
                std::to_string(options_.max_in_flight) + ")");
        }
        charge_owner(client);
      }
      attached.add();
      return job->status;
    }
    if (it != jobs_.end() &&
        (it->second->status.state == JobState::Done ||
         it->second->status.state == JobState::Cached)) {
      // Finished earlier in this process: a cache hit for this submit.
      snapshot = it->second->status;
      snapshot.state = JobState::Cached;
      cache_hits.add();
      return snapshot;
    }
    // Unknown (or Failed/Canceled, which resubmission retries): consult
    // the content-addressed store first — a hit is answered with zero
    // re-execution.
    if (it == jobs_.end() && store_.contains(scenario)) {
      auto job = std::make_shared<Job>();
      job->scenario = scenario;
      job->status.fingerprint = fingerprint;
      job->status.label = scenario.label();
      job->status.state = JobState::Cached;
      jobs_[fingerprint] = job;
      ++tallies_.cached;
      ++notifying_;
      snapshot = job->status;
      cached_event = snapshot;
      cache_hits.add();
    } else {
      if (!replay) {
        // Journal replay is exempt: every acked job must be re-admitted
        // on restart, however many the journal holds.
        if (queue_.size() >= options_.max_queue)
          raise("busy: queue is full (" +
                std::to_string(options_.max_queue) + " jobs)");
        if (in_flight_of(client) >=
            static_cast<std::size_t>(options_.max_in_flight))
          raise("busy: client has " + std::to_string(in_flight_of(client)) +
                " jobs in flight (max " +
                std::to_string(options_.max_in_flight) + ")");
      }
      auto job = std::make_shared<Job>();
      job->sequence = next_sequence_++;
      job->priority = priority;
      job->scenario = scenario;
      job->limits = limits;
      job->status.fingerprint = fingerprint;
      job->status.label = scenario.label();
      job->status.state = JobState::Queued;
      job->status.priority = priority;
      if (!replay) {
        job->owners.insert(client);
        charge_owner(client);
      }
      jobs_[fingerprint] = job;
      queue_.push_back(job);
      snapshot = job->status;
      if (admitted_new != nullptr) *admitted_new = true;
      enqueued_depth = queue_.size();
    }
  }
  if (enqueued_depth.has_value()) {
    enqueued.add();
    queue_depth.observe(static_cast<double>(*enqueued_depth));
    obs::trace_counter("scheduler", "queue_depth",
                       static_cast<double>(*enqueued_depth));
  }
  if (cached_event.has_value()) {
    // Store hits never reach a worker, so the completion event that watch
    // subscribers rely on is synthesised here.
    terminal_.notify_all();
    notify_subscribers(*cached_event);
    finished_notifying();
  } else {
    dispatch_.notify_one();
  }
  return snapshot;
}

std::shared_ptr<Scheduler::Job> Scheduler::next_job() {
  std::unique_lock<std::mutex> lock(mutex_);
  dispatch_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
  if (stopping_) return nullptr;

  // Highest priority first, FIFO (lowest sequence) within a priority.
  auto best = queue_.begin();
  for (auto it = std::next(queue_.begin()); it != queue_.end(); ++it) {
    if ((*it)->priority > (*best)->priority ||
        ((*it)->priority == (*best)->priority &&
         (*it)->sequence < (*best)->sequence))
      best = it;
  }
  auto job = *best;
  queue_.erase(best);
  job->status.state = JobState::Running;
  ++running_;
  const std::size_t depth = queue_.size();
  lock.unlock();

  static obs::Counter& dispatched =
      obs::metrics().counter("scheduler.dispatched");
  static obs::Histogram& queue_depth =
      obs::metrics().histogram("scheduler.queue_depth");
  dispatched.add();
  queue_depth.observe(static_cast<double>(depth));
  if (obs::trace_enabled()) {
    obs::trace_counter("scheduler", "queue_depth",
                       static_cast<double>(depth));
    obs::trace_instant(
        "scheduler", "dispatch",
        {obs::TraceArg("fingerprint", job->status.fingerprint),
         obs::TraceArg::number(
             "priority", static_cast<double>(job->status.priority))});
  }
  return job;
}

void Scheduler::worker_loop() {
  for (;;) {
    const auto job = next_job();
    if (!job) return;
    run_job(job);
  }
}

void Scheduler::run_job(const std::shared_ptr<Job>& job) {
  // Resolve the effective policy: the scheduler default, with the job's
  // submit-time overrides (attempt budget / total deadline) applied.
  RetryPolicy policy = options_.retry;
  if (job->limits.max_attempts > 0)
    policy.max_attempts = job->limits.max_attempts;
  if (job->limits.deadline_s >= 0.0)
    policy.total_deadline_s = job->limits.deadline_s;

  const auto executed = campaign::execute_and_store(
      job->scenario, job->status.fingerprint, store_, policy,
      [&](const CancelToken& token) {
        return provider_.run(job->scenario, token);
      },
      &stop_token_);
  busy_us_.fetch_add(static_cast<std::uint64_t>(executed.seconds * 1e6),
                     std::memory_order_relaxed);
  latency_.record_attempts(job->status.label, executed.attempts,
                           executed.timeouts);
  if (executed.ok()) latency_.record(job->status.label, executed.seconds);

  JobStatus snapshot;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job->status.state = executed.ok() ? JobState::Done : JobState::Failed;
    job->status.error = executed.error;
    job->status.seconds = executed.seconds;
    job->status.attempts = executed.attempts;
    --running_;
    ++(executed.ok() ? tallies_.done : tallies_.failed);
    tallies_.retries += static_cast<std::size_t>(executed.attempts - 1);
    tallies_.timeouts += static_cast<std::size_t>(executed.timeouts);
    ++notifying_;
    for (ClientId owner : job->owners) release_owner(owner);
    job->owners.clear();
    snapshot = job->status;
  }
  static obs::Counter& completed =
      obs::metrics().counter("scheduler.completed");
  completed.add();
  if (obs::trace_enabled())
    obs::trace_instant("scheduler", "complete",
                       {obs::TraceArg("fingerprint", snapshot.fingerprint),
                        obs::TraceArg("state", to_string(snapshot.state))});
  terminal_.notify_all();
  notify_subscribers(snapshot);
  finished_notifying();
}

void Scheduler::notify_subscribers(const JobStatus& status) {
  // Callbacks are serialised and run outside mutex_, so a subscriber may
  // freely call back into the scheduler (status(), outcome(), ...).
  std::lock_guard<std::mutex> lock(subscriber_mutex_);
  for (auto& [token, callback] : subscribers_) {
    (void)token;
    if (callback) callback(status);
  }
}

void Scheduler::finished_notifying() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    --notifying_;
  }
  terminal_.notify_all();
}

std::optional<JobStatus> Scheduler::status(
    const std::string& fingerprint) const {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = jobs_.find(fingerprint);
    if (it != jobs_.end()) return it->second->status;
  }
  // Not a job of this process — but a previous run may have stored it.
  if (store_.load_by_fingerprint(fingerprint, tuner::Rows::Skip)
          .has_value()) {
    JobStatus status;
    status.fingerprint = fingerprint;
    status.state = JobState::Cached;
    return status;
  }
  return std::nullopt;
}

std::optional<JobStatus> Scheduler::wait(const std::string& fingerprint) {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    const auto it = jobs_.find(fingerprint);
    if (it == jobs_.end()) {
      lock.unlock();
      return status(fingerprint);  // store-only (or unknown)
    }
    if (is_terminal(it->second->status.state)) return it->second->status;
    if (stopping_) return it->second->status;
    terminal_.wait(lock);
  }
}

bool Scheduler::cancel(const std::string& fingerprint) {
  JobStatus snapshot;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = jobs_.find(fingerprint);
    if (it == jobs_.end() ||
        it->second->status.state != JobState::Queued)
      return false;
    auto& job = it->second;
    queue_.erase(std::find(queue_.begin(), queue_.end(), job));
    job->status.state = JobState::Canceled;
    ++tallies_.canceled;
    ++notifying_;
    for (ClientId owner : job->owners) release_owner(owner);
    job->owners.clear();
    snapshot = job->status;
  }
  terminal_.notify_all();
  notify_subscribers(snapshot);
  finished_notifying();
  return true;
}

SchedulerCounts Scheduler::counts() const {
  std::lock_guard<std::mutex> lock(mutex_);
  SchedulerCounts counts = tallies_;
  counts.queued = queue_.size();
  counts.running = running_;
  counts.draining = draining_ || stopping_;
  counts.busy_seconds =
      static_cast<double>(busy_us_.load(std::memory_order_relaxed)) / 1e6;
  counts.uptime_seconds = started_ ? seconds_since(started_at_) : 0.0;
  return counts;
}

std::uint64_t Scheduler::subscribe(CompletionCallback callback) {
  std::lock_guard<std::mutex> lock(subscriber_mutex_);
  const std::uint64_t token = next_subscriber_++;
  subscribers_[token] = std::move(callback);
  return token;
}

void Scheduler::unsubscribe(std::uint64_t token) {
  std::lock_guard<std::mutex> lock(subscriber_mutex_);
  subscribers_.erase(token);
}

void Scheduler::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  draining_ = true;
  terminal_.wait(lock, [&] {
    return (queue_.empty() && running_ == 0 && notifying_ == 0) ||
           stopping_;
  });
}

bool Scheduler::draining() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return draining_ || stopping_;
}

void Scheduler::shutdown() {
  bool was_started = false;
  drain();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return;
    stopping_ = true;
    was_started = started_;
  }
  stop_token_.cancel();
  dispatch_.notify_all();
  terminal_.notify_all();
  if (was_started && pump_.joinable()) pump_.join();
}

}  // namespace hmpt::service
