#include "service/daemon.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "campaign/aggregate.h"
#include "common/error.h"
#include "common/thread_name.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hmpt::service {

namespace {

/// The spelling of a scheduler state on the wire.
std::string wire_state(JobState state) { return to_string(state); }

JsonObject job_fields(const JobStatus& status) {
  JsonObject fields;
  fields["fingerprint"] = Json(status.fingerprint);
  if (!status.label.empty()) fields["label"] = Json(status.label);
  fields["state"] = Json(wire_state(status.state));
  if (!status.error.empty()) fields["error"] = Json(status.error);
  if (status.attempts > 0) fields["attempts"] = Json(status.attempts);
  return fields;
}

/// A latency digest on the wire: "count" always, quantiles only when at
/// least one sample backs them (obs::snapshot_to_json; "_s" marks
/// seconds). An empty distribution reports {"count":0} — n=0, no
/// fabricated zero percentiles.
JsonObject snapshot_fields(
    const ConcurrentQuantileTracker::Snapshot& snapshot) {
  return obs::snapshot_to_json(snapshot, "_s");
}

}  // namespace

bool Daemon::Connection::send(const std::string& line) {
  if (dead.load(std::memory_order_relaxed)) return false;
  std::lock_guard<std::mutex> lock(write_mutex);
  if (!socket.send_all(line)) {
    // The peer went away (mid-watch disconnects land here): mark the
    // connection dead and let its reader thread tear it down.
    dead.store(true, std::memory_order_relaxed);
    return false;
  }
  return true;
}

Daemon::Daemon(DaemonOptions options, ExecutionProvider* provider)
    : options_(std::move(options)) {
  if (provider == nullptr) {
    owned_provider_ =
        std::make_unique<SimulatorProvider>(options_.measure_jobs);
    provider = owned_provider_.get();
  }
  provider_ = provider;
  SchedulerOptions scheduler_options;
  scheduler_options.workers = options_.workers;
  scheduler_options.max_in_flight = options_.max_in_flight;
  scheduler_options.max_queue = options_.max_queue;
  scheduler_options.max_latency_classes = options_.latency_classes;
  scheduler_options.retry = options_.retry;
  scheduler_ = std::make_unique<Scheduler>(
      *provider_, campaign::OutcomeStore(options_.store_dir),
      scheduler_options);
}

Daemon::~Daemon() {
  request_shutdown();
  if (started_) wait_for(-1);
}

void Daemon::start() {
  HMPT_REQUIRE(!started_, "daemon already started");
  ignore_sigpipe();

  if (!options_.journal_path.empty()) {
    // Recover before opening the journal for appending: the previous
    // run's acked-but-unfinished jobs are re-admitted (finished ones are
    // store hits), then every completion — replayed or fresh — appends a
    // terminal record.
    obs::TraceSpan replay_span("daemon", "journal_replay");
    const auto replay = JobJournal::replay(options_.journal_path);
    journal_ = std::make_unique<JobJournal>(options_.journal_path);
    journal_token_ = scheduler_->subscribe([this](const JobStatus& status) {
      try {
        journal_->record_terminal(status.fingerprint, status.state);
      } catch (const std::exception&) {
        // Best-effort: a lost terminal record only costs a redundant
        // (store-hit) replay on the next restart — never fail the job.
      }
    });
    for (const auto& job : replay.pending) {
      scheduler_->submit_replay(job.scenario, job.priority, job.limits);
      ++replayed_jobs_;
    }
    replay_span.arg_number("replayed",
                           static_cast<std::uint64_t>(replayed_jobs_));
    obs::metrics()
        .counter("daemon.replayed")
        .add(static_cast<std::uint64_t>(replayed_jobs_));
  }

  listener_ = Listener::listen(options_.endpoint);
  bound_ = listener_->endpoint();
  scheduler_->start();
  started_ = true;
  accept_thread_ = std::thread([this] {
    set_current_thread_name("hmpt-accept");
    accept_loop();
  });
  if (!options_.metrics_path.empty())
    metrics_thread_ = std::thread([this] {
      set_current_thread_name("hmpt-metrics");
      metrics_loop();
    });
}

const Endpoint& Daemon::endpoint() const {
  return started_ ? bound_ : options_.endpoint;
}

void Daemon::request_shutdown() {
  {
    std::lock_guard<std::mutex> lock(lifecycle_mutex_);
    stop_requested_ = true;
  }
  lifecycle_.notify_all();
}

bool Daemon::wait_for(int timeout_ms) {
  std::unique_lock<std::mutex> lock(lifecycle_mutex_);
  const auto requested = [this] { return stop_requested_; };
  if (timeout_ms < 0) {
    lifecycle_.wait(lock, requested);
  } else if (!lifecycle_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                                  requested)) {
    return false;
  }
  if (stopped_) return true;
  if (tearing_down_) {
    // Another waiter is tearing down; wait for it to finish.
    lifecycle_.wait(lock, [this] { return stopped_; });
    return true;
  }
  tearing_down_ = true;
  lock.unlock();
  teardown();
  lock.lock();
  stopped_ = true;
  lifecycle_.notify_all();
  return true;
}

void Daemon::teardown() {
  // Stop accepting, finish every admitted job, then disconnect. Order
  // matters: the scheduler drains before sockets die so watchers see
  // their last completions, then the shutdown event, then EOF.
  // The accept thread polls the listener and re-checks the stop flag
  // every 200 ms: join it before closing the socket it is polling.
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listener_.has_value()) listener_->close();
  if (metrics_thread_.joinable()) metrics_thread_.join();
  scheduler_->shutdown();
  // One last snapshot after the drain so short-lived daemons (lifetime <
  // one interval) still leave a complete metrics file behind.
  if (!options_.metrics_path.empty()) write_metrics_snapshot();
  broadcast_event(event_line("shutdown"));
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    for (const auto& connection : connections_)
      connection->socket.shutdown_both();
  }
  for (auto& handler : handlers_)
    if (handler.joinable()) handler.join();
  handlers_.clear();
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    connections_.clear();
  }
}

void Daemon::accept_loop() {
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(lifecycle_mutex_);
      if (stop_requested_) return;
    }
    auto accepted = listener_->accept_for(200);
    if (!accepted.has_value()) continue;  // timeout: re-check the stop flag
    auto connection = std::make_shared<Connection>();
    connection->socket = std::move(*accepted);
    connection->client = scheduler_->new_client();
    {
      std::lock_guard<std::mutex> lock(connections_mutex_);
      connections_.push_back(connection);
      const std::uint64_t conn_id = ++next_conn_;
      handlers_.emplace_back([this, connection, conn_id] {
        set_current_thread_name("hmpt-conn-" + std::to_string(conn_id));
        handle_connection(connection);
      });
    }
  }
}

void Daemon::handle_connection(
    const std::shared_ptr<Connection>& connection) {
  LineReader reader(connection->socket.fd());
  std::string line;
  for (;;) {
    const auto status = reader.next(line);
    if (status == LineReader::Status::Oversized) {
      connection->send(error_line(
          "oversized request (limit " + std::to_string(kMaxLineBytes) +
          " bytes per line)"));
      continue;
    }
    if (status != LineReader::Status::Line) break;  // EOF or read error
    if (connection->dead.load(std::memory_order_relaxed)) break;
    handle_request(connection, line);
  }
  if (connection->watching.load(std::memory_order_relaxed))
    scheduler_->unsubscribe(connection->subscriber_token);
  scheduler_->client_gone(connection->client);
  connection->dead.store(true, std::memory_order_relaxed);
}

void Daemon::handle_request(const std::shared_ptr<Connection>& connection,
                            const std::string& line) {
  Request request;
  try {
    request = parse_request(line);
  } catch (const std::exception& e) {
    // Malformed input gets a structured error, never a dead daemon.
    connection->send(error_line(e.what()));
    return;
  }

  try {
    switch (request.op) {
      case Op::Submit:
        handle_submit(connection, request);
        break;
      case Op::Status: {
        if (request.fingerprint.empty()) {
          const auto counts = scheduler_->counts();
          JsonObject fields;
          fields["queued"] =
              Json(static_cast<std::uint64_t>(counts.queued));
          fields["running"] =
              Json(static_cast<std::uint64_t>(counts.running));
          fields["done"] = Json(static_cast<std::uint64_t>(counts.done));
          fields["cached"] =
              Json(static_cast<std::uint64_t>(counts.cached));
          fields["failed"] =
              Json(static_cast<std::uint64_t>(counts.failed));
          fields["canceled"] =
              Json(static_cast<std::uint64_t>(counts.canceled));
          fields["retries"] =
              Json(static_cast<std::uint64_t>(counts.retries));
          fields["timeouts"] =
              Json(static_cast<std::uint64_t>(counts.timeouts));
          fields["draining"] = Json(counts.draining);
          connection->send(ok_line(Op::Status, std::move(fields)));
          break;
        }
        const auto status = scheduler_->status(request.fingerprint);
        if (!status.has_value()) {
          connection->send(error_line(
              "unknown fingerprint: " + request.fingerprint,
              to_string(Op::Status)));
          break;
        }
        connection->send(ok_line(Op::Status, job_fields(*status)));
        break;
      }
      case Op::Result:
        handle_result(connection, request);
        break;
      case Op::Watch:
        start_watch(connection);
        break;
      case Op::Stats: {
        connection->send(ok_line(Op::Stats, stats_fields()));
        break;
      }
      case Op::Cancel: {
        if (scheduler_->cancel(request.fingerprint)) {
          JsonObject fields;
          fields["fingerprint"] = Json(request.fingerprint);
          connection->send(ok_line(Op::Cancel, std::move(fields)));
        } else {
          connection->send(error_line(
              "cannot cancel " + request.fingerprint +
                  " (only queued jobs are cancelable)",
              to_string(Op::Cancel)));
        }
        break;
      }
      case Op::Drain: {
        scheduler_->drain();
        broadcast_event(event_line("drained"));
        JsonObject fields;
        fields["drained"] = Json(true);
        connection->send(ok_line(Op::Drain, std::move(fields)));
        break;
      }
      case Op::Shutdown: {
        connection->send(ok_line(Op::Shutdown));
        request_shutdown();
        break;
      }
      case Op::Ping: {
        JsonObject fields;
        fields["protocol"] = Json(kProtocolVersion);
        fields["provider"] = Json(provider_->name());
        connection->send(ok_line(Op::Ping, std::move(fields)));
        break;
      }
    }
  } catch (const std::exception& e) {
    connection->send(error_line(e.what(), to_string(request.op)));
  }
}

void Daemon::handle_submit(const std::shared_ptr<Connection>& connection,
                           const Request& request) {
  std::vector<campaign::Scenario> scenarios;
  std::string campaign_fp;
  if (request.scenario.has_value()) {
    scenarios.push_back(*request.scenario);
  } else {
    // A whole campaign matrix, expanded server-side exactly as
    // hmpt_campaign expands it (same grammar, same axis defaults).
    scenarios =
        campaign::ScenarioMatrix::parse(request.campaign_text).expand();
    campaign_fp = campaign::campaign_fingerprint(scenarios);
  }

  JobLimits limits;
  limits.deadline_s = request.deadline_s;
  limits.max_attempts = request.attempts;

  JsonArray jobs;
  for (const auto& scenario : scenarios) {
    // An admission rejection mid-campaign aborts the rest: the response
    // reports what was admitted so the client can back off and resubmit
    // the remainder (fingerprints make resubmission idempotent).
    bool admitted_new = false;
    const auto status = scheduler_->submit(connection->client, scenario,
                                           request.priority, limits,
                                           &admitted_new);
    // Durability point: the submit record is fsync'd before the ack. A
    // journal failure throws — the client gets an error, never an ack
    // the journal cannot back. (The job may still run; resubmitting is
    // idempotent via the fingerprint.) Only freshly enqueued jobs are
    // journaled: an attach is covered by the in-flight job's original
    // record and a cache hit needs no coverage — journaling either
    // would strand a submit record no terminal ever balances.
    if (journal_ != nullptr && admitted_new)
      journal_->record_submit(scenario, request.priority, limits);
    jobs.push_back(Json(job_fields(status)));
  }

  JsonObject fields;
  if (!campaign_fp.empty()) fields["campaign"] = Json(campaign_fp);
  fields["jobs"] = Json(std::move(jobs));
  connection->send(ok_line(Op::Submit, std::move(fields)));
}

void Daemon::handle_result(const std::shared_ptr<Connection>& connection,
                           const Request& request) {
  auto status = scheduler_->status(request.fingerprint);
  if (status.has_value() && !is_terminal(status->state)) {
    if (request.wait)
      status = scheduler_->wait(request.fingerprint);
    else {
      JsonObject fields;
      fields["state"] = Json(wire_state(status->state));
      connection->send(error_line("pending: " + request.fingerprint,
                                  to_string(Op::Result), std::move(fields)));
      return;
    }
  }
  if (!status.has_value()) {
    connection->send(error_line(
        "unknown fingerprint: " + request.fingerprint,
        to_string(Op::Result)));
    return;
  }
  if (status->state == JobState::Failed ||
      status->state == JobState::Canceled) {
    JsonObject fields;
    fields["state"] = Json(wire_state(status->state));
    connection->send(error_line(
        status->error.empty() ? wire_state(status->state) : status->error,
        to_string(Op::Result), std::move(fields)));
    return;
  }
  // The store validates the record (one parse, range-checked decode) and
  // hands back its `outcome` subtree, which goes on the wire as stored —
  // no round trip through TuningOutcome.
  auto outcome = scheduler_->store().load_outcome_json(request.fingerprint);
  if (!outcome.has_value()) {
    connection->send(error_line(
        "outcome missing from store for " + request.fingerprint,
        to_string(Op::Result)));
    return;
  }
  JsonObject fields = job_fields(*status);
  fields["outcome"] = std::move(*outcome);
  connection->send(ok_line(Op::Result, std::move(fields)));
}

void Daemon::start_watch(const std::shared_ptr<Connection>& connection) {
  if (connection->watching.exchange(true)) {
    connection->send(ok_line(Op::Watch));  // idempotent re-subscribe
    return;
  }
  // Acknowledge before subscribing so the client never sees an event
  // ahead of the response on this connection.
  connection->send(ok_line(Op::Watch));
  std::weak_ptr<Connection> weak = connection;
  connection->subscriber_token =
      scheduler_->subscribe([this, weak](const JobStatus& status) {
        const auto subscriber = weak.lock();
        if (!subscriber ||
            subscriber->dead.load(std::memory_order_relaxed))
          return;
        JsonObject extra;
        if (status.state == JobState::Done ||
            status.state == JobState::Cached) {
          // The event carries the headline's speedup: the record is
          // validated, its rows not kept.
          if (const auto outcome = scheduler_->store().load_by_fingerprint(
                  status.fingerprint, tuner::Rows::Skip))
            extra["speedup"] = Json(outcome->speedup());
        }
        if (!status.error.empty()) extra["error"] = Json(status.error);
        // A failed send marks the connection dead; its reader thread
        // unsubscribes. Never fatal to the daemon.
        subscriber->send(job_event_line(status.fingerprint, status.label,
                                        wire_state(status.state),
                                        status.seconds, std::move(extra)));
      });
}

JsonObject Daemon::stats_fields() const {
  const auto counts = scheduler_->counts();
  const auto& latency = scheduler_->latency();
  JsonObject fields;
  fields["workers"] = Json(options_.workers);
  fields["queued"] = Json(static_cast<std::uint64_t>(counts.queued));
  fields["running"] = Json(static_cast<std::uint64_t>(counts.running));
  fields["retries"] = Json(static_cast<std::uint64_t>(counts.retries));
  fields["timeouts"] = Json(static_cast<std::uint64_t>(counts.timeouts));
  fields["eta_s"] = Json(latency.eta_seconds(
      counts.queued + counts.running, options_.workers));

  // Worker utilization: provider wall time across the lanes against the
  // lane-seconds available since start().
  JsonObject utilization;
  utilization["busy_s"] = Json(counts.busy_seconds);
  utilization["uptime_s"] = Json(counts.uptime_seconds);
  const double capacity =
      counts.uptime_seconds * static_cast<double>(options_.workers);
  utilization["busy_fraction"] =
      Json(capacity > 0.0
               ? std::min(counts.busy_seconds / capacity, 1.0)
               : 0.0);
  fields["utilization"] = Json(std::move(utilization));

  // Queue depth over time: the distribution of depths observed at every
  // enqueue and dispatch (obs histogram), not just the instant value.
  fields["queue_depth"] = Json(obs::snapshot_to_json(
      obs::metrics().histogram("scheduler.queue_depth").snapshot()));

  // Cache effectiveness: scheduler-level store hits (submits answered
  // without execution) and the simulator timing cache's hit ratio.
  JsonObject cache;
  cache["store_hits"] = Json(static_cast<std::uint64_t>(counts.cached));
  cache["executed"] = Json(static_cast<std::uint64_t>(counts.done));
  const std::uint64_t timer_hits =
      obs::metrics().counter("timer.hits").value();
  const std::uint64_t timer_misses =
      obs::metrics().counter("timer.misses").value();
  cache["timer_hits"] = Json(timer_hits);
  cache["timer_misses"] = Json(timer_misses);
  if (timer_hits + timer_misses > 0)
    cache["timer_hit_ratio"] =
        Json(static_cast<double>(timer_hits) /
             static_cast<double>(timer_hits + timer_misses));
  fields["cache"] = Json(std::move(cache));

  fields["overall"] = Json(snapshot_fields(latency.overall()));
  JsonArray classes;
  for (const auto& entry : latency.snapshot()) {
    JsonObject cls;
    cls["class"] = Json(entry.scenario_class);
    for (const auto& [key, value] : snapshot_fields(entry.latency))
      cls[key] = value;
    cls["attempts"] = Json(entry.attempts);
    cls["retries"] = Json(entry.retries);
    cls["timeouts"] = Json(entry.timeouts);
    classes.push_back(Json(std::move(cls)));
  }
  fields["classes"] = Json(std::move(classes));
  // The class map is bounded (LRU); surface the cap and how many
  // classes have been evicted so a capped `stats` view is visibly
  // capped rather than silently incomplete.
  fields["class_cap"] =
      Json(static_cast<std::uint64_t>(latency.class_cap()));
  fields["class_evictions"] =
      Json(static_cast<std::uint64_t>(latency.evictions()));
  // The whole registry last: every counter/gauge/histogram any subsystem
  // recorded this process, name-sorted.
  fields["metrics"] = obs::metrics().snapshot();
  return fields;
}

void Daemon::write_metrics_snapshot() const {
  try {
    campaign::publish_file(options_.metrics_path, [&](std::ostream& os) {
      os << Json(stats_fields()).dump() << "\n";
    });
  } catch (const std::exception&) {
    // Best-effort by contract: a full disk or a bad path costs the
    // snapshot, never a job or the daemon.
  }
}

void Daemon::metrics_loop() {
  const auto interval = std::chrono::milliseconds(static_cast<long>(
      std::max(options_.metrics_interval_s, 0.05) * 1000.0));
  std::unique_lock<std::mutex> lock(lifecycle_mutex_);
  for (;;) {
    const bool stopping = lifecycle_.wait_for(
        lock, interval, [this] { return stop_requested_; });
    lock.unlock();
    write_metrics_snapshot();
    if (stopping) return;
    lock.lock();
  }
}

void Daemon::broadcast_event(const std::string& line) {
  std::vector<std::shared_ptr<Connection>> watchers;
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    for (const auto& connection : connections_)
      if (connection->watching.load(std::memory_order_relaxed) &&
          !connection->dead.load(std::memory_order_relaxed))
        watchers.push_back(connection);
  }
  for (const auto& watcher : watchers) watcher->send(line);
}

}  // namespace hmpt::service
