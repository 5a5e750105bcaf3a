// Tests for the service layer: the bounded Scheduler (dedup, admission
// control, priority dispatch, cancellation, drain) over fake providers,
// byte-identity of daemon-written outcomes with batch campaign runs, the
// latency store, and an in-process Daemon exercised over a real
// Unix-domain socket — including malformed requests and a client that
// disconnects mid-watch.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "campaign/campaign.h"
#include "campaign/workload_registry.h"
#include "common/error.h"
#include "core/outcome_io.h"
#include "service/daemon.h"
#include "service/latency_store.h"
#include "service/protocol.h"
#include "service/provider.h"
#include "service/scheduler.h"
#include "service/socket.h"

namespace hmpt::service {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

/// A fresh store directory per test, removed on scope exit.
class StoreDir {
 public:
  explicit StoreDir(const std::string& name)
      : path_((fs::temp_directory_path() / name).string()) {
    fs::remove_all(path_);
  }
  ~StoreDir() { fs::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Distinct scenarios by varying repetitions (distinct fingerprints).
campaign::Scenario scenario_with_reps(int reps) {
  campaign::Scenario s;
  s.workload = campaign::parse_workload_spec("mg");
  s.platform = "xeon-max";
  s.strategy = "estimator";
  s.repetitions = reps;
  return s;
}

/// Counts run() calls; the resubmit-is-cached assertions hinge on it.
class CountingProvider : public ExecutionProvider {
 public:
  std::string name() const override { return "counting"; }
  tuner::TuningOutcome run(const campaign::Scenario& scenario,
                           const CancelToken&) override {
    ++runs;
    tuner::TuningOutcome outcome;
    outcome.strategy = scenario.strategy;
    outcome.workload = scenario.workload.name;
    outcome.num_groups = 1;
    outcome.weights = {{1.0}, 1.0, {1.0}, 1.0};
    outcome.baseline_time = 2.0;
    outcome.chosen_time = 1.0;  // a speedup of 2
    return outcome;
  }
  std::atomic<int> runs{0};
};

/// Blocks every run() until release() — makes queue states observable.
class GatedProvider : public CountingProvider {
 public:
  std::string name() const override { return "gated"; }
  tuner::TuningOutcome run(const campaign::Scenario& scenario,
                           const CancelToken& token) override {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      ++entered;
      entered_cv_.notify_all();
      cv_.wait(lock, [this] { return open_; });
    }
    return CountingProvider::run(scenario, token);
  }
  void release() {
    std::lock_guard<std::mutex> lock(mutex_);
    open_ = true;
    cv_.notify_all();
  }
  /// Wait until `n` run() calls are blocked inside the gate.
  void await_entered(int n) {
    std::unique_lock<std::mutex> lock(mutex_);
    entered_cv_.wait(lock, [&] { return entered >= n; });
  }
  int entered = 0;

 private:
  std::mutex mutex_;
  std::condition_variable cv_, entered_cv_;
  bool open_ = false;
};

class FailingProvider : public ExecutionProvider {
 public:
  std::string name() const override { return "failing"; }
  tuner::TuningOutcome run(const campaign::Scenario&,
                           const CancelToken&) override {
    raise("deliberate provider failure");
  }
};

/// Fails the first `failures` run() calls per fingerprint, then behaves
/// like CountingProvider — the retry-loop tests' workhorse.
class FlakyProvider : public CountingProvider {
 public:
  explicit FlakyProvider(int failures) : failures_(failures) {}
  std::string name() const override { return "flaky"; }
  tuner::TuningOutcome run(const campaign::Scenario& scenario,
                           const CancelToken& token) override {
    int attempt = 0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      attempt = ++attempts_[scenario.fingerprint()];
    }
    if (attempt <= failures_)
      raise("flaky failure on attempt " + std::to_string(attempt));
    return CountingProvider::run(scenario, token);
  }

 private:
  int failures_;
  std::mutex mutex_;
  std::map<std::string, int> attempts_;
};

/// Parks on the job's CancelToken until it expires — a cooperative hang,
/// for deadline tests.
class HangingProvider : public ExecutionProvider {
 public:
  std::string name() const override { return "hanging"; }
  tuner::TuningOutcome run(const campaign::Scenario&,
                           const CancelToken& token) override {
    while (token.sleep_for(3600.0)) {
    }
    token.check();
    raise("hang interrupted without cancel");  // unreachable
  }
};

// --------------------------------------------------------------- scheduler

TEST(SchedulerTest, ExecutesAndPersistsByteIdenticalToBatch) {
  StoreDir daemon_dir("hmpt_sched_store");
  StoreDir batch_dir("hmpt_batch_store");
  const auto scenario = scenario_with_reps(1);

  SimulatorProvider provider;
  Scheduler scheduler(provider, campaign::OutcomeStore(daemon_dir.path()),
                      {});
  scheduler.start();
  const auto client = scheduler.new_client();
  const auto submitted = scheduler.submit(client, scenario);
  EXPECT_EQ(submitted.state, JobState::Queued);
  const auto done = scheduler.wait(scenario.fingerprint());
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->state, JobState::Done);

  // The batch path: same execute, same store serialisation.
  const campaign::OutcomeStore batch_store(batch_dir.path());
  batch_store.save(scenario, campaign::CampaignRunner::execute(scenario));

  const auto read = [](const std::string& path) {
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
  };
  const auto daemon_bytes =
      read(scheduler.store().path_for(scenario));
  const auto batch_bytes = read(batch_store.path_for(scenario));
  ASSERT_FALSE(daemon_bytes.empty());
  EXPECT_EQ(daemon_bytes, batch_bytes);
}

TEST(SchedulerTest, ResubmitIsServedFromStoreWithZeroExecutions) {
  StoreDir dir("hmpt_sched_resubmit");
  const auto scenario = scenario_with_reps(1);
  CountingProvider provider;
  {
    Scheduler scheduler(provider, campaign::OutcomeStore(dir.path()), {});
    scheduler.start();
    const auto client = scheduler.new_client();
    scheduler.submit(client, scenario);
    scheduler.wait(scenario.fingerprint());
    EXPECT_EQ(provider.runs.load(), 1);

    // Same process: the terminal job answers the resubmit.
    const auto again = scheduler.submit(client, scenario);
    EXPECT_EQ(again.state, JobState::Cached);
    scheduler.shutdown();
  }
  EXPECT_EQ(provider.runs.load(), 1);

  // Fresh scheduler over the same store (daemon restart): still cached.
  Scheduler scheduler(provider, campaign::OutcomeStore(dir.path()), {});
  scheduler.start();
  const auto client = scheduler.new_client();
  const auto hit = scheduler.submit(client, scenario);
  EXPECT_EQ(hit.state, JobState::Cached);
  EXPECT_EQ(provider.runs.load(), 1);
  EXPECT_EQ(scheduler.counts().cached, 1u);
  const auto outcome =
      scheduler.store().load_by_fingerprint(scenario.fingerprint());
  ASSERT_TRUE(outcome.has_value());
  EXPECT_DOUBLE_EQ(outcome->speedup(), 2.0);
}

TEST(SchedulerTest, InFlightDuplicateAttachesInsteadOfTwinning) {
  StoreDir dir("hmpt_sched_dedup");
  const auto scenario = scenario_with_reps(1);
  GatedProvider provider;
  Scheduler scheduler(provider, campaign::OutcomeStore(dir.path()), {});
  scheduler.start();
  const auto a = scheduler.new_client();
  const auto b = scheduler.new_client();

  scheduler.submit(a, scenario);
  provider.await_entered(1);
  const auto attached = scheduler.submit(b, scenario);
  EXPECT_EQ(attached.state, JobState::Running);

  provider.release();
  scheduler.wait(scenario.fingerprint());
  EXPECT_EQ(provider.runs.load(), 1);  // one execution for two submitters
  EXPECT_EQ(scheduler.counts().done, 1u);
}

TEST(SchedulerTest, PerClientAdmissionCapRejectsWithBusy) {
  StoreDir dir("hmpt_sched_admission");
  GatedProvider provider;
  SchedulerOptions options;
  options.workers = 1;
  options.max_in_flight = 1;
  Scheduler scheduler(provider, campaign::OutcomeStore(dir.path()),
                      options);
  scheduler.start();
  const auto client = scheduler.new_client();

  scheduler.submit(client, scenario_with_reps(1));
  try {
    scheduler.submit(client, scenario_with_reps(2));
    FAIL() << "second submit should exceed max_in_flight=1";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("busy"), std::string::npos);
  }
  // Another client has its own allowance.
  const auto other = scheduler.new_client();
  EXPECT_NO_THROW(scheduler.submit(other, scenario_with_reps(2)));

  provider.release();
  scheduler.drain();
  // After drain the gate is admission itself, not the per-client cap.
  EXPECT_THROW(scheduler.submit(client, scenario_with_reps(3)), Error);
}

TEST(SchedulerTest, GlobalQueueCapacityRejectsWithBusy) {
  StoreDir dir("hmpt_sched_queuecap");
  GatedProvider provider;
  SchedulerOptions options;
  options.workers = 1;
  options.max_queue = 1;
  Scheduler scheduler(provider, campaign::OutcomeStore(dir.path()),
                      options);
  scheduler.start();
  const auto client = scheduler.new_client();

  scheduler.submit(client, scenario_with_reps(1));  // runs (gated)
  provider.await_entered(1);
  scheduler.submit(client, scenario_with_reps(2));  // fills the queue
  try {
    scheduler.submit(client, scenario_with_reps(3));
    FAIL() << "queue is at capacity";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("busy"), std::string::npos);
  }
  provider.release();
  scheduler.drain();
}

TEST(SchedulerTest, DispatchIsPriorityThenFifo) {
  StoreDir dir("hmpt_sched_priority");
  GatedProvider provider;
  SchedulerOptions options;
  options.workers = 1;
  Scheduler scheduler(provider, campaign::OutcomeStore(dir.path()),
                      options);
  scheduler.start();
  const auto client = scheduler.new_client();

  std::vector<std::string> completions;
  std::mutex order_mutex;
  scheduler.subscribe([&](const JobStatus& status) {
    std::lock_guard<std::mutex> lock(order_mutex);
    completions.push_back(status.fingerprint);
  });

  // Block the single worker so the queue orders deterministically.
  const auto gate = scenario_with_reps(1);
  scheduler.submit(client, gate);
  provider.await_entered(1);

  const auto low1 = scenario_with_reps(2);
  const auto low2 = scenario_with_reps(3);
  const auto high = scenario_with_reps(4);
  scheduler.submit(client, low1, /*priority=*/0);
  scheduler.submit(client, low2, /*priority=*/0);
  scheduler.submit(client, high, /*priority=*/5);

  provider.release();
  scheduler.drain();

  ASSERT_EQ(completions.size(), 4u);
  EXPECT_EQ(completions[0], gate.fingerprint());
  EXPECT_EQ(completions[1], high.fingerprint());   // priority first
  EXPECT_EQ(completions[2], low1.fingerprint());   // then FIFO
  EXPECT_EQ(completions[3], low2.fingerprint());
}

TEST(SchedulerTest, CancelRemovesQueuedButNotRunning) {
  StoreDir dir("hmpt_sched_cancel");
  GatedProvider provider;
  SchedulerOptions options;
  options.workers = 1;
  Scheduler scheduler(provider, campaign::OutcomeStore(dir.path()),
                      options);
  scheduler.start();
  const auto client = scheduler.new_client();

  const auto running = scenario_with_reps(1);
  const auto queued = scenario_with_reps(2);
  scheduler.submit(client, running);
  provider.await_entered(1);
  scheduler.submit(client, queued);

  EXPECT_FALSE(scheduler.cancel(running.fingerprint()));  // already running
  EXPECT_TRUE(scheduler.cancel(queued.fingerprint()));
  EXPECT_FALSE(scheduler.cancel(queued.fingerprint()));   // already terminal
  const auto status = scheduler.status(queued.fingerprint());
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, JobState::Canceled);

  provider.release();
  scheduler.drain();
  EXPECT_EQ(provider.runs.load(), 1);  // the canceled job never ran
  EXPECT_EQ(scheduler.counts().canceled, 1u);
}

TEST(SchedulerTest, FailedJobRecordsErrorAndResubmitRetries) {
  StoreDir dir("hmpt_sched_failure");
  FailingProvider provider;
  Scheduler scheduler(provider, campaign::OutcomeStore(dir.path()), {});
  scheduler.start();
  const auto client = scheduler.new_client();
  const auto scenario = scenario_with_reps(1);

  scheduler.submit(client, scenario);
  const auto failed = scheduler.wait(scenario.fingerprint());
  ASSERT_TRUE(failed.has_value());
  EXPECT_EQ(failed->state, JobState::Failed);
  EXPECT_NE(failed->error.find("deliberate provider failure"),
            std::string::npos);
  EXPECT_EQ(scheduler.store().load_by_fingerprint(scenario.fingerprint()),
            std::nullopt);

  // A failure is not cached: resubmitting re-enqueues.
  const auto retry = scheduler.submit(client, scenario);
  EXPECT_NE(retry.state, JobState::Cached);
  scheduler.wait(scenario.fingerprint());
  EXPECT_EQ(scheduler.counts().failed, 2u);
}

TEST(SchedulerTest, DrainCompletesAllAdmittedWorkAndStopsAdmission) {
  StoreDir dir("hmpt_sched_drain");
  CountingProvider provider;
  SchedulerOptions options;
  options.workers = 2;
  Scheduler scheduler(provider, campaign::OutcomeStore(dir.path()),
                      options);
  scheduler.start();
  const auto client = scheduler.new_client();
  for (int reps = 1; reps <= 6; ++reps)
    scheduler.submit(client, scenario_with_reps(reps));

  scheduler.drain();
  EXPECT_EQ(provider.runs.load(), 6);
  const auto counts = scheduler.counts();
  EXPECT_EQ(counts.done, 6u);
  EXPECT_EQ(counts.queued, 0u);
  EXPECT_EQ(counts.running, 0u);
  EXPECT_TRUE(counts.draining);
  EXPECT_THROW(scheduler.submit(client, scenario_with_reps(7)), Error);
}

TEST(SchedulerTest, CompletionSubscribersSeeEveryTerminalJob) {
  StoreDir dir("hmpt_sched_subs");
  CountingProvider provider;
  Scheduler scheduler(provider, campaign::OutcomeStore(dir.path()), {});
  scheduler.start();
  const auto client = scheduler.new_client();

  std::mutex mutex;
  std::vector<JobState> seen;
  const auto token = scheduler.subscribe([&](const JobStatus& status) {
    std::lock_guard<std::mutex> lock(mutex);
    seen.push_back(status.state);
  });

  scheduler.submit(client, scenario_with_reps(1));
  scheduler.wait(scenario_with_reps(1).fingerprint());
  // A store-served resubmit from a later client also fires an event (a
  // fresh scheduler over the same store, as after a daemon restart).
  scheduler.shutdown();

  Scheduler restarted(provider, campaign::OutcomeStore(dir.path()), {});
  restarted.start();
  std::atomic<int> cached_events{0};
  restarted.subscribe([&](const JobStatus& status) {
    if (status.state == JobState::Cached) ++cached_events;
  });
  restarted.submit(restarted.new_client(), scenario_with_reps(1));
  EXPECT_EQ(cached_events.load(), 1);

  scheduler.unsubscribe(token);
  std::lock_guard<std::mutex> lock(mutex);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], JobState::Done);
}

// ----------------------------------------------------------- retry loop

TEST(SchedulerRetryTest, TransientFailuresRetryToSuccess) {
  StoreDir dir("hmpt_sched_retry_ok");
  FlakyProvider provider(2);  // two failures, then clean
  SchedulerOptions options;
  options.retry.max_attempts = 3;
  options.retry.initial_backoff_s = 0.0;
  Scheduler scheduler(provider, campaign::OutcomeStore(dir.path()),
                      options);
  scheduler.start();
  const auto scenario = scenario_with_reps(1);

  scheduler.submit(scheduler.new_client(), scenario);
  const auto done = scheduler.wait(scenario.fingerprint());
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->state, JobState::Done) << done->error;
  EXPECT_EQ(done->attempts, 3);
  EXPECT_EQ(provider.runs.load(), 1);  // the clean run, post-failures
  const auto counts = scheduler.counts();
  EXPECT_EQ(counts.done, 1u);
  EXPECT_EQ(counts.retries, 2u);
  EXPECT_EQ(counts.timeouts, 0u);
  ASSERT_TRUE(scheduler.store()
                  .load_by_fingerprint(scenario.fingerprint())
                  .has_value());
}

TEST(SchedulerRetryTest, ExhaustedBudgetFailsWithTheFullHistory) {
  StoreDir dir("hmpt_sched_retry_fail");
  FailingProvider provider;
  SchedulerOptions options;
  options.retry.max_attempts = 3;
  options.retry.initial_backoff_s = 0.0;
  Scheduler scheduler(provider, campaign::OutcomeStore(dir.path()),
                      options);
  scheduler.start();
  const auto scenario = scenario_with_reps(1);

  scheduler.submit(scheduler.new_client(), scenario);
  const auto failed = scheduler.wait(scenario.fingerprint());
  ASSERT_TRUE(failed.has_value());
  EXPECT_EQ(failed->state, JobState::Failed);
  EXPECT_EQ(failed->attempts, 3);
  EXPECT_NE(failed->error.find("after 3 attempts"), std::string::npos);
  EXPECT_NE(failed->error.find("attempt 1: deliberate provider failure"),
            std::string::npos);
  EXPECT_NE(failed->error.find("attempt 3:"), std::string::npos);
  EXPECT_EQ(scheduler.counts().retries, 2u);
}

TEST(SchedulerRetryTest, SingleAttemptKeepsTheRawErrorText) {
  StoreDir dir("hmpt_sched_retry_raw");
  FailingProvider provider;
  Scheduler scheduler(provider, campaign::OutcomeStore(dir.path()), {});
  scheduler.start();
  const auto scenario = scenario_with_reps(1);

  scheduler.submit(scheduler.new_client(), scenario);
  const auto failed = scheduler.wait(scenario.fingerprint());
  ASSERT_TRUE(failed.has_value());
  // Fail-fast default: the pre-retry error format, no attempt framing.
  EXPECT_EQ(failed->error, "deliberate provider failure");
  EXPECT_EQ(failed->attempts, 1);
}

TEST(SchedulerRetryTest, PerJobDeadlineCancelsACooperativeHang) {
  StoreDir dir("hmpt_sched_retry_deadline");
  HangingProvider provider;
  Scheduler scheduler(provider, campaign::OutcomeStore(dir.path()), {});
  scheduler.start();
  const auto scenario = scenario_with_reps(1);

  JobLimits limits;
  limits.deadline_s = 0.05;  // total budget: one short attempt
  scheduler.submit(scheduler.new_client(), scenario, /*priority=*/0,
                   limits);
  const auto failed = scheduler.wait(scenario.fingerprint());
  ASSERT_TRUE(failed.has_value());
  EXPECT_EQ(failed->state, JobState::Failed);
  EXPECT_NE(failed->error.find("timeout:"), std::string::npos);
  EXPECT_EQ(scheduler.counts().timeouts, 1u);
}

TEST(SchedulerRetryTest, DestructionCancelsAnInFlightHangPromptly) {
  StoreDir dir("hmpt_sched_retry_teardown");
  HangingProvider provider;
  SchedulerOptions options;
  options.retry.max_attempts = 5;
  options.retry.initial_backoff_s = 1.0;  // teardown must not wait these out
  const auto start = std::chrono::steady_clock::now();
  {
    Scheduler scheduler(provider, campaign::OutcomeStore(dir.path()),
                        options);
    scheduler.start();
    scheduler.submit(scheduler.new_client(), scenario_with_reps(1));
    // Give the worker a moment to enter the hang, then tear down: the
    // destructor cancels the live attempt token and the backoff sleeps.
    // (shutdown() deliberately drains instead — a deadline-less hang is
    // the destructor's job to break.)
    std::this_thread::sleep_for(50ms);
  }
  const auto took = std::chrono::steady_clock::now() - start;
  EXPECT_LT(took, std::chrono::seconds(30));
}

// ----------------------------------------------------------- latency store

TEST(LatencyStoreTest, RecordsClassesAndEstimates) {
  LatencyStore store;
  EXPECT_DOUBLE_EQ(store.estimate_seconds("a"), 0.0);
  EXPECT_DOUBLE_EQ(store.eta_seconds(10, 2), 0.0);

  for (int i = 0; i < 100; ++i) store.record("a", 1.0);
  for (int i = 0; i < 100; ++i) store.record("b", 3.0);

  EXPECT_NEAR(store.estimate_seconds("a"), 1.0, 1e-9);
  EXPECT_NEAR(store.estimate_seconds("b"), 3.0, 1e-9);
  // Unknown class falls back to the overall median.
  const double unknown = store.estimate_seconds("c");
  EXPECT_GE(unknown, 1.0);
  EXPECT_LE(unknown, 3.0);

  const auto classes = store.snapshot();
  ASSERT_EQ(classes.size(), 2u);
  EXPECT_EQ(classes[0].scenario_class, "a");  // ordered by name
  EXPECT_EQ(classes[1].scenario_class, "b");
  EXPECT_EQ(classes[0].latency.count, 100u);

  // 4 jobs over 2 lanes at the overall median = 2 * p50.
  const double eta = store.eta_seconds(4, 2);
  EXPECT_NEAR(eta, 2.0 * store.overall().p50, 1e-9);
  EXPECT_GT(store.eta_seconds(5, 2), eta);  // ceil(5/2) = 3 waves
}

TEST(LatencyStoreTest, CapEvictsLeastRecentlyRecordedClass) {
  LatencyStore store(2);
  EXPECT_EQ(store.class_cap(), 2u);
  store.record("a", 1.0);
  store.record("b", 2.0);
  store.record("a", 1.0);  // refresh a: b becomes least recent
  EXPECT_EQ(store.evictions(), 0u);

  store.record("c", 3.0);  // over the cap: evicts b
  EXPECT_EQ(store.evictions(), 1u);
  auto classes = store.snapshot();
  ASSERT_EQ(classes.size(), 2u);
  EXPECT_EQ(classes[0].scenario_class, "a");
  EXPECT_EQ(classes[1].scenario_class, "c");

  // The evicted class estimates from the overall tracker, where its
  // samples stay counted.
  EXPECT_NEAR(store.estimate_seconds("b"), store.overall().p50, 1e-9);
  EXPECT_EQ(store.overall().count, 4u);

  // Re-recording an evicted class re-admits it (evicting the new LRU, a).
  store.record("b", 2.0);
  EXPECT_EQ(store.evictions(), 2u);
  classes = store.snapshot();
  ASSERT_EQ(classes.size(), 2u);
  EXPECT_EQ(classes[0].scenario_class, "b");
  EXPECT_EQ(classes[1].scenario_class, "c");
}

TEST(SchedulerTest, LatencyClassCapHoldsUnderADiverseJobStream) {
  StoreDir dir("hmpt_sched_latency_cap");
  SimulatorProvider provider;
  SchedulerOptions options;
  options.max_latency_classes = 1;
  Scheduler scheduler(provider, campaign::OutcomeStore(dir.path()),
                      options);
  scheduler.start();
  const auto client = scheduler.new_client();

  auto estimator = scenario_with_reps(1);
  auto online = scenario_with_reps(1);
  online.strategy = "online";  // a second scenario class
  scheduler.submit(client, estimator);
  scheduler.wait(estimator.fingerprint());
  scheduler.submit(client, online);
  scheduler.wait(online.fingerprint());

  const auto& latency = scheduler.latency();
  EXPECT_EQ(latency.class_cap(), 1u);
  EXPECT_EQ(latency.evictions(), 1u);
  const auto classes = latency.snapshot();
  ASSERT_EQ(classes.size(), 1u);
  EXPECT_EQ(classes[0].scenario_class, online.label());
  // The evicted class's sample still informs overall/ETA estimates.
  EXPECT_EQ(latency.overall().count, 2u);
}

// ------------------------------------------------------------------ daemon

/// A blocking NDJSON test client over the daemon's real socket.
class TestClient {
 public:
  explicit TestClient(const Endpoint& endpoint)
      : socket_(connect_to(endpoint)), reader_(socket_.fd()) {}

  ServerMessage call(const Request& request) {
    HMPT_REQUIRE(socket_.send_all(request.to_line()), "send failed");
    return read();
  }

  ServerMessage call_raw(const std::string& line) {
    HMPT_REQUIRE(socket_.send_all(line), "send failed");
    return read();
  }

  ServerMessage read() { return parse_server_message(read_line()); }

  /// The next response line, unparsed.
  std::string read_line() {
    std::string line;
    const auto status = reader_.next(line);
    HMPT_REQUIRE(status == LineReader::Status::Line,
                 "connection closed by daemon");
    return line;
  }

  Socket& socket() { return socket_; }

 private:
  Socket socket_;
  LineReader reader_;
};

class DaemonTest : public ::testing::Test {
 protected:
  DaemonTest() : store_dir_("hmpt_daemon_test") {}

  DaemonOptions options_for(ExecutionProvider*) {
    DaemonOptions options;
    options.endpoint.unix_path =
        (fs::temp_directory_path() / "hmpt_daemon_test.sock").string();
    options.store_dir = store_dir_.path();
    options.workers = 2;
    return options;
  }

  StoreDir store_dir_;
};

TEST_F(DaemonTest, MeasureJobsIsPinnedToOne) {
  // Kept for perfbench, which sets 1; measurement is serial, so any other
  // count is refused instead of ignored.
  auto options = options_for(nullptr);
  options.measure_jobs = 2;
  EXPECT_THROW(Daemon{options}, Error);
}

TEST_F(DaemonTest, SubmitStatusResultOverRealSocket) {
  CountingProvider provider;
  Daemon daemon(options_for(&provider), &provider);
  daemon.start();
  TestClient client(daemon.endpoint());

  const auto pong = client.call([] {
    Request r;
    r.op = Op::Ping;
    return r;
  }());
  EXPECT_TRUE(pong.ok);
  EXPECT_EQ(pong.body.at("provider").as_string(), "counting");

  const auto scenario = scenario_with_reps(1);
  Request submit;
  submit.op = Op::Submit;
  submit.scenario = scenario;
  const auto submitted = client.call(submit);
  ASSERT_TRUE(submitted.ok) << submitted.error;
  EXPECT_EQ(submitted.body.at("jobs")
                .as_array()
                .at(0)
                .at("fingerprint")
                .as_string(),
            scenario.fingerprint());

  Request result;
  result.op = Op::Result;
  result.fingerprint = scenario.fingerprint();
  result.wait = true;
  const auto reply = client.call(result);
  ASSERT_TRUE(reply.ok) << reply.error;
  const auto outcome = tuner::outcome_from_json(reply.body.at("outcome"));
  EXPECT_DOUBLE_EQ(outcome.speedup(), 2.0);
  EXPECT_EQ(provider.runs.load(), 1);

  // Resubmit: answered cached, still exactly one execution.
  const auto again = client.call(submit);
  ASSERT_TRUE(again.ok);
  EXPECT_EQ(again.body.at("jobs").as_array().at(0).at("state").as_string(),
            "cached");
  EXPECT_EQ(provider.runs.load(), 1);

  Request status;
  status.op = Op::Status;
  const auto counters = client.call(status);
  ASSERT_TRUE(counters.ok);
  EXPECT_DOUBLE_EQ(counters.body.at("done").as_number(), 1.0);

  // Unknown fingerprint: structured error, connection stays usable.
  Request unknown;
  unknown.op = Op::Result;
  unknown.fingerprint = "ffffffffffffffff";
  const auto missing = client.call(unknown);
  EXPECT_FALSE(missing.ok);
  EXPECT_NE(missing.error.find("unknown fingerprint"), std::string::npos);
  EXPECT_TRUE(client.call(status).ok);

  daemon.request_shutdown();
  EXPECT_TRUE(daemon.wait_for(10000));
}

TEST_F(DaemonTest, CampaignSubmitExpandsServerSide) {
  CountingProvider provider;
  Daemon daemon(options_for(&provider), &provider);
  daemon.start();
  TestClient client(daemon.endpoint());

  Request submit;
  submit.op = Op::Submit;
  submit.campaign_text =
      "workload mg\nstrategy exhaustive\nstrategy estimator\n";
  const auto reply = client.call(submit);
  ASSERT_TRUE(reply.ok) << reply.error;
  EXPECT_EQ(reply.body.at("jobs").as_array().size(), 2u);
  EXPECT_FALSE(reply.body.at("campaign").as_string().empty());

  Request drain;
  drain.op = Op::Drain;
  EXPECT_TRUE(client.call(drain).ok);
  EXPECT_EQ(provider.runs.load(), 2);

  daemon.request_shutdown();
  EXPECT_TRUE(daemon.wait_for(10000));
}

TEST_F(DaemonTest, MalformedRequestsGetStructuredErrorsNotCrashes) {
  CountingProvider provider;
  Daemon daemon(options_for(&provider), &provider);
  daemon.start();
  TestClient client(daemon.endpoint());

  for (const std::string line :
       {"not json\n", "{}\n", "{\"op\":\"nope\"}\n", "[1,2]\n",
        "{\"op\":\"result\"}\n"}) {
    const auto reply = client.call_raw(line);
    EXPECT_FALSE(reply.ok) << line;
    EXPECT_FALSE(reply.error.empty());
  }
  // An oversized line is rejected and the stream resyncs.
  const auto oversized = client.call_raw(
      "{\"pad\":\"" + std::string(kMaxLineBytes, 'x') + "\"}\n");
  EXPECT_FALSE(oversized.ok);
  EXPECT_NE(oversized.error.find("oversized"), std::string::npos);

  // The daemon survived it all; real work still lands.
  Request submit;
  submit.op = Op::Submit;
  submit.scenario = scenario_with_reps(1);
  ASSERT_TRUE(client.call(submit).ok);
  Request result;
  result.op = Op::Result;
  result.fingerprint = scenario_with_reps(1).fingerprint();
  result.wait = true;
  EXPECT_TRUE(client.call(result).ok);

  daemon.request_shutdown();
  EXPECT_TRUE(daemon.wait_for(10000));
}

TEST_F(DaemonTest, DeeplyNestedLineIsAnErrorNotAStackOverflow) {
  // A 200,000-byte line of '[' once overflowed the recursive parser's
  // stack and killed the daemon; now it is one more malformed request.
  CountingProvider provider;
  Daemon daemon(options_for(&provider), &provider);
  daemon.start();
  TestClient client(daemon.endpoint());

  const auto reply = client.call_raw(std::string(200000, '[') + "\n");
  EXPECT_FALSE(reply.ok);
  EXPECT_NE(reply.error.find("nesting deeper"), std::string::npos)
      << reply.error;
  Request ping;
  ping.op = Op::Ping;
  EXPECT_TRUE(client.call(ping).ok);
  TestClient fresh(daemon.endpoint());
  EXPECT_TRUE(fresh.call(ping).ok);

  daemon.request_shutdown();
  EXPECT_TRUE(daemon.wait_for(10000));
}

TEST_F(DaemonTest, WideObjectLineIsAnsweredPromptly) {
  // A one-line object of 200,000 keys once took minutes to parse (one
  // linear key lookup per insert) and pinned its connection thread; now
  // it is parsed in well under a second and answered like any request
  // without an op, and a repeated key is a parse error.
  CountingProvider provider;
  Daemon daemon(options_for(&provider), &provider);
  daemon.start();
  TestClient client(daemon.endpoint());

  std::string wide = "{";
  for (int i = 0; i < 200000; ++i)
    wide += (i ? ",\"k" : "\"k") + std::to_string(i) + "\":0";
  ASSERT_LT(wide.size() + 2, kMaxLineBytes);
  const auto start = std::chrono::steady_clock::now();
  const auto reply = client.call_raw(wide + "}\n");
  EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count(),
            10.0);
  EXPECT_FALSE(reply.ok);
  EXPECT_FALSE(reply.error.empty());

  const auto repeated = client.call_raw(wide + ",\"k5\":0}\n");
  EXPECT_FALSE(repeated.ok);
  EXPECT_NE(repeated.error.find("duplicate object key"), std::string::npos)
      << repeated.error;

  Request ping;
  ping.op = Op::Ping;
  EXPECT_TRUE(client.call(ping).ok);

  daemon.request_shutdown();
  EXPECT_TRUE(daemon.wait_for(10000));
}

TEST_F(DaemonTest, ResultPutsTheStoredOutcomeBytesOnTheWire) {
  // A real exhaustive sweep (columnar sweep, trajectory derived from it):
  // the `result` verb forwards the validated stored `outcome` subtree, so
  // the wire carries exactly the stored bytes.
  Daemon daemon(options_for(nullptr));
  daemon.start();
  TestClient client(daemon.endpoint());

  campaign::Scenario scenario;
  scenario.workload = campaign::parse_workload_spec("mg");
  scenario.platform = "spr-cxl";
  scenario.strategy = "exhaustive";
  scenario.tiers = 3;
  scenario.repetitions = 1;
  Request submit;
  submit.op = Op::Submit;
  submit.scenario = scenario;
  ASSERT_TRUE(client.call(submit).ok);

  Request result;
  result.op = Op::Result;
  result.fingerprint = scenario.fingerprint();
  result.wait = true;
  HMPT_REQUIRE(client.socket().send_all(result.to_line()), "send failed");
  const std::string line = client.read_line();
  ASSERT_TRUE(parse_server_message(line).ok) << line;

  const auto payload =
      campaign::OutcomeStore(store_dir_.path()).payload(scenario.fingerprint());
  ASSERT_TRUE(payload.has_value());
  const std::string key = "\"outcome\":";
  const auto stored_at = payload->find(key);
  const auto wire_at = line.find(key);
  ASSERT_NE(stored_at, std::string::npos);
  ASSERT_NE(wire_at, std::string::npos);
  // `outcome` closes both documents: the stored record's last byte and
  // the response's last byte (before the newline) close their objects.
  const std::string stored = payload->substr(
      stored_at + key.size(), payload->size() - stored_at - key.size() - 1);
  std::string wire = line.substr(wire_at + key.size());
  while (!wire.empty() && (wire.back() == '\n' || wire.back() == '\r'))
    wire.pop_back();
  ASSERT_FALSE(wire.empty());
  wire.pop_back();
  EXPECT_EQ(wire, stored);
  EXPECT_EQ(tuner::outcome_from_json(Json::parse(wire)).configs_measured, 27);

  daemon.request_shutdown();
  EXPECT_TRUE(daemon.wait_for(10000));
}

TEST_F(DaemonTest, WatchStreamsCompletionsAndSurvivesDisconnect) {
  GatedProvider provider;
  Daemon daemon(options_for(&provider), &provider);
  daemon.start();

  // Two watchers: one will disconnect mid-stream.
  TestClient watcher(daemon.endpoint());
  auto dropper =
      std::make_unique<TestClient>(daemon.endpoint());
  Request watch;
  watch.op = Op::Watch;
  ASSERT_TRUE(watcher.call(watch).ok);
  ASSERT_TRUE(dropper->call(watch).ok);

  TestClient submitter(daemon.endpoint());
  const auto first = scenario_with_reps(1);
  const auto second = scenario_with_reps(2);
  Request submit;
  submit.op = Op::Submit;
  submit.scenario = first;
  ASSERT_TRUE(submitter.call(submit).ok);
  submit.scenario = second;
  ASSERT_TRUE(submitter.call(submit).ok);

  // Drop one watcher while jobs are still gated, then let them finish:
  // the daemon must deliver both events to the surviving watcher.
  dropper.reset();
  provider.release();

  std::vector<std::string> seen;
  for (int i = 0; i < 2; ++i) {
    const auto event = watcher.read();
    ASSERT_TRUE(event.is_event);
    EXPECT_EQ(event.event, "job");
    EXPECT_EQ(event.body.at("state").as_string(), "done");
    EXPECT_TRUE(event.body.as_object().contains("speedup"));
    seen.push_back(event.body.at("fingerprint").as_string());
  }
  EXPECT_NE(std::find(seen.begin(), seen.end(), first.fingerprint()),
            seen.end());
  EXPECT_NE(std::find(seen.begin(), seen.end(), second.fingerprint()),
            seen.end());

  // Shutdown notifies the surviving watcher before closing.
  daemon.request_shutdown();
  EXPECT_TRUE(daemon.wait_for(10000));
  const auto bye = watcher.read();
  EXPECT_TRUE(bye.is_event);
  EXPECT_EQ(bye.event, "shutdown");
}

TEST_F(DaemonTest, DrainFinishesEverythingShutdownOpStopsTheDaemon) {
  CountingProvider provider;
  Daemon daemon(options_for(&provider), &provider);
  daemon.start();
  TestClient client(daemon.endpoint());

  Request submit;
  submit.op = Op::Submit;
  for (int reps = 1; reps <= 4; ++reps) {
    submit.scenario = scenario_with_reps(reps);
    ASSERT_TRUE(client.call(submit).ok);
  }
  Request drain;
  drain.op = Op::Drain;
  const auto drained = client.call(drain);
  ASSERT_TRUE(drained.ok);
  EXPECT_TRUE(drained.body.at("drained").as_bool());
  EXPECT_EQ(provider.runs.load(), 4);

  Request shutdown;
  shutdown.op = Op::Shutdown;
  EXPECT_TRUE(client.call(shutdown).ok);
  EXPECT_TRUE(daemon.wait_for(10000));
}

}  // namespace
}  // namespace hmpt::service
