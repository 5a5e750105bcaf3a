// fault_test.cpp — the fault-tolerance stack end to end: the FaultSpec
// grammar, deterministic affliction, the scheduler's retry loop draining
// injected transient failures and timeouts, the crash-safe job journal's
// count-based replay rule, and a daemon restart that replays journaled
// jobs to completion.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "campaign/campaign.h"
#include "campaign/outcome_store.h"
#include "campaign/workload_registry.h"
#include "common/error.h"
#include "common/retry.h"
#include "service/daemon.h"
#include "service/fault.h"
#include "service/journal.h"
#include "service/provider.h"
#include "service/scheduler.h"

namespace hmpt::service {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  explicit TempDir(const std::string& name)
      : path_((fs::temp_directory_path() / name).string()) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

campaign::Scenario scenario_with_reps(int reps) {
  campaign::Scenario s;
  s.workload = campaign::parse_workload_spec("mg");
  s.platform = "xeon-max";
  s.strategy = "estimator";
  s.repetitions = reps;
  return s;
}

/// A retry policy tuned for tests: generous attempts, no real sleeping.
RetryPolicy fast_retries(int attempts) {
  RetryPolicy policy;
  policy.max_attempts = attempts;
  policy.initial_backoff_s = 0.0;
  return policy;
}

// --------------------------------------------------------------- FaultSpec

TEST(FaultSpecTest, ParsesTheFullGrammar) {
  const auto spec = FaultSpec::parse(
      "seed=7,fail=0.3:2,timeout=0.25:1,slow=0.5:0.01,corrupt=0.1,"
      "crash-after=42");
  EXPECT_EQ(spec.seed, 7u);
  EXPECT_DOUBLE_EQ(spec.fail_p, 0.3);
  EXPECT_EQ(spec.fail_attempts, 2);
  EXPECT_DOUBLE_EQ(spec.timeout_p, 0.25);
  EXPECT_EQ(spec.timeout_attempts, 1);
  EXPECT_DOUBLE_EQ(spec.slow_p, 0.5);
  EXPECT_DOUBLE_EQ(spec.slow_s, 0.01);
  EXPECT_DOUBLE_EQ(spec.corrupt_p, 0.1);
  EXPECT_EQ(spec.crash_after, 42);
  EXPECT_TRUE(spec.any());

  // canonical() round-trips through parse().
  const auto again = FaultSpec::parse(spec.canonical());
  EXPECT_EQ(again.canonical(), spec.canonical());
}

TEST(FaultSpecTest, EmptySpecArmsNothing) {
  const auto spec = FaultSpec::parse("");
  EXPECT_FALSE(spec.any());
  EXPECT_FALSE(FaultSpec::parse("seed=9").any());
}

TEST(FaultSpecTest, RejectsMalformedInput) {
  EXPECT_THROW(FaultSpec::parse("unknown=1"), Error);
  EXPECT_THROW(FaultSpec::parse("fail=1.5:1"), Error);   // P outside [0,1]
  EXPECT_THROW(FaultSpec::parse("fail=0.5:0"), Error);   // N must be >= 1
  EXPECT_THROW(FaultSpec::parse("slow=0.5:-1"), Error);  // S must be > 0
  EXPECT_THROW(FaultSpec::parse("seed=notanumber"), Error);
  EXPECT_THROW(FaultSpec::parse("crash-after=-2"), Error);
  EXPECT_THROW(FaultSpec::parse("fail"), Error);         // no '='
}

TEST(FaultSpecTest, AfflictionIsDeterministicPerFingerprint) {
  SimulatorProvider inner;
  const auto spec = FaultSpec::parse("seed=3,fail=0.5:1");
  FaultInjectingProvider a(inner, spec);
  FaultInjectingProvider b(inner, spec);

  int afflicted = 0;
  for (int reps = 1; reps <= 32; ++reps) {
    const auto fp = scenario_with_reps(reps).fingerprint();
    const bool hit = a.afflicts(fp, FaultInjectingProvider::Kind::Fail);
    // Two providers with the same spec agree, call after call.
    EXPECT_EQ(hit, b.afflicts(fp, FaultInjectingProvider::Kind::Fail));
    EXPECT_EQ(hit, a.afflicts(fp, FaultInjectingProvider::Kind::Fail));
    if (hit) ++afflicted;
  }
  // P=0.5 over 32 fingerprints: some hit, some spared.
  EXPECT_GT(afflicted, 0);
  EXPECT_LT(afflicted, 32);

  // A different seed redraws the blast radius (kinds are independent
  // streams too, but seed is the lever specs actually turn).
  FaultInjectingProvider reseeded(inner, FaultSpec::parse("seed=4,fail=0.5:1"));
  bool any_difference = false;
  for (int reps = 1; reps <= 32; ++reps) {
    const auto fp = scenario_with_reps(reps).fingerprint();
    if (a.afflicts(fp, FaultInjectingProvider::Kind::Fail) !=
        reseeded.afflicts(fp, FaultInjectingProvider::Kind::Fail))
      any_difference = true;
  }
  EXPECT_TRUE(any_difference);
}

TEST(FaultSpecTest, ProbabilityExtremesAfflictAllOrNone) {
  SimulatorProvider inner;
  FaultInjectingProvider all(inner, FaultSpec::parse("fail=1:1"));
  FaultInjectingProvider none(inner, FaultSpec::parse("fail=0:1"));
  for (int reps = 1; reps <= 8; ++reps) {
    const auto fp = scenario_with_reps(reps).fingerprint();
    EXPECT_TRUE(all.afflicts(fp, FaultInjectingProvider::Kind::Fail));
    EXPECT_FALSE(none.afflicts(fp, FaultInjectingProvider::Kind::Fail));
  }
}

// ------------------------------------------- faults under scheduler retries

TEST(FaultRetryTest, TransientFailuresDrainWithinTheRetryBudget) {
  TempDir dir("hmpt_fault_transient");
  SimulatorProvider inner;
  // Every fingerprint fails its first two attempts, then succeeds.
  FaultInjectingProvider faulty(inner, FaultSpec::parse("fail=1:2"));

  SchedulerOptions options;
  options.retry = fast_retries(3);
  Scheduler scheduler(faulty, campaign::OutcomeStore(dir.path()), options);
  scheduler.start();
  const auto client = scheduler.new_client();
  const auto scenario = scenario_with_reps(1);

  scheduler.submit(client, scenario);
  const auto done = scheduler.wait(scenario.fingerprint());
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->state, JobState::Done) << done->error;
  EXPECT_EQ(done->attempts, 3);
  EXPECT_EQ(scheduler.counts().retries, 2u);
  ASSERT_TRUE(scheduler.store()
                  .load_by_fingerprint(scenario.fingerprint())
                  .has_value());
}

TEST(FaultRetryTest, BudgetTooSmallFailsWithTheAttemptHistory) {
  TempDir dir("hmpt_fault_exhausted");
  SimulatorProvider inner;
  FaultInjectingProvider faulty(inner, FaultSpec::parse("fail=1:5"));

  SchedulerOptions options;
  options.retry = fast_retries(2);  // 2 attempts < 5 injected failures
  Scheduler scheduler(faulty, campaign::OutcomeStore(dir.path()), options);
  scheduler.start();
  const auto client = scheduler.new_client();
  const auto scenario = scenario_with_reps(1);

  scheduler.submit(client, scenario);
  const auto failed = scheduler.wait(scenario.fingerprint());
  ASSERT_TRUE(failed.has_value());
  EXPECT_EQ(failed->state, JobState::Failed);
  EXPECT_NE(failed->error.find("after 2 attempts"), std::string::npos);
  EXPECT_NE(failed->error.find("injected transient fault"),
            std::string::npos);
  EXPECT_EQ(failed->attempts, 2);
}

TEST(FaultRetryTest, TimeoutFaultIsCutByAttemptDeadlineAndRetried) {
  TempDir dir("hmpt_fault_timeout");
  SimulatorProvider inner;
  // First attempt hangs (cooperatively, on the token); second runs clean.
  FaultInjectingProvider faulty(inner, FaultSpec::parse("timeout=1:1"));

  SchedulerOptions options;
  options.retry = fast_retries(2);
  options.retry.attempt_deadline_s = 0.05;
  Scheduler scheduler(faulty, campaign::OutcomeStore(dir.path()), options);
  scheduler.start();
  const auto client = scheduler.new_client();
  const auto scenario = scenario_with_reps(1);

  scheduler.submit(client, scenario);
  const auto done = scheduler.wait(scenario.fingerprint());
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->state, JobState::Done) << done->error;
  EXPECT_EQ(done->attempts, 2);
  const auto counts = scheduler.counts();
  EXPECT_EQ(counts.retries, 1u);
  EXPECT_EQ(counts.timeouts, 1u);
}

TEST(FaultRetryTest, PerJobLimitsOverrideTheSchedulerPolicy) {
  TempDir dir("hmpt_fault_limits");
  SimulatorProvider inner;
  FaultInjectingProvider faulty(inner, FaultSpec::parse("fail=1:2"));

  SchedulerOptions options;
  options.retry = fast_retries(1);  // scheduler default: fail-fast
  options.retry.initial_backoff_s = 0.0;
  Scheduler scheduler(faulty, campaign::OutcomeStore(dir.path()), options);
  scheduler.start();
  const auto client = scheduler.new_client();

  // Default policy: one attempt, the injected failure sticks.
  const auto fail_fast = scenario_with_reps(1);
  scheduler.submit(client, fail_fast);
  const auto failed = scheduler.wait(fail_fast.fingerprint());
  ASSERT_TRUE(failed.has_value());
  EXPECT_EQ(failed->state, JobState::Failed);
  EXPECT_EQ(failed->attempts, 1);

  // The same faulty world, but this submit carries its own budget.
  const auto with_budget = scenario_with_reps(2);
  JobLimits limits;
  limits.max_attempts = 3;
  scheduler.submit(client, with_budget, /*priority=*/0, limits);
  const auto done = scheduler.wait(with_budget.fingerprint());
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->state, JobState::Done) << done->error;
  EXPECT_EQ(done->attempts, 3);
}

TEST(FaultRetryTest, CorruptFaultPerturbsTheOutcomeDeterministically) {
  SimulatorProvider inner;
  FaultInjectingProvider faulty(inner, FaultSpec::parse("corrupt=1"));
  const auto scenario = scenario_with_reps(1);
  CancelToken token;
  const auto honest = inner.run(scenario, token);
  const auto corrupted = faulty.run(scenario, token);
  EXPECT_DOUBLE_EQ(corrupted.chosen_time, honest.chosen_time + 1.0);
  // The store notices: an honest save followed by a corrupted save of
  // the same fingerprint is a determinism violation, and that error is
  // terminal — the retry loop must never paper over it.
  TempDir dir("hmpt_fault_corrupt");
  const campaign::OutcomeStore store(dir.path());
  store.save(scenario, honest);
  try {
    store.save(scenario, corrupted);
    FAIL() << "conflicting outcome must throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("conflicting outcome"),
              std::string::npos);
    EXPECT_TRUE(is_terminal_error(e.what()));
  }
}

TEST(FaultRetryTest, SlowFaultDelaysButCompletes) {
  TempDir dir("hmpt_fault_slow");
  SimulatorProvider inner;
  FaultInjectingProvider faulty(inner, FaultSpec::parse("slow=1:0.02"));

  Scheduler scheduler(faulty, campaign::OutcomeStore(dir.path()), {});
  scheduler.start();
  const auto scenario = scenario_with_reps(1);
  scheduler.submit(scheduler.new_client(), scenario);
  const auto done = scheduler.wait(scenario.fingerprint());
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->state, JobState::Done) << done->error;
}

// ----------------------------------------------------------------- journal

TEST(JournalTest, ReplayReturnsAckedButUnfinishedJobs) {
  TempDir dir("hmpt_journal_basic");
  const auto path = dir.path() + "/journal.ndjson";
  const auto finished = scenario_with_reps(1);
  const auto pending = scenario_with_reps(2);
  {
    JobJournal journal(path);
    JobLimits limits;
    limits.max_attempts = 3;
    limits.deadline_s = 30.0;
    journal.record_submit(finished, /*priority=*/0, {});
    journal.record_submit(pending, /*priority=*/5, limits);
    journal.record_terminal(finished.fingerprint(), JobState::Done);
  }
  const auto replay = JobJournal::replay(path);
  EXPECT_EQ(replay.records, 3u);
  EXPECT_EQ(replay.settled, 1u);
  EXPECT_EQ(replay.skipped, 0u);
  ASSERT_EQ(replay.pending.size(), 1u);
  EXPECT_EQ(replay.pending[0].scenario.fingerprint(), pending.fingerprint());
  EXPECT_EQ(replay.pending[0].priority, 5);
  EXPECT_EQ(replay.pending[0].limits.max_attempts, 3);
  EXPECT_DOUBLE_EQ(replay.pending[0].limits.deadline_s, 30.0);
}

TEST(JournalTest, MissingFileIsAnEmptyReplay) {
  const auto replay = JobJournal::replay("/nonexistent/journal.ndjson");
  EXPECT_TRUE(replay.pending.empty());
  EXPECT_EQ(replay.records, 0u);
}

TEST(JournalTest, TornTailLineIsSkippedNeverFatal) {
  TempDir dir("hmpt_journal_torn");
  const auto path = dir.path() + "/journal.ndjson";
  const auto acked = scenario_with_reps(1);
  {
    JobJournal journal(path);
    journal.record_submit(acked, 0, {});
  }
  {
    // A crash mid-append: the last line is half a record, no newline.
    std::ofstream os(path, std::ios::app | std::ios::binary);
    os << R"({"kind":"submit","fingerprint":"deadbeef","scen)";
  }
  const auto replay = JobJournal::replay(path);
  EXPECT_EQ(replay.skipped, 1u);
  ASSERT_EQ(replay.pending.size(), 1u);  // the torn line was never acked
  EXPECT_EQ(replay.pending[0].scenario.fingerprint(), acked.fingerprint());
}

TEST(JournalTest, CountRuleHandlesResubmitAfterOldTerminal) {
  TempDir dir("hmpt_journal_counts");
  const auto path = dir.path() + "/journal.ndjson";
  const auto scenario = scenario_with_reps(1);
  {
    JobJournal journal(path);
    // Run 1: submitted and failed. Run 2: resubmitted, crash before the
    // terminal record. 2 submits > 1 terminal → pending, exactly once.
    journal.record_submit(scenario, 0, {});
    journal.record_terminal(scenario.fingerprint(), JobState::Failed);
    journal.record_submit(scenario, 0, {});
  }
  const auto replay = JobJournal::replay(path);
  ASSERT_EQ(replay.pending.size(), 1u);
  EXPECT_EQ(replay.pending[0].scenario.fingerprint(), scenario.fingerprint());
}

TEST(JournalTest, CountRuleIsOrderIndependent) {
  TempDir dir("hmpt_journal_order");
  const auto path = dir.path() + "/journal.ndjson";
  const auto scenario = scenario_with_reps(1);
  {
    JobJournal journal(path);
    // A completion racing ahead of its submit within one process: the
    // terminal record lands first. Counts still balance to settled.
    journal.record_terminal(scenario.fingerprint(), JobState::Done);
    journal.record_submit(scenario, 0, {});
  }
  const auto replay = JobJournal::replay(path);
  EXPECT_TRUE(replay.pending.empty());
  EXPECT_EQ(replay.settled, 1u);
}

// ------------------------------------------------- daemon restart + replay

TEST(JournalTest, DaemonReplaysJournaledJobsToCompletion) {
  TempDir dir("hmpt_journal_daemon");
  const auto journal_path = dir.path() + "/journal.ndjson";
  const auto scenario = scenario_with_reps(1);

  // "Previous run": the submit was acked (journaled) but the process
  // died before the job finished — no terminal record, empty store.
  {
    JobJournal journal(journal_path);
    journal.record_submit(scenario, 0, {});
  }

  DaemonOptions options;
  options.endpoint.unix_path =
      (fs::temp_directory_path() / "hmpt_journal_daemon.sock").string();
  options.store_dir = dir.path() + "/store";
  options.journal_path = journal_path;
  Daemon daemon(options);
  daemon.start();
  EXPECT_EQ(daemon.replayed_jobs(), 1u);

  const auto done = daemon.scheduler().wait(scenario.fingerprint());
  ASSERT_TRUE(done.has_value());
  EXPECT_TRUE(done->state == JobState::Done ||
              done->state == JobState::Cached)
      << to_string(done->state);
  EXPECT_TRUE(daemon.scheduler()
                  .store()
                  .load_by_fingerprint(scenario.fingerprint())
                  .has_value());

  daemon.request_shutdown();
  ASSERT_TRUE(daemon.wait_for(10000));

  // The replayed job reached a terminal record: a second restart has
  // nothing left to replay.
  const auto replay = JobJournal::replay(journal_path);
  EXPECT_TRUE(replay.pending.empty());

  Daemon again(options);
  again.start();
  EXPECT_EQ(again.replayed_jobs(), 0u);
  again.request_shutdown();
  ASSERT_TRUE(again.wait_for(10000));
}

// ------------------------------------------------- batch runner retries

TEST(CampaignRetryTest, BatchRunnerAcceptsRetryOptionsAndRecordsAttempts) {
  TempDir dir("hmpt_campaign_faults");
  // The batch path has no provider seam; what it shares with the daemon
  // is the retry loop itself (common/retry). A clean run under a retry
  // budget must behave exactly like the fail-fast default — one attempt,
  // recorded on the run but kept out of the deterministic artefacts.
  campaign::CampaignOptions options;
  options.output_dir = dir.path() + "/out";
  options.attempts = 3;
  options.scenario_timeout_s = 60.0;
  const campaign::CampaignRunner runner(options);
  const auto report = runner.run({scenario_with_reps(1)});
  EXPECT_EQ(report.failed, 0);
  EXPECT_EQ(report.executed, 1);
  ASSERT_EQ(report.runs.size(), 1u);
  EXPECT_EQ(report.runs[0].attempts, 1);
}

TEST(CampaignRetryTest, RunnerRejectsNonsenseRetryOptions) {
  campaign::CampaignOptions options;
  options.attempts = 0;
  EXPECT_THROW(campaign::CampaignRunner{options}, Error);
  options.attempts = 1;
  options.scenario_timeout_s = -1.0;
  EXPECT_THROW(campaign::CampaignRunner{options}, Error);
}

}  // namespace
}  // namespace hmpt::service
