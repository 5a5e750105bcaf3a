// Tests for the fleet dispatcher: differential byte-identity of fleet
// runs against in-process runs across worker counts, induced steals
// (stalled workers) and chaos (SIGKILLed workers), property-style fuzz
// over worker counts and steal thresholds (coverage exact, stores
// disjoint after dedup), tolerant manifest tailing under a
// truncated-write simulator, assignment-file round trips, and the
// hmpt_campaign --fleet CLI. Workers here are real
// hmpt_campaign child processes (HMPT_CAMPAIGN_PATH), so the whole
// plan/assign/progress-manifest protocol is exercised end to end.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

#include "campaign/aggregate.h"
#include "campaign/campaign.h"
#include "campaign/merge.h"
#include "common/error.h"
#include "fleet/fleet.h"

namespace hmpt::fleet {
namespace {

namespace fs = std::filesystem;
using campaign::CampaignOptions;
using campaign::CampaignRunner;
using campaign::Scenario;
using campaign::ScenarioMatrix;
using campaign::ShardManifest;

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::stringstream buffer;
  buffer << is.rdbuf();
  return buffer.str();
}

void spit(const std::string& path, const std::string& content) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os << content;
}

/// A fresh directory per test, removed on scope exit.
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

/// The shared small-but-real campaign: 4 scenarios, reps 1.
std::vector<Scenario> scenarios() {
  ScenarioMatrix matrix;
  matrix.workloads = {campaign::parse_workload_spec("mg"),
                      campaign::parse_workload_spec(
                          "stream:array_gb=1,iterations=2")};
  matrix.platforms = {"xeon-max"};
  matrix.strategies = {"estimator", "online"};
  matrix.repetitions = 1;
  return matrix.expand();
}

/// Run the campaign in-process (single store, no sharding) and write the
/// reference artefacts every fleet configuration must reproduce.
std::string reference_run(const std::vector<Scenario>& full,
                          const std::string& dir) {
  CampaignOptions options;
  options.output_dir = dir;
  const auto result = CampaignRunner(options).run(full);
  EXPECT_TRUE(result.ok());
  campaign::write_artifacts(result, dir);
  return dir;
}

/// Baseline fleet options for in-process dispatch tests: real
/// hmpt_campaign workers, fast polling.
FleetOptions fleet_options(const std::string& out) {
  FleetOptions options;
  options.output_dir = out;
  options.worker_bin = HMPT_CAMPAIGN_PATH;
  options.poll_interval_s = 0.05;
  return options;
}

void expect_identical_artifacts(const std::string& got,
                                const std::string& want,
                                const std::vector<Scenario>& full) {
  EXPECT_EQ(slurp(got + "/runs.csv"), slurp(want + "/runs.csv"));
  EXPECT_EQ(slurp(got + "/summary.json"), slurp(want + "/summary.json"));
  for (const auto& s : full) {
    const std::string name = "/outcomes/" + s.fingerprint() + ".json";
    EXPECT_EQ(slurp(got + name), slurp(want + name)) << s.label();
  }
}

// ------------------------------------------------------------ differential

TEST(FleetTest, FleetsOfEverySizeReproduceTheUnshardedBytes) {
  TempDir root("hmpt_fleet_differential");
  const auto full = scenarios();
  const auto ref = reference_run(full, root.path() + "/ref");

  for (const int workers : {1, 2, 3}) {
    const std::string out =
        root.path() + "/fleet" + std::to_string(workers);
    auto options = fleet_options(out);
    options.workers = workers;
    FleetStats stats;
    const auto result = run_fleet(full, options, &stats);
    ASSERT_TRUE(result.ok()) << workers << " workers";
    campaign::write_artifacts(result, out);

    // Byte-identical artefacts and store; no steals on a healthy fleet,
    // exactly one launch per worker, zero overlap.
    expect_identical_artifacts(out, ref, full);
    EXPECT_EQ(stats.campaign, campaign::campaign_fingerprint(full));
    EXPECT_EQ(stats.scenarios, static_cast<int>(full.size()));
    EXPECT_EQ(stats.steals, 0) << workers << " workers";
    EXPECT_EQ(stats.worker_deaths, 0) << workers << " workers";
    EXPECT_EQ(stats.launches, std::min<int>(workers, 4));
    EXPECT_EQ(stats.merge.outcomes_merged, static_cast<int>(full.size()));
    EXPECT_EQ(stats.merge.overlapping, 0);
  }
}

// ------------------------------------------------------------------ steals

TEST(FleetTest, StalledWorkerIsStolenFromAndBytesAreIdentical) {
  TempDir root("hmpt_fleet_steal");
  const auto full = scenarios();
  const auto ref = reference_run(full, root.path() + "/ref");

  // Worker 2 never runs the real worker at all — its child just sleeps —
  // so its half of the campaign *must* be stolen by worker 1 for the
  // fleet to complete. The straggler threshold makes that happen fast.
  const std::string stall = root.path() + "/stall.sh";
  spit(stall,
       "#!/bin/sh\n"
       "idx=\"$1\"; shift\n"
       "if [ \"$idx\" = \"2\" ]; then exec sleep 600; fi\n"
       "exec \"$@\"\n");

  auto options = fleet_options(root.path() + "/fleet");
  options.workers = 2;
  options.exec_template = "sh " + stall + " {index} {cmd}";
  options.straggler_after_s = 0.5;
  FleetStats stats;
  const auto result = run_fleet(full, options, &stats);
  ASSERT_TRUE(result.ok());
  campaign::write_artifacts(result, options.output_dir);

  // Both of worker 2's scenarios were re-dealt, and the artefacts are
  // still byte-identical to the unsharded run.
  EXPECT_EQ(stats.steals, 2);
  EXPECT_GE(stats.launches, 3);  // 2 initial + at least 1 thief generation
  expect_identical_artifacts(options.output_dir, ref, full);

  // The dispatcher killed the stalled sleep on completion: no leaked
  // children still hold the stall script open (best-effort check — the
  // temp dir removes cleanly because nothing is running in it).
  EXPECT_EQ(stats.merge.outcomes_merged, static_cast<int>(full.size()));
}

TEST(FleetTest, SigkilledWorkerIsStolenFromAndBytesAreIdentical) {
  TempDir root("hmpt_fleet_chaos");
  const auto full = scenarios();
  const auto ref = reference_run(full, root.path() + "/ref");

  // Worker 1's first child is SIGKILLed right out of the gate (a marker
  // file keeps later generations honest, in case the dead slot is
  // re-used as a thief). The wrapper then exits 137, which the
  // dispatcher must classify as a death (steal), not a worker-reported
  // failure (abort). The longer-running smoke job in CI additionally
  // lands the SIGKILL mid-scenario; here determinism matters more.
  const std::string chaos = root.path() + "/chaos.sh";
  spit(chaos,
       "#!/bin/sh\n"
       "idx=\"$1\"; shift\n"
       "marker=\"" +
           root.path() +
           "/killed.marker\"\n"
           "if [ \"$idx\" = \"1\" ] && [ ! -e \"$marker\" ]; then\n"
           "  : > \"$marker\"\n"
           "  \"$@\" &\n"
           "  child=$!\n"
           "  kill -9 \"$child\" 2>/dev/null\n"
           "  wait \"$child\" 2>/dev/null\n"
           "  exit 137\n"
           "fi\n"
           "exec \"$@\"\n");

  auto options = fleet_options(root.path() + "/fleet");
  options.workers = 2;
  options.exec_template = "sh " + chaos + " {index} {cmd}";
  options.straggler_after_s = 10.0;  // deaths steal immediately regardless
  FleetStats stats;
  const auto result = run_fleet(full, options, &stats);
  ASSERT_TRUE(result.ok());
  campaign::write_artifacts(result, options.output_dir);

  EXPECT_GE(stats.worker_deaths, 1);
  expect_identical_artifacts(options.output_dir, ref, full);
  EXPECT_EQ(stats.merge.outcomes_merged, static_cast<int>(full.size()));
}

TEST(FleetTest, WorkerReportedFailureAbortsFailFast) {
  TempDir root("hmpt_fleet_failfast");
  const auto full = scenarios();

  // Every worker exits 1 immediately (a usage-style failure, not a
  // death): the fleet must abort rather than retry forever.
  const std::string fail = root.path() + "/fail.sh";
  spit(fail, "#!/bin/sh\nexit 1\n");

  auto options = fleet_options(root.path() + "/fleet");
  options.workers = 2;
  options.exec_template = "sh " + fail + " {index} {cmd}";
  EXPECT_THROW(run_fleet(full, options), Error);
}

TEST(FleetTest, DeadWorkersExhaustTheDealCapAndFailLoudly) {
  TempDir root("hmpt_fleet_dealcap");
  const auto full = scenarios();

  // Every worker dies instantly (exit 137) without completing anything:
  // re-deals burn through max_deals and the fleet must stop with a
  // loud error instead of spinning.
  const std::string die = root.path() + "/die.sh";
  spit(die, "#!/bin/sh\nexit 137\n");

  auto options = fleet_options(root.path() + "/fleet");
  options.workers = 2;
  options.exec_template = "sh " + die + " {index} {cmd}";
  options.straggler_after_s = 0.0;
  options.max_deals = 2;
  try {
    run_fleet(full, options);
    FAIL() << "a fleet whose workers always die must not report success";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("deal cap"), std::string::npos)
        << e.what();
  }
}

// ------------------------------------------------------------------- fuzz

TEST(FleetTest, FuzzWorkerCountsAndStealThresholds) {
  TempDir root("hmpt_fleet_fuzz");
  const auto full = scenarios();
  const auto ref = reference_run(full, root.path() + "/ref");
  const auto reference_payloads =
      campaign::OutcomeStore::open_existing(ref).load_all_payloads();

  std::set<std::string> campaign_fps;
  for (const auto& s : full) campaign_fps.insert(s.fingerprint());

  // straggler_after_s = 0 makes *every* live worker steal-eligible at
  // every poll: maximum duplicate execution, bounded only by max_deals.
  // The byte-identity invariant must hold at any aggression level.
  struct Case {
    int workers;
    double straggler_after_s;
  };
  const Case cases[] = {{1, 0.0}, {2, 0.0}, {3, 0.05}, {5, 30.0}};
  for (const auto& c : cases) {
    const std::string out = root.path() + "/fleet-" +
                            std::to_string(c.workers) + "-" +
                            std::to_string(static_cast<int>(
                                c.straggler_after_s * 100));
    auto options = fleet_options(out);
    options.workers = c.workers;
    options.straggler_after_s = c.straggler_after_s;
    FleetStats stats;
    const auto result = run_fleet(full, options, &stats);
    ASSERT_TRUE(result.ok())
        << c.workers << " workers, straggler " << c.straggler_after_s;
    campaign::write_artifacts(result, out);
    expect_identical_artifacts(out, ref, full);

    // Coverage is exact: the union of every worker manifest's claims is
    // precisely the campaign, and after the merge dedups overlapping
    // claims the merged store holds exactly one byte-identical record
    // per fingerprint.
    std::set<std::string> claimed;
    int claims = 0;
    for (int i = 1; i <= c.workers; ++i) {
      const auto manifest =
          ShardManifest::load(out + "/shard-" + std::to_string(i));
      for (const auto& entry : manifest.entries) {
        ASSERT_TRUE(campaign_fps.count(entry.fingerprint))
            << "claim outside the campaign";
        claimed.insert(entry.fingerprint);
        ++claims;
      }
    }
    EXPECT_EQ(claimed, campaign_fps);
    EXPECT_EQ(claims - static_cast<int>(claimed.size()),
              stats.merge.overlapping);
    EXPECT_EQ(campaign::OutcomeStore::open_existing(out).load_all_payloads(),
              reference_payloads);
    EXPECT_EQ(stats.merge.outcomes_merged, static_cast<int>(full.size()));
  }
}

// -------------------------------------------------------- manifest tailing

TEST(ManifestTailTest, TruncatedWritesReadAsDamagedNeverAsFailure) {
  TempDir dir("hmpt_fleet_tail");
  const auto full = scenarios();

  // No manifest at all: Missing, not an error.
  EXPECT_EQ(tail_manifest(dir.path(), 0, 0.0).state,
            ManifestTail::State::Missing);

  campaign::ManifestProgress progress(full, {1, 1}, dir.path());
  campaign::ScenarioRun run;
  run.scenario = full[0];
  run.fingerprint = full[0].fingerprint();
  run.status = campaign::ScenarioRun::Status::Executed;
  progress.record(run);
  const auto ok = tail_manifest(dir.path(), 0, 0.0);
  ASSERT_EQ(ok.state, ManifestTail::State::Ok);
  EXPECT_EQ(ok.manifest.entries.size(), 1u);

  // Truncated-write simulator: cut the manifest at every interesting
  // boundary (empty file, one byte, half, mid-closing-brace — size-1
  // would only shave the trailing newline, which still parses). However
  // torn, the tail must report Damaged — never throw, and never "parse"
  // into something claiming a scenario failed.
  const std::string path = ShardManifest::path_in(dir.path());
  const std::string bytes = slurp(path);
  ASSERT_GT(bytes.size(), 2u);
  for (const std::size_t cut :
       {std::size_t{0}, std::size_t{1}, bytes.size() / 2,
        bytes.size() - 2}) {
    spit(path, bytes.substr(0, cut));
    const auto torn = tail_manifest(dir.path(), 2, 0.001);
    EXPECT_EQ(torn.state, ManifestTail::State::Damaged) << "cut " << cut;
    EXPECT_TRUE(torn.manifest.entries.empty()) << "cut " << cut;
  }

  // A concurrent writer completing the rewrite mid-retry heals the read:
  // the retry loop returns Ok once the full bytes land.
  spit(path, bytes.substr(0, bytes.size() / 2));
  std::thread repair([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    spit(path + ".tmp", bytes);
    fs::rename(path + ".tmp", path);
  });
  const auto healed = tail_manifest(dir.path(), 400, 0.005);
  repair.join();
  ASSERT_EQ(healed.state, ManifestTail::State::Ok);
  EXPECT_EQ(healed.manifest.entries.size(), 1u);
}

// ------------------------------------------------------- assignment files

TEST(AssignmentFileTest, RoundTripsAndSkipsCommentsAndBlanks) {
  TempDir dir("hmpt_fleet_assign");
  const std::string path = dir.path() + "/assign.txt";
  const std::vector<std::string> fps = {"00aa11bb22cc33dd", "ffee001122334455"};
  save_assignment(path, fps);
  EXPECT_EQ(load_assignment(path), fps);

  // Hand-edited files survive comments, blank lines and stray spaces.
  spit(path,
       "# stolen set for worker 3\n"
       "\n"
       "  00aa11bb22cc33dd \r\n"
       "ffee001122334455\n");
  EXPECT_EQ(load_assignment(path), fps);

  EXPECT_THROW(load_assignment(dir.path() + "/missing.txt"), Error);
}

// -------------------------------------------------------------------- CLI

int run_cli(const std::string& cmd) {
  const int status = std::system(cmd.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}

TEST(FleetCliTest, CampaignFleetFlagReproducesReferenceBytes) {
  TempDir root("hmpt_fleet_cli");

  // A 2-scenario campaign (mg × estimator/online), reps 1.
  ScenarioMatrix matrix;
  matrix.workloads = {campaign::parse_workload_spec("mg")};
  matrix.strategies = {"estimator", "online"};
  matrix.repetitions = 1;
  const auto full = matrix.expand();
  const auto ref = reference_run(full, root.path() + "/ref");

  const std::string campaign_flags =
      " --workload mg --strategy estimator --strategy online --reps 1";
  {
    const std::string out = root.path() + "/campaign-fleet";
    const std::string log = root.path() + "/campaign-fleet.log";
    const std::string trace = root.path() + "/fleet-trace.json";
    const int rc = run_cli(std::string(HMPT_CAMPAIGN_PATH) + campaign_flags +
                           " --fleet 2 --poll-interval 0.05 --out " + out +
                           " --trace " + trace + " > " + log + " 2>&1");
    ASSERT_EQ(rc, 0) << slurp(log);
    expect_identical_artifacts(out, ref, full);
    // The dispatch left fleet lifecycle spans in the trace.
    const std::string trace_bytes = slurp(trace);
    EXPECT_NE(trace_bytes.find("\"dispatch\""), std::string::npos);
    EXPECT_NE(trace_bytes.find("\"fleet\""), std::string::npos);
    // The merged store is a complete 1/1 campaign of its own: manifest
    // included, so hmpt_merge can regenerate artefacts from it.
    EXPECT_NO_THROW(ShardManifest::load(out));
  }
  {
    // Bad combinations are usage errors (exit 1), not crashes.
    const std::string log = root.path() + "/bad.log";
    EXPECT_EQ(run_cli(std::string(HMPT_CAMPAIGN_PATH) + campaign_flags +
                      " --fleet 2 --shard 1/2 > " + log + " 2>&1"),
              1);
    EXPECT_EQ(run_cli(std::string(HMPT_CAMPAIGN_PATH) + campaign_flags +
                      " --fleet -1 > " + log + " 2>&1"),
              1);
  }
}

}  // namespace
}  // namespace hmpt::fleet
