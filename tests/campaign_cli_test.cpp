// End-to-end tests of the hmpt_campaign / hmpt_merge command-line tools
// (both store formats, the shard/merge workflow and the static HTML
// report), of hmpt_analyze's campaign-backed flags
// (--json, --list-*) and of the matrix flags hmpt_submit shares with
// hmpt_campaign. All binary paths come from CMake.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <utility>

#include "core/outcome_io.h"
#include "simmem/simulator.h"
#include "workloads/app_models.h"
#include "workloads/trace_io.h"

namespace {

#ifndef HMPT_CAMPAIGN_PATH
#define HMPT_CAMPAIGN_PATH ""
#endif
#ifndef HMPT_MERGE_PATH
#define HMPT_MERGE_PATH ""
#endif
#ifndef HMPT_ANALYZE_PATH
#define HMPT_ANALYZE_PATH ""
#endif
#ifndef HMPT_SUBMIT_PATH
#define HMPT_SUBMIT_PATH ""
#endif
#ifndef HMPTD_PATH
#define HMPTD_PATH ""
#endif

namespace fs = std::filesystem;

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

class CampaignCliTest : public ::testing::Test {
 protected:
  void SetUp() override { remove_stores(); }
  void TearDown() override {
    remove_stores();
    std::remove(out_.c_str());
    std::remove(json_.c_str());
    std::remove(campaign_file_.c_str());
    std::remove(trace_.c_str());
  }

  void remove_stores() {
    fs::remove_all(store_);
    for (int i = 1; i <= 3; ++i)
      fs::remove_all(store_ + "-shard" + std::to_string(i));
    fs::remove_all(store_ + "-merged");
    fs::remove_all(store_ + "-packed");
    fs::remove_all(store_ + "-regen");
  }

  int run(const std::string& args) {
    const std::string cmd = std::string(HMPT_CAMPAIGN_PATH) + " " + args +
                            " > " + out_ + " 2>&1";
    return std::system(cmd.c_str());
  }

  int run_merge(const std::string& args) {
    const std::string cmd = std::string(HMPT_MERGE_PATH) + " " + args +
                            " > " + out_ + " 2>&1";
    return std::system(cmd.c_str());
  }

  int run_submit(const std::string& args) {
    const std::string cmd = std::string(HMPT_SUBMIT_PATH) + " " + args +
                            " > " + out_ + " 2>&1";
    return std::system(cmd.c_str());
  }

  /// The acceptance matrix: 3 workloads x 2 platforms x 3 strategies.
  std::string matrix_flags() const {
    return "--workload mg --workload stream:array_gb=1,iterations=2 "
           "--workload pointer-chase:window_gb=1,accesses=1e8 "
           "--platform xeon-max --platform spr-cxl "
           "--strategy exhaustive --strategy estimator --strategy online "
           "--reps 1 --out " +
           store_;
  }

  const std::string store_ = "/tmp/hmpt_campaign_cli_store";
  const std::string out_ = "/tmp/hmpt_campaign_cli.out";
  const std::string json_ = "/tmp/hmpt_campaign_cli.json";
  const std::string campaign_file_ = "/tmp/hmpt_campaign_cli.campaign";
  const std::string trace_ = "/tmp/hmpt_campaign_cli.trace.json";
};

TEST_F(CampaignCliTest, RunsResumesAndReproducesRunsCsv) {
  // Cold campaign: all 18 scenarios execute.
  ASSERT_EQ(run(matrix_flags() + " --jobs 0"), 0) << slurp(out_);
  std::string out = slurp(out_);
  EXPECT_NE(out.find("campaign: 18 scenarios"), std::string::npos) << out;
  EXPECT_NE(out.find("executed 18, cached 0, failed 0"), std::string::npos)
      << out;
  const std::string cold_csv = slurp(store_ + "/runs.csv");
  ASSERT_FALSE(cold_csv.empty());
  EXPECT_FALSE(slurp(store_ + "/summary.json").empty());

  // Resume: zero executions, byte-identical runs.csv.
  ASSERT_EQ(run(matrix_flags() + " --resume"), 0) << slurp(out_);
  out = slurp(out_);
  EXPECT_NE(out.find("executed 0, cached 18, failed 0"), std::string::npos)
      << out;
  EXPECT_EQ(slurp(store_ + "/runs.csv"), cold_csv);
}

TEST_F(CampaignCliTest, DryRunPrintsThePlanWithoutExecuting) {
  ASSERT_EQ(run(matrix_flags() + " --dry-run"), 0) << slurp(out_);
  const std::string dry = slurp(out_);
  EXPECT_NE(dry.find("dry run: nothing executed"), std::string::npos);
  // No store writes: the outcome directory was never even created.
  EXPECT_FALSE(fs::exists(fs::path(store_) / "outcomes"));

  // The scenario listing of the dry run is exactly the plan a real run
  // prints before executing.
  const auto plan_of = [](const std::string& text) {
    return text.substr(0, text.find("\n\n"));
  };
  const std::string dry_plan = plan_of(dry);
  EXPECT_NE(dry_plan.find("fingerprint"), std::string::npos);

  // The matrix flags are the campaign-file directives: the same matrix
  // declared as a file plans the same scenarios in the same order.
  {
    std::ofstream os(campaign_file_);
    os << "workload mg\n"
          "workload stream:array_gb=1,iterations=2\n"
          "workload pointer-chase:window_gb=1,accesses=1e8\n"
          "platform xeon-max\nplatform spr-cxl\n"
          "strategy exhaustive\nstrategy estimator\nstrategy online\n"
          "reps 1\n";
  }
  ASSERT_EQ(run(campaign_file_ + " --out " + store_ + " --dry-run"), 0)
      << slurp(out_);
  EXPECT_EQ(plan_of(slurp(out_)), dry_plan);

  ASSERT_EQ(run(matrix_flags()), 0) << slurp(out_);
  EXPECT_EQ(plan_of(slurp(out_)), dry_plan);
}

TEST_F(CampaignCliTest, CampaignFileDrivesTheMatrix) {
  {
    std::ofstream os(campaign_file_);
    os << "# test campaign\n"
          "workload mg\n"
          "platform spr-cxl\n"
          "strategy estimator\n"
          "strategy online\n"
          "reps 1\n";
  }
  ASSERT_EQ(run(campaign_file_ + " --out " + store_), 0) << slurp(out_);
  EXPECT_NE(slurp(out_).find("campaign: 2 scenarios"), std::string::npos)
      << slurp(out_);

  // Flags widen the declared campaign (one more strategy = one more run).
  ASSERT_EQ(run(campaign_file_ + " --strategy exhaustive --resume --out " +
                store_),
            0)
      << slurp(out_);
  EXPECT_NE(slurp(out_).find("executed 1, cached 2"), std::string::npos)
      << slurp(out_);

  // The file applies first, then the flags in order: flag axes come
  // after the file's, and a flag's reps overrides the file's.
  const auto plan_of = [this](const std::string& args) {
    EXPECT_EQ(run(args + " --dry-run --out " + store_), 0) << slurp(out_);
    const std::string text = slurp(out_);
    return text.substr(0, text.find("\n\n"));
  };
  EXPECT_EQ(plan_of(campaign_file_ + " --strategy exhaustive --reps 2"),
            plan_of("--workload mg --platform spr-cxl --strategy estimator "
                    "--strategy online --strategy exhaustive --reps 2"));
  EXPECT_NE(plan_of(campaign_file_ + " --reps 2"), plan_of(campaign_file_));
}

TEST_F(CampaignCliTest, KeepGoingReportsFailuresInExitCode) {
  const std::string flags =
      "--workload recorded:path=/nonexistent.profile --workload mg "
      "--strategy estimator --reps 1 --keep-going --out " +
      store_;
  EXPECT_NE(run(flags), 0);
  const std::string out = slurp(out_);
  EXPECT_NE(out.find("failed recorded:path=/nonexistent.profile"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("executed 1, cached 0, failed 1"), std::string::npos)
      << out;
  // The recorded failure is the input error alone: no source file, line
  // or checkout path, so the artefacts depend neither on where the tool
  // was built nor on where the check sits in its source.
  for (const char* artefact : {"/summary.json", "/status.json"}) {
    const std::string text = slurp(store_ + artefact);
    EXPECT_NE(text.find("\"error\": \"cannot open profile: "
                        "/nonexistent.profile\""),
              std::string::npos)
        << artefact << text;
    EXPECT_EQ(text.find("src/"), std::string::npos) << artefact << text;
    EXPECT_EQ(text.find(HMPT_SOURCE_DIR), std::string::npos) << artefact;
  }
}

TEST_F(CampaignCliTest, ListingsAndUsage) {
  ASSERT_EQ(run("--list-workloads"), 0);
  EXPECT_NE(slurp(out_).find("kwave"), std::string::npos);
  ASSERT_EQ(run("--list-platforms"), 0);
  EXPECT_NE(slurp(out_).find("spr-cxl"), std::string::npos);
  EXPECT_EQ(run("--help"), 0);

  EXPECT_NE(run("--frobnicate"), 0);
  // Declaration errors are usage errors: exit 1 + the usage text, distinct
  // from the exit-2 of scenarios that fail while running.
  EXPECT_EQ(WEXITSTATUS(
                run("--workload mg --strategy frobnicate --out " + store_)),
            1);
  EXPECT_NE(slurp(out_).find("usage:"), std::string::npos);
  EXPECT_NE(run("--workload mg --platform frobnicate --out " + store_), 0);
  EXPECT_NE(run("--workload mg --jobs -1 --out " + store_), 0);
  EXPECT_NE(run("--workload mg --reps 0 --out " + store_), 0);
  EXPECT_NE(run("--out " + store_), 0);  // no workloads declared

  // A bad matrix-flag value is a usage error naming the flag, on both
  // tools that take the matrix flags; hmpt_submit expands the matrix
  // before it ever connects.
  const std::pair<std::string, std::string> bad_values[] = {
      {"--reps abc", "--reps: not an integer: 'abc'"},
      {"--tier-budget-gb 64", "--tier-budget-gb: expects tier:gb"},
      {"--budget-gb inf", "--budget-gb: not a finite number: 'inf'"},
      {"--top-k 0", "top-k must be >= 1"}};
  for (const auto& [flag, message] : bad_values) {
    EXPECT_EQ(WEXITSTATUS(run("--workload mg " + flag + " --out " + store_)),
              1)
        << flag;
    EXPECT_NE(slurp(out_).find(message), std::string::npos) << slurp(out_);
    EXPECT_NE(slurp(out_).find("usage:"), std::string::npos) << flag;
    EXPECT_EQ(WEXITSTATUS(run_submit(
                  "--socket /nonexistent/hmptd.sock --workload mg " + flag)),
              1)
        << flag;
    EXPECT_NE(slurp(out_).find(message), std::string::npos) << slurp(out_);
  }
}

TEST_F(CampaignCliTest, RemovedMeasureJobsFlagIsAUsageError) {
  // Measurement inside a scenario is serial; the flag is gone from the
  // batch runner and the daemon rather than silently ignored. hmptd
  // rejects it while parsing, before it binds the socket.
  EXPECT_EQ(WEXITSTATUS(run("--workload mg --measure-jobs 1 --out " +
                            store_)),
            1);
  EXPECT_NE(slurp(out_).find("unknown option: --measure-jobs"),
            std::string::npos)
      << slurp(out_);
  EXPECT_FALSE(fs::exists(store_));
  const std::string daemon = std::string(HMPTD_PATH) +
                             " --socket /nonexistent/hmptd.sock"
                             " --measure-jobs 1 > " +
                             out_ + " 2>&1";
  EXPECT_EQ(WEXITSTATUS(std::system(daemon.c_str())), 1);
  EXPECT_NE(slurp(out_).find("unknown option: --measure-jobs"),
            std::string::npos)
      << slurp(out_);
}

TEST_F(CampaignCliTest, ShardedRunsMergeToTheUnshardedArtifacts) {
  // Reference: the whole 18-scenario campaign in one process.
  ASSERT_EQ(run(matrix_flags() + " --jobs 0 --quiet"), 0) << slurp(out_);
  const std::string whole_csv = slurp(store_ + "/runs.csv");
  const std::string whole_summary = slurp(store_ + "/summary.json");
  ASSERT_FALSE(whole_csv.empty());
  // Every real run writes a (1/1) shard manifest next to its outcomes.
  EXPECT_TRUE(fs::exists(store_ + "/shard.manifest.json"));

  // The same campaign as three --shard slices, each into its own store.
  std::string shard_dirs;
  for (int i = 1; i <= 3; ++i) {
    const std::string dir = store_ + "-shard" + std::to_string(i);
    const std::string flags = matrix_flags();
    const auto out_pos = flags.find("--out");
    const std::string sharded =
        flags.substr(0, out_pos) + "--out " + dir + " --shard " +
        std::to_string(i) + "/3 --jobs 0 --quiet";
    ASSERT_EQ(run(sharded), 0) << slurp(out_);
    EXPECT_NE(slurp(out_).find("shard " + std::to_string(i) + "/3: 6 "),
              std::string::npos)
        << slurp(out_);
    EXPECT_TRUE(fs::exists(dir + "/shard.manifest.json"));
    shard_dirs += " " + dir;
  }

  // Merging a strict subset of the shards fails loudly...
  const std::string merged = store_ + "-merged";
  EXPECT_NE(run_merge("--out " + merged + " " + store_ + "-shard1"), 0);
  EXPECT_NE(slurp(out_).find("merge failed"), std::string::npos)
      << slurp(out_);

  // ...while all three merge into artefacts byte-identical to the
  // unsharded run's.
  ASSERT_EQ(run_merge("--out " + merged + shard_dirs), 0) << slurp(out_);
  EXPECT_NE(slurp(out_).find("merged 3 shards, 18 scenarios"),
            std::string::npos)
      << slurp(out_);
  EXPECT_EQ(slurp(merged + "/runs.csv"), whole_csv);
  EXPECT_EQ(slurp(merged + "/summary.json"), whole_summary);

  // Merging is idempotent: a second merge over the same shards into the
  // same directory re-validates the identical bytes and succeeds.
  ASSERT_EQ(run_merge("--out " + merged + shard_dirs), 0) << slurp(out_);
  EXPECT_EQ(slurp(merged + "/runs.csv"), whole_csv);

  // Bad usage exits 1.
  EXPECT_EQ(WEXITSTATUS(run_merge("")), 1);
  EXPECT_EQ(WEXITSTATUS(run_merge(shard_dirs)), 1);  // no --out
  // A bad --shard spec on hmpt_campaign is a usage error too.
  EXPECT_EQ(WEXITSTATUS(run(matrix_flags() + " --shard 4/3")), 1);
  EXPECT_EQ(WEXITSTATUS(run(matrix_flags() + " --shard 0/0")), 1);
}

TEST_F(CampaignCliTest, PackedStoreAndHtmlReportEndToEnd) {
  // Dir-format reference run (the default layout), traced for the
  // timeline section below.
  ASSERT_EQ(run(matrix_flags() + " --jobs 0 --quiet --trace " + trace_), 0)
      << slurp(out_);
  const std::string dir_csv = slurp(store_ + "/runs.csv");
  const std::string dir_summary = slurp(store_ + "/summary.json");
  ASSERT_FALSE(dir_csv.empty());

  // The same campaign into a packed store, with the HTML report: one
  // append-only log instead of 18 files, byte-identical artefacts.
  const std::string packed = store_ + "-packed";
  ASSERT_EQ(run(matrix_flags() + " --jobs 0 --quiet --store-format packed" +
                " --report --out " + packed),
            0)
      << slurp(out_);
  std::string out = slurp(out_);
  EXPECT_NE(out.find("outcome store: " + packed + "/outcomes.log"),
            std::string::npos)
      << out;
  EXPECT_TRUE(fs::exists(packed + "/outcomes.log"));
  EXPECT_FALSE(fs::exists(packed + "/outcomes.idx"));
  EXPECT_FALSE(fs::exists(packed + "/outcomes"));
  EXPECT_EQ(slurp(packed + "/runs.csv"), dir_csv);
  EXPECT_EQ(slurp(packed + "/summary.json"), dir_summary);

  // --report wrote one self-contained document: inline charts, no
  // external fetches, a drill-down anchor per scenario.
  const std::string html = slurp(packed + "/report/index.html");
  ASSERT_FALSE(html.empty());
  EXPECT_NE(html.find("<svg"), std::string::npos);
  EXPECT_NE(html.find("id=\"fp-"), std::string::npos);
  EXPECT_EQ(html.find("src=\"http"), std::string::npos);
  EXPECT_EQ(html.find("href=\"http"), std::string::npos);

  // Resume against the packed store: zero executions, identical bytes.
  ASSERT_EQ(run(matrix_flags() + " --jobs 0 --store-format packed" +
                " --resume --out " + packed),
            0)
      << slurp(out_);
  EXPECT_NE(slurp(out_).find("executed 0, cached 18, failed 0"),
            std::string::npos)
      << slurp(out_);
  EXPECT_EQ(slurp(packed + "/runs.csv"), dir_csv);

  // Pointing the default (dir) format at a packed store is refused with
  // a hint instead of silently growing a second store alongside.
  EXPECT_NE(run(matrix_flags() + " --resume --out " + packed), 0);
  EXPECT_NE(slurp(out_).find("--store-format"), std::string::npos)
      << slurp(out_);

  // hmpt_merge reads the dir store and converts it to packed (the 1/1
  // manifest makes a single store mergeable), reproducing the artefacts.
  const std::string merged = store_ + "-merged";
  ASSERT_EQ(run_merge("--out " + merged + " --store-format packed " +
                      store_),
            0)
      << slurp(out_);
  EXPECT_NE(slurp(out_).find("merged outcome store: " + merged +
                             "/outcomes.log"),
            std::string::npos)
      << slurp(out_);
  EXPECT_EQ(slurp(merged + "/runs.csv"), dir_csv);
  EXPECT_EQ(slurp(merged + "/summary.json"), dir_summary);

  // hmpt_merge --report on one store, either format, regenerates the
  // campaign's exact page; the merged store it writes does too.
  const std::string regen = store_ + "-regen";
  for (const std::string& source : {packed, store_, merged}) {
    fs::remove_all(regen);
    ASSERT_EQ(run_merge("--quiet --report --out " + regen + " " + source), 0)
        << slurp(out_);
    EXPECT_EQ(slurp(regen + "/report/index.html"), html) << source;
  }
  // --out may name the store itself: no record is copied, and the page
  // comes back the same.
  fs::remove_all(packed + "/report");
  ASSERT_EQ(run_merge("--quiet --report --store-format packed --out " +
                      packed + " " + packed),
            0)
      << slurp(out_);
  EXPECT_EQ(slurp(packed + "/report/index.html"), html);
  EXPECT_EQ(slurp(packed + "/runs.csv"), dir_csv);

  // --trace adds the per-job timeline section, and only with --report.
  fs::remove_all(regen);
  ASSERT_EQ(run_merge("--quiet --report --trace " + trace_ + " --out " +
                      regen + " " + store_),
            0)
      << slurp(out_);
  const std::string traced = slurp(regen + "/report/index.html");
  EXPECT_NE(traced.find("Per-job timeline"), std::string::npos);
  EXPECT_EQ(html.find("Per-job timeline"), std::string::npos);
  EXPECT_EQ(WEXITSTATUS(run_merge("--trace " + trace_ + " --out " + regen +
                                  " " + store_)),
            1);
  EXPECT_NE(slurp(out_).find("--trace only applies with --report"),
            std::string::npos)
      << slurp(out_);

  // Errors: no store is a merge failure (2); bad usage is 1.
  EXPECT_EQ(WEXITSTATUS(run_merge("--report --out " + regen +
                                  " /tmp/hmpt_cli_no_store_here")),
            2);
  EXPECT_NE(slurp(out_).find("merge failed"), std::string::npos)
      << slurp(out_);
  EXPECT_EQ(WEXITSTATUS(run(matrix_flags() + " --store-format sqlite")), 1);
  EXPECT_EQ(WEXITSTATUS(run_merge("--out " + merged + " --store-format " +
                                  "sqlite " + store_)),
            1);
}

// ----------------------------------------------- hmpt_analyze satellites

class AnalyzeJsonTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto simulator = hmpt::sim::MachineSimulator::paper_platform();
    const auto app = hmpt::workloads::make_mg_model(simulator);
    hmpt::workloads::save_workload(profile_, *app.workload);
    fs::remove_all(store_);
  }
  void TearDown() override {
    std::remove(profile_.c_str());
    std::remove(out_.c_str());
    std::remove(json_.c_str());
    fs::remove_all(store_);
  }

  int run(const std::string& args) {
    const std::string cmd = std::string(HMPT_ANALYZE_PATH) + " " + args +
                            " > " + out_ + " 2>&1";
    return std::system(cmd.c_str());
  }

  int run_campaign(const std::string& args) {
    const std::string cmd = std::string(HMPT_CAMPAIGN_PATH) + " " + args +
                            " > " + out_ + " 2>&1";
    return std::system(cmd.c_str());
  }

  const std::string profile_ = "/tmp/hmpt_analyze_json_test.profile";
  const std::string out_ = "/tmp/hmpt_analyze_json_test.out";
  const std::string json_ = "/tmp/hmpt_analyze_json_test.json";
  const std::string store_ = "/tmp/hmpt_analyze_json_test_store";
};

TEST_F(AnalyzeJsonTest, ListsPlatformsAndWorkloads) {
  ASSERT_EQ(run("--list-platforms"), 0) << slurp(out_);
  EXPECT_NE(slurp(out_).find("xeon-max (alias spr)"), std::string::npos);
  ASSERT_EQ(run("--list-workloads"), 0) << slurp(out_);
  EXPECT_NE(slurp(out_).find("recorded"), std::string::npos);
}

TEST_F(AnalyzeJsonTest, JsonFlagWritesARoundTrippableOutcome) {
  // --json writes the campaign outcome format: for every strategy the
  // bytes equal the outcome a campaign stores for the same profile.
  ASSERT_EQ(run_campaign("--workload recorded:path=" + profile_ +
                         " --platform xeon-max --strategy exhaustive"
                         " --strategy online --strategy estimator"
                         " --reps 3 --quiet --out " +
                         store_),
            0)
      << slurp(out_);
  std::map<std::string, std::string> stored;  // strategy -> outcome bytes
  for (const auto& record : fs::directory_iterator(store_ + "/outcomes")) {
    const auto outcome =
        hmpt::Json::parse(slurp(record.path().string())).at("outcome");
    stored[outcome.at("strategy").as_string()] = outcome.dump();
  }
  ASSERT_EQ(stored.size(), 3u);

  for (const std::string strategy : {"exhaustive", "online", "estimator"}) {
    ASSERT_EQ(run(profile_ + " --strategy " + strategy +
                  " --reps 3 --json " + json_),
              0)
        << slurp(out_);
    const std::string text = slurp(json_);
    ASSERT_FALSE(text.empty());
    EXPECT_EQ(text, stored[strategy]) << strategy;
    const auto outcome =
        hmpt::tuner::outcome_from_json(hmpt::Json::parse(text));
    EXPECT_EQ(outcome.strategy, strategy);
    EXPECT_EQ(outcome.workload, "NPB:_Multi-Grid");  // profile-sanitised
    EXPECT_NEAR(outcome.speedup(), 2.27, 0.01);
    // The exhaustive artefact carries the full sweep and no trajectory
    // (like a campaign scenario's stored outcome); the others carry their
    // measured table.
    if (strategy == "exhaustive") {
      ASSERT_TRUE(outcome.sweep.has_value());
      EXPECT_EQ(outcome.sweep->configs.size(), 8u);  // 2^3 on MG
      EXPECT_TRUE(outcome.trajectory.empty());
    } else {
      EXPECT_FALSE(outcome.configs().empty());
    }
    // Serialising the parsed outcome reproduces the file byte-for-byte.
    EXPECT_EQ(hmpt::tuner::outcome_to_json(outcome).dump(), text);
  }
}

}  // namespace
