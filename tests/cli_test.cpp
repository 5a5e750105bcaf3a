// End-to-end tests of the hmpt_analyze command-line tool: write a profile,
// run the binary, check the analysis output and the emitted plan. The
// binary path comes from CMake via HMPT_ANALYZE_PATH.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "simmem/simulator.h"
#include "shim/plan.h"
#include "workloads/app_models.h"
#include "workloads/trace_io.h"

namespace {

#ifndef HMPT_ANALYZE_PATH
#define HMPT_ANALYZE_PATH ""
#endif

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto simulator = hmpt::sim::MachineSimulator::paper_platform();
    const auto app = hmpt::workloads::make_mg_model(simulator);
    hmpt::workloads::save_workload(profile_, *app.workload);
  }
  void TearDown() override {
    std::remove(profile_.c_str());
    std::remove(out_.c_str());
    std::remove(plan_.c_str());
  }

  int run(const std::string& args) {
    const std::string cmd = std::string(HMPT_ANALYZE_PATH) + " " + args +
                            " > " + out_ + " 2>&1";
    return std::system(cmd.c_str());
  }

  const std::string profile_ = "/tmp/hmpt_cli_test.profile";
  const std::string out_ = "/tmp/hmpt_cli_test.out";
  const std::string plan_ = "/tmp/hmpt_cli_test.plan";
};

TEST_F(CliTest, AnalysesAProfile) {
  ASSERT_EQ(run(profile_), 0) << slurp(out_);
  const std::string out = slurp(out_);
  EXPECT_NE(out.find("maximum speedup: 2.27x"), std::string::npos) << out;
  EXPECT_NE(out.find("90 % of max"), std::string::npos);
  EXPECT_NE(out.find("recommended placement"), std::string::npos);
}

TEST_F(CliTest, WritesAUsablePlan) {
  ASSERT_EQ(run(profile_ + " --plan-out " + plan_), 0) << slurp(out_);
  const std::string plan_text = slurp(plan_);
  ASSERT_FALSE(plan_text.empty());
  const auto plan = hmpt::shim::PlacementPlan::parse(plan_text);
  // MG's optimum: the two hot allocations in HBM, the rhs in DDR.
  EXPECT_EQ(plan.kind_for_named("mg::u"), hmpt::topo::PoolKind::HBM);
  EXPECT_EQ(plan.kind_for_named("mg::r"), hmpt::topo::PoolKind::HBM);
  EXPECT_EQ(plan.kind_for_named("mg::v"), hmpt::topo::PoolKind::DDR);
}

TEST_F(CliTest, BudgetOptionConstrainsThePlan) {
  ASSERT_EQ(run(profile_ + " --budget-gb 10"), 0) << slurp(out_);
  const std::string out = slurp(out_);
  // 10 GB fits only one of MG's ~9.2 GB groups; the report prints the
  // bytes actually used by the chosen placement.
  EXPECT_NE(out.find("recommended placement (budget 9.21 GB HBM): [0]"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("[0] at 1.66x"), std::string::npos) << out;
}

TEST_F(CliTest, KnlPlatformSelectable) {
  ASSERT_EQ(run(profile_ + " --platform knl"), 0) << slurp(out_);
  EXPECT_NE(slurp(out_).find("KNL-like"), std::string::npos);
}

TEST_F(CliTest, CsvFlagEmitsCsv) {
  ASSERT_EQ(run(profile_ + " --csv"), 0) << slurp(out_);
  EXPECT_NE(slurp(out_).find("hbm_footprint,speedup,"), std::string::npos);
}

TEST_F(CliTest, BadUsageFailsCleanly) {
  EXPECT_NE(run(""), 0);
  EXPECT_NE(run("--frobnicate"), 0);
  EXPECT_NE(run("/nonexistent/profile.txt"), 0);
  EXPECT_EQ(run("--help"), 0);
}

TEST_F(CliTest, BadFlagValuesFailWithUsage) {
  // Out-of-range numerics exit 1 and print the usage text, instead of
  // silently misconfiguring the run.
  for (const std::string args :
       {"--threshold 0", "--threshold 1.5", "--threshold -0.3",
        "--budget-gb -1", "--reps 0", "--reps -2", "--top-k 0",
        "--threshold abc", "--reps 2.5", "--strategy frobnicate",
        // Tier flags: --tiers must be 0 or >= 2 and within the platform's
        // tier count; tier budgets must name a searched non-DDR tier.
        "--tiers 1", "--tiers -2", "--tiers abc", "--tiers 3",
        "--tier-budget-gb 64", "--tier-budget-gb 0:16",
        "--tier-budget-gb 9:16", "--tier-budget-gb 1:-4",
        "--tier-budget-gb 2:64", "--platform spr-cxl --tiers 2 "
        "--tier-budget-gb 2:64"}) {
    const int rc = run(profile_ + " " + args);
    EXPECT_NE(rc, 0) << args;
    EXPECT_NE(slurp(out_).find("usage:"), std::string::npos) << args;
  }
  // The boundary values stay valid.
  EXPECT_EQ(run(profile_ + " --threshold 1 --reps 1 --budget-gb 0"), 0)
      << slurp(out_);
  EXPECT_EQ(run(profile_ + " --reps 1 --tiers 2 --tier-budget-gb 1:16"), 0)
      << slurp(out_);
}

TEST_F(CliTest, ThreeTierPlatformSweepsTheLargerSpace) {
  ASSERT_EQ(run(profile_ + " --platform spr-cxl --reps 1"), 0)
      << slurp(out_);
  const std::string out = slurp(out_);
  EXPECT_NE(out.find("CXL expander"), std::string::npos) << out;
  EXPECT_NE(out.find("configurations measured: 27"), std::string::npos)
      << out;
  // Restricting the same platform to two tiers reproduces the 2^n space.
  ASSERT_EQ(run(profile_ + " --platform spr-cxl --tiers 2 --reps 1"), 0)
      << slurp(out_);
  EXPECT_NE(slurp(out_).find("configurations measured: 8"),
            std::string::npos)
      << slurp(out_);
}

TEST_F(CliTest, RemovedJobsFlagIsAUsageError) {
  // Measurement is serial; --jobs is gone rather than silently ignored.
  for (const std::string args : {"--jobs 1", "--jobs 4", "--jobs 0"}) {
    EXPECT_EQ(WEXITSTATUS(run(profile_ + " " + args)), 1) << args;
    EXPECT_NE(slurp(out_).find("unknown option: --jobs"), std::string::npos)
        << slurp(out_);
  }
}

TEST_F(CliTest, UnwritableOutputFailsWithoutAWrittenLine) {
  // A full device accepts the open and fails the write: the tool must
  // report the failure (exit 2), never claim the file was written.
  for (const std::string flag : {"--plan-out", "--json"}) {
    EXPECT_EQ(WEXITSTATUS(run(profile_ + " " + flag + " /dev/full")), 2)
        << flag;
    const std::string out = slurp(out_);
    EXPECT_EQ(out.find("written to /dev/full"), std::string::npos) << out;
    EXPECT_NE(out.find("/dev/full"), std::string::npos) << out;
  }
}

// Pull "...: [0 1] at 2.27x" out of either report flavour.
std::string recommended_mask(const std::string& out) {
  const auto at = out.find("recommended placement");
  if (at == std::string::npos) return "<missing>";
  const auto open = out.find('[', at);
  const auto close = out.find(']', at);
  if (open == std::string::npos || close == std::string::npos)
    return "<missing>";
  return out.substr(open, close - open + 1);
}

TEST_F(CliTest, AllStrategiesAgreeOnTheRecommendedMask) {
  ASSERT_EQ(run(profile_ + " --strategy exhaustive"), 0) << slurp(out_);
  const std::string exhaustive = recommended_mask(slurp(out_));
  ASSERT_NE(exhaustive, "<missing>") << slurp(out_);

  ASSERT_EQ(run(profile_ + " --strategy online"), 0) << slurp(out_);
  EXPECT_EQ(recommended_mask(slurp(out_)), exhaustive) << slurp(out_);

  ASSERT_EQ(run(profile_ + " --strategy estimator"), 0) << slurp(out_);
  const std::string estimator_out = slurp(out_);
  EXPECT_EQ(recommended_mask(estimator_out), exhaustive) << estimator_out;
  // The estimator-guided search reports measuring less than the full space.
  EXPECT_NE(estimator_out.find("configurations measured: 7 of 8"),
            std::string::npos)
      << estimator_out;
}

TEST_F(CliTest, StrategyPlanMatchesExhaustivePlan) {
  ASSERT_EQ(run(profile_ + " --strategy estimator --plan-out " + plan_), 0)
      << slurp(out_);
  const auto plan = hmpt::shim::PlacementPlan::parse(slurp(plan_));
  EXPECT_EQ(plan.kind_for_named("mg::u"), hmpt::topo::PoolKind::HBM);
  EXPECT_EQ(plan.kind_for_named("mg::r"), hmpt::topo::PoolKind::HBM);
  EXPECT_EQ(plan.kind_for_named("mg::v"), hmpt::topo::PoolKind::DDR);
}

}  // namespace
