// Golden-file regression tests for the hmpt_analyze text reports on the
// paper workloads: the full report bytes — tables, charts, recommendation
// lines — are compared against checked-in expectations in tests/data/.
// The two-tier goldens were captured from the pre-refactor mask-based
// tuner, so they double as the byte-level two-tier-equivalence guarantee
// of the k-tier generalisation; the spr-cxl golden locks down the
// three-tier report.
//
// Regenerating the goldens after an intentional report change:
//
//   HMPT_UPDATE_GOLDEN=1 ctest -R golden_report_test
//   git diff tests/data/   # review every byte before committing
//
// The update path rewrites tests/data/*.golden.txt with the current
// binary's output (and the test passes); without the variable any
// difference is a failure.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "simmem/simulator.h"
#include "workloads/app_models.h"
#include "workloads/trace_io.h"

namespace {

#ifndef HMPT_ANALYZE_PATH
#define HMPT_ANALYZE_PATH ""
#endif
#ifndef HMPT_TEST_DATA_DIR
#define HMPT_TEST_DATA_DIR ""
#endif

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

class GoldenReportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // A per-process scratch directory: concurrent ctest runs (build/ and
    // build-asan/, parallel CI jobs) must not race on shared file names.
    char tmpl[] = "/tmp/hmpt_golden_XXXXXX";
    ASSERT_NE(mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
    // Profiles are regenerated from the analytic app models on every run:
    // the text format is deterministic, so the golden inputs need no
    // checked-in fixtures.
    auto simulator = hmpt::sim::MachineSimulator::paper_platform();
    hmpt::workloads::save_workload(
        dir_ + "/mg.profile",
        *hmpt::workloads::make_mg_model(simulator).workload);
    hmpt::workloads::save_workload(
        dir_ + "/kwave.profile",
        *hmpt::workloads::make_kwave_model(simulator).workload);
    hmpt::workloads::save_workload(
        dir_ + "/bt.profile",
        *hmpt::workloads::make_bt_model(simulator).workload);
  }
  void TearDown() override {
    for (const char* f : {"mg.profile", "kwave.profile", "bt.profile",
                          "report.out"})
      std::remove((dir_ + "/" + f).c_str());
    rmdir(dir_.c_str());
  }

  /// Runs hmpt_analyze from inside dir_ (so the report's profile line is
  /// the bare file name, machine-independent) and compares the full
  /// stdout+stderr bytes with tests/data/<golden>.
  void expect_golden(const std::string& args, const std::string& golden) {
    const std::string out_path = dir_ + "/report.out";
    const std::string cmd = "cd " + dir_ + " && " +
                            std::string(HMPT_ANALYZE_PATH) + " " + args +
                            " > report.out 2>&1";
    ASSERT_EQ(std::system(cmd.c_str()), 0) << slurp(out_path);
    const std::string actual = slurp(out_path);
    const std::string golden_path =
        std::string(HMPT_TEST_DATA_DIR) + "/" + golden;

    if (std::getenv("HMPT_UPDATE_GOLDEN") != nullptr) {
      std::ofstream os(golden_path, std::ios::binary);
      ASSERT_TRUE(os.good()) << "cannot write " << golden_path;
      os << actual;
      return;
    }
    const std::string expected = slurp(golden_path);
    ASSERT_FALSE(expected.empty())
        << "missing golden " << golden_path
        << " (regenerate with HMPT_UPDATE_GOLDEN=1)";
    EXPECT_EQ(actual, expected)
        << "report bytes diverged from " << golden
        << "; if the change is intentional, regenerate with "
           "HMPT_UPDATE_GOLDEN=1 and review the diff";
  }

  std::string dir_;
};

// Two-tier goldens: captured from the pre-refactor mask-based tuner, byte
// for byte — the k-tier engine must keep reproducing them forever.
TEST_F(GoldenReportTest, MgExhaustiveReport) {
  expect_golden("mg.profile", "mg_exhaustive.golden.txt");
}

TEST_F(GoldenReportTest, MgOnlineReport) {
  expect_golden("mg.profile --strategy online", "mg_online.golden.txt");
}

TEST_F(GoldenReportTest, MgEstimatorReportWithCsv) {
  expect_golden("mg.profile --strategy estimator --csv",
                "mg_estimator.golden.txt");
}

TEST_F(GoldenReportTest, BtBudgetedReport) {
  expect_golden("bt.profile --budget-gb 40", "bt_budget.golden.txt");
}

TEST_F(GoldenReportTest, KwaveExhaustiveReportWithCsv) {
  expect_golden("kwave.profile --csv", "kwave_exhaustive.golden.txt");
}

// Three-tier golden: the HBM/DDR/CXL platform sweeps 3^n configurations
// and prints tier-annotated labels.
TEST_F(GoldenReportTest, MgThreeTierReport) {
  expect_golden("mg.profile --platform spr-cxl",
                "mg_cxl_exhaustive.golden.txt");
}

}  // namespace
