// Calibration tests: the simulated platform + app models must reproduce
// the paper's published numbers — Table II per application, the platform
// analysis values of Sec. I-A, and the figure shapes. These are the
// reproduction's acceptance tests; EXPERIMENTS.md records the same
// comparisons narratively.
#include <gtest/gtest.h>

#include "common/units.h"
#include "core/summary.h"
#include "simmem/simulator.h"
#include "workloads/app_models.h"
#include "workloads/stream.h"

namespace hmpt {
namespace {

using topo::PoolKind;

class CalibrationTest : public ::testing::Test {
 protected:
  sim::MachineSimulator sim_ = sim::MachineSimulator::paper_platform();

  tuner::SummaryAnalysis analyse(const workloads::AppInfo& app) {
    std::vector<double> bytes;
    for (const auto& g : app.workload->groups()) bytes.push_back(g.bytes);
    tuner::ConfigSpace space(bytes);
    tuner::ExperimentRunner runner(sim_, app.context, {1});
    const auto sweep = runner.sweep(*app.workload, space);
    return tuner::summarize(sweep, tuner::group_weights(*app.workload, space));
  }
};

// Table II, checked per application: max speedup and HBM-only speedup
// within 0.05x, 90 %-speedup HBM usage within 3 percentage points.
struct TableTwoParam {
  const char* name;
  workloads::AppInfo (*factory)(const sim::MachineSimulator&);
};

class TableTwoTest : public CalibrationTest,
                     public ::testing::WithParamInterface<TableTwoParam> {};

TEST_P(TableTwoTest, MatchesPaperRow) {
  const auto app = GetParam().factory(sim_);
  const auto summary = analyse(app);
  EXPECT_NEAR(summary.max_speedup, app.paper.max_speedup, 0.05)
      << app.name << " max speedup";
  EXPECT_NEAR(summary.hbm_only_speedup, app.paper.hbm_only_speedup, 0.05)
      << app.name << " HBM-only speedup";
  EXPECT_NEAR(summary.usage90, app.paper.usage90, 0.03)
      << app.name << " 90%-speedup HBM usage";
}

INSTANTIATE_TEST_SUITE_P(
    PaperBenchmarks, TableTwoTest,
    ::testing::Values(TableTwoParam{"mg", workloads::make_mg_model},
                      TableTwoParam{"bt", workloads::make_bt_model},
                      TableTwoParam{"lu", workloads::make_lu_model},
                      TableTwoParam{"sp", workloads::make_sp_model},
                      TableTwoParam{"ua", workloads::make_ua_model},
                      TableTwoParam{"is", workloads::make_is_model},
                      TableTwoParam{"kwave", workloads::make_kwave_model}),
    [](const ::testing::TestParamInfo<TableTwoParam>& info) {
      return info.param.name;
    });

TEST_F(CalibrationTest, HeadlineClaimSixtyToSeventyFivePercent) {
  // Abstract: "only about 60 % to 75 % of the data must be placed in HBM
  // to achieve 90 % of the potential performance" (k-Wave is the stated
  // ~77 % outlier, Sec. IV-B).
  for (const auto& app : workloads::paper_benchmark_suite(sim_)) {
    const auto summary = analyse(app);
    EXPECT_GE(summary.usage90, 0.50) << app.name;
    EXPECT_LE(summary.usage90, 0.80) << app.name;
  }
}

TEST_F(CalibrationTest, SomeAppsPreferKeepingDataInDdr) {
  // Table II: MG/BT/SP/IS have max speedup strictly above HBM-only —
  // i.e. the best placement keeps latency-bound groups in DDR.
  for (auto factory : {workloads::make_sp_model, workloads::make_is_model,
                       workloads::make_bt_model}) {
    const auto app = factory(sim_);
    const auto summary = analyse(app);
    EXPECT_GT(summary.max_speedup, summary.hbm_only_speedup) << app.name;
    EXPECT_LT(summary.max_usage, 1.0) << app.name;
  }
}

TEST_F(CalibrationTest, MgSinglesMatchFig7a) {
  const auto app = workloads::make_mg_model(sim_);
  std::vector<double> bytes;
  for (const auto& g : app.workload->groups()) bytes.push_back(g.bytes);
  tuner::ConfigSpace space(bytes);
  tuner::ExperimentRunner runner(sim_, app.context, {1});
  const auto sweep = runner.sweep(*app.workload, space);
  const auto speedup = [&](tuner::ConfigMask mask) {
    return tuner::speedup_of(sweep.baseline_time, sweep.of(mask).mean_time);
  };
  // Fig. 7a: moving either hot allocation alone yields > 1.6x; both
  // together > 2.2x.
  EXPECT_GT(speedup(0b001), 1.6);
  EXPECT_GT(speedup(0b010), 1.55);
  EXPECT_GT(speedup(0b011), 2.2);
  // The rarely-touched rhs array contributes nearly nothing.
  EXPECT_LT(speedup(0b100), 1.05);
}

TEST_F(CalibrationTest, LuSingleAllocationCarriesMostSpeedup) {
  // Sec. IV-A: "most of the speedup ... achieved by moving a single
  // allocation (about 25 % of the memory footprint)".
  const auto app = workloads::make_lu_model(sim_);
  std::vector<double> bytes;
  for (const auto& g : app.workload->groups()) bytes.push_back(g.bytes);
  tuner::ConfigSpace space(bytes);
  tuner::ExperimentRunner runner(sim_, app.context, {1});
  const auto sweep = runner.sweep(*app.workload, space);
  const double single =
      tuner::speedup_of(sweep.baseline_time, sweep.of(0b0000001).mean_time);
  const double full =
      tuner::speedup_of(sweep.baseline_time, sweep.all_hbm().mean_time);
  EXPECT_GT((single - 1.0) / (full - 1.0), 0.55);
  EXPECT_NEAR(tuner::hbm_usage_of(tuner::group_weights(*app.workload, space),
                                  0b0000001, 2),
              0.25, 0.01);
}

// ------------------------------------------------- platform analysis checks
TEST_F(CalibrationTest, StreamSocketBandwidthsMatchSecIA) {
  auto single = sim::MachineSimulator::paper_platform_single();
  const auto ctx = single.socket_context(12);
  const auto copy = workloads::make_stream_phase(
      workloads::StreamKernel::Copy, 16.0 * GB);
  const double ddr = single.phase_bandwidth(
      copy, sim::Placement::uniform(3, PoolKind::DDR), ctx);
  const double hbm = single.phase_bandwidth(
      copy, sim::Placement::uniform(3, PoolKind::HBM), ctx);
  EXPECT_NEAR(ddr / GB, 200.0, 10.0);   // "about 200 GB/s"
  EXPECT_NEAR(hbm / GB, 675.0, 50.0);   // "about 700 GB/s"
}

TEST_F(CalibrationTest, HbmToDdrCopyAnomalyIsSixtyFivePercent) {
  auto single = sim::MachineSimulator::paper_platform_single();
  const auto ctx = single.socket_context(12);
  const auto copy = workloads::make_stream_phase(
      workloads::StreamKernel::Copy, 16.0 * GB);
  const double h2d = single.phase_bandwidth(
      copy, sim::Placement({PoolKind::HBM, PoolKind::HBM, PoolKind::DDR}),
      ctx);
  const double d2h = single.phase_bandwidth(
      copy, sim::Placement({PoolKind::DDR, PoolKind::DDR, PoolKind::HBM}),
      ctx);
  EXPECT_NEAR(h2d / d2h, 0.65, 0.03);  // Fig. 5a
}

TEST_F(CalibrationTest, AddWithOneDdrInputMatchesHbmOnly) {
  // Fig. 5b: DDR+HBM->HBM ~ HBM-only, saving a third of HBM capacity.
  auto single = sim::MachineSimulator::paper_platform_single();
  const auto ctx = single.socket_context(12);
  const auto add = workloads::make_stream_phase(
      workloads::StreamKernel::Add, 16.0 * GB);
  const double mixed = single.phase_bandwidth(
      add, sim::Placement({PoolKind::DDR, PoolKind::HBM, PoolKind::HBM}),
      ctx);
  const double hbm_only = single.phase_bandwidth(
      add, sim::Placement::uniform(3, PoolKind::HBM), ctx);
  EXPECT_GT(mixed / hbm_only, 0.9);
}

TEST_F(CalibrationTest, ChaseLatencyPenaltyAroundTwentyPercent) {
  auto single = sim::MachineSimulator::paper_platform_single();
  const double ddr = single.chase_latency(256.0 * MB, PoolKind::DDR);
  const double hbm = single.chase_latency(256.0 * MB, PoolKind::HBM);
  EXPECT_NEAR(hbm / ddr, 1.19, 0.03);
}

TEST_F(CalibrationTest, RandomIndirectSumCrossoverNearFullThreads) {
  // Fig. 4: indirect sum crosses speedup 1.0 only near 12 threads/tile.
  auto single = sim::MachineSimulator::paper_platform_single();
  const auto speedup_at = [&](int tpt) {
    const auto ctx = single.socket_context(tpt);
    return single.random_access_bandwidth(PoolKind::HBM, ctx.threads,
                                          ctx.tiles) /
           single.random_access_bandwidth(PoolKind::DDR, ctx.threads,
                                          ctx.tiles);
  };
  EXPECT_LT(speedup_at(1), 0.9);
  EXPECT_LT(speedup_at(8), 1.0);
  EXPECT_GT(speedup_at(12), 1.0);
  EXPECT_LT(speedup_at(12), 1.1);  // barely crosses, as in the paper
}

TEST_F(CalibrationTest, RooflineAiOrderingMatchesFig8) {
  // Fig. 8: MG and UA sit deepest in the memory-bound region (lowest AI,
  // hence the largest HBM gains); BT has far higher DRAM-side AI than MG.
  const auto ai_of = [&](workloads::AppInfo (*factory)(
                             const sim::MachineSimulator&)) {
    return workloads::arithmetic_intensity(*factory(sim_).workload);
  };
  const double mg = ai_of(workloads::make_mg_model);
  const double ua = ai_of(workloads::make_ua_model);
  const double bt = ai_of(workloads::make_bt_model);
  const double sp = ai_of(workloads::make_sp_model);
  EXPECT_GT(bt, 5.0 * mg);
  EXPECT_GT(sp, mg);
  // MG is below the HBM ridge point (bandwidth-bound even on HBM).
  const auto roofline = sim::spr_hbm_roofline();
  EXPECT_LT(mg, roofline.ridge_point("HBM"));
  EXPECT_GT(ua, 0.01);
}

}  // namespace
}  // namespace hmpt
