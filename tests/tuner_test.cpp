// Tests for hmpt::tuner — grouping, config space, experiment runner,
// linear estimator, summary analysis, capacity planner, reports.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/error.h"
#include "common/units.h"
#include "core/grouping.h"
#include "core/planner.h"
#include "core/report.h"
#include "core/summary.h"
#include "workloads/app_models.h"
#include "workloads/recorded.h"

namespace hmpt::tuner {
namespace {

using topo::PoolKind;

// ---------------------------------------------------------------- grouping
shim::SiteUsage usage(int site, const std::string& label, std::size_t peak) {
  shim::SiteUsage u;
  u.site = site;
  u.label = label;
  u.peak_live_bytes = peak;
  u.live_bytes = peak;
  u.num_allocations = 1;
  return u;
}

TEST(GroupingTest, TopKPlusRestByDensity) {
  std::vector<shim::SiteUsage> sites = {
      usage(0, "cold_big", 1u << 30), usage(1, "hot", 1u << 28),
      usage(2, "warm", 1u << 28), usage(3, "tiny", 1u << 10)};
  std::vector<double> densities = {0.05, 0.6, 0.3, 0.05};
  GroupingOptions options;
  options.min_bytes = 1u << 20;  // folds "tiny"
  options.max_groups = 3;       // top-2 + rest
  const auto groups = build_groups(sites, densities, options);
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0].label, "hot");
  EXPECT_EQ(groups[1].label, "warm");
  EXPECT_EQ(groups[2].label, "rest");
  // Rest folds the filtered tiny site and the overflow cold_big site.
  EXPECT_EQ(groups[2].sites.size(), 2u);
  EXPECT_NEAR(groups[2].access_density, 0.10, 1e-12);
}

TEST(GroupingTest, ByBytesRankingIgnoresDensity) {
  std::vector<shim::SiteUsage> sites = {usage(0, "big", 1u << 30),
                                        usage(1, "small_hot", 1u << 20)};
  std::vector<double> densities = {0.1, 0.9};
  GroupingOptions options;
  options.max_groups = 2;
  options.ranking = GroupRanking::ByBytes;
  const auto groups = build_groups(sites, densities, options);
  EXPECT_EQ(groups[0].label, "big");
}

TEST(GroupingTest, NoRestGroupWhenEverythingIsSignificant) {
  std::vector<shim::SiteUsage> sites = {usage(0, "a", 1u << 25),
                                        usage(1, "b", 1u << 25)};
  std::vector<double> densities = {0.5, 0.5};
  GroupingOptions options;
  options.max_groups = 8;
  const auto groups = build_groups(sites, densities, options);
  EXPECT_EQ(groups.size(), 2u);
}

TEST(GroupingTest, LabelSetsFoldVectorFields) {
  // k-Wave style: ux/uy/uz become one group.
  std::vector<shim::SiteUsage> sites = {
      usage(0, "ux", 100), usage(1, "uy", 100), usage(2, "uz", 100),
      usage(3, "p", 50), usage(4, "misc", 10)};
  std::vector<double> densities = {0.2, 0.2, 0.2, 0.3, 0.1};
  const auto groups =
      build_groups_by_labels(sites, densities, {{"ux", "uy", "uz"}, {"p"}});
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0].label, "ux+uy+uz");
  EXPECT_EQ(groups[0].sites.size(), 3u);
  EXPECT_DOUBLE_EQ(groups[0].bytes, 300.0);
  EXPECT_NEAR(groups[0].access_density, 0.6, 1e-12);
  EXPECT_EQ(groups[2].label, "rest");
}

// ------------------------------------------------------------- config space
TEST(ConfigSpaceTest, EnumerationAndUsage) {
  ConfigSpace space({100.0, 200.0, 700.0});
  EXPECT_EQ(space.size(), 8u);
  EXPECT_DOUBLE_EQ(space.total_bytes(), 1000.0);
  // One walk of the mask's digits sums every tier.
  EXPECT_EQ(tier_sums(space.group_bytes(), 0b010, 2),
            (TierSums{800.0, 200.0, 0.0}));
  EXPECT_EQ(tier_sum(space.group_bytes(), 0b010, 2, PoolKind::HBM), 200.0);
  EXPECT_EQ(tier_sums({1.0, 2.0, 4.0}, 2 * 1 + 1 * 3 + 0 * 9, 3),
            (TierSums{4.0, 2.0, 1.0}));
  const GroupWeights weights{space.group_bytes(), space.total_bytes(), {}, 0};
  EXPECT_DOUBLE_EQ(hbm_usage_of(weights, 0b101, 2), 0.8);
  EXPECT_EQ(groups_in_hbm_of(0b111, 3, 2), 3);
  EXPECT_EQ(groups_in_hbm_of(0b011, 3, 2), 2);
}

TEST(ConfigSpaceTest, GrayOrderFlipsOneBitAtATime) {
  ConfigSpace space({1.0, 1.0, 1.0, 1.0});
  const auto masks = space.gray_masks();
  ASSERT_EQ(masks.size(), 16u);
  for (std::size_t i = 1; i < masks.size(); ++i) {
    const ConfigMask diff = masks[i] ^ masks[i - 1];
    EXPECT_EQ(diff & (diff - 1), 0u) << i;  // power of two
  }
  // Gray order is a permutation of all masks.
  std::set<ConfigMask> unique(masks.begin(), masks.end());
  EXPECT_EQ(unique.size(), 16u);
}

TEST(ConfigSpaceTest, MasksOfRankSelectsByPopcount) {
  ConfigSpace space({1.0, 1.0, 1.0});
  EXPECT_EQ(space.masks_of_rank(0).size(), 1u);
  EXPECT_EQ(space.masks_of_rank(1).size(), 3u);
  EXPECT_EQ(space.masks_of_rank(2).size(), 3u);
  EXPECT_EQ(space.masks_of_rank(3).size(), 1u);
  EXPECT_THROW(space.masks_of_rank(4), Error);
}

TEST(ConfigSpaceTest, PlacementMapsBitsToHbm) {
  ConfigSpace space({1.0, 1.0, 1.0});
  const auto p = space.placement(0b101);
  EXPECT_EQ(p.of(0), PoolKind::HBM);
  EXPECT_EQ(p.of(1), PoolKind::DDR);
  EXPECT_EQ(p.of(2), PoolKind::HBM);
}

TEST(ConfigSpaceTest, GuardsAgainstExplosion) {
  EXPECT_THROW(ConfigSpace(std::vector<double>(21, 1.0)), Error);
  EXPECT_THROW(ConfigSpace({}), Error);
  EXPECT_THROW(ConfigSpace({0.0}), Error);
}

// -------------------------------------------------------------- experiment
class ExperimentTest : public ::testing::Test {
 protected:
  sim::MachineSimulator sim_ = sim::MachineSimulator::paper_platform();
  workloads::AppInfo app_ = workloads::make_mg_model(sim_);
  ConfigSpace space_{[&] {
    std::vector<double> bytes;
    for (const auto& g : app_.workload->groups()) bytes.push_back(g.bytes);
    return bytes;
  }()};
  GroupWeights weights_ = group_weights(*app_.workload, space_);

  static double speedup(const SweepResult& sweep, const ConfigResult& cfg) {
    return speedup_of(sweep.baseline_time, cfg.mean_time);
  }
};

TEST_F(ExperimentTest, BaselineHasSpeedupOne) {
  ExperimentRunner runner(sim_, app_.context, {2});
  const auto sweep = runner.sweep(*app_.workload, space_);
  EXPECT_DOUBLE_EQ(speedup(sweep, sweep.all_ddr()), 1.0);
  EXPECT_GT(sweep.baseline_time, 0.0);
  EXPECT_EQ(sweep.configs.size(), 8u);
}

TEST_F(ExperimentTest, AllHbmBeatsAllDdrForMg) {
  ExperimentRunner runner(sim_, app_.context, {2});
  const auto sweep = runner.sweep(*app_.workload, space_);
  EXPECT_GT(speedup(sweep, sweep.all_hbm()), 2.0);
}

TEST_F(ExperimentTest, HbmUsageAndDensityConsistent) {
  ExperimentRunner runner(sim_, app_.context, {1});
  const auto sweep = runner.sweep(*app_.workload, space_);
  for (const auto& cfg : sweep.configs) {
    EXPECT_GE(hbm_usage_of(weights_, cfg.mask, 2), 0.0);
    EXPECT_LE(hbm_usage_of(weights_, cfg.mask, 2), 1.0);
    EXPECT_GE(hbm_density_of(weights_, cfg.mask, 2), 0.0);
    EXPECT_LE(hbm_density_of(weights_, cfg.mask, 2), 1.0);
  }
  EXPECT_DOUBLE_EQ(hbm_density_of(weights_, sweep.of(0).mask, 2), 0.0);
  EXPECT_DOUBLE_EQ(hbm_density_of(weights_, sweep.all_hbm().mask, 2), 1.0);
}

TEST_F(ExperimentTest, ArityMismatchThrows) {
  ConfigSpace wrong({1.0, 2.0});
  ExperimentRunner runner(sim_, app_.context, {1});
  EXPECT_THROW(runner.sweep(*app_.workload, wrong), Error);
}

TEST(AccessFractionTest, WeighsBytesByPlacement) {
  sim::PhaseTrace trace;
  sim::KernelPhase phase;
  phase.streams.push_back({0, 30.0, 0.0, sim::AccessPattern::Sequential,
                           true, 0.0});
  phase.streams.push_back({1, 70.0, 0.0, sim::AccessPattern::Sequential,
                           true, 0.0});
  trace.phases.push_back(phase);
  const workloads::RecordedWorkload workload(
      "two streams", {{"a", 1.0}, {"b", 1.0}}, trace);
  const ConfigSpace space({1.0, 1.0});
  // Group 0 alone in HBM serves its 30 of the trace's 100 bytes.
  EXPECT_DOUBLE_EQ(hbm_density_of(group_weights(workload, space), 0b01, 2),
                   0.3);
}

// --------------------------------------------------------------- estimator
TEST(EstimatorTest, LinearCombinationOfSingles) {
  LinearEstimator est(std::vector<double>{1.5, 1.2, 1.0});
  EXPECT_DOUBLE_EQ(est.estimate(0b000), 1.0);
  EXPECT_DOUBLE_EQ(est.estimate(0b001), 1.5);
  EXPECT_DOUBLE_EQ(est.estimate(0b011), 1.7);
  EXPECT_DOUBLE_EQ(est.estimate(0b111), 1.7);
  EXPECT_THROW(est.estimate(0b1000), Error);
  EXPECT_EQ(est.estimate_all().size(), 8u);
}

TEST_F(ExperimentTest, EstimatorNearExactForAdditiveAppWithConvexBias) {
  // BT is built additively in *runtime*; the paper's estimator combines
  // *speedups* linearly, which under-estimates combinations: savings that
  // compose additively in runtime compound super-linearly in speedup
  // (1/(1-x) convexity). The bias is small (BT's savings are small) and
  // one-sided: est <= measured for every configuration.
  const auto bt = workloads::make_bt_model(sim_);
  ConfigSpace space([&] {
    std::vector<double> bytes;
    for (const auto& g : bt.workload->groups()) bytes.push_back(g.bytes);
    return bytes;
  }());
  ExperimentRunner runner(sim_, bt.context, {1});
  const auto sweep = runner.sweep(*bt.workload, space);
  const LinearEstimator est(sweep);
  const auto err = estimator_error(sweep, est);
  EXPECT_LT(err.max_abs, 0.05);
  // One-sidedness needs all member savings to point the same way; BT's
  // group 7 is DDR-preferring (negative saving), so restrict to masks
  // composed of HBM-beneficial groups only.
  for (const auto& cfg : sweep.configs) {
    if (cfg.mask & (ConfigMask{1} << 7)) continue;
    EXPECT_LE(est.estimate(cfg.mask), speedup(sweep, cfg) + 1e-9) << cfg.mask;
  }
}

TEST_F(ExperimentTest, AdditiveAppRuntimesComposeExactly) {
  // In runtime space the additive construction is exact:
  // T({0,1}) = T({0}) + T({1}) - T(DDR).
  const auto bt = workloads::make_bt_model(sim_);
  ConfigSpace space([&] {
    std::vector<double> bytes;
    for (const auto& g : bt.workload->groups()) bytes.push_back(g.bytes);
    return bytes;
  }());
  ExperimentRunner runner(sim_, bt.context, {1});
  const auto sweep = runner.sweep(*bt.workload, space);
  const double expected = sweep.of(0b01).mean_time +
                          sweep.of(0b10).mean_time - sweep.baseline_time;
  EXPECT_NEAR(sweep.of(0b11).mean_time, expected,
              sweep.baseline_time * 1e-9);
}

TEST_F(ExperimentTest, SharedPhaseAppViolatesRuntimeAdditivity) {
  // MG's shared V-cycle phase couples u and r through the per-pool max:
  // the runtime of moving both differs from the additive composition.
  ExperimentRunner runner(sim_, app_.context, {1});
  const auto sweep = runner.sweep(*app_.workload, space_);
  const double additive = sweep.of(0b001).mean_time +
                          sweep.of(0b010).mean_time - sweep.baseline_time;
  const double measured = sweep.of(0b011).mean_time;
  EXPECT_GT(std::fabs(measured - additive) / measured, 0.05);
}

// ----------------------------------------------------------------- summary
TEST_F(ExperimentTest, SummaryMatchesPaperForMg) {
  ExperimentRunner runner(sim_, app_.context, {2});
  const auto sweep = runner.sweep(*app_.workload, space_);
  const auto summary = summarize(sweep, weights_);
  EXPECT_NEAR(summary.max_speedup, 2.27, 0.05);
  EXPECT_NEAR(summary.hbm_only_speedup, 2.26, 0.05);
  EXPECT_NEAR(summary.usage90, 0.696, 0.01);
  EXPECT_EQ(summary.usage90_mask, 0b011u);  // groups 0 and 1
  EXPECT_EQ(summary.points.size(), 8u);
}

TEST(SummaryTest, ThresholdFractionGeneralises) {
  SweepResult sweep;
  sweep.num_groups = 1;
  sweep.baseline_time = 1.0;
  sweep.configs = {{0, 1.0, 0.0}, {1, 0.5, 0.0}};  // 1x and 2x
  const GroupWeights weights{{1.0}, 1.0, {1.0}, 1.0};
  const auto s50 = summarize(sweep, weights, 0.5);
  EXPECT_DOUBLE_EQ(s50.threshold90, 1.5);
  EXPECT_DOUBLE_EQ(s50.usage90, 1.0);
  EXPECT_THROW(summarize(sweep, weights, 0.0), Error);
}

// ----------------------------------------------------------------- planner
TEST_F(ExperimentTest, BudgetPlannerRespectsCapacity) {
  ExperimentRunner runner(sim_, app_.context, {1});
  const auto sweep = runner.sweep(*app_.workload, space_);
  CapacityPlanner planner(sweep, space_);

  // Unlimited budget: picks the global optimum.
  const auto best = planner.best_under_budget(1e18);
  EXPECT_NEAR(best.speedup, summarize(sweep, weights_).max_speedup, 1e-9);

  // Budget for one group (~9 GB): must pick the best single group.
  const auto one = planner.best_under_budget(10.0 * GB);
  EXPECT_LE(one.hbm_bytes, 10.0 * GB);
  EXPECT_EQ(groups_in_hbm_of(one.mask, 3, 2), 1);
  EXPECT_DOUBLE_EQ(one.hbm_usage, hbm_usage_of(weights_, one.mask, 2));

  // Zero budget: all-DDR.
  const auto none = planner.best_under_budget(0.0);
  EXPECT_EQ(none.mask, 0u);
}

TEST_F(ExperimentTest, CheapestReachingFindsMinimalBytes) {
  ExperimentRunner runner(sim_, app_.context, {1});
  const auto sweep = runner.sweep(*app_.workload, space_);
  CapacityPlanner planner(sweep, space_);
  const auto choice = planner.cheapest_reaching(2.0);
  ASSERT_TRUE(choice.has_value());
  EXPECT_GE(choice->speedup, 2.0);
  EXPECT_EQ(choice->mask, 0b011u);
  EXPECT_FALSE(planner.cheapest_reaching(99.0).has_value());
}

TEST_F(ExperimentTest, ParetoFrontIsMonotone) {
  ExperimentRunner runner(sim_, app_.context, {1});
  const auto sweep = runner.sweep(*app_.workload, space_);
  CapacityPlanner planner(sweep, space_);
  const auto front = planner.pareto_front();
  ASSERT_GE(front.size(), 2u);
  for (std::size_t i = 1; i < front.size(); ++i) {
    EXPECT_GE(front[i].hbm_bytes, front[i - 1].hbm_bytes);
    EXPECT_GT(front[i].speedup, front[i - 1].speedup);
  }
  EXPECT_EQ(front.front().mask, 0u);
}

TEST(KnapsackTest, PicksValueDenseGroupsUnderBudget) {
  LinearEstimator est(std::vector<double>{1.5, 1.4, 1.05, 0.95});
  const std::vector<double> bytes = {8.5 * GB, 6.0 * GB, 1.0 * GB,
                                     1.0 * GB};
  // Budget fits groups 1+2 but not group 0 (nor 0+anything).
  const auto choice = knapsack_plan(est, bytes, 8.0 * GB);
  EXPECT_EQ(choice.mask, 0b110u);  // groups 1 and 2
  EXPECT_NEAR(choice.speedup, 1.0 + 0.4 + 0.05, 1e-9);
  EXPECT_LE(choice.hbm_bytes, 8.0 * GB);
  // The DDR-preferring group 3 (speedup < 1) is never chosen.
  const auto rich = knapsack_plan(est, bytes, 1e15);
  EXPECT_EQ(rich.mask & 0b1000u, 0u);
}

TEST(PlannerPlanTest, MaskMaterialisesAsShimPlan) {
  std::vector<AllocationGroup> groups(2);
  groups[0].label = "hot";
  groups[1].label = "cold";
  const auto plan = to_placement_plan(groups, 0b01);
  EXPECT_EQ(plan.kind_for_named("hot"), PoolKind::HBM);
  EXPECT_EQ(plan.kind_for_named("cold"), PoolKind::DDR);
}

TEST(PlannerPlanTest, MultiSiteGroupsPinnedThroughRegistry) {
  shim::CallSiteRegistry sites;
  const int a = sites.intern_named("a");
  const int b = sites.intern_named("b");
  std::vector<AllocationGroup> groups(1);
  groups[0].label = "rest";
  groups[0].sites = {a, b};
  const auto plan = to_placement_plan(groups, 0b1, sites);
  EXPECT_EQ(plan.kind_for(sites.site(a).hash), PoolKind::HBM);
  EXPECT_EQ(plan.kind_for(sites.site(b).hash), PoolKind::HBM);
  EXPECT_EQ(plan.num_pinned_sites(), 2u);
}

// ------------------------------------------------------------------ report
TEST_F(ExperimentTest, DetailedViewListsAllNonBaselineConfigs) {
  ExperimentRunner runner(sim_, app_.context, {1});
  const auto sweep = runner.sweep(*app_.workload, space_);
  const auto summary = summarize(sweep, weights_);
  const auto view = render_detailed_view(sweep, weights_, summary);
  EXPECT_EQ(view.table.num_rows(), 7u);  // 2^3 - 1
  EXPECT_NE(view.bar_chart.find('#'), std::string::npos);
  const auto capped = render_detailed_view(sweep, weights_, summary, 1);
  EXPECT_EQ(capped.table.num_rows(), 3u);  // singles only
}

TEST_F(ExperimentTest, SummaryViewRendersReferenceLines) {
  ExperimentRunner runner(sim_, app_.context, {1});
  const auto sweep = runner.sweep(*app_.workload, space_);
  const auto summary = summarize(sweep, weights_);
  const auto view = render_summary_view(summary, "mg.D");
  EXPECT_EQ(view.table.num_rows(), 8u);
  EXPECT_NE(view.scatter.find("mg.D"), std::string::npos);
  EXPECT_NE(view.scatter.find("90 %"), std::string::npos);
}

TEST(ReportTest, MaskLabelsReadLikeThePaper) {
  EXPECT_EQ(mask_label(0, 3), "[DDR]");
  EXPECT_EQ(mask_label(0b101, 3), "[0 2]");
  EXPECT_EQ(mask_label(0b111, 3), "[0 1 2]");
}

TEST(ReportTest, Table2RowFormatsPercent) {
  SummaryAnalysis s;
  s.max_speedup = 2.27;
  s.hbm_only_speedup = 2.26;
  s.usage90 = 0.696;
  const auto row = table2_row("MG", s);
  ASSERT_EQ(row.size(), 4u);
  EXPECT_EQ(row[1], "2.27");
  EXPECT_EQ(row[3], "69.6");
}

}  // namespace
}  // namespace hmpt::tuner
