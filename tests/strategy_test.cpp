// Tests for the pluggable strategy layer: registry lookup, the Session
// facade, the capacity caps every strategy honours, and the cheaper search
// strategies (online, estimator-guided).
#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.h"
#include "common/units.h"
#include "core/outcome_io.h"
#include "core/planner.h"
#include "core/session.h"
#include "core/strategy.h"
#include "core/summary.h"
#include "workloads/app_models.h"

namespace hmpt::tuner {
namespace {

class StrategyTest : public ::testing::Test {
 protected:
  sim::MachineSimulator sim_ = sim::MachineSimulator::paper_platform();
  workloads::AppInfo mg_ = workloads::make_mg_model(sim_);
};

// ---------------------------------------------------------------- registry
TEST(StrategyRegistryTest, BuiltinsAreRegistered) {
  const auto names = StrategyRegistry::instance().names();
  for (const char* expected : {"estimator", "exhaustive", "online"})
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  EXPECT_EQ(make_strategy("exhaustive")->name(), "exhaustive");
  EXPECT_EQ(make_strategy("online")->name(), "online");
  EXPECT_EQ(make_strategy("estimator")->name(), "estimator");
}

TEST(StrategyRegistryTest, UnknownNameThrowsAndNamesKnown) {
  EXPECT_THROW(make_strategy("simulated-annealing"), Error);
  try {
    make_strategy("simulated-annealing");
    FAIL() << "expected hmpt::Error";
  } catch (const Error& e) {
    // The error message teaches the caller what is available.
    EXPECT_NE(std::string(e.what()).find("exhaustive"), std::string::npos)
        << e.what();
  }
}

TEST(StrategyRegistryTest, DuplicateAndEmptyRegistrationsRejected) {
  auto& registry = StrategyRegistry::instance();
  EXPECT_THROW(registry.add("exhaustive",
                            [] { return std::make_unique<ExhaustiveStrategy>(); }),
               Error);
  EXPECT_THROW(registry.add("", [] { return std::make_unique<ExhaustiveStrategy>(); }),
               Error);
  EXPECT_THROW(registry.add("null-factory", nullptr), Error);
}

TEST(StrategyRegistryTest, CustomStrategyPlugsIn) {
  class AllDdrStrategy : public TuningStrategy {
   public:
    std::string name() const override { return "test-all-ddr"; }
    TuningOutcome tune(sim::MachineSimulator&, sim::ExecutionContext,
                       const workloads::Workload& workload,
                       const ConfigSpace& space, const TuningBudget&,
                       const TuningCallbacks&) const override {
      TuningOutcome out;
      out.strategy = name();
      out.workload = workload.name();
      out.num_groups = space.num_groups();
      return out;
    }
  };
  auto& registry = StrategyRegistry::instance();
  if (!registry.contains("test-all-ddr"))
    registry.add("test-all-ddr",
                 [] { return std::make_unique<AllDdrStrategy>(); });
  auto sim = sim::MachineSimulator::paper_platform();
  const auto app = workloads::make_mg_model(sim);
  const auto outcome = Session::on(sim)
                           .workload(*app.workload)
                           .strategy("test-all-ddr")
                           .run();
  EXPECT_EQ(outcome.strategy, "test-all-ddr");
  EXPECT_EQ(outcome.chosen_mask, 0u);
  // The session fills the weights, so the custom outcome stores and reads
  // back like a built-in one.
  EXPECT_EQ(outcome.weights.footprint_bytes.size(), 3u);
  const auto back = outcome_from_json(outcome_to_json(outcome));
  EXPECT_EQ(back.strategy, "test-all-ddr");
  EXPECT_EQ(back.chosen_mask, 0u);
  EXPECT_EQ(back.weights.footprint_bytes, outcome.weights.footprint_bytes);
  EXPECT_EQ(back.weights.footprint_total, outcome.weights.footprint_total);
  EXPECT_EQ(back.weights.traffic_bytes, outcome.weights.traffic_bytes);
  EXPECT_EQ(back.weights.traffic_total, outcome.weights.traffic_total);
}

// ----------------------------------------------------------------- session
TEST_F(StrategyTest, SessionWithoutWorkloadThrows) {
  EXPECT_THROW(Session::on(sim_).run(), Error);
}

TEST_F(StrategyTest, SessionRejectsBadBuilderValues) {
  EXPECT_THROW(Session::on(sim_).repetitions(0), Error);
  EXPECT_THROW(Session::on(sim_).budget_gb(-1.0), Error);
  EXPECT_THROW(Session::on(sim_).top_k(0), Error);
  EXPECT_THROW(Session::on(sim_).workload(workloads::WorkloadPtr{}), Error);
}

TEST_F(StrategyTest, ExhaustiveSessionHoldsItsSweepOnce) {
  const auto outcome = Session::on(sim_)
                           .workload(*mg_.workload)
                           .context(mg_.context)
                           .repetitions(2)
                           .run();
  EXPECT_EQ(outcome.strategy, "exhaustive");
  EXPECT_EQ(outcome.configs_measured, 8);
  EXPECT_EQ(outcome.measurements, 16);
  ASSERT_TRUE(outcome.sweep.has_value());
  EXPECT_EQ(outcome.sweep->configs.size(), 8u);
  // Exhaustive outcomes hold the per-config data once, in the sweep.
  EXPECT_EQ(outcome.configs().size(), 8u);
  EXPECT_TRUE(outcome.table.empty());
  // The sweep is the record of the search: no trajectory repeats it.
  EXPECT_TRUE(outcome.trajectory.empty());
}

TEST(ThreeTierCapsTest, EveryStrategyFitsEveryResolvedCap) {
  // MG on the HBM/DDR/CXL platform: three groups of 9.2, 9.2 and 8.0 GB.
  // Unconstrained, the estimator parks mg::v in CXL; with HBM capped at
  // one group every strategy does.
  auto sim = sim::MachineSimulator::cxl_tiered_platform();
  const auto app = workloads::make_mg_model(sim);
  struct Case {
    const char* what;
    double budget_gb;  ///< legacy HBM budget (0 = unset)
    double tier1_gb;   ///< tier-1 cap; takes precedence over budget_gb
    double tier2_gb;   ///< CXL cap
  };
  const Case cases[] = {{"CXL cap", 0.0, 0.0, 5.0},
                        {"tier-1 cap over a larger budget", 1000.0, 10.0, 0.0},
                        {"both caps", 1000.0, 10.0, 5.0}};
  for (const Case& c : cases) {
    bool binds = false;  // the caps change at least one strategy's choice
    for (const char* strategy : {"exhaustive", "online", "estimator"}) {
      const std::string what = std::string(c.what) + " " + strategy;
      auto session = Session::on(sim)
                         .workload(*app.workload)
                         .context(app.context)
                         .strategy(strategy)
                         .repetitions(1);
      const auto unconstrained = session.run();
      if (c.budget_gb > 0.0) session.budget_gb(c.budget_gb);
      if (c.tier1_gb > 0.0) session.tier_budget_gb(1, c.tier1_gb);
      if (c.tier2_gb > 0.0) session.tier_budget_gb(2, c.tier2_gb);
      const auto caps = resolved_caps(sim, session.budget(), 3);
      // A set tier cap wins over the budget and the machine's capacity.
      if (c.tier1_gb > 0.0) {
        EXPECT_EQ(caps[1], c.tier1_gb * GB) << what;
      }
      if (c.tier2_gb > 0.0) {
        EXPECT_EQ(caps[2], c.tier2_gb * GB) << what;
      }
      const auto outcome = session.run();

      const ConfigSpace space(outcome.weights.footprint_bytes, 3);
      const auto fits = [&](ConfigMask mask) {
        for (const auto t : {topo::PoolKind::HBM, topo::PoolKind::CXL})
          if (tier_sum(space.group_bytes(), mask, 3, t) >
              caps[static_cast<std::size_t>(t)])
            return false;
        return true;
      };
      binds |= !fits(unconstrained.chosen_mask);
      EXPECT_TRUE(fits(outcome.chosen_mask)) << what;
      if (std::string(strategy) == "online") {
        // The online search never even tries a placement over a cap.
        for (const auto& step : outcome.trajectory)
          EXPECT_TRUE(fits(step.mask)) << what << " step " << step.index;
      }
      if (std::string(strategy) == "exhaustive") {
        ASSERT_TRUE(outcome.sweep.has_value());
        const PlanChoice best =
            CapacityPlanner(*outcome.sweep, space).best_under_caps(caps);
        EXPECT_EQ(outcome.chosen_mask, best.mask) << what;
        EXPECT_EQ(outcome.speedup(), best.speedup) << what;
      }
    }
    EXPECT_TRUE(binds) << c.what;
  }
}

TEST_F(StrategyTest, OnlineProgressReportsLiveSpeedups) {
  int ticks = 0;
  double last_best = 0.0;
  int last_distinct = 0;
  const auto outcome = Session::on(sim_)
                           .workload(*mg_.workload)
                           .context(mg_.context)
                           .strategy("online")
                           .progress([&](const TuningProgress& p) {
                             ++ticks;
                             last_best = p.best_speedup;
                             last_distinct = p.configs_measured;
                           })
                           .run();
  // One tick per measured run: the baseline plus every trial.
  EXPECT_EQ(ticks, outcome.measurements);
  // The hook sees real speedups while the search runs, not placeholders.
  EXPECT_NEAR(last_best, outcome.speedup(), 1e-9);
  EXPECT_GT(last_best, 1.5);
  EXPECT_EQ(last_distinct, outcome.configs_measured);
}

TEST_F(StrategyTest, ProgressCallbackFiresPerConfiguration) {
  int ticks = 0;
  double last_best = 0.0;
  const auto outcome = Session::on(sim_)
                           .workload(*mg_.workload)
                           .context(mg_.context)
                           .repetitions(1)
                           .progress([&](const TuningProgress& p) {
                             ++ticks;
                             EXPECT_EQ(p.strategy, "exhaustive");
                             EXPECT_EQ(p.configs_measured, ticks);
                             last_best = p.best_speedup;
                           })
                           .run();
  EXPECT_EQ(ticks, outcome.configs_measured);
  EXPECT_NEAR(last_best, outcome.speedup(), 1e-9);
}

TEST_F(StrategyTest, BudgetConstrainsTheChosenPlacement) {
  for (const char* strategy : {"exhaustive", "online", "estimator"}) {
    const auto outcome = Session::on(sim_)
                             .workload(*mg_.workload)
                             .context(mg_.context)
                             .repetitions(1)
                             .strategy(strategy)
                             .budget_gb(10.0)
                             .run();
    EXPECT_LE(outcome.hbm_bytes(), 10.0 * GB) << strategy;
    EXPECT_GT(outcome.speedup(), 1.0) << strategy;
  }
}

// ---------------------------------------------------------- online strategy
TEST_F(StrategyTest, OnlineStrategyAgreesWithExhaustiveOnMg) {
  const auto exhaustive = Session::on(sim_)
                              .workload(*mg_.workload)
                              .context(mg_.context)
                              .repetitions(1)
                              .run();
  const auto online = Session::on(sim_)
                          .workload(*mg_.workload)
                          .context(mg_.context)
                          .strategy("online")
                          .run();
  EXPECT_EQ(online.chosen_mask, exhaustive.chosen_mask);
  EXPECT_NEAR(online.speedup(), exhaustive.speedup(), 0.01);
  EXPECT_LT(online.configs_measured, exhaustive.configs_measured);
  EXPECT_FALSE(online.sweep.has_value());
  // Trajectory entries carry the tried configuration and its verdict.
  EXPECT_FALSE(online.trajectory.empty());
  int accepted = 0;
  for (const auto& step : online.trajectory) accepted += step.accepted;
  EXPECT_GE(accepted, 1);
}

// ------------------------------------------------------- estimator strategy
TEST_F(StrategyTest, EstimatorGuidedMeasuresFewerWithinFivePercent) {
  const auto exhaustive = Session::on(sim_)
                              .workload(*mg_.workload)
                              .context(mg_.context)
                              .repetitions(1)
                              .run();
  const auto guided = Session::on(sim_)
                          .workload(*mg_.workload)
                          .context(mg_.context)
                          .strategy("estimator")
                          .repetitions(1)
                          .run();
  // O(n + k): strictly fewer simulator measurements than the 2^n sweep...
  EXPECT_LT(guided.configs_measured, exhaustive.configs_measured);
  EXPECT_LT(guided.measurements, exhaustive.measurements);
  // ...while staying within 5 % of the exhaustive best speedup.
  EXPECT_GE(guided.speedup(), 0.95 * exhaustive.speedup());
}

TEST_F(StrategyTest, EstimatorGuidedScalesLinearlyOnWiderSpaces) {
  // On an 8-group workload the sweep needs 256 configurations; the guided
  // strategy needs 1 + 8 + k.
  const auto bt = workloads::make_bt_model(sim_);
  const auto guided = Session::on(sim_)
                          .workload(*bt.workload)
                          .context(bt.context)
                          .strategy("estimator")
                          .repetitions(1)
                          .top_k(5)
                          .run();
  EXPECT_EQ(guided.configs_measured, 1 + 8 + 5);
  const auto exhaustive = Session::on(sim_)
                              .workload(*bt.workload)
                              .context(bt.context)
                              .repetitions(1)
                              .run();
  EXPECT_EQ(exhaustive.configs_measured, 256);
  EXPECT_GE(guided.speedup(), 0.95 * exhaustive.speedup());
}

// ----------------------------------------------------------------- outcome
TEST_F(StrategyTest, OutcomeRendersUnifiedReport) {
  const auto outcome = Session::on(sim_)
                           .workload(*mg_.workload)
                           .context(mg_.context)
                           .strategy("estimator")
                           .repetitions(1)
                           .run();
  const std::string text = outcome.to_text();
  EXPECT_NE(text.find("strategy estimator"), std::string::npos) << text;
  EXPECT_NE(text.find("recommended placement"), std::string::npos);
  EXPECT_NE(text.find("trajectory"), std::string::npos);
  EXPECT_NE(text.find("measured configurations"), std::string::npos);
}

// ------------------------------------------------- hardened sweep accessor
TEST_F(StrategyTest, SweepOfUnknownMaskThrows) {
  ExperimentRunner runner(sim_, mg_.context, {1});
  ConfigSpace space([&] {
    std::vector<double> bytes;
    for (const auto& g : mg_.workload->groups()) bytes.push_back(g.bytes);
    return bytes;
  }());
  const auto sweep = runner.sweep(*mg_.workload, space);
  EXPECT_THROW(sweep.of(0b1000), Error);   // beyond the 3-group space
  EXPECT_THROW(sweep.of(12345), Error);
  EXPECT_EQ(sweep.of(0b011).mask, 0b011u);
}

TEST(SweepAccessTest, SparseTableFallsBackToScan) {
  SweepResult sweep;
  sweep.num_groups = 3;
  ConfigResult r;
  r.mask = 0b101;
  r.mean_time = 1.5;
  sweep.configs = {r};  // not mask-indexed: configs[0].mask != 0
  EXPECT_DOUBLE_EQ(sweep.of(0b101).mean_time, 1.5);
  EXPECT_THROW(sweep.of(0b001), Error);
  EXPECT_THROW(sweep.of(0), Error);
}

TEST(EstimatorGuardTest, RejectsOversizedGroupCounts) {
  EXPECT_THROW(LinearEstimator(std::vector<double>(
                   ConfigSpace::kMaxGroups + 1, 1.0)),
               Error);
  LinearEstimator ok(std::vector<double>(ConfigSpace::kMaxGroups, 1.0));
  EXPECT_EQ(ok.num_groups(), ConfigSpace::kMaxGroups);
  EXPECT_THROW(ok.single_speedup(-1), Error);
  EXPECT_THROW(ok.single_speedup(ConfigSpace::kMaxGroups), Error);
}

}  // namespace
}  // namespace hmpt::tuner
