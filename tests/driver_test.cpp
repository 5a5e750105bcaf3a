// Tests for the analysis of an exhaustive outcome, the online strategy,
// allocation migration, the recorded-workload adapter and the preload-shim
// core.
#include <gtest/gtest.h>

#include <cstring>
#include <thread>

#include "common/error.h"
#include "common/units.h"
#include "core/analysis.h"
#include "core/session.h"
#include "shim/preload_core.h"
#include "workloads/app_models.h"
#include "workloads/line_solver.h"
#include "workloads/npb_kernels.h"
#include "workloads/recorded.h"

namespace hmpt {
namespace {

using topo::PoolKind;

// ---------------------------------------------------------------- migrate
class MigrationTest : public ::testing::Test {
 protected:
  topo::Machine machine_ = topo::xeon_max_9468_single_flat_snc4();
  pools::PoolAllocator alloc_{machine_};
};

TEST_F(MigrationTest, MovesContentsAndResidency) {
  auto a = alloc_.allocate(4096, PoolKind::DDR);
  std::memset(a.ptr, 0x5a, 4096);
  const auto moved = alloc_.migrate(a.ptr, PoolKind::HBM);
  ASSERT_NE(moved.ptr, nullptr);
  EXPECT_EQ(moved.kind, PoolKind::HBM);
  EXPECT_EQ(alloc_.kind_of(moved.ptr), PoolKind::HBM);
  EXPECT_EQ(alloc_.size_of(moved.ptr), 4096u);
  const auto* bytes = static_cast<const unsigned char*>(moved.ptr);
  for (int i = 0; i < 4096; i += 64) EXPECT_EQ(bytes[i], 0x5a) << i;
  // The old pointer is gone.
  EXPECT_EQ(alloc_.live_allocations(), 1u);
  EXPECT_EQ(alloc_.bytes_in_kind(PoolKind::DDR), 0u);
  alloc_.deallocate(moved.ptr);
}

TEST_F(MigrationTest, MigrateToSameKindStillWorks) {
  auto a = alloc_.allocate(128, PoolKind::HBM);
  const auto moved = alloc_.migrate(a.ptr, PoolKind::HBM);
  EXPECT_EQ(moved.kind, PoolKind::HBM);
  alloc_.deallocate(moved.ptr);
}

TEST_F(MigrationTest, MigrateUnknownPointerThrows) {
  int on_stack = 0;
  EXPECT_THROW(alloc_.migrate(&on_stack, PoolKind::HBM), Error);
  EXPECT_THROW(alloc_.migrate(nullptr, PoolKind::HBM), Error);
}

// ---------------------------------------------------------------- recorded
TEST(RecordedWorkloadTest, RemapFoldsGroups) {
  sim::PhaseTrace trace;
  sim::KernelPhase phase;
  for (int g = 0; g < 3; ++g)
    phase.streams.push_back({g, 10.0 * (g + 1), 0.0,
                             sim::AccessPattern::Sequential, true, 0.0});
  trace.phases.push_back(phase);
  workloads::RecordedWorkload recorded(
      "probe", {{"a", 1.0}, {"b", 2.0}, {"c", 3.0}}, trace);
  // Fold b and c into one group.
  recorded.remap_groups({0, 1, 1}, {{"a", 1.0}, {"bc", 5.0}});
  EXPECT_EQ(recorded.num_groups(), 2);
  EXPECT_DOUBLE_EQ(recorded.trace().total_bytes_of_group(1), 50.0);
  recorded.scale(2.0);
  EXPECT_DOUBLE_EQ(recorded.trace().total_bytes(), 120.0);
}

TEST(RecordedWorkloadTest, InvalidConstructionsThrow) {
  sim::PhaseTrace trace;
  sim::KernelPhase phase;
  phase.streams.push_back({5, 1.0, 0.0, sim::AccessPattern::Sequential,
                           true, 0.0});
  trace.phases.push_back(phase);
  EXPECT_THROW(
      workloads::RecordedWorkload("x", {{"only-one", 1.0}}, trace), Error);
}

// ---------------------------------------------------------------- analysis
class AnalysisTest : public ::testing::Test {
 protected:
  sim::MachineSimulator sim_ = sim::MachineSimulator::paper_platform();

  tuner::AnalysisReport analyze(const workloads::Workload& workload,
                                double budget_gb = 0.0) {
    return tuner::analyze(tuner::Session::on(sim_)
                              .workload(workload)
                              .budget_gb(budget_gb)
                              .run());
  }
};

TEST_F(AnalysisTest, AnalyzeMgReproducesSummary) {
  const auto app = workloads::make_mg_model(sim_);
  const auto report = analyze(*app.workload);
  EXPECT_NEAR(report.summary.max_speedup, 2.27, 0.05);
  EXPECT_NEAR(report.summary.usage90, 0.696, 0.01);
  // MG fits entirely into the machine's HBM, so the recommendation is the
  // global optimum.
  EXPECT_EQ(report.outcome.chosen_mask, report.summary.max_mask);
  // The report keeps the outcome whole: its sweep, which is the record of
  // the search (an exhaustive outcome keeps no trajectory).
  ASSERT_TRUE(report.outcome.sweep.has_value());
  EXPECT_EQ(report.outcome.sweep->configs.size(), 8u);
  EXPECT_TRUE(report.outcome.trajectory.empty());
  const std::string text = report.to_text();
  EXPECT_NE(text.find("maximum speedup"), std::string::npos);
  EXPECT_NE(text.find("recommended placement"), std::string::npos);
}

TEST_F(AnalysisTest, BudgetConstrainsRecommendation) {
  const auto app = workloads::make_mg_model(sim_);
  const auto report = analyze(*app.workload, 10.0);  // < one group pair
  EXPECT_LE(report.outcome.hbm_bytes(), 10.0 * GB);
  EXPECT_LT(report.outcome.speedup(), report.summary.max_speedup);
}

TEST_F(AnalysisTest, RejectsOutcomesWithoutASweepAndBadThresholds) {
  const auto app = workloads::make_mg_model(sim_);
  auto online = tuner::Session::on(sim_)
                    .workload(*app.workload)
                    .strategy("online")
                    .run();
  EXPECT_THROW(tuner::analyze(online), Error);
  auto exhaustive = tuner::Session::on(sim_).workload(*app.workload).run();
  EXPECT_THROW(tuner::analyze(exhaustive, 0.0), Error);
  EXPECT_THROW(tuner::analyze(exhaustive, 1.5), Error);
  EXPECT_NO_THROW(tuner::analyze(exhaustive, 1.0));
}

TEST_F(AnalysisTest, RecordBuildsWorkloadFromProfilingRun) {
  pools::PoolAllocator pool(sim_.machine());
  shim::ShimAllocator shim(pool);
  sample::IbsSampler sampler({256, sample::SamplingMode::Poisson, 9});
  workloads::MiniMgConfig config;
  config.n = 16;
  const auto profile = workloads::run_mini_mg(shim, config, &sampler);

  tuner::GroupingOptions grouping;
  grouping.max_groups = 8;
  const auto recorded = tuner::record_workload(
      shim, sampler.report(), profile.trace, {"mg::u", "mg::r", "mg::v"},
      grouping, "mini-mg");
  EXPECT_EQ(recorded.num_groups(), 3);
  // Analysis of the recorded run goes straight through a Session.
  const auto report = analyze(recorded);
  EXPECT_GT(report.summary.max_speedup, 1.2);
}

TEST_F(AnalysisTest, PlanMaterialisationMatchesRecommendation) {
  const auto app = workloads::make_lu_model(sim_);
  const auto report = analyze(*app.workload);
  std::vector<tuner::AllocationGroup> groups;
  for (const auto& g : app.workload->groups()) {
    tuner::AllocationGroup ag;
    ag.label = g.label;
    ag.bytes = g.bytes;
    groups.push_back(ag);
  }
  const auto plan =
      tuner::to_placement_plan(groups, report.outcome.chosen_placement());
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const bool in_hbm =
        report.outcome.chosen_mask & (tuner::ConfigMask{1} << g);
    EXPECT_EQ(plan.kind_for_named(groups[g].label) == PoolKind::HBM,
              in_hbm)
        << groups[g].label;
  }
}

// ---------------------------------------------------------- online strategy
class OnlineTest : public ::testing::Test {
 protected:
  sim::MachineSimulator sim_ = sim::MachineSimulator::paper_platform();

  tuner::Session session(const workloads::AppInfo& app,
                         const std::string& strategy) {
    return tuner::Session::on(sim_)
        .workload(*app.workload)
        .context(app.context)
        .strategy(strategy)
        .repetitions(1);
  }

  tuner::ConfigSpace space_for(const workloads::AppInfo& app) {
    std::vector<double> bytes;
    for (const auto& g : app.workload->groups()) bytes.push_back(g.bytes);
    return tuner::ConfigSpace(bytes);
  }
};

TEST_F(OnlineTest, ConvergesToNearOptimalForMg) {
  const auto app = workloads::make_mg_model(sim_);
  const auto result = session(app, "online").run();
  // Exhaustive optimum for comparison.
  const auto optimum = session(app, "exhaustive").run();
  EXPECT_GT(result.speedup(), 0.95 * optimum.speedup());
  // Far fewer runs than the 2^n sweep would need per-config repetitions.
  EXPECT_LT(result.measurements, 40);
}

TEST_F(OnlineTest, AllAppsReachNinetyPercentOfOptimum) {
  for (const auto& app : workloads::paper_benchmark_suite(sim_)) {
    const auto result = session(app, "online").run();
    const auto optimum = session(app, "exhaustive").run();
    EXPECT_GE(result.speedup(), 1.0 + 0.9 * (optimum.speedup() - 1.0))
        << app.name;
  }
}

TEST_F(OnlineTest, RespectsCapacityBudget) {
  const auto app = workloads::make_mg_model(sim_);
  const auto space = space_for(app);
  const auto result = session(app, "online").budget_gb(10.0).run();
  const auto hbm_bytes = [&](tuner::ConfigMask mask) {
    return tuner::tier_sum(space.group_bytes(), mask, space.num_tiers(),
                           PoolKind::HBM);
  };
  EXPECT_LE(hbm_bytes(result.chosen_mask), 10.0 * GB);
  // Every tried placement fits, not just the chosen one.
  for (const auto& step : result.trajectory)
    EXPECT_LE(hbm_bytes(step.mask), 10.0 * GB);
  // And it is no better than the exhaustive optimum under the same cap.
  const auto optimum = session(app, "exhaustive").budget_gb(10.0).run();
  EXPECT_LE(result.speedup(), optimum.speedup() * (1.0 + 1e-12));
}

TEST_F(OnlineTest, TrajectoryOnlyKeepsImprovements) {
  const auto app = workloads::make_sp_model(sim_);
  const auto result = session(app, "online").run();
  double best = result.baseline_time;
  for (const auto& step : result.trajectory) {
    if (step.accepted) {
      EXPECT_LT(step.observed_time, best);
      best = step.observed_time;
    }
  }
  EXPECT_DOUBLE_EQ(best, result.chosen_time);
  // SP's chase groups prefer DDR: the search must leave them there.
  EXPECT_EQ(result.chosen_mask & (tuner::ConfigMask{1} << 6), 0u);
  EXPECT_EQ(result.chosen_mask & (tuner::ConfigMask{1} << 7), 0u);
}

TEST_F(OnlineTest, DirectTuneChecksItsInputs) {
  // tune() can be called without a Session, so it checks its own budget.
  const auto app = workloads::make_mg_model(sim_);
  const auto space = space_for(app);
  const auto tune = [&](const tuner::TuningBudget& budget) {
    return tuner::OnlineGreedyStrategy().tune(sim_, app.context,
                                              *app.workload, space, budget,
                                              {});
  };
  tuner::TuningBudget no_patience;
  no_patience.patience = 0;
  EXPECT_THROW(tune(no_patience), Error);
  tuner::TuningBudget negative_cap;
  negative_cap.max_measurements = -1;
  EXPECT_THROW(tune(negative_cap), Error);
  tuner::TuningBudget one_run;
  one_run.max_measurements = 1;  // the baseline alone
  const auto baseline_only = tune(one_run);
  EXPECT_EQ(baseline_only.measurements, 1);
  EXPECT_EQ(baseline_only.chosen_mask, 0u);
  EXPECT_THROW(tuner::OnlineGreedyStrategy().tune(
                   sim_, app.context, *app.workload,
                   tuner::ConfigSpace({1.0, 2.0}), {}, {}),
               Error);
}

// -------------------------------------------------------------- line solver
class LineSolverTest : public ::testing::Test {
 protected:
  topo::Machine machine_ = topo::xeon_max_9468_single_flat_snc4();
  pools::PoolAllocator pool_{machine_};
  shim::ShimAllocator shim_{pool_};
};

TEST_F(LineSolverTest, TridiagonalSolveIsExact) {
  const std::size_t n = 32;
  std::vector<double> sub(n, -1.0), diag(n, 4.0), super(n, -1.0), rhs(n),
      scratch(n), x_ref(n);
  sub[0] = super[n - 1] = 0.0;
  Rng rng(5);
  for (auto& v : x_ref) v = rng.next_double() - 0.5;
  for (std::size_t i = 0; i < n; ++i) {
    rhs[i] = diag[i] * x_ref[i];
    if (i > 0) rhs[i] += sub[i] * x_ref[i - 1];
    if (i + 1 < n) rhs[i] += super[i] * x_ref[i + 1];
  }
  workloads::solve_tridiagonal(sub.data(), diag.data(), super.data(),
                               rhs.data(), scratch.data(), n);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(rhs[i], x_ref[i], 1e-12) << i;
}

TEST_F(LineSolverTest, PentadiagonalSolveIsExact) {
  const std::size_t n = 24;
  std::vector<double> b2(n, -0.5), b1(n, -1.0), d(n, 6.0), a1(n, -1.0),
      a2(n, -0.5), rhs(n), x_ref(n);
  b2[0] = b2[1] = b1[0] = 0.0;
  a1[n - 1] = a2[n - 1] = a2[n - 2] = 0.0;
  Rng rng(6);
  for (auto& v : x_ref) v = rng.next_double() - 0.5;
  for (std::size_t i = 0; i < n; ++i) {
    rhs[i] = d[i] * x_ref[i];
    if (i > 1) rhs[i] += b2[i] * x_ref[i - 2];
    if (i > 0) rhs[i] += b1[i] * x_ref[i - 1];
    if (i + 1 < n) rhs[i] += a1[i] * x_ref[i + 1];
    if (i + 2 < n) rhs[i] += a2[i] * x_ref[i + 2];
  }
  workloads::solve_pentadiagonal(b2.data(), b1.data(), d.data(), a1.data(),
                                 a2.data(), rhs.data(), n);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(rhs[i], x_ref[i], 1e-10) << i;
}

TEST_F(LineSolverTest, MiniBtStyleRunConverges) {
  workloads::MiniLineSolverConfig config;
  config.n = 8;
  config.system = workloads::LineSystem::Tridiagonal;
  const auto result = workloads::run_mini_line_solver(shim_, config, "bt");
  EXPECT_TRUE(result.converged) << result.max_residual;
  EXPECT_EQ(result.trace.num_groups(), 3);
  // Three allocation sites named bt::{u,rhs,lhs}.
  EXPECT_GE(shim_.sites().find_by_label("bt::lhs"), 0);
}

TEST_F(LineSolverTest, MiniSpStyleRunConverges) {
  workloads::MiniLineSolverConfig config;
  config.n = 8;
  config.system = workloads::LineSystem::Pentadiagonal;
  const auto result = workloads::run_mini_line_solver(shim_, config, "sp");
  EXPECT_TRUE(result.converged) << result.max_residual;
  // The lhs (factored systems) dominates the recorded traffic, as in SP.
  EXPECT_GT(result.trace.access_fraction(2), 0.5);
}

// ------------------------------------------------------------ preload core
TEST(PreloadCoreTest, StatsAggregatePerSite) {
  shim::PreloadStatsTable table;
  table.on_alloc(0x1000, 100);
  table.on_alloc(0x1000, 200);
  table.on_alloc(0x2000, 50);
  table.on_free(0x1000, 100);
  EXPECT_EQ(table.num_sites(), 2u);
  EXPECT_EQ(table.total_allocs(), 3u);
  const std::string report = table.report();
  EXPECT_NE(report.find("site 1000 allocs 2 frees 1 bytes 300 peak 300"),
            std::string::npos)
      << report;
  EXPECT_NE(report.find("site 2000"), std::string::npos);
}

TEST(PreloadCoreTest, SaturatingFreeNeverUnderflows) {
  shim::PreloadStatsTable table;
  table.on_alloc(0x1, 10);
  table.on_free(0x1, 100);  // free attributed to a site that over-counts
  table.on_alloc(0x1, 5);
  const std::string report = table.report();
  EXPECT_NE(report.find("bytes 15"), std::string::npos) << report;
}

TEST(PreloadCoreTest, TableSurvivesConcurrentHammering) {
  shim::PreloadStatsTable table;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&table, t] {
      for (int i = 0; i < 10'000; ++i)
        table.on_alloc(0x1000u + static_cast<std::uintptr_t>(i % 16) * 8,
                       static_cast<std::size_t>(t + 1));
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(table.num_sites(), 16u);
  EXPECT_EQ(table.total_allocs(), 40'000u);
}

TEST(PreloadCoreTest, TableFullDropsGracefully) {
  shim::PreloadStatsTable table;
  std::size_t accepted = 0;
  for (std::uintptr_t site = 1;
       site <= shim::PreloadStatsTable::kSlots + 10; ++site)
    accepted += table.on_alloc(site * 64, 1) ? 1 : 0;
  EXPECT_EQ(accepted, shim::PreloadStatsTable::kSlots);
  table.reset();
  EXPECT_EQ(table.num_sites(), 0u);
}

TEST(PreloadCoreTest, ConfigReadsEnvironment) {
  static const auto fake_getenv = [](const char* name) -> const char* {
    if (std::strcmp(name, "HMPT_PROFILE_OUT") == 0) return "/tmp/p.txt";
    if (std::strcmp(name, "HMPT_MIN_SIZE") == 0) return "4096";
    return nullptr;
  };
  const auto config = shim::read_preload_config(
      +[](const char* name) { return fake_getenv(name); });
  EXPECT_EQ(config.profile_path, "/tmp/p.txt");
  EXPECT_EQ(config.min_size, 4096u);
  EXPECT_TRUE(config.enabled);

  static const auto disabled_getenv = [](const char* name) -> const char* {
    return std::strcmp(name, "HMPT_DISABLE") == 0 ? "1" : nullptr;
  };
  const auto off = shim::read_preload_config(
      +[](const char* name) { return disabled_getenv(name); });
  EXPECT_FALSE(off.enabled);
}

}  // namespace
}  // namespace hmpt
