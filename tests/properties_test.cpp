// Property-based tests: invariants that must hold across randomly drawn
// parameters — solver monotonicity, arena safety under random workloads,
// page-map/registry consistency, estimator identities, planner optimality.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "core/planner.h"
#include "core/summary.h"
#include "pools/arena.h"
#include "pools/pool_allocator.h"
#include "simmem/simulator.h"
#include "workloads/app_models.h"

namespace hmpt {
namespace {

using topo::PoolKind;

// ------------------------------------------------------- solver properties
class SolverProperty : public ::testing::TestWithParam<int> {
 protected:
  sim::MachineSimulator sim_ = sim::MachineSimulator::paper_platform();

  /// Draw a random multi-phase trace over `groups` groups.
  sim::PhaseTrace random_trace(Rng& rng, int groups) {
    sim::PhaseTrace trace;
    const int phases = 1 + static_cast<int>(rng.next_below(4));
    for (int p = 0; p < phases; ++p) {
      sim::KernelPhase phase;
      phase.name = "phase" + std::to_string(p);
      const int streams = 1 + static_cast<int>(rng.next_below(
                                  static_cast<std::uint64_t>(groups)));
      for (int s = 0; s < streams; ++s) {
        sim::StreamAccess access;
        access.group = static_cast<int>(rng.next_below(
            static_cast<std::uint64_t>(groups)));
        access.bytes_read = (1.0 + rng.next_double() * 30.0) * GB;
        if (rng.next_double() < 0.3)
          access.bytes_written = rng.next_double() * 10.0 * GB;
        const double pattern_draw = rng.next_double();
        access.pattern = pattern_draw < 0.7
                             ? sim::AccessPattern::Sequential
                             : (pattern_draw < 0.9
                                    ? sim::AccessPattern::Random
                                    : sim::AccessPattern::PointerChase);
        access.working_set_bytes = 4.0 * GB;
        phase.streams.push_back(access);
      }
      if (rng.next_double() < 0.5) phase.flops = rng.next_double() * 1e13;
      trace.phases.push_back(phase);
    }
    return trace;
  }
};

TEST_P(SolverProperty, TimesAreAlwaysPositiveAndFinite) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const int groups = 3;
  const auto trace = random_trace(rng, groups);
  const auto ctx = sim_.full_machine();
  for (std::uint32_t mask = 0; mask < (1u << groups); ++mask) {
    std::vector<PoolKind> pools(groups, PoolKind::DDR);
    for (int g = 0; g < groups; ++g)
      if (mask & (1u << g)) pools[static_cast<std::size_t>(g)] =
          PoolKind::HBM;
    const double t =
        sim_.time_trace(trace, sim::Placement(pools), ctx);
    EXPECT_GT(t, 0.0) << mask;
    EXPECT_TRUE(std::isfinite(t)) << mask;
  }
}

TEST_P(SolverProperty, MoreThreadsNeverSlower) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 1000);
  const auto trace = random_trace(rng, 3);
  const auto placement = sim::Placement::uniform(3, PoolKind::HBM);
  double prev = 1e300;
  for (int threads : {12, 24, 48, 96}) {
    const double t = sim_.time_trace(trace, placement, {threads, 8});
    EXPECT_LE(t, prev * (1.0 + 1e-9)) << threads;
    prev = t;
  }
}

TEST_P(SolverProperty, SequentialAllHbmNeverSlowerThanAllDdr) {
  // Bandwidth-only traffic: the all-HBM placement is a uniform-ratio
  // improvement over all-DDR. (Moving *one* group into an already
  // bottlenecked HBM pool may legitimately hurt — using both pools'
  // aggregate bandwidth is exactly the paper's max > HBM-only effect —
  // so monotonicity only holds for the uniform endpoints.)
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 2000);
  sim::PhaseTrace trace;
  sim::KernelPhase phase;
  for (int g = 0; g < 3; ++g) {
    sim::StreamAccess access;
    access.group = g;
    access.bytes_read = (1.0 + rng.next_double() * 30.0) * GB;
    access.pattern = sim::AccessPattern::Sequential;
    phase.streams.push_back(access);
  }
  trace.phases.push_back(phase);
  const auto ctx = sim_.full_machine();
  const double t_ddr = sim_.time_trace(
      trace, sim::Placement::uniform(3, PoolKind::DDR), ctx);
  const double t_hbm = sim_.time_trace(
      trace, sim::Placement::uniform(3, PoolKind::HBM), ctx);
  EXPECT_LE(t_hbm, t_ddr * (1.0 + 1e-9));
}

TEST_P(SolverProperty, SingleGroupTracePrefersHbm) {
  // With only one group there is no pool-sharing interaction: moving the
  // whole (read-only sequential) working set to HBM always helps.
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 3000);
  sim::PhaseTrace trace;
  sim::KernelPhase phase;
  sim::StreamAccess access;
  access.group = 0;
  access.bytes_read = (1.0 + rng.next_double() * 50.0) * GB;
  access.pattern = sim::AccessPattern::Sequential;
  phase.streams.push_back(access);
  trace.phases.push_back(phase);
  const auto ctx = sim_.full_machine();
  const double t_ddr = sim_.time_trace(
      trace, sim::Placement::uniform(1, PoolKind::DDR), ctx);
  const double t_hbm = sim_.time_trace(
      trace, sim::Placement::uniform(1, PoolKind::HBM), ctx);
  EXPECT_LT(t_hbm, t_ddr);
}

TEST_P(SolverProperty, MixedPlacementCanBeatHbmOnly) {
  // The aggregate-bandwidth effect exists in the model: with one heavy and
  // one light group, keeping the light group in DDR is at least as good as
  // all-HBM (both pools stream concurrently).
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 4000);
  sim::PhaseTrace trace;
  sim::KernelPhase phase;
  sim::StreamAccess heavy, light;
  heavy.group = 0;
  heavy.bytes_read = 30.0 * GB;
  light.group = 1;
  light.bytes_read = (0.5 + rng.next_double() * 2.0) * GB;
  heavy.pattern = light.pattern = sim::AccessPattern::Sequential;
  phase.streams = {heavy, light};
  trace.phases.push_back(phase);
  const auto ctx = sim_.full_machine();
  const double t_hbm = sim_.time_trace(
      trace, sim::Placement::uniform(2, PoolKind::HBM), ctx);
  const double t_mixed = sim_.time_trace(
      trace, sim::Placement({PoolKind::HBM, PoolKind::DDR}), ctx);
  EXPECT_LE(t_mixed, t_hbm * (1.0 + 1e-9));
}

INSTANTIATE_TEST_SUITE_P(RandomTraces, SolverProperty,
                         ::testing::Range(0, 12));

// -------------------------------------------------------- arena properties
class ArenaProperty : public ::testing::TestWithParam<int> {};

TEST_P(ArenaProperty, RandomAllocFreeNeverCorruptsAccounting) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  pools::PoolArena arena(1u << 22, 1u << 16);
  std::map<void*, std::pair<std::size_t, unsigned char>> live;
  std::size_t live_bytes = 0;

  for (int step = 0; step < 2000; ++step) {
    const bool do_alloc = live.empty() || rng.next_double() < 0.55;
    if (do_alloc) {
      const std::size_t size =
          1 + static_cast<std::size_t>(rng.next_below(4096));
      void* p = arena.allocate(size);
      if (p == nullptr) continue;  // capacity hit: fine
      const auto fill = static_cast<unsigned char>(rng.next_below(256));
      std::memset(p, fill, size);
      ASSERT_EQ(live.count(p), 0u);  // no overlap with live blocks
      live[p] = {size, fill};
      live_bytes += size;
    } else {
      auto it = live.begin();
      std::advance(it, static_cast<long>(rng.next_below(live.size())));
      // Contents survive neighbouring alloc/free traffic.
      const auto* bytes = static_cast<const unsigned char*>(it->first);
      for (std::size_t i = 0; i < it->second.first;
           i += std::max<std::size_t>(1, it->second.first / 16))
        ASSERT_EQ(bytes[i], it->second.second);
      arena.deallocate(it->first);
      live_bytes -= it->second.first;
      live.erase(it);
    }
    ASSERT_EQ(arena.stats().allocated, live_bytes);
    ASSERT_EQ(arena.stats().num_allocs, live.size());
  }
  for (const auto& [p, meta] : live) arena.deallocate(p);
  EXPECT_EQ(arena.stats().allocated, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ArenaProperty, ::testing::Range(0, 6));

// -------------------------------------------------- allocator + page map
class AllocatorProperty : public ::testing::TestWithParam<int> {};

TEST_P(AllocatorProperty, PageMapAlwaysResolvesLivePointers) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 7);
  auto machine = topo::xeon_max_9468_single_flat_snc4();
  pools::PoolAllocator alloc(machine);
  std::vector<std::pair<void*, std::size_t>> live;

  for (int step = 0; step < 600; ++step) {
    if (live.empty() || rng.next_double() < 0.6) {
      const std::size_t size =
          64 + static_cast<std::size_t>(rng.next_below(1u << 16));
      const auto kind =
          rng.next_double() < 0.5 ? PoolKind::DDR : PoolKind::HBM;
      const auto a = alloc.allocate(size, kind);
      ASSERT_NE(a.ptr, nullptr);
      live.emplace_back(a.ptr, size);
    } else {
      const auto idx = rng.next_below(live.size());
      alloc.deallocate(live[idx].first);
      live.erase(live.begin() + static_cast<long>(idx));
    }
  }

  const auto map = alloc.page_map_snapshot();
  for (const auto& [ptr, size] : live) {
    const auto addr = reinterpret_cast<std::uintptr_t>(ptr);
    // First, middle and last byte all resolve to the same range.
    for (const std::uintptr_t probe :
         {addr, addr + size / 2, addr + size - 1}) {
      const auto hit = map.lookup(probe);
      ASSERT_TRUE(hit.has_value());
      EXPECT_EQ(hit->begin, addr);
    }
  }
  EXPECT_EQ(map.size(), live.size());
  for (const auto& [ptr, size] : live) alloc.deallocate(ptr);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllocatorProperty, ::testing::Range(0, 5));

// ------------------------------------------------- estimator / sweep props
class SweepProperty : public ::testing::TestWithParam<int> {
 protected:
  sim::MachineSimulator sim_ = sim::MachineSimulator::paper_platform();
};

TEST_P(SweepProperty, EstimatorExactOnSingletonsAndBaseline) {
  const auto suite = workloads::paper_benchmark_suite(sim_);
  const auto& app = suite[static_cast<std::size_t>(GetParam()) %
                          suite.size()];
  std::vector<double> bytes;
  for (const auto& g : app.workload->groups()) bytes.push_back(g.bytes);
  tuner::ConfigSpace space(bytes);
  tuner::ExperimentRunner runner(sim_, app.context, {1});
  const auto sweep = runner.sweep(*app.workload, space);
  const tuner::LinearEstimator est(sweep);
  EXPECT_DOUBLE_EQ(est.estimate(0), 1.0);
  for (int g = 0; g < sweep.num_groups; ++g) {
    const auto mask = tuner::ConfigMask{1} << g;
    EXPECT_NEAR(est.estimate(mask),
                tuner::speedup_of(sweep.baseline_time,
                                  sweep.of(mask).mean_time),
                1e-9);
  }
}

TEST_P(SweepProperty, SummaryInvariantsHold) {
  const auto suite = workloads::paper_benchmark_suite(sim_);
  const auto& app = suite[static_cast<std::size_t>(GetParam()) %
                          suite.size()];
  std::vector<double> bytes;
  for (const auto& g : app.workload->groups()) bytes.push_back(g.bytes);
  tuner::ConfigSpace space(bytes);
  tuner::ExperimentRunner runner(sim_, app.context, {1});
  const auto sweep = runner.sweep(*app.workload, space);
  const auto weights = tuner::group_weights(*app.workload, space);
  const auto summary = tuner::summarize(sweep, weights);
  const auto speedup = [&](const tuner::ConfigResult& cfg) {
    return tuner::speedup_of(sweep.baseline_time, cfg.mean_time);
  };

  // Max speedup dominates every configuration.
  for (const auto& cfg : sweep.configs)
    EXPECT_LE(speedup(cfg), summary.max_speedup * (1.0 + 1e-12));
  // The 90 % config is genuinely above threshold and minimal in usage.
  EXPECT_GE(summary.usage90_speedup, summary.threshold90 - 1e-9);
  for (const auto& cfg : sweep.configs) {
    if (speedup(cfg) + 1e-12 >= summary.threshold90) {
      EXPECT_GE(tuner::hbm_usage_of(weights, cfg.mask, sweep.num_tiers),
                summary.usage90 - 1e-12);
    }
  }
  // Threshold sits between baseline and max.
  EXPECT_GE(summary.threshold90, 1.0);
  EXPECT_LE(summary.threshold90, summary.max_speedup + 1e-12);
}

TEST_P(SweepProperty, ParetoFrontDominatesAllConfigs) {
  const auto suite = workloads::paper_benchmark_suite(sim_);
  const auto& app = suite[static_cast<std::size_t>(GetParam()) %
                          suite.size()];
  std::vector<double> bytes;
  for (const auto& g : app.workload->groups()) bytes.push_back(g.bytes);
  tuner::ConfigSpace space(bytes);
  tuner::ExperimentRunner runner(sim_, app.context, {1});
  const auto sweep = runner.sweep(*app.workload, space);
  tuner::CapacityPlanner planner(sweep, space);
  const auto front = planner.pareto_front();
  const auto speedup = [&](const tuner::ConfigResult& cfg) {
    return tuner::speedup_of(sweep.baseline_time, cfg.mean_time);
  };
  // Every configuration is dominated by some front point.
  for (const auto& cfg : sweep.configs) {
    const double cfg_bytes = tuner::tier_sum(space.group_bytes(), cfg.mask,
                                             2, PoolKind::HBM);
    bool dominated = false;
    for (const auto& p : front) {
      if (p.hbm_bytes <= cfg_bytes * (1.0 + 1e-12) &&
          p.speedup >= speedup(cfg) * (1.0 - 1e-12)) {
        dominated = true;
        break;
      }
    }
    EXPECT_TRUE(dominated) << cfg.mask;
  }
  // best_under_budget agrees with a brute-force scan at random budgets.
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 31);
  for (int trial = 0; trial < 5; ++trial) {
    const double budget = rng.next_double() * space.total_bytes();
    const auto best = planner.best_under_budget(budget);
    double brute = 0.0;
    for (const auto& cfg : sweep.configs)
      if (tuner::tier_sum(space.group_bytes(), cfg.mask, 2, PoolKind::HBM) <=
          budget)
        brute = std::max(brute, speedup(cfg));
    EXPECT_NEAR(best.speedup, brute, 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Apps, SweepProperty, ::testing::Range(0, 7));

// ------------------------------------------------------ sampling properties
class SamplingProperty : public ::testing::TestWithParam<int> {};

TEST_P(SamplingProperty, DensitiesSumToOneOverAttributedSamples) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 101);
  pools::PageMap map;
  const int ranges = 4;
  for (int r = 0; r < ranges; ++r)
    map.insert(0x100000u * static_cast<std::uintptr_t>(r + 1), 0x8000,
               r % 2, static_cast<std::uint64_t>(r + 1));
  sample::IbsSampler sampler(
      {32, sample::SamplingMode::Poisson,
       static_cast<std::uint64_t>(GetParam())});
  for (int i = 0; i < 50'000; ++i) {
    const auto r = rng.next_below(ranges);
    const auto offset = rng.next_below(0x8000);
    sampler.feed({0x100000u * static_cast<std::uintptr_t>(r + 1) + offset,
                  false, 0.0},
                 map);
  }
  const auto report = sampler.report();
  double total = 0.0;
  for (const auto& tag : report.per_tag) total += report.density(tag.tag);
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_EQ(report.samples_unattributed, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SamplingProperty, ::testing::Range(0, 5));

}  // namespace
}  // namespace hmpt
