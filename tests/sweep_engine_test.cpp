// Tests for the serial, incrementally-memoized sweep engine: the
// parallel_for primitive scenario-level concurrency runs on, the
// counter-based noise streams, the per-phase timing cache, and the
// headline guarantee — the memoized sweep and probe batches equal timing
// each configuration afresh, bit for bit, with and without measurement
// noise.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "core/session.h"
#include "core/strategy.h"
#include "simmem/timing_cache.h"
#include "workloads/app_models.h"

namespace hmpt {
namespace {

// ------------------------------------------------------------ parallel_for
TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  constexpr std::size_t kN = 1000;
  std::vector<int> hits(kN, 0);  // disjoint writes, one per index
  std::atomic<int> total{0};
  parallel_for(4, kN, [&](std::size_t i) {
    ++hits[i];
    total.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(total.load(), static_cast<int>(kN));
  EXPECT_TRUE(std::all_of(hits.begin(), hits.end(),
                          [](int h) { return h == 1; }));

  // Every call is its own region.
  total = 0;
  parallel_for(4, 17, [&](std::size_t) { ++total; });
  EXPECT_EQ(total.load(), 17);
}

TEST(ThreadPoolTest, TaskExceptionIsRethrownAfterEveryIndexRan) {
  std::atomic<int> total{0};
  EXPECT_THROW(parallel_for(4, 100,
                            [&](std::size_t i) {
                              ++total;
                              if (i == 37) raise("task 37 failed");
                            }),
               Error);
  EXPECT_EQ(total.load(), 100);
}

TEST(ThreadPoolTest, SizeResolutionAndSerialFallback) {
  EXPECT_GE(hardware_jobs(), 1);

  // jobs <= 1 (a negative count included) runs serially in the caller.
  for (const int jobs : {1, -3}) {
    std::vector<std::size_t> order;
    parallel_for(jobs, 5, [&](std::size_t i) { order.push_back(i); });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  }
  // jobs 0 means the hardware count and still runs every index once.
  std::atomic<int> total{0};
  parallel_for(0, 64, [&](std::size_t) { ++total; });
  EXPECT_EQ(total.load(), 64);
}

// ---------------------------------------------------------------- mix_seed
TEST(MixSeedTest, SmallKeyPerturbationsDecorrelate) {
  const std::uint64_t base = mix_seed(42, 0, 0);
  EXPECT_NE(base, mix_seed(42, 1, 0));
  EXPECT_NE(base, mix_seed(42, 0, 1));
  EXPECT_NE(base, mix_seed(43, 0, 0));
  // (stream, counter) does not collide with (counter, stream).
  EXPECT_NE(mix_seed(42, 7, 3), mix_seed(42, 3, 7));
  // Pure function of the triple.
  EXPECT_EQ(base, mix_seed(42, 0, 0));
}

// --------------------------------------------------------- CachedTraceTimer
TEST(CachedTraceTimerTest, MatchesUncachedAcrossPaperWorkloads) {
  auto simulator = sim::MachineSimulator::paper_platform();
  Rng rng(7);
  for (const auto& app : workloads::paper_benchmark_suite(simulator)) {
    const auto trace = app.workload->trace();
    const int n = app.workload->num_groups();
    sim::CachedTraceTimer timer(simulator.solver(), trace, app.context);
    for (int i = 0; i < 64; ++i) {
      sim::Placement placement = sim::Placement::uniform(
          n, topo::PoolKind::DDR);
      for (int g = 0; g < n; ++g)
        if (rng.next_double() < 0.5) placement.set(g, topo::PoolKind::HBM);
      const double cached = timer.time(placement);
      const double uncached =
          simulator.solver().time_trace(trace, placement, app.context);
      // Bit-identical, not just close: the cache stores the solver's exact
      // per-phase doubles and sums them in the same order.
      EXPECT_EQ(cached, uncached)
          << app.workload->name() << " placement " << i;
    }
  }
}

TEST(CachedTraceTimerTest, GrayOrderSweepMostlyHitsTheCache) {
  auto simulator = sim::MachineSimulator::paper_platform();
  const auto app = workloads::make_kwave_model(simulator);
  const auto trace = app.workload->trace();
  tuner::ConfigSpace space([&] {
    std::vector<double> bytes;
    for (const auto& g : app.workload->groups()) bytes.push_back(g.bytes);
    return bytes;
  }());

  sim::CachedTraceTimer timer(simulator.solver(), trace, app.context);
  for (const auto mask : space.gray_masks())
    timer.time(space.placement(mask));

  const std::uint64_t lookups =
      static_cast<std::uint64_t>(space.size()) * trace.phases.size();
  EXPECT_EQ(timer.hits() + timer.misses(), lookups);
  // Each k-Wave phase touches at most 2 of the 4 groups, so its timings
  // saturate after at most 4 misses — the 16-config sweep re-times far
  // less than half of its phase visits.
  EXPECT_LT(timer.misses(), lookups / 2);
  EXPECT_GT(timer.hits(), 0u);
}

// --------------------------------------------- engine result invariance
void expect_identical_outcomes(const tuner::TuningOutcome& a,
                               const tuner::TuningOutcome& b,
                               const std::string& label) {
  EXPECT_EQ(a.chosen_mask, b.chosen_mask) << label;
  EXPECT_EQ(a.chosen_time, b.chosen_time) << label;
  EXPECT_EQ(a.baseline_time, b.baseline_time) << label;
  EXPECT_EQ(a.speedup(), b.speedup()) << label;
  EXPECT_EQ(a.configs_measured, b.configs_measured) << label;
  EXPECT_EQ(a.measurements, b.measurements) << label;
  ASSERT_EQ(a.trajectory.size(), b.trajectory.size()) << label;
  for (std::size_t i = 0; i < a.trajectory.size(); ++i) {
    EXPECT_EQ(a.trajectory[i].mask, b.trajectory[i].mask) << label;
    EXPECT_EQ(a.trajectory[i].observed_time, b.trajectory[i].observed_time)
        << label;
    EXPECT_EQ(a.trajectory[i].accepted, b.trajectory[i].accepted) << label;
  }
  ASSERT_EQ(a.configs().size(), b.configs().size()) << label;
  for (std::size_t i = 0; i < a.configs().size(); ++i) {
    const auto& x = a.configs()[i];
    const auto& y = b.configs()[i];
    EXPECT_EQ(x.mask, y.mask) << label;
    EXPECT_EQ(x.mean_time, y.mean_time) << label;
    EXPECT_EQ(x.stddev_time, y.stddev_time) << label;
  }
  EXPECT_EQ(a.weights.traffic_bytes, b.weights.traffic_bytes) << label;
  EXPECT_EQ(a.weights.traffic_total, b.weights.traffic_total) << label;
}

/// The reference measurement of `mask`: its trace timed afresh through
/// MachineSimulator::time_trace (never a timing cache), with each
/// repetition's counter-based noise on top.
tuner::ConfigResult measure_afresh(const sim::MachineSimulator& simulator,
                                   const workloads::AppInfo& app,
                                   const tuner::ConfigSpace& space,
                                   tuner::ConfigMask mask, int repetitions) {
  const double t = simulator.time_trace(app.workload->trace(),
                                        space.placement(mask), app.context);
  RunningStats runs;
  for (int rep = 0; rep < repetitions; ++rep)
    runs.add(t * simulator.noise_factor(
                     {mask, static_cast<std::uint64_t>(rep)}));
  return {mask, runs.mean(), runs.stddev()};
}

tuner::ConfigSpace space_of(const workloads::AppInfo& app) {
  std::vector<double> bytes;
  for (const auto& g : app.workload->groups()) bytes.push_back(g.bytes);
  return tuner::ConfigSpace(bytes);
}

TEST(SweepEngineTest, MemoizedSweepEqualsTimingEveryConfigAfresh) {
  sim::MachineSimulator simulator(topo::xeon_max_9468_duo_flat_snc4(),
                                  sim::default_spr_hbm_calibration(),
                                  {0.02, 7});
  const auto app = workloads::make_kwave_model(simulator);
  const auto space = space_of(app);

  tuner::ExperimentOptions options;
  options.repetitions = 3;
  tuner::ExperimentRunner runner(simulator, app.context, options);
  const auto sweep = runner.sweep(*app.workload, space);
  ASSERT_EQ(sweep.configs.size(), space.size());
  EXPECT_EQ(sweep.baseline_time,
            measure_afresh(simulator, app, space, 0, 3).mean_time);
  for (std::size_t i = 0; i < sweep.configs.size(); ++i) {
    const auto reference = measure_afresh(
        simulator, app, space, static_cast<tuner::ConfigMask>(i), 3);
    EXPECT_EQ(sweep.configs[i].mean_time, reference.mean_time)
        << "mask=" << i;
    EXPECT_EQ(sweep.configs[i].stddev_time, reference.stddev_time);
  }
}

TEST(SweepEngineTest, CallbackOrderIsTheGrayEnumeration) {
  auto simulator = sim::MachineSimulator::paper_platform();
  const auto app = workloads::make_mg_model(simulator);
  const auto space = space_of(app);

  tuner::ExperimentOptions options;
  options.repetitions = 1;
  tuner::ExperimentRunner runner(simulator, app.context, options);
  std::vector<tuner::ConfigMask> seen;
  runner.sweep(*app.workload, space,
               [&](const tuner::ConfigResult& r) { seen.push_back(r.mask); });
  EXPECT_EQ(seen, space.gray_masks());
  EXPECT_EQ(seen.front(), 0u);  // baseline first
}

TEST(SweepEngineTest, MeasureBatchMatchesSingleMeasurements) {
  sim::MachineSimulator simulator(topo::xeon_max_9468_duo_flat_snc4(),
                                  sim::default_spr_hbm_calibration(),
                                  {0.02, 11});
  const auto app = workloads::make_bt_model(simulator);
  const auto space = space_of(app);

  tuner::ExperimentOptions options;
  options.repetitions = 2;
  tuner::ExperimentRunner runner(simulator, app.context, options);

  const std::vector<tuner::ConfigMask> masks = {5, 0, 129, 7, 255, 64, 33};
  const auto batch = runner.measure_batch(*app.workload, space, masks);
  ASSERT_EQ(batch.size(), masks.size());
  for (std::size_t i = 0; i < masks.size(); ++i) {
    const auto single = measure_afresh(simulator, app, space, masks[i], 2);
    EXPECT_EQ(batch[i].mask, masks[i]);
    EXPECT_EQ(batch[i].mean_time, single.mean_time);
    EXPECT_EQ(batch[i].stddev_time, single.stddev_time);
  }
}

TEST(SweepEngineTest, ReusedSimulatorReproducesOutcomes) {
  // Before the counter-based noise streams, a second run on the same
  // simulator consumed a different stretch of one shared RNG and saw
  // different noise. Now the platform is stateless: same inputs, same
  // outcome, every time.
  sim::MachineSimulator simulator(topo::xeon_max_9468_duo_flat_snc4(),
                                  sim::default_spr_hbm_calibration(),
                                  {0.02, 5});
  const auto app = workloads::make_mg_model(simulator);
  for (const char* strategy : {"exhaustive", "online", "estimator"}) {
    const auto run = [&] {
      return tuner::Session::on(simulator)
          .workload(*app.workload)
          .context(app.context)
          .strategy(strategy)
          .run();
    };
    const auto first = run();
    const auto second = run();
    expect_identical_outcomes(first, second,
                              std::string("rerun ") + strategy);
  }
}

TEST(SweepEngineTest, SessionJobsIsPinnedToOne) {
  // jobs(1) is accepted for perfbench's sake; measurement is serial, so
  // any other count is an error rather than a silently ignored request.
  auto simulator = sim::MachineSimulator::paper_platform();
  EXPECT_NO_THROW(tuner::Session::on(simulator).jobs(1));
  EXPECT_THROW(tuner::Session::on(simulator).jobs(2), Error);
  EXPECT_THROW(tuner::Session::on(simulator).jobs(0), Error);
}

}  // namespace
}  // namespace hmpt
