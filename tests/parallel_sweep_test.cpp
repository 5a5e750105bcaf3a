// Tests for the parallel, incrementally-memoized sweep engine: the
// ThreadPool primitive, the counter-based noise streams, the per-phase
// timing cache, and the headline guarantee — serial and parallel
// campaigns produce bit-identical results for every strategy, with and
// without measurement noise, equal to timing each configuration afresh.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/session.h"
#include "core/strategy.h"
#include "simmem/timing_cache.h"
#include "workloads/app_models.h"

namespace hmpt {
namespace {

// -------------------------------------------------------------- ThreadPool
TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  constexpr std::size_t kN = 1000;
  std::vector<int> hits(kN, 0);  // disjoint writes, one per index
  std::atomic<int> total{0};
  pool.parallel_for(kN, [&](std::size_t i) {
    ++hits[i];
    total.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(total.load(), static_cast<int>(kN));
  EXPECT_TRUE(std::all_of(hits.begin(), hits.end(),
                          [](int h) { return h == 1; }));

  // The pool is reusable across regions.
  total = 0;
  pool.parallel_for(17, [&](std::size_t) { ++total; });
  EXPECT_EQ(total.load(), 17);
}

TEST(ThreadPoolTest, ChunksAreContiguousAndCoverTheRange) {
  ThreadPool pool(3);
  constexpr std::size_t kN = 100;
  std::mutex mutex;
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  pool.parallel_chunks(kN, [&](std::size_t begin, std::size_t end) {
    std::lock_guard<std::mutex> lock(mutex);
    chunks.emplace_back(begin, end);
  });
  ASSERT_LE(chunks.size(), 3u);
  std::sort(chunks.begin(), chunks.end());
  std::size_t covered = 0;
  for (const auto& [begin, end] : chunks) {
    EXPECT_EQ(begin, covered);  // contiguous, no gaps or overlaps
    EXPECT_LT(begin, end);
    covered = end;
  }
  EXPECT_EQ(covered, kN);
}

TEST(ThreadPoolTest, TaskExceptionIsRethrownAndPoolSurvives) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(100,
                                 [&](std::size_t i) {
                                   if (i == 37) raise("task 37 failed");
                                 }),
               Error);
  std::atomic<int> total{0};
  pool.parallel_for(10, [&](std::size_t) { ++total; });
  EXPECT_EQ(total.load(), 10);
}

TEST(ThreadPoolTest, SizeResolutionAndSerialFallback) {
  EXPECT_GE(ThreadPool::hardware_jobs(), 1);
  EXPECT_EQ(ThreadPool(0).size(), ThreadPool::hardware_jobs());
  EXPECT_EQ(ThreadPool(-3).size(), 1);

  // The free helper runs serially in the calling thread for jobs <= 1.
  std::vector<std::size_t> order;
  parallel_for(1, 5, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
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

TEST(ParallelSweepTest, BitIdenticalAcrossJobsForAllStrategies) {
  // The headline guarantee: any strategy, any job count, with and without
  // measurement noise — same outcome, bit for bit.
  for (const double sigma : {0.0, 0.02}) {
    sim::MachineSimulator simulator(topo::xeon_max_9468_duo_flat_snc4(),
                                    sim::default_spr_hbm_calibration(),
                                    {sigma, 42});
    const auto app = workloads::make_mg_model(simulator);
    for (const char* strategy : {"exhaustive", "online", "estimator"}) {
      const auto run = [&](int jobs) {
        return tuner::Session::on(simulator)
            .workload(*app.workload)
            .context(app.context)
            .strategy(strategy)
            .jobs(jobs)
            .run();
      };
      const auto serial = run(1);
      const auto parallel = run(4);
      const auto hardware = run(0);
      const std::string label =
          std::string(strategy) + " sigma=" + std::to_string(sigma);
      expect_identical_outcomes(serial, parallel, label + " jobs=4");
      expect_identical_outcomes(serial, hardware, label + " jobs=0");
    }
  }
}

TEST(ParallelSweepTest, MemoizationAndJobsLeaveSweepBitIdentical) {
  sim::MachineSimulator simulator(topo::xeon_max_9468_duo_flat_snc4(),
                                  sim::default_spr_hbm_calibration(),
                                  {0.02, 7});
  const auto app = workloads::make_kwave_model(simulator);
  tuner::ConfigSpace space([&] {
    std::vector<double> bytes;
    for (const auto& g : app.workload->groups()) bytes.push_back(g.bytes);
    return bytes;
  }());

  tuner::ExperimentOptions options;
  options.repetitions = 3;
  const auto run = [&](int jobs) {
    options.jobs = jobs;
    tuner::ExperimentRunner runner(simulator, app.context, options);
    return runner.sweep(*app.workload, space);
  };

  // The reference times every configuration afresh: measure() calls
  // MachineSimulator::time_trace, never the sweep's timing cache.
  tuner::ExperimentRunner fresh(simulator, app.context, options);
  const auto baseline = fresh.measure(*app.workload, space, 0);
  for (const int jobs : {1, 3, 0}) {
    const auto sweep = run(jobs);
    ASSERT_EQ(sweep.configs.size(), space.size());
    EXPECT_EQ(sweep.baseline_time, baseline.mean_time);
    for (std::size_t i = 0; i < sweep.configs.size(); ++i) {
      const auto reference =
          i == 0 ? baseline
                 : fresh.measure(*app.workload, space,
                                 static_cast<tuner::ConfigMask>(i));
      EXPECT_EQ(sweep.configs[i].mean_time, reference.mean_time)
          << "jobs=" << jobs << " mask=" << i;
      EXPECT_EQ(sweep.configs[i].stddev_time, reference.stddev_time);
    }
  }
}

TEST(ParallelSweepTest, CallbackOrderMatchesSerialEnumeration) {
  auto simulator = sim::MachineSimulator::paper_platform();
  const auto app = workloads::make_mg_model(simulator);
  tuner::ConfigSpace space([&] {
    std::vector<double> bytes;
    for (const auto& g : app.workload->groups()) bytes.push_back(g.bytes);
    return bytes;
  }());

  const auto masks_seen = [&](int jobs) {
    tuner::ExperimentOptions options;
    options.repetitions = 1;
    options.jobs = jobs;
    tuner::ExperimentRunner runner(simulator, app.context, options);
    std::vector<tuner::ConfigMask> seen;
    runner.sweep(*app.workload, space,
                 [&](const tuner::ConfigResult& r) { seen.push_back(r.mask); });
    return seen;
  };
  const auto serial = masks_seen(1);
  EXPECT_EQ(serial.size(), space.size());
  EXPECT_EQ(serial.front(), 0u);  // baseline first
  EXPECT_EQ(masks_seen(4), serial);
}

TEST(ParallelSweepTest, MeasureBatchMatchesSingleMeasurements) {
  sim::MachineSimulator simulator(topo::xeon_max_9468_duo_flat_snc4(),
                                  sim::default_spr_hbm_calibration(),
                                  {0.02, 11});
  const auto app = workloads::make_bt_model(simulator);
  tuner::ConfigSpace space([&] {
    std::vector<double> bytes;
    for (const auto& g : app.workload->groups()) bytes.push_back(g.bytes);
    return bytes;
  }());

  tuner::ExperimentOptions options;
  options.repetitions = 2;
  options.jobs = 4;
  tuner::ExperimentRunner runner(simulator, app.context, options);

  const std::vector<tuner::ConfigMask> masks = {5, 0, 129, 7, 255, 64, 33};
  const auto batch = runner.measure_batch(*app.workload, space, masks);
  ASSERT_EQ(batch.size(), masks.size());
  for (std::size_t i = 0; i < masks.size(); ++i) {
    const auto single = runner.measure(*app.workload, space, masks[i]);
    EXPECT_EQ(batch[i].mask, masks[i]);
    EXPECT_EQ(batch[i].mean_time, single.mean_time);
    EXPECT_EQ(batch[i].stddev_time, single.stddev_time);
  }
}

TEST(ParallelSweepTest, ReusedSimulatorReproducesOutcomes) {
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

TEST(ParallelSweepTest, BadJobOptionsAreRejected) {
  auto simulator = sim::MachineSimulator::paper_platform();
  EXPECT_THROW(tuner::Session::on(simulator).jobs(-1), Error);
  tuner::ExperimentOptions options;
  options.jobs = -2;
  EXPECT_THROW(
      tuner::ExperimentRunner(simulator, simulator.full_machine(), options),
      Error);
}

}  // namespace
}  // namespace hmpt
