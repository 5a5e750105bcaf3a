// Differential lockdown of the k-tier placement generalisation: on
// two-tier (DDR/HBM) machines the Placement/config-id path must be
// bit-identical to the pre-refactor bitmask path — same enumeration order,
// same noise streams, same measured times, same chosen placement — for all
// three strategies, with and without measurement noise, serial and
// parallel. The reference implementations below are line-for-line ports of
// the pre-refactor mask-based algorithms (binary Gray sweep, greedy online
// flips, estimator-guided top-k); any divergence fails the suite and
// therefore the build.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "core/session.h"
#include "core/strategy.h"
#include "workloads/app_models.h"

namespace hmpt {
namespace {

using tuner::ConfigMask;

// ------------------------------------------------------- legacy reference
// The pre-refactor two-tier machinery, reconstructed on top of the raw
// simulator: masks are HBM bitmasks, placements are decoded bit by bit.

struct LegacyWorkload {
  sim::PhaseTrace trace;
  std::vector<double> bytes;  ///< group footprints
  sim::ExecutionContext ctx;
};

sim::Placement legacy_placement(const std::vector<double>& bytes,
                                ConfigMask mask) {
  std::vector<topo::PoolKind> pools(bytes.size(), topo::PoolKind::DDR);
  for (std::size_t g = 0; g < bytes.size(); ++g)
    if (mask & (ConfigMask{1} << g)) pools[g] = topo::PoolKind::HBM;
  return sim::Placement(std::move(pools));
}

double legacy_hbm_bytes(const std::vector<double>& bytes, ConfigMask mask) {
  double hbm = 0.0;
  for (std::size_t g = 0; g < bytes.size(); ++g)
    if (mask & (ConfigMask{1} << g)) hbm += bytes[g];
  return hbm;
}

struct LegacyConfig {
  ConfigMask mask = 0;
  double mean_time = 0.0;
  double stddev_time = 0.0;
  double speedup = 0.0;
};

/// The pre-refactor measure_config: deterministic time once, noise per
/// repetition from stream (mask, rep).
LegacyConfig legacy_measure(const sim::MachineSimulator& sim,
                            const LegacyWorkload& w, ConfigMask mask,
                            int reps, double baseline_time) {
  const double t =
      sim.time_trace(w.trace, legacy_placement(w.bytes, mask), w.ctx);
  RunningStats runs;
  for (int rep = 0; rep < reps; ++rep)
    runs.add(t * sim.noise_factor({mask, static_cast<std::uint64_t>(rep)}));
  LegacyConfig result;
  result.mask = mask;
  result.mean_time = runs.mean();
  result.stddev_time = runs.stddev();
  result.speedup = baseline_time > 0.0 ? baseline_time / runs.mean() : 1.0;
  return result;
}

/// The pre-refactor exhaustive sweep: binary Gray order, baseline first.
std::vector<LegacyConfig> legacy_sweep(const sim::MachineSimulator& sim,
                                       const LegacyWorkload& w, int reps,
                                       double* baseline_out) {
  const std::size_t size = std::size_t{1} << w.bytes.size();
  std::vector<LegacyConfig> configs(size);
  LegacyConfig baseline = legacy_measure(sim, w, 0, reps, 0.0);
  baseline.speedup = 1.0;
  configs[0] = baseline;
  *baseline_out = baseline.mean_time;
  for (std::size_t i = 0; i < size; ++i) {
    const auto mask = static_cast<ConfigMask>(i ^ (i >> 1));
    if (mask == 0) continue;
    configs[mask] = legacy_measure(sim, w, mask, reps, baseline.mean_time);
  }
  return configs;
}

struct LegacyStep {
  ConfigMask tried = 0;
  double observed_time = 0.0;
  bool kept = false;
};

/// The pre-refactor online greedy tuner (flip candidates scored by signed
/// access density, confirmation via keep_threshold, patience passes).
struct LegacyOnlineResult {
  ConfigMask final_mask = 0;
  double final_time = 0.0;
  double baseline_time = 0.0;
  std::vector<LegacyStep> trajectory;
};

LegacyOnlineResult legacy_online(const sim::MachineSimulator& sim,
                                 const LegacyWorkload& w,
                                 double hbm_budget_bytes, int patience,
                                 int max_iterations) {
  const int n = static_cast<int>(w.bytes.size());
  const double budget = hbm_budget_bytes;
  constexpr double kKeepThreshold = 1e-3;

  std::unordered_map<ConfigMask, std::uint32_t> visits;
  const auto observe = [&](ConfigMask mask) {
    const std::uint64_t rep = visits[mask]++;
    return sim.measure_trace(w.trace, legacy_placement(w.bytes, mask),
                             w.ctx, {mask, rep});
  };

  LegacyOnlineResult result;
  ConfigMask mask = 0;
  double current = observe(mask);
  result.baseline_time = current;
  int iterations = 1;
  int rejections = 0;

  std::vector<double> density(static_cast<std::size_t>(n), 0.0);
  for (int g = 0; g < n; ++g)
    density[static_cast<std::size_t>(g)] =
        w.trace.access_fraction(g) /
        std::max(1.0, w.bytes[static_cast<std::size_t>(g)]);

  while (iterations < max_iterations && rejections < patience) {
    struct Candidate {
      int group;
      double score;
    };
    std::vector<Candidate> candidates;
    for (int g = 0; g < n; ++g) {
      const bool in_hbm = mask & (ConfigMask{1} << g);
      if (!in_hbm) {
        if (legacy_hbm_bytes(w.bytes, mask) +
                w.bytes[static_cast<std::size_t>(g)] >
            budget)
          continue;
        candidates.push_back({g, density[static_cast<std::size_t>(g)]});
      } else {
        candidates.push_back({g, -density[static_cast<std::size_t>(g)]});
      }
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& a, const Candidate& b) {
                return a.score > b.score;
              });

    bool improved = false;
    for (const auto& candidate : candidates) {
      if (iterations >= max_iterations) break;
      const ConfigMask trial_mask =
          mask ^ (ConfigMask{1} << candidate.group);
      const double trial = observe(trial_mask);
      ++iterations;
      const bool kept = trial < current * (1.0 - kKeepThreshold);
      result.trajectory.push_back({trial_mask, trial, kept});
      if (kept) {
        mask = trial_mask;
        current = trial;
        improved = true;
        break;
      }
    }
    if (improved) {
      rejections = 0;
    } else {
      ++rejections;
      if (candidates.empty()) break;
    }
  }

  result.final_mask = mask;
  result.final_time = current;
  return result;
}

/// The pre-refactor estimator-guided search: baseline + n singles, linear
/// fit, measure the top-k predicted budget-fitting masks.
struct LegacyGuidedResult {
  ConfigMask chosen_mask = 0;
  double chosen_time = 0.0;
  std::vector<LegacyStep> trajectory;
};

LegacyGuidedResult legacy_guided(const sim::MachineSimulator& sim,
                                 const LegacyWorkload& w, int reps,
                                 int top_k, double cap) {
  const int n = static_cast<int>(w.bytes.size());
  const std::size_t size = std::size_t{1} << n;
  LegacyGuidedResult out;
  double best = 0.0;
  std::vector<char> measured(size, 0);

  const auto record = [&](const LegacyConfig& result) {
    measured[result.mask] = 1;
    const bool fits = legacy_hbm_bytes(w.bytes, result.mask) <= cap;
    const bool accepted = fits && result.speedup > best;
    if (accepted) {
      best = result.speedup;
      out.chosen_mask = result.mask;
      out.chosen_time = result.mean_time;
    }
    out.trajectory.push_back({result.mask, result.mean_time, accepted});
  };

  LegacyConfig baseline = legacy_measure(sim, w, 0, reps, 0.0);
  baseline.speedup = 1.0;
  const double baseline_time = baseline.mean_time;
  record(baseline);

  std::vector<double> singles(static_cast<std::size_t>(n), 1.0);
  for (int g = 0; g < n; ++g) {
    const auto single =
        legacy_measure(sim, w, ConfigMask{1} << g, reps, baseline_time);
    record(single);
    singles[static_cast<std::size_t>(g)] = single.speedup;
  }

  std::vector<std::pair<double, ConfigMask>> ranked;
  for (ConfigMask mask = 0; mask < size; ++mask) {
    if (measured[mask]) continue;
    if (legacy_hbm_bytes(w.bytes, mask) > cap) continue;
    double est = 1.0;
    for (int g = 0; g < n; ++g)
      if (mask & (ConfigMask{1} << g))
        est += singles[static_cast<std::size_t>(g)] - 1.0;
    ranked.emplace_back(est, mask);
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  const std::size_t k =
      std::min<std::size_t>(static_cast<std::size_t>(top_k), ranked.size());
  for (std::size_t i = 0; i < k; ++i)
    record(legacy_measure(sim, w, ranked[i].second, reps, baseline_time));
  return out;
}

// ------------------------------------------------------------------ tests

class TierEquivalenceTest : public ::testing::TestWithParam<double> {
 protected:
  sim::MachineSimulator make_sim() const {
    return sim::MachineSimulator(topo::xeon_max_9468_duo_flat_snc4(),
                                 sim::default_spr_hbm_calibration(),
                                 {GetParam(), 42});
  }
  static LegacyWorkload legacy_of(const workloads::AppInfo& app) {
    LegacyWorkload w;
    w.trace = app.workload->trace();
    for (const auto& g : app.workload->groups()) w.bytes.push_back(g.bytes);
    w.ctx = app.context;
    return w;
  }
};

TEST_P(TierEquivalenceTest, ExhaustiveSweepMatchesMaskPath) {
  auto simulator = make_sim();
  for (auto* make : {&workloads::make_mg_model,
                     &workloads::make_kwave_model}) {
    const auto app = (*make)(simulator);
    const auto w = legacy_of(app);

    double legacy_baseline = 0.0;
    const auto reference =
        legacy_sweep(simulator, w, /*reps=*/3, &legacy_baseline);

    for (const int jobs : {1, 4}) {
      std::vector<ConfigMask> order;
      const auto outcome =
          tuner::Session::on(simulator)
              .workload(*app.workload)
              .context(app.context)
              .repetitions(3)
              .jobs(jobs)
              .progress([&](const tuner::TuningProgress& p) {
                order.push_back(p.mask);
              })
              .run();
      ASSERT_TRUE(outcome.sweep.has_value());
      const auto& sweep = *outcome.sweep;
      ASSERT_EQ(sweep.configs.size(), reference.size())
          << app.workload->name();
      EXPECT_EQ(sweep.baseline_time, legacy_baseline);
      for (std::size_t m = 0; m < reference.size(); ++m) {
        EXPECT_EQ(sweep.configs[m].mask, reference[m].mask);
        EXPECT_EQ(sweep.configs[m].mean_time, reference[m].mean_time)
            << app.workload->name() << " mask " << m << " jobs " << jobs;
        EXPECT_EQ(sweep.configs[m].stddev_time, reference[m].stddev_time);
        EXPECT_EQ(tuner::speedup_of(sweep.baseline_time,
                                    sweep.configs[m].mean_time),
                  reference[m].speedup);
      }
      // The enumeration itself is the binary reflected Gray code.
      ASSERT_EQ(order.size(), reference.size());
      for (std::size_t step = 0; step < order.size(); ++step)
        EXPECT_EQ(order[step], static_cast<ConfigMask>(step ^ (step >> 1)))
            << "gray step " << step;
    }
  }
}

TEST_P(TierEquivalenceTest, OnlineTrajectoryMatchesMaskPath) {
  auto simulator = make_sim();
  for (auto* make : {&workloads::make_mg_model,
                     &workloads::make_bt_model}) {
    const auto app = (*make)(simulator);
    const auto w = legacy_of(app);
    const double budget =
        simulator.machine().capacity_of_kind(topo::PoolKind::HBM);
    const auto reference = legacy_online(simulator, w, budget,
                                         /*patience=*/3,
                                         /*max_iterations=*/200);

    const auto outcome = tuner::Session::on(simulator)
                             .workload(*app.workload)
                             .context(app.context)
                             .strategy("online")
                             .run();
    EXPECT_EQ(outcome.chosen_mask, reference.final_mask)
        << app.workload->name();
    EXPECT_EQ(outcome.chosen_time, reference.final_time);
    EXPECT_EQ(outcome.baseline_time, reference.baseline_time);
    // Trajectory entry 0 of the reference is the first trial; the
    // strategy-layer trajectory lists exactly the same tried masks, times
    // and verdicts in the same order.
    ASSERT_EQ(outcome.trajectory.size(), reference.trajectory.size());
    for (std::size_t i = 0; i < reference.trajectory.size(); ++i) {
      EXPECT_EQ(outcome.trajectory[i].mask, reference.trajectory[i].tried)
          << app.workload->name() << " step " << i;
      EXPECT_EQ(outcome.trajectory[i].observed_time,
                reference.trajectory[i].observed_time);
      EXPECT_EQ(outcome.trajectory[i].accepted,
                reference.trajectory[i].kept);
    }
  }
}

TEST_P(TierEquivalenceTest, EstimatorGuidedMatchesMaskPath) {
  auto simulator = make_sim();
  for (auto* make : {&workloads::make_mg_model,
                     &workloads::make_bt_model}) {
    const auto app = (*make)(simulator);
    const auto w = legacy_of(app);
    const double cap =
        simulator.machine().capacity_of_kind(topo::PoolKind::HBM);
    const auto reference =
        legacy_guided(simulator, w, /*reps=*/2, /*top_k=*/3, cap);

    for (const int jobs : {1, 4}) {
      const auto outcome = tuner::Session::on(simulator)
                               .workload(*app.workload)
                               .context(app.context)
                               .strategy("estimator")
                               .repetitions(2)
                               .top_k(3)
                               .jobs(jobs)
                               .run();
      EXPECT_EQ(outcome.chosen_mask, reference.chosen_mask)
          << app.workload->name() << " jobs " << jobs;
      EXPECT_EQ(outcome.chosen_time, reference.chosen_time);
      ASSERT_EQ(outcome.trajectory.size(), reference.trajectory.size());
      for (std::size_t i = 0; i < reference.trajectory.size(); ++i) {
        EXPECT_EQ(outcome.trajectory[i].mask,
                  reference.trajectory[i].tried)
            << app.workload->name() << " step " << i << " jobs " << jobs;
        EXPECT_EQ(outcome.trajectory[i].observed_time,
                  reference.trajectory[i].observed_time);
        EXPECT_EQ(outcome.trajectory[i].accepted,
                  reference.trajectory[i].kept);
      }
    }
  }
}

TEST_P(TierEquivalenceTest, BudgetedRunsMatchMaskPath) {
  // A constrained HBM budget must prune exactly the same configurations.
  auto simulator = make_sim();
  const auto app = workloads::make_mg_model(simulator);
  const auto w = legacy_of(app);
  const double cap = 10.0 * GB;

  const auto reference =
      legacy_guided(simulator, w, /*reps=*/1, /*top_k=*/3, cap);
  const auto guided = tuner::Session::on(simulator)
                          .workload(*app.workload)
                          .context(app.context)
                          .strategy("estimator")
                          .repetitions(1)
                          .top_k(3)
                          .budget_gb(10.0)
                          .run();
  EXPECT_EQ(guided.chosen_mask, reference.chosen_mask);
  EXPECT_EQ(guided.chosen_time, reference.chosen_time);

  const auto online_reference =
      legacy_online(simulator, w, cap, /*patience=*/3,
                    /*max_iterations=*/200);
  const auto online = tuner::Session::on(simulator)
                          .workload(*app.workload)
                          .context(app.context)
                          .strategy("online")
                          .budget_gb(10.0)
                          .run();
  EXPECT_EQ(online.chosen_mask, online_reference.final_mask);
  EXPECT_EQ(online.chosen_time, online_reference.final_time);
}

INSTANTIATE_TEST_SUITE_P(NoiseFree, TierEquivalenceTest,
                         ::testing::Values(0.0));
INSTANTIATE_TEST_SUITE_P(Noisy, TierEquivalenceTest,
                         ::testing::Values(0.03));

}  // namespace
}  // namespace hmpt
