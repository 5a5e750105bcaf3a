#include "core/online.h"

#include <algorithm>

#include "common/error.h"
#include "core/experiment.h"

namespace hmpt::tuner {

OnlineTuner::OnlineTuner(sim::MachineSimulator& sim,
                         sim::ExecutionContext ctx,
                         OnlineTunerOptions options)
    : sim_(&sim), ctx_(ctx), options_(options) {
  HMPT_REQUIRE(options_.max_iterations >= 1, "need >= 1 iteration");
  HMPT_REQUIRE(options_.patience >= 1, "patience must be >= 1");
}

double OnlineTuner::observe(
    const sim::PhaseTrace& trace, const ConfigSpace& space, ConfigMask mask,
    std::unordered_map<ConfigMask, std::uint32_t>& visits) {
  const std::uint64_t rep = visits[mask]++;
  return sim_->measure_trace(trace, space.placement(mask), ctx_,
                             {mask, rep});
}

OnlineResult OnlineTuner::tune(const workloads::Workload& workload,
                               const ConfigSpace& space) {
  HMPT_REQUIRE(space.num_groups() == workload.num_groups(),
               "space/workload arity mismatch");
  const auto trace = workload.trace();
  const int n = space.num_groups();
  const int tiers = space.num_tiers();
  const double unlimited = space.total_bytes() + 1.0;

  // Per-tier capacity caps: tier 0 (DDR) is the unconstrained baseline;
  // tier 1 honours the legacy hbm_budget_bytes unless tier_budget_bytes
  // overrides it.
  std::vector<double> caps(static_cast<std::size_t>(tiers), unlimited);
  for (int t = 1; t < tiers; ++t) {
    const auto ti = static_cast<std::size_t>(t);
    if (ti < options_.tier_budget_bytes.size() &&
        options_.tier_budget_bytes[ti] > 0.0)
      caps[ti] = options_.tier_budget_bytes[ti];
    else if (t == 1 && options_.hbm_budget_bytes > 0.0)
      caps[ti] = options_.hbm_budget_bytes;
  }

  // Place value of each group's digit, for single-move id updates.
  std::vector<ConfigMask> place(static_cast<std::size_t>(n), 1);
  for (int g = 0; g < n; ++g)
    place[static_cast<std::size_t>(g)] = config_place_value(g, tiers);

  OnlineResult result;
  std::unordered_map<ConfigMask, std::uint32_t> visits;
  ConfigMask mask = 0;
  std::vector<int> tier(static_cast<std::size_t>(n), 0);  ///< current digits
  double current = observe(trace, space, mask, visits);
  result.baseline_time = current;
  if (options_.on_baseline) options_.on_baseline(current);
  int iterations = 1;
  int rejections = 0;

  // Heuristic priority: sampled access density per byte — the quantity
  // the IBS profile gives the online controller for free.
  std::vector<double> density(static_cast<std::size_t>(n), 0.0);
  for (int g = 0; g < n; ++g)
    density[static_cast<std::size_t>(g)] =
        trace.access_fraction(g) /
        std::max(1.0, space.group_bytes()[static_cast<std::size_t>(g)]);

  // Directional weight of a tier move: the difference of the tiers' speed
  // ranks (position in the saturated-bandwidth ordering; bandwidth ties
  // break toward the lower tier index), normalised to [-1, 1]. For two
  // tiers with HBM at least as fast as DDR the weights are exactly the
  // +1/-1 of the original flip heuristic, so the candidate scores — and
  // hence the measurement order and noise streams — match the
  // pre-refactor tuner bit for bit.
  std::vector<int> order(static_cast<std::size_t>(tiers), 0);
  for (int t = 0; t < tiers; ++t) order[static_cast<std::size_t>(t)] = t;
  const auto bw = [&](int t) {
    return sim_->config().of(static_cast<topo::PoolKind>(t))
        .sat_bandwidth_per_tile;
  };
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    if (bw(a) != bw(b)) return bw(a) < bw(b);
    return a < b;
  });
  std::vector<double> rank(static_cast<std::size_t>(tiers), 0.0);
  for (int r = 0; r < tiers; ++r)
    rank[static_cast<std::size_t>(order[static_cast<std::size_t>(r)])] = r;

  while (iterations < options_.max_iterations &&
         rejections < options_.patience) {
    // Candidate moves, best heuristic first: hot groups toward fast
    // tiers, cold groups toward slow ones.
    struct Candidate {
      int group;
      int to_tier;
      double score;
    };
    std::vector<Candidate> candidates;
    for (int g = 0; g < n; ++g) {
      const auto gi = static_cast<std::size_t>(g);
      const int from = tier[gi];
      for (int to = 0; to < tiers; ++to) {
        if (to == from) continue;
        if (to != 0) {
          // Would the move blow the target tier's capacity?
          const double used =
              space.tier_bytes(mask, static_cast<topo::PoolKind>(to));
          if (used + space.group_bytes()[gi] >
              caps[static_cast<std::size_t>(to)])
            continue;
        }
        const double weight = (rank[static_cast<std::size_t>(to)] -
                               rank[static_cast<std::size_t>(from)]) /
                              static_cast<double>(tiers - 1);
        candidates.push_back({g, to, weight * density[gi]});
      }
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& a, const Candidate& b) {
                return a.score > b.score;
              });

    bool improved = false;
    for (const auto& candidate : candidates) {
      if (iterations >= options_.max_iterations) break;
      const auto gi = static_cast<std::size_t>(candidate.group);
      const ConfigMask trial_mask =
          mask + (static_cast<ConfigMask>(candidate.to_tier) * place[gi] -
                  static_cast<ConfigMask>(tier[gi]) * place[gi]);
      const double trial = observe(trace, space, trial_mask, visits);
      ++iterations;

      OnlineStep step;
      step.iteration = iterations;
      step.moved_group = candidate.group;
      step.to_tier = candidate.to_tier;
      step.observed_time = trial;
      step.tried_mask = trial_mask;
      step.kept = trial < current * (1.0 - options_.keep_threshold);
      step.mask = step.kept ? trial_mask : mask;
      result.trajectory.push_back(step);
      if (options_.on_step) options_.on_step(step);

      if (step.kept) {
        mask = trial_mask;
        tier[gi] = candidate.to_tier;
        current = trial;
        improved = true;
        break;  // re-rank candidates from the new state
      }
    }
    if (improved) {
      rejections = 0;
    } else {
      // A full pass found nothing; with measurement noise a further pass
      // (up to `patience` of them) may still flip a verdict.
      ++rejections;
      if (candidates.empty()) break;
    }
  }

  result.final_mask = mask;
  result.final_time = current;
  result.speedup = speedup_of(result.baseline_time, current);
  result.iterations_used = iterations;
  return result;
}

}  // namespace hmpt::tuner
