#include "core/planner.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.h"

namespace hmpt::tuner {

CapacityPlanner::CapacityPlanner(const SweepResult& sweep,
                                 const ConfigSpace& space)
    : sweep_(&sweep), space_(&space) {
  HMPT_REQUIRE(sweep.num_groups == space.num_groups(),
               "sweep/space arity mismatch");
}

PlanChoice CapacityPlanner::best_under_budget(double budget_bytes) const {
  HMPT_REQUIRE(budget_bytes >= 0.0, "negative budget");
  return best_under_caps({0.0, budget_bytes});
}

PlanChoice CapacityPlanner::best_under_caps(
    const std::vector<double>& caps) const {
  PlanChoice best;
  best.speedup = 0.0;
  bool found = false;
  for (const auto& cfg : sweep_->configs) {
    const TierSums bytes =
        tier_sums(space_->group_bytes(), cfg.mask, space_->num_tiers());
    if (!fits_caps(bytes, caps, space_->num_tiers())) continue;
    const double hbm = bytes[static_cast<std::size_t>(topo::PoolKind::HBM)];
    const double speedup = speedup_of(sweep_->baseline_time, cfg.mean_time);
    if (!found || speedup > best.speedup ||
        (speedup == best.speedup && hbm < best.hbm_bytes)) {
      found = true;
      best = choice(cfg, hbm);
    }
  }
  HMPT_REQUIRE(found, "not even the all-DDR configuration fits");
  return best;
}

std::optional<PlanChoice> CapacityPlanner::cheapest_reaching(
    double target_speedup) const {
  std::optional<PlanChoice> best;
  for (const auto& cfg : sweep_->configs) {
    const double speedup = speedup_of(sweep_->baseline_time, cfg.mean_time);
    if (speedup + 1e-12 < target_speedup) continue;
    const double bytes = hbm_bytes(cfg.mask);
    if (!best || bytes < best->hbm_bytes ||
        (bytes == best->hbm_bytes && speedup > best->speedup)) {
      best = choice(cfg, bytes);
    }
  }
  return best;
}

std::vector<PlanChoice> CapacityPlanner::pareto_front() const {
  std::vector<PlanChoice> all;
  for (const auto& cfg : sweep_->configs)
    all.push_back(choice(cfg, hbm_bytes(cfg.mask)));
  std::sort(all.begin(), all.end(), [](const PlanChoice& a,
                                       const PlanChoice& b) {
    if (a.hbm_bytes != b.hbm_bytes) return a.hbm_bytes < b.hbm_bytes;
    return a.speedup > b.speedup;
  });
  std::vector<PlanChoice> front;
  double best = -1.0;
  for (const auto& c : all) {
    if (c.speedup > best) {
      front.push_back(c);
      best = c.speedup;
    }
  }
  return front;
}

double CapacityPlanner::hbm_bytes(ConfigMask mask) const {
  return tier_sum(space_->group_bytes(), mask, space_->num_tiers(),
                  topo::PoolKind::HBM);
}

PlanChoice CapacityPlanner::choice(const ConfigResult& cfg,
                                   double hbm_bytes) const {
  return {cfg.mask, speedup_of(sweep_->baseline_time, cfg.mean_time),
          hbm_bytes, hbm_bytes / space_->total_bytes(), true};
}

PlanChoice knapsack_plan(const LinearEstimator& estimator,
                         const std::vector<double>& group_bytes,
                         double budget_bytes, double granularity) {
  const int n = estimator.num_groups();
  HMPT_REQUIRE(static_cast<int>(group_bytes.size()) == n,
               "bytes/estimator arity mismatch");
  HMPT_REQUIRE(granularity > 0.0, "granularity must be positive");

  const auto to_units = [&](double bytes) {
    return static_cast<int>(std::ceil(bytes / granularity));
  };
  const int capacity = static_cast<int>(budget_bytes / granularity);

  // dp[w] = best value using weight <= w; choice tracking via parent masks.
  std::vector<double> dp(static_cast<std::size_t>(capacity) + 1, 0.0);
  std::vector<ConfigMask> pick(static_cast<std::size_t>(capacity) + 1, 0);
  for (int g = 0; g < n; ++g) {
    const double value = estimator.single_speedup(g) - 1.0;
    if (value <= 0.0) continue;  // DDR-preferring groups never help
    const int w = to_units(group_bytes[static_cast<std::size_t>(g)]);
    for (int cap = capacity; cap >= w; --cap) {
      const double candidate =
          dp[static_cast<std::size_t>(cap - w)] + value;
      if (candidate > dp[static_cast<std::size_t>(cap)]) {
        dp[static_cast<std::size_t>(cap)] = candidate;
        pick[static_cast<std::size_t>(cap)] =
            pick[static_cast<std::size_t>(cap - w)] |
            (ConfigMask{1} << g);
      }
    }
  }

  PlanChoice choice;
  choice.from_measurement = false;
  choice.mask = pick[static_cast<std::size_t>(capacity)];
  choice.speedup = 1.0 + dp[static_cast<std::size_t>(capacity)];
  choice.hbm_bytes =
      tier_sum(group_bytes, choice.mask, 2, topo::PoolKind::HBM);
  const double total =
      std::accumulate(group_bytes.begin(), group_bytes.end(), 0.0);
  choice.hbm_usage = total > 0.0 ? choice.hbm_bytes / total : 0.0;
  return choice;
}

namespace {

sim::Placement mask_to_placement(std::size_t num_groups, ConfigMask mask) {
  std::vector<topo::PoolKind> pools(num_groups, topo::PoolKind::DDR);
  for (std::size_t g = 0; g < num_groups; ++g)
    if (mask & (ConfigMask{1} << g)) pools[g] = topo::PoolKind::HBM;
  return sim::Placement(std::move(pools));
}

}  // namespace

shim::PlacementPlan to_placement_plan(
    const std::vector<AllocationGroup>& groups,
    const sim::Placement& placement) {
  HMPT_REQUIRE(placement.size() == static_cast<int>(groups.size()),
               "placement/groups arity mismatch");
  shim::PlacementPlan plan(topo::PoolKind::DDR);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const topo::PoolKind kind = placement.of(static_cast<int>(g));
    if (kind == topo::PoolKind::DDR) continue;
    plan.set_named_site(groups[g].label, kind);
  }
  return plan;
}

shim::PlacementPlan to_placement_plan(
    const std::vector<AllocationGroup>& groups,
    const sim::Placement& placement, const shim::CallSiteRegistry& sites) {
  HMPT_REQUIRE(placement.size() == static_cast<int>(groups.size()),
               "placement/groups arity mismatch");
  shim::PlacementPlan plan(topo::PoolKind::DDR);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const topo::PoolKind kind = placement.of(static_cast<int>(g));
    if (kind == topo::PoolKind::DDR) continue;
    for (const int site : groups[g].sites)
      plan.set_site(sites.site(site).hash, kind);
  }
  return plan;
}

shim::PlacementPlan to_placement_plan(
    const std::vector<AllocationGroup>& groups, ConfigMask mask) {
  return to_placement_plan(groups, mask_to_placement(groups.size(), mask));
}

shim::PlacementPlan to_placement_plan(
    const std::vector<AllocationGroup>& groups, ConfigMask mask,
    const shim::CallSiteRegistry& sites) {
  return to_placement_plan(groups, mask_to_placement(groups.size(), mask),
                           sites);
}

}  // namespace hmpt::tuner
