// planner.h — placement planning under an HBM capacity budget.
//
// The practical use of the tool's analysis (Sec. V): given the sweep (or
// just the linear estimator for spaces too large to measure), choose which
// groups go to HBM so performance is maximised within the pool's limited
// capacity (16 GB per tile on the paper's platform), or find the cheapest
// placement achieving a target speedup. Produces a shim PlacementPlan that
// the next application run applies.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/grouping.h"
#include "core/summary.h"
#include "shim/plan.h"

namespace hmpt::tuner {

struct PlanChoice {
  ConfigMask mask = 0;
  double speedup = 0.0;       ///< measured (sweep) or estimated
  double hbm_bytes = 0.0;
  double hbm_usage = 0.0;
  bool from_measurement = true;
};

class CapacityPlanner {
 public:
  /// Plan from exhaustive measurements.
  CapacityPlanner(const SweepResult& sweep, const ConfigSpace& space);

  /// Best configuration whose HBM footprint fits `budget_bytes` (other
  /// non-DDR tiers, if any, stay unconstrained).
  PlanChoice best_under_budget(double budget_bytes) const;

  /// Best configuration fitting every per-tier cap (`caps` indexed by tier;
  /// tier 0 ignored, caps beyond the vector unconstrained).
  PlanChoice best_under_caps(const std::vector<double>& caps) const;

  /// Cheapest (by HBM bytes) configuration with speedup >= target.
  std::optional<PlanChoice> cheapest_reaching(double target_speedup) const;

  /// The whole Pareto front over (hbm_bytes, speedup): ascending bytes,
  /// strictly increasing speedup.
  std::vector<PlanChoice> pareto_front() const;

 private:
  /// Bytes `mask` places in HBM.
  double hbm_bytes(ConfigMask mask) const;
  /// The plan of one measured configuration placing `hbm_bytes` in HBM.
  PlanChoice choice(const ConfigResult& cfg, double hbm_bytes) const;

  const SweepResult* sweep_;
  const ConfigSpace* space_;
};

/// 0/1-knapsack planning on the *estimator* for group counts too large to
/// sweep exhaustively: value = s({g}) - 1, weight = group bytes. Exact DP
/// with byte resolution `granularity`.
PlanChoice knapsack_plan(const LinearEstimator& estimator,
                         const std::vector<double>& group_bytes,
                         double budget_bytes,
                         double granularity = 64.0 * 1024 * 1024);

/// Materialise a placement as a shim plan: every group's call-site label
/// is pinned to its tier's pool kind (DDR stays on the default). Group
/// labels must be the named call sites the workload allocates with.
shim::PlacementPlan to_placement_plan(
    const std::vector<AllocationGroup>& groups,
    const sim::Placement& placement);

/// Same, but pins every member call site by its stack hash through the
/// registry — required when groups fold multiple sites (the rest group).
shim::PlacementPlan to_placement_plan(
    const std::vector<AllocationGroup>& groups,
    const sim::Placement& placement, const shim::CallSiteRegistry& sites);

/// Two-tier convenience: `mask` is the HBM bitmask over the groups.
shim::PlacementPlan to_placement_plan(
    const std::vector<AllocationGroup>& groups, ConfigMask mask);
shim::PlacementPlan to_placement_plan(
    const std::vector<AllocationGroup>& groups, ConfigMask mask,
    const shim::CallSiteRegistry& sites);

}  // namespace hmpt::tuner
