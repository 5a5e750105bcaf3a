#include "core/summary.h"

#include "common/error.h"

namespace hmpt::tuner {

SummaryAnalysis summarize(const SweepResult& sweep,
                          const GroupWeights& weights, double fraction) {
  HMPT_REQUIRE(!sweep.configs.empty(), "empty sweep");
  HMPT_REQUIRE(fraction > 0.0 && fraction <= 1.0, "bad threshold fraction");

  SummaryAnalysis out;
  out.num_groups = sweep.num_groups;
  out.num_tiers = sweep.num_tiers;
  const LinearEstimator estimator(sweep);

  for (const auto& cfg : sweep.configs) {
    SummaryPoint p;
    p.mask = cfg.mask;
    p.hbm_usage = hbm_usage_of(weights, cfg.mask, sweep.num_tiers);
    p.speedup = speedup_of(sweep.baseline_time, cfg.mean_time);
    p.estimate = estimator.estimate(cfg.mask);
    p.single_group =
        groups_in_hbm_of(cfg.mask, sweep.num_groups, sweep.num_tiers) == 1;
    out.points.push_back(p);

    if (p.speedup > out.max_speedup) {
      out.max_speedup = p.speedup;
      out.max_mask = p.mask;
      out.max_usage = p.hbm_usage;
    }
  }
  out.hbm_only_speedup =
      speedup_of(sweep.baseline_time, sweep.all_hbm().mean_time);
  out.threshold90 = 1.0 + fraction * (out.max_speedup - 1.0);

  // Smallest HBM footprint reaching the threshold; speedup breaks ties.
  bool found = false;
  for (const auto& p : out.points) {
    if (p.speedup + 1e-12 < out.threshold90) continue;
    if (!found || p.hbm_usage < out.usage90 ||
        (p.hbm_usage == out.usage90 && p.speedup > out.usage90_speedup)) {
      found = true;
      out.usage90_mask = p.mask;
      out.usage90 = p.hbm_usage;
      out.usage90_speedup = p.speedup;
    }
  }
  HMPT_REQUIRE(found, "no configuration reaches the threshold");
  return out;
}

}  // namespace hmpt::tuner
