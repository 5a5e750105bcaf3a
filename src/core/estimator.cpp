#include "core/estimator.h"

#include <cmath>

#include "common/error.h"

namespace hmpt::tuner {

namespace {

/// Configuration id of "group g alone in tier t": t * num_tiers^g.
ConfigMask single_id(int group, int tier, int num_tiers) {
  return static_cast<ConfigMask>(tier) * config_place_value(group, num_tiers);
}

}  // namespace

LinearEstimator::LinearEstimator(const SweepResult& sweep)
    : num_groups_(sweep.num_groups), num_tiers_(sweep.num_tiers) {
  HMPT_REQUIRE(sweep.num_groups >= 1, "sweep has no groups");
  HMPT_REQUIRE(sweep.num_groups <= ConfigSpace::kMaxGroups,
               "estimator limited to ConfigSpace::kMaxGroups groups");
  HMPT_REQUIRE(num_tiers_ >= 2 && num_tiers_ <= topo::kNumPoolKinds,
               "sweep tier count out of range");
  single_speedups_.resize(static_cast<std::size_t>(num_groups_) *
                          static_cast<std::size_t>(num_tiers_ - 1));
  for (int g = 0; g < num_groups_; ++g)
    for (int t = 1; t < num_tiers_; ++t)
      single_speedups_[static_cast<std::size_t>(g * (num_tiers_ - 1) +
                                                (t - 1))] =
          speedup_of(sweep.baseline_time,
                     sweep.of(single_id(g, t, num_tiers_)).mean_time);
}

LinearEstimator::LinearEstimator(std::vector<double> single_speedups,
                                 int num_tiers)
    : single_speedups_(std::move(single_speedups)), num_tiers_(num_tiers) {
  HMPT_REQUIRE(!single_speedups_.empty(), "estimator needs >= 1 group");
  HMPT_REQUIRE(num_tiers_ >= 2 && num_tiers_ <= topo::kNumPoolKinds,
               "estimator needs 2 <= num_tiers <= kNumPoolKinds");
  HMPT_REQUIRE(single_speedups_.size() %
                       static_cast<std::size_t>(num_tiers_ - 1) ==
                   0,
               "single speedups must cover every (group, tier) pair");
  num_groups_ = static_cast<int>(single_speedups_.size() /
                                 static_cast<std::size_t>(num_tiers_ - 1));
  // Ids are 64-bit; past kMaxGroups the k^n spaces stop being tractable
  // long before the arithmetic would overflow anyway.
  HMPT_REQUIRE(num_groups_ <= ConfigSpace::kMaxGroups,
               "estimator limited to ConfigSpace::kMaxGroups groups");
}

double LinearEstimator::single_speedup(int group) const {
  return single_speedup(group, 1);
}

double LinearEstimator::single_speedup(int group, int tier) const {
  HMPT_REQUIRE(group >= 0 && group < num_groups(), "group out of range");
  HMPT_REQUIRE(tier >= 1 && tier < num_tiers_, "tier out of range");
  return single_speedups_[static_cast<std::size_t>(
      group * (num_tiers_ - 1) + (tier - 1))];
}

std::size_t LinearEstimator::configs() const {
  return config_count(num_groups_, num_tiers_);
}

double LinearEstimator::estimate(ConfigMask mask) const {
  HMPT_REQUIRE(mask < configs(), "mask out of range");
  const auto k = static_cast<ConfigMask>(num_tiers_);
  double est = 1.0;
  for (int g = 0; g < num_groups(); ++g) {
    const int tier = static_cast<int>(mask % k);
    mask /= k;
    if (tier != 0) est += single_speedup(g, tier) - 1.0;
  }
  return est;
}

std::vector<double> LinearEstimator::estimate_all() const {
  std::vector<double> out(configs());
  for (std::size_t mask = 0; mask < out.size(); ++mask)
    out[mask] = estimate(static_cast<ConfigMask>(mask));
  return out;
}

EstimatorError estimator_error(const SweepResult& sweep,
                               const LinearEstimator& estimator) {
  HMPT_REQUIRE(sweep.num_groups == estimator.num_groups(),
               "arity mismatch");
  HMPT_REQUIRE(sweep.num_tiers == estimator.num_tiers(),
               "tier-count mismatch");
  EstimatorError err;
  double sq_sum = 0.0, abs_sum = 0.0;
  for (const auto& cfg : sweep.configs) {
    const double e = estimator.estimate(cfg.mask) -
                     speedup_of(sweep.baseline_time, cfg.mean_time);
    abs_sum += std::fabs(e);
    sq_sum += e * e;
    if (std::fabs(e) > err.max_abs) {
      err.max_abs = std::fabs(e);
      err.worst_mask = cfg.mask;
    }
  }
  const double n = static_cast<double>(sweep.configs.size());
  err.mean_abs = abs_sum / n;
  err.rmse = std::sqrt(sq_sum / n);
  return err;
}

}  // namespace hmpt::tuner
