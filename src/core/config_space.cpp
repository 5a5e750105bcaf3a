#include "core/config_space.h"

#include <algorithm>

#include "common/error.h"
#include "core/experiment.h"

namespace hmpt::tuner {

ConfigSpace::ConfigSpace(std::vector<double> group_bytes, int num_tiers)
    : bytes_(std::move(group_bytes)), num_tiers_(num_tiers) {
  HMPT_REQUIRE(!bytes_.empty(), "config space needs >= 1 group");
  HMPT_REQUIRE(static_cast<int>(bytes_.size()) <= kMaxGroups,
               "too many groups to enumerate exhaustively");
  HMPT_REQUIRE(num_tiers_ >= 2 && num_tiers_ <= topo::kNumPoolKinds,
               "config space needs 2 <= num_tiers <= kNumPoolKinds");
  size_ = 1;
  for (std::size_t g = 0; g < bytes_.size(); ++g) {
    size_ *= static_cast<std::size_t>(num_tiers_);
    HMPT_REQUIRE(size_ <= kMaxConfigs,
                 "too many configurations to enumerate exhaustively");
  }
  for (double b : bytes_) {
    HMPT_REQUIRE(b >= 0.0, "negative group bytes");
    total_ += b;
  }
  HMPT_REQUIRE(total_ > 0.0, "config space with zero total footprint");
}

std::vector<ConfigMask> ConfigSpace::gray_masks() const {
  // k-ary reflected Gray enumeration (boustrophedon digits): each step
  // moves the lowest digit that can advance in its current direction and
  // reverses the direction of every digit below it. For k = 2 this
  // produces exactly the binary reflected Gray code i ^ (i >> 1).
  const int n = num_groups();
  const ConfigMask k = static_cast<ConfigMask>(num_tiers_);
  std::vector<ConfigMask> masks;
  masks.reserve(size());

  std::vector<ConfigMask> digits(static_cast<std::size_t>(n), 0);
  std::vector<int> dirs(static_cast<std::size_t>(n), 1);
  // Digit g's place value k^g: id updates are incremental, one digit move
  // per step.
  std::vector<ConfigMask> place(static_cast<std::size_t>(n), 1);
  for (int g = 1; g < n; ++g)
    place[static_cast<std::size_t>(g)] =
        place[static_cast<std::size_t>(g - 1)] * k;

  ConfigMask id = 0;
  masks.push_back(id);
  while (true) {
    int g = 0;
    while (g < n) {
      const auto gi = static_cast<std::size_t>(g);
      const ConfigMask next = digits[gi] + static_cast<ConfigMask>(dirs[gi]);
      if (next < k) break;  // unsigned wrap catches the -1 underflow too
      dirs[gi] = -dirs[gi];
      ++g;
    }
    if (g == n) break;  // every digit exhausted: k^n ids emitted
    const auto gi = static_cast<std::size_t>(g);
    if (dirs[gi] > 0) {
      ++digits[gi];
      id += place[gi];
    } else {
      --digits[gi];
      id -= place[gi];
    }
    masks.push_back(id);
  }
  return masks;
}

std::vector<ConfigMask> ConfigSpace::masks_of_rank(int k) const {
  HMPT_REQUIRE(k >= 0 && k <= num_groups(), "rank out of range");
  std::vector<ConfigMask> masks;
  for (ConfigMask mask = 0; mask < size(); ++mask)
    if (groups_in_hbm_of(mask, num_groups(), num_tiers_) == k)
      masks.push_back(mask);
  return masks;
}

sim::Placement config_placement(ConfigMask mask, int num_groups,
                                int num_tiers) {
  auto placement = sim::Placement::uniform(num_groups, topo::PoolKind::DDR);
  refill_placement(placement, mask, num_tiers);
  return placement;
}

void refill_placement(sim::Placement& placement, ConfigMask mask,
                      int num_tiers) {
  const auto k = static_cast<ConfigMask>(num_tiers);
  for (int g = 0; g < placement.size(); ++g, mask /= k)
    placement.set(g, static_cast<topo::PoolKind>(mask % k));
}

sim::Placement ConfigSpace::placement(ConfigMask mask) const {
  HMPT_REQUIRE(mask < size(), "mask out of range");
  return config_placement(mask, num_groups(), num_tiers_);
}

ConfigMask ConfigSpace::config_id(const sim::Placement& placement) const {
  HMPT_REQUIRE(placement.size() == num_groups(),
               "placement arity does not match the config space");
  const auto k = static_cast<ConfigMask>(num_tiers_);
  ConfigMask id = 0;
  for (int g = num_groups() - 1; g >= 0; --g) {
    const auto tier = static_cast<ConfigMask>(placement.of(g));
    HMPT_REQUIRE(tier < k, "placement uses a tier beyond the config space");
    id = id * k + tier;
  }
  return id;
}

topo::PoolKind ConfigSpace::tier_of(ConfigMask mask, int group) const {
  HMPT_REQUIRE(mask < size(), "mask out of range");
  HMPT_REQUIRE(group >= 0 && group < num_groups(), "group out of range");
  const auto k = static_cast<ConfigMask>(num_tiers_);
  for (int g = 0; g < group; ++g) mask /= k;
  return static_cast<topo::PoolKind>(mask % k);
}

TierSums tier_sums(const std::vector<double>& weights, ConfigMask mask,
                   int num_tiers) {
  // Every digit then indexes a tier of TierSums.
  HMPT_REQUIRE(num_tiers >= 2 && num_tiers <= topo::kNumPoolKinds,
               "tier sums need 2 <= num_tiers <= kNumPoolKinds");
  const auto k = static_cast<ConfigMask>(num_tiers);
  TierSums sums{};
  for (const double weight : weights) {
    sums[mask % k] += weight;
    mask /= k;
  }
  return sums;
}

double tier_sum(const std::vector<double>& weights, ConfigMask mask,
                int num_tiers, topo::PoolKind tier) {
  return tier_sums(weights, mask, num_tiers)[static_cast<std::size_t>(tier)];
}

bool fits_caps(const TierSums& bytes, const std::vector<double>& caps,
               int num_tiers) {
  const auto tiers = std::min(caps.size(), static_cast<std::size_t>(num_tiers));
  for (std::size_t t = 1; t < tiers; ++t)
    if (bytes[t] > caps[t]) return false;
  return true;
}

}  // namespace hmpt::tuner
