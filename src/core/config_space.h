// config_space.h — enumeration of the placement configuration space.
//
// A configuration assigns every allocation group one memory tier of the
// machine (tier index = topo::PoolKind value; tier 0 = DDR baseline).
// With k tiers and n groups there are k^n configurations; the paper's
// platform has k = 2, where a configuration degenerates to the subset of
// groups placed in HBM — 2^|AG| configurations (Sec. III-A).
//
// Configurations are indexed by a ConfigMask: the mixed-radix code of the
// placement with digit g (base k) equal to group g's tier. For k = 2 this
// is bit-for-bit the original HBM bitmask (bit g set = group g in HBM), so
// two-tier enumeration orders, noise-stream keys and reports are unchanged
// by the k-tier generalisation. This module enumerates configuration ids
// (in k-ary reflected Gray order), converts them to Placements,
// and sums per-group weights per tier.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "simmem/solver.h"

namespace hmpt::tuner {

/// Configuration id: mixed-radix code over groups, digit g (base
/// num_tiers) = tier of group g. For two tiers: bit g set = group g in HBM.
using ConfigMask = std::uint64_t;

/// Place value of group `group`'s digit in the mixed-radix id: num_tiers^g.
constexpr ConfigMask config_place_value(int group, int num_tiers) {
  ConfigMask place = 1;
  for (int g = 0; g < group; ++g)
    place *= static_cast<ConfigMask>(num_tiers);
  return place;
}

/// Number of configurations of an n-group, k-tier space: k^n.
constexpr std::size_t config_count(int num_groups, int num_tiers) {
  return static_cast<std::size_t>(config_place_value(num_groups, num_tiers));
}

/// Id of the uniform placement with every group in `tier`.
constexpr ConfigMask config_uniform_id(int num_groups, int tier,
                                       int num_tiers) {
  ConfigMask id = 0;
  for (int g = 0; g < num_groups; ++g)
    id += static_cast<ConfigMask>(tier) * config_place_value(g, num_tiers);
  return id;
}

/// The placement `mask` encodes: group g in the tier of its digit g.
sim::Placement config_placement(ConfigMask mask, int num_groups,
                                int num_tiers);
/// Overwrite every group of `placement` with the tier `mask` encodes for
/// it, reusing its storage.
void refill_placement(sim::Placement& placement, ConfigMask mask,
                      int num_tiers);

/// Per-tier sums of per-group weights under one configuration, indexed
/// by tier (PoolKind value).
using TierSums = std::array<double, topo::kNumPoolKinds>;

/// For every tier, the sum of the per-group `weights` (in group order,
/// from 0.0) of the groups `mask` places in it, from one walk of the
/// mask's digits — the one sum behind a configuration's tier bytes, its
/// capacity check and its HBM usage and density fractions.
TierSums tier_sums(const std::vector<double>& weights, ConfigMask mask,
                   int num_tiers);

/// tier_sums(weights, mask, num_tiers)[tier].
double tier_sum(const std::vector<double>& weights, ConfigMask mask,
                int num_tiers, topo::PoolKind tier);

/// Does every non-DDR tier of a `num_tiers`-tier configuration placing
/// `bytes` fit its cap? `caps` is indexed by tier: tier 0 (DDR) is never
/// constrained, and neither is a tier beyond `caps`.
bool fits_caps(const TierSums& bytes, const std::vector<double>& caps,
               int num_tiers);

class ConfigSpace {
 public:
  /// `group_bytes[i]` is group i's footprint (for per-tier usage
  /// fractions); `num_tiers` the machine's memory tier count (>= 2).
  explicit ConfigSpace(std::vector<double> group_bytes, int num_tiers = 2);

  int num_groups() const { return static_cast<int>(bytes_.size()); }
  int num_tiers() const { return num_tiers_; }
  std::size_t size() const { return size_; }

  /// All ids in k-ary reflected Gray order: consecutive configurations
  /// move exactly one group by exactly one tier, minimising replacement
  /// work between measurements. For two tiers this is the binary reflected
  /// Gray code i ^ (i >> 1) of the original sweep.
  std::vector<ConfigMask> gray_masks() const;
  /// Ids with exactly `k` groups placed outside DDR.
  std::vector<ConfigMask> masks_of_rank(int k) const;

  sim::Placement placement(ConfigMask mask) const;
  /// Inverse of placement(): the mixed-radix id of a placement.
  ConfigMask config_id(const sim::Placement& placement) const;
  /// Tier of group `g` under `mask` (the mixed-radix digit).
  topo::PoolKind tier_of(ConfigMask mask, int group) const;

  const std::vector<double>& group_bytes() const { return bytes_; }
  double total_bytes() const { return total_; }

  static constexpr int kMaxGroups = 20;  ///< 2^20 configs upper guard
  /// Enumeration guard over k^n (equals 2^kMaxGroups, so two-tier spaces
  /// keep their original limit).
  static constexpr std::size_t kMaxConfigs = std::size_t{1} << kMaxGroups;

 private:
  std::vector<double> bytes_;
  int num_tiers_ = 2;
  std::size_t size_ = 0;
  double total_ = 0.0;
};

}  // namespace hmpt::tuner
