// Property/fuzz tests of the mixed-radix Gray enumeration that drives the
// exhaustive sweep: for every (num_groups, num_tiers) the sequence must
// cover all k^n configuration ids exactly once, adjacent configurations
// must differ in exactly one group by exactly one tier, and the two-tier
// sequence must be the binary reflected Gray code of the original sweep.
// The CachedTraceTimer assertions pin the payoff: a Gray-order sweep
// re-times only the phases whose group moved.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <set>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "core/config_space.h"
#include "core/experiment.h"
#include "simmem/timing_cache.h"
#include "workloads/app_models.h"

namespace hmpt {
namespace {

using tuner::ConfigMask;
using tuner::ConfigSpace;

std::vector<double> unit_bytes(int n) {
  return std::vector<double>(static_cast<std::size_t>(n), 1.0);
}

/// Base-k digits of `id` over `n` groups.
std::vector<int> digits_of(ConfigMask id, int n, int k) {
  std::vector<int> digits(static_cast<std::size_t>(n), 0);
  for (int g = 0; g < n; ++g) {
    digits[static_cast<std::size_t>(g)] =
        static_cast<int>(id % static_cast<ConfigMask>(k));
    id /= static_cast<ConfigMask>(k);
  }
  return digits;
}

TEST(GrayEnumerationTest, CoversEveryConfigurationExactlyOnce) {
  for (int k = 2; k <= topo::kNumPoolKinds; ++k) {
    for (int n = 1; n <= 8; ++n) {
      const ConfigSpace space(unit_bytes(n), k);
      const auto gray = space.gray_masks();
      ASSERT_EQ(gray.size(), space.size()) << "k=" << k << " n=" << n;
      std::set<ConfigMask> seen(gray.begin(), gray.end());
      EXPECT_EQ(seen.size(), space.size()) << "k=" << k << " n=" << n;
      EXPECT_EQ(*seen.begin(), 0u);
      EXPECT_EQ(*seen.rbegin(), static_cast<ConfigMask>(space.size() - 1));
      EXPECT_EQ(gray.front(), 0u) << "enumeration starts at all-DDR";
    }
  }
}

TEST(GrayEnumerationTest, AdjacentConfigsMoveOneGroupByOneTier) {
  for (int k = 2; k <= topo::kNumPoolKinds; ++k) {
    for (int n = 1; n <= 6; ++n) {
      const ConfigSpace space(unit_bytes(n), k);
      const auto gray = space.gray_masks();
      for (std::size_t i = 1; i < gray.size(); ++i) {
        const auto a = digits_of(gray[i - 1], n, k);
        const auto b = digits_of(gray[i], n, k);
        int moved = 0;
        for (int g = 0; g < n; ++g) {
          const auto gi = static_cast<std::size_t>(g);
          if (a[gi] == b[gi]) continue;
          ++moved;
          EXPECT_EQ(std::abs(a[gi] - b[gi]), 1)
              << "k=" << k << " n=" << n << " step " << i << " group " << g;
        }
        EXPECT_EQ(moved, 1) << "k=" << k << " n=" << n << " step " << i;
      }
    }
  }
}

TEST(GrayEnumerationTest, TwoTierSequenceIsTheBinaryReflectedGrayCode) {
  // The original sweep enumerated i ^ (i >> 1); the mixed-radix code must
  // reproduce it exactly so two-tier campaigns measure in the same order.
  for (int n = 1; n <= 10; ++n) {
    const ConfigSpace space(unit_bytes(n), 2);
    const auto gray = space.gray_masks();
    ASSERT_EQ(gray.size(), std::size_t{1} << n);
    for (std::size_t i = 0; i < gray.size(); ++i)
      EXPECT_EQ(gray[i], static_cast<ConfigMask>(i ^ (i >> 1))) << i;
  }
}

TEST(GrayEnumerationTest, FuzzedSpacesKeepBothInvariants) {
  // Randomised (n, k) pairs plus id<->placement round-trips.
  Rng rng(20260726);
  for (int round = 0; round < 50; ++round) {
    const int k =
        2 + static_cast<int>(rng.next_below(topo::kNumPoolKinds - 1));
    const int n = 1 + static_cast<int>(rng.next_below(7));
    std::vector<double> bytes(static_cast<std::size_t>(n), 0.0);
    for (auto& b : bytes) b = 1.0 + rng.next_double() * 1e9;
    const ConfigSpace space(bytes, k);

    const auto gray = space.gray_masks();
    std::set<ConfigMask> seen(gray.begin(), gray.end());
    ASSERT_EQ(seen.size(), space.size()) << "k=" << k << " n=" << n;

    for (int probe = 0; probe < 16; ++probe) {
      const auto id = static_cast<ConfigMask>(
          rng.next_below(static_cast<std::uint64_t>(space.size())));
      const auto placement = space.placement(id);
      EXPECT_EQ(space.config_id(placement), id);
      for (int g = 0; g < n; ++g)
        EXPECT_EQ(space.tier_of(id, g), placement.of(g));
      // groups_in_hbm_of counts the groups promoted out of DDR.
      int promoted = 0;
      for (int g = 0; g < n; ++g)
        promoted += placement.of(g) != topo::PoolKind::DDR;
      EXPECT_EQ(tuner::groups_in_hbm_of(id, n, space.num_tiers()), promoted);
    }
  }
}

TEST(GrayEnumerationTest, RejectsOversizedAndDegenerateSpaces) {
  EXPECT_THROW(ConfigSpace(unit_bytes(ConfigSpace::kMaxGroups + 1), 2),
               Error);
  // 3^13 > 2^20: the config-count guard trips before the group guard.
  EXPECT_THROW(ConfigSpace(unit_bytes(13), 3), Error);
  EXPECT_NO_THROW(ConfigSpace(unit_bytes(12), 3));
  EXPECT_THROW(ConfigSpace(unit_bytes(3), 1), Error);
  EXPECT_THROW(ConfigSpace(unit_bytes(3), topo::kNumPoolKinds + 1), Error);
}

// ------------------------------------------------- CachedTraceTimer payoff
TEST(GrayEnumerationTest, ThreeTierGraySweepMostlyHitsTheTimingCache) {
  auto simulator = sim::MachineSimulator::cxl_tiered_platform();
  const auto app = workloads::make_kwave_model(simulator);
  const auto trace = app.workload->trace();
  tuner::ConfigSpace space(
      [&] {
        std::vector<double> bytes;
        for (const auto& g : app.workload->groups())
          bytes.push_back(g.bytes);
        return bytes;
      }(),
      3);

  sim::CachedTraceTimer timer(simulator.solver(), trace, app.context);
  for (const auto mask : space.gray_masks())
    timer.time(space.placement(mask));

  const std::uint64_t lookups =
      static_cast<std::uint64_t>(space.size()) * trace.phases.size();
  EXPECT_EQ(timer.hits() + timer.misses(), lookups);
  // A phase touching t of the n groups has at most 3^t distinct timings;
  // k-Wave phases touch at most 2 of the 4 groups, so misses are bounded
  // by phases * 3^2 while the sweep visits 3^4 configurations per phase.
  std::uint64_t miss_bound = 0;
  for (const auto& phase : trace.phases) {
    std::set<int> groups;
    for (const auto& s : phase.streams) groups.insert(s.group);
    std::uint64_t distinct = 1;
    for (std::size_t g = 0; g < groups.size(); ++g) distinct *= 3;
    miss_bound += distinct;
  }
  EXPECT_LE(timer.misses(), miss_bound);
  EXPECT_LT(timer.misses(), lookups / 2);
  EXPECT_GT(timer.hits(), 0u);
}

TEST(GrayEnumerationTest, GrayStepsRetimeOnlyTouchedPhases) {
  // Per Gray step, the incremental cost is the phases touching the moved
  // group: warm the cache with one full Gray pass, then a second pass must
  // be all hits (every restricted sub-placement has been seen).
  auto simulator = sim::MachineSimulator::cxl_tiered_platform();
  const auto app = workloads::make_mg_model(simulator);
  const auto trace = app.workload->trace();
  tuner::ConfigSpace space(
      [&] {
        std::vector<double> bytes;
        for (const auto& g : app.workload->groups())
          bytes.push_back(g.bytes);
        return bytes;
      }(),
      3);

  sim::CachedTraceTimer timer(simulator.solver(), trace, app.context);
  for (const auto mask : space.gray_masks())
    timer.time(space.placement(mask));
  const auto misses_after_first_pass = timer.misses();
  for (const auto mask : space.gray_masks())
    timer.time(space.placement(mask));
  EXPECT_EQ(timer.misses(), misses_after_first_pass)
      << "second pass must be served entirely from the cache";
}

}  // namespace
}  // namespace hmpt
