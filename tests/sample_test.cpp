// Tests for hmpt::sample — IBS/PEBS-like sampling and attribution.
#include <gtest/gtest.h>

#include "common/error.h"
#include "pools/page_map.h"
#include "sample/sampler.h"

namespace hmpt::sample {
namespace {

pools::PageMap two_range_map() {
  pools::PageMap map;
  map.insert(0x10000, 0x10000, 0, 1);  // tag 1 on node 0
  map.insert(0x30000, 0x10000, 4, 2);  // tag 2 on node 4
  return map;
}

TEST(SamplerTest, SystematicKeepsEveryNth) {
  IbsSampler sampler({100, SamplingMode::Systematic, 1});
  const auto map = two_range_map();
  for (int i = 0; i < 10'000; ++i)
    sampler.feed({0x10000 + static_cast<std::uintptr_t>(i % 256) * 64,
                  false, 0.0},
                 map);
  const auto report = sampler.report();
  EXPECT_EQ(report.events_seen, 10'000u);
  EXPECT_EQ(report.samples_kept, 100u);
  EXPECT_EQ(report.samples_unattributed, 0u);
  EXPECT_DOUBLE_EQ(report.density(1), 1.0);
}

TEST(SamplerTest, PoissonKeepsRoughlyExpectedCount) {
  IbsSampler sampler({100, SamplingMode::Poisson, 7});
  const auto map = two_range_map();
  for (int i = 0; i < 100'000; ++i)
    sampler.feed({0x10080, false, 0.0}, map);
  const auto report = sampler.report();
  EXPECT_NEAR(static_cast<double>(report.samples_kept), 1000.0, 150.0);
}

TEST(SamplerTest, DensityMatchesTrafficSplit) {
  IbsSampler sampler({64, SamplingMode::Poisson, 3});
  const auto map = two_range_map();
  // 75 % of accesses into tag 1, 25 % into tag 2.
  for (int i = 0; i < 200'000; ++i) {
    const bool hot = (i % 4) != 3;
    const std::uintptr_t base = hot ? 0x10000 : 0x30000;
    sampler.feed({base + static_cast<std::uintptr_t>(i % 512) * 64, false,
                  0.0},
                 map);
  }
  const auto report = sampler.report();
  EXPECT_NEAR(report.density(1), 0.75, 0.03);
  EXPECT_NEAR(report.density(2), 0.25, 0.03);
  // Node attribution travels with the range.
  for (const auto& tag : report.per_tag) {
    if (tag.tag == 1) {
      EXPECT_EQ(tag.node, 0);
    }
    if (tag.tag == 2) {
      EXPECT_EQ(tag.node, 4);
    }
  }
}

TEST(SamplerTest, UnattributedSamplesCounted) {
  IbsSampler sampler({1, SamplingMode::Systematic, 1});
  const auto map = two_range_map();
  sampler.feed({0xdead0000, false, 0.0}, map);  // outside all ranges
  sampler.feed({0x10010, false, 0.0}, map);
  const auto report = sampler.report();
  EXPECT_EQ(report.samples_kept, 2u);
  EXPECT_EQ(report.samples_unattributed, 1u);
  EXPECT_DOUBLE_EQ(report.density(1), 1.0);  // of attributed samples
}

TEST(SamplerTest, WriteFractionAndLatencyAggregates) {
  IbsSampler sampler({1, SamplingMode::Systematic, 1});
  const auto map = two_range_map();
  sampler.feed({0x10000, true, 100e-9}, map);
  sampler.feed({0x10040, false, 50e-9}, map);
  const auto report = sampler.report();
  ASSERT_EQ(report.per_tag.size(), 1u);
  EXPECT_DOUBLE_EQ(report.per_tag[0].write_fraction(), 0.5);
  EXPECT_NEAR(report.per_tag[0].mean_latency(), 75e-9, 1e-12);
}

TEST(SamplerTest, SyntheticFeedMatchesExpectedRate) {
  IbsSampler sampler({1000, SamplingMode::Systematic, 1});
  sampler.feed_synthetic(7, 2, 1'000'000, 0.25, 80e-9);
  const auto report = sampler.report();
  EXPECT_EQ(report.samples_of(7), 1000u);
  ASSERT_EQ(report.per_tag.size(), 1u);
  EXPECT_NEAR(report.per_tag[0].write_fraction(), 0.25, 1e-9);
  EXPECT_EQ(report.per_tag[0].node, 2);
}

TEST(SamplerTest, SyntheticPoissonIsNoisyButUnbiased) {
  double total = 0.0;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    IbsSampler sampler({1000, SamplingMode::Poisson, seed});
    sampler.feed_synthetic(1, 0, 1'000'000, 0.0, 0.0);
    total += static_cast<double>(sampler.report().samples_of(1));
  }
  EXPECT_NEAR(total / 20.0, 1000.0, 60.0);
}

TEST(SamplerTest, ResetClearsEverything) {
  IbsSampler sampler({1, SamplingMode::Systematic, 1});
  const auto map = two_range_map();
  sampler.feed({0x10000, false, 0.0}, map);
  sampler.reset();
  const auto report = sampler.report();
  EXPECT_EQ(report.events_seen, 0u);
  EXPECT_EQ(report.samples_kept, 0u);
  EXPECT_TRUE(report.per_tag.empty());
}

TEST(SamplerTest, PeriodOneSystematicKeepsEverything) {
  IbsSampler sampler({1, SamplingMode::Systematic, 5});
  const auto map = two_range_map();
  for (int i = 0; i < 1000; ++i) sampler.feed({0x10000, false, 0.0}, map);
  EXPECT_EQ(sampler.report().samples_kept, 1000u);
}

TEST(SamplerTest, PeriodOnePoissonKeepsMost) {
  // Poisson gaps are clamped at >= 1 event, so a period-1 sampler keeps a
  // large majority but not all (the clamp skews the mean gap above 1).
  IbsSampler sampler({1, SamplingMode::Poisson, 5});
  const auto map = two_range_map();
  for (int i = 0; i < 1000; ++i) sampler.feed({0x10000, false, 0.0}, map);
  EXPECT_GT(sampler.report().samples_kept, 600u);
  EXPECT_LE(sampler.report().samples_kept, 1000u);
}

TEST(SamplerTest, InvalidConfigsThrow) {
  EXPECT_THROW(IbsSampler({0, SamplingMode::Poisson, 1}), hmpt::Error);
  IbsSampler sampler({16, SamplingMode::Systematic, 1});
  EXPECT_THROW(sampler.feed_synthetic(1, 0, 100, 1.5, 0.0), hmpt::Error);
}

TEST(SampleReportTest, DensityOfUnknownTagIsZero) {
  IbsSampler sampler({1, SamplingMode::Systematic, 1});
  const auto map = two_range_map();
  sampler.feed({0x10000, false, 0.0}, map);
  EXPECT_DOUBLE_EQ(sampler.report().density(99), 0.0);
}

}  // namespace
}  // namespace hmpt::sample
