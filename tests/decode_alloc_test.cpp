// Allocation proxy for the outcome decoder. Validating a stored record
// with tuner::Rows::Skip must allocate a bounded amount whatever its row
// count; a decode that keeps the rows allocates them. A replaced global
// operator new counts the bytes every allocation asks for, so the bound
// is exact and repeatable, unlike resident memory or time.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "campaign/campaign.h"
#include "common/json.h"
#include "core/outcome_io.h"

// Sanitizers bring their own allocator, which a replaced operator new
// would bypass; the test is skipped under them.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define HMPT_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define HMPT_SANITIZED 1
#endif
#endif

#ifndef HMPT_SANITIZED
namespace {
std::atomic<std::size_t> g_allocated_bytes{0};
}  // namespace

// The array and nothrow forms forward to these.
void* operator new(std::size_t size) {
  g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#endif

namespace hmpt::campaign {
namespace {

TEST(DecodeAllocTest, SkippingTheRowsOfA3To8OutcomeAllocatesUnder64KiB) {
#ifdef HMPT_SANITIZED
  GTEST_SKIP() << "a sanitizer owns the allocator";
#else
  // A full 3^8 sweep (bt on spr-cxl, 6,561 configurations) with its Gray
  // trajectory, read back from its compact text like a stored record.
  Scenario s;
  s.workload = parse_workload_spec("bt");
  s.platform = "spr-cxl";
  s.strategy = "exhaustive";
  s.tiers = 3;
  const auto outcome = CampaignRunner::execute(s);
  ASSERT_TRUE(outcome.sweep.has_value());
  ASSERT_EQ(outcome.sweep->configs.size(), 6561u);
  const Json json = Json::parse(tuner::outcome_to_json(outcome).dump(-1));

  const auto bytes_allocated = [&](tuner::Rows rows) {
    const std::size_t before = g_allocated_bytes.load();
    const auto decoded = tuner::outcome_from_json(json, rows);
    EXPECT_EQ(decoded.chosen_mask, outcome.chosen_mask);
    EXPECT_EQ(decoded.trajectory.size(),
              rows == tuner::Rows::Keep ? 6561u : 0u);
    return g_allocated_bytes.load() - before;
  };
  const std::size_t skip = bytes_allocated(tuner::Rows::Skip);
  const std::size_t keep = bytes_allocated(tuner::Rows::Keep);
  EXPECT_LE(skip, 64u * 1024) << "bytes allocated by a Rows::Skip decode";
  // 6,561 configurations and as many steps: the counter sees them.
  EXPECT_GE(keep, 600000u) << "bytes allocated by a Rows::Keep decode";
#endif
}

}  // namespace
}  // namespace hmpt::campaign
