// Allocation proxies for reading stored records. Validating a stored
// record with tuner::Rows::Skip must allocate a bounded amount whatever
// its row count; a decode that keeps the rows allocates them. Merging
// shard stores and rebuilding a report from a store must hold one record
// at a time, so their heap peak must not grow with the number of records.
// A replaced global operator new counts the bytes every allocation asks
// for and the bytes live at once, so the bounds are exact and repeatable,
// unlike resident memory or time.
#include <gtest/gtest.h>
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <new>

#include "campaign/campaign.h"
#include "campaign/merge.h"
#include "common/json.h"
#include "core/outcome_io.h"
#include "report/report.h"

// Sanitizers bring their own allocator, which a replaced operator new
// would bypass; the tests are skipped under them.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define HMPT_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define HMPT_SANITIZED 1
#endif
#endif

#ifndef HMPT_SANITIZED
namespace {
std::atomic<std::size_t> g_allocated_bytes{0};  ///< requested, ever
std::atomic<std::size_t> g_live_bytes{0};       ///< usable, not yet freed
std::atomic<std::size_t> g_peak_bytes{0};       ///< max of g_live_bytes
}  // namespace

// The array and nothrow forms forward to these.
void* operator new(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
  const std::size_t usable = malloc_usable_size(p);
  const std::size_t live = g_live_bytes.fetch_add(usable) + usable;
  std::size_t peak = g_peak_bytes.load();
  while (live > peak && !g_peak_bytes.compare_exchange_weak(peak, live)) {
  }
  return p;
}
void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(malloc_usable_size(p));
  std::free(p);
}
void operator delete(void* p, std::size_t) noexcept { operator delete(p); }
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

#ifndef HMPT_SANITIZED
/// The heap bytes `run` holds at its peak beyond those live when it
/// started.
template <typename Run>
std::size_t heap_peak_of(Run run) {
  const std::size_t base = g_live_bytes.load();
  g_peak_bytes.store(base);
  run();
  return g_peak_bytes.load() - base;
}
#endif

TEST(DecodeAllocTest, MergeAndReportHoldOneRecordAtATime) {
#ifdef HMPT_SANITIZED
  GTEST_SKIP() << "a sanitizer owns the allocator";
#else
  namespace fs = std::filesystem;
  const fs::path root = fs::temp_directory_path() / "hmpt_bulk_read_heap";
  fs::remove_all(root);

  // 32 full 3^8 sweeps (bt and sp on spr-cxl, 16 HBM budgets), tuned once.
  ScenarioMatrix matrix;
  matrix.workloads = {parse_workload_spec("bt"), parse_workload_spec("sp")};
  matrix.platforms = {"spr-cxl"};
  matrix.strategies = {"exhaustive"};
  matrix.tiers = {3};
  for (int gb = 1; gb <= 16; ++gb) matrix.budgets_gb.push_back(gb);
  const auto all = matrix.expand();
  ASSERT_EQ(all.size(), 32u);
  std::map<std::string, std::string> payloads;  // fingerprint -> record
  std::size_t record_bytes = SIZE_MAX;
  for (const auto& s : all) {
    const auto& payload = payloads[s.fingerprint()] =
        OutcomeStore::make_payload(s, CampaignRunner::execute(s));
    record_bytes = std::min(record_bytes, payload.size());
  }

  // A campaign of the first `n` scenarios as three shard stores: shard 1
  // holds a copy of every record, so each one is byte-compared, and
  // shards 2 and 3 hold their own slices.
  const auto make_shards = [&](std::size_t n) {
    const std::vector<Scenario> campaign(all.begin(), all.begin() + n);
    std::vector<std::string> dirs;
    for (int i = 1; i <= 3; ++i) {
      dirs.push_back(
          (root / (std::to_string(n) + "-shard" + std::to_string(i)))
              .string());
      const OutcomeStore store(dirs.back());
      const auto slice = shard_scenarios(campaign, {i, 3});
      for (const auto& s : i == 1 ? campaign : slice)
        store.save_payload(s.fingerprint(), payloads.at(s.fingerprint()));
      CampaignResult ran;
      for (const auto& s : slice) {
        ran.runs.emplace_back();
        ran.runs.back().scenario = s;
        ran.runs.back().status = ScenarioRun::Status::Executed;
      }
      make_manifest(campaign, {i, 3}, ran).save(dirs.back());
    }
    return dirs;
  };
  const auto small = make_shards(8);
  const auto large = make_shards(32);
  merge_shards(small, (root / "warm-up").string());  // first-use statics

  for (const auto format : {StoreFormat::Dir, StoreFormat::Packed}) {
    const std::string tag = to_string(format);
    std::size_t merge_peak[2], report_peak[2];
    for (const int big : {0, 1}) {
      const auto& shards = big ? large : small;
      const std::string out =
          (root / (tag + (big ? "-merged32" : "-merged8"))).string();
      merge_peak[big] = heap_peak_of([&] {
        const auto merged = merge_shards(shards, out, nullptr, format);
        EXPECT_EQ(merged.cached, big ? 32 : 8) << tag;
      });
      report_peak[big] = heap_peak_of([&] {
        const auto result = report::load_store_result(out);
        EXPECT_EQ(result.cached, big ? 32 : 8) << tag;
      });
    }
    // Four times the records may add headlines and manifest entries, but
    // not one more record's bytes.
    EXPECT_LT(merge_peak[1], merge_peak[0] + record_bytes)
        << tag << ": merge heap peak over 8 records " << merge_peak[0]
        << " B, over 32 records " << merge_peak[1] << " B";
    EXPECT_LT(report_peak[1], report_peak[0] + record_bytes)
        << tag << ": report heap peak over 8 records " << report_peak[0]
        << " B, over 32 records " << report_peak[1] << " B";
  }
  fs::remove_all(root);
#endif
}

}  // namespace
}  // namespace hmpt::campaign
