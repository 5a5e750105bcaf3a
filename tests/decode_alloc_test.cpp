// Allocation proxies for reading stored records. Validating a stored
// record with tuner::Rows::Skip must allocate a bounded amount whatever
// its row or step count; a decode that keeps the rows allocates them. Merging
// shard stores (which is also how a report is rebuilt from a store) must
// hold one record at a time, so its heap peak must not grow with the
// number of records; the artefact writers stream one run at a time, so
// theirs grows by a few pointers per run at most.
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

#include "campaign/aggregate.h"
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
  // Full 3^8 sweeps (spr-cxl, 6,561 configurations), read back from their
  // compact text like stored records. The sweep is the record of the
  // search, so the outcome keeps no trajectory. Rows::Skip holds the
  // mean_time dictionary, 8 bytes per distinct time: bt's sweep holds
  // about 1,250, sp's (the most of the paper's apps) about 6,100.
  for (const char* app : {"bt", "sp"}) {
    Scenario s;
    s.workload = parse_workload_spec(app);
    s.platform = "spr-cxl";
    s.strategy = "exhaustive";
    s.tiers = 3;
    const auto outcome = CampaignRunner::execute(s);
    ASSERT_TRUE(outcome.sweep.has_value()) << app;
    ASSERT_EQ(outcome.sweep->configs.size(), 6561u) << app;
    ASSERT_TRUE(outcome.trajectory.empty()) << app;
    const Json json = Json::parse(tuner::outcome_to_json(outcome).dump(-1));

    const auto bytes_allocated = [&](tuner::Rows rows) {
      const std::size_t before = g_allocated_bytes.load();
      const auto decoded = tuner::outcome_from_json(json, rows);
      EXPECT_EQ(decoded.chosen_mask, outcome.chosen_mask) << app;
      EXPECT_EQ(decoded.sweep.has_value(), rows == tuner::Rows::Keep) << app;
      return g_allocated_bytes.load() - before;
    };
    const std::size_t skip = bytes_allocated(tuner::Rows::Skip);
    const std::size_t keep = bytes_allocated(tuner::Rows::Keep);
    EXPECT_LE(skip, 64u * 1024)
        << app << ": bytes allocated by a Rows::Skip decode";
    // 6,561 configurations: the counter sees them.
    EXPECT_GE(keep, 6561 * sizeof(tuner::ConfigResult))
        << app << ": bytes allocated by a Rows::Keep decode";
  }
#endif
}

TEST(DecodeAllocTest, SkippingADerivedTrajectoryAllocatesNothingPerStep) {
#ifdef HMPT_SANITIZED
  GTEST_SKIP() << "a sanitizer owns the allocator";
#else
  // A hand-built noise-free online record: each step re-observes one of
  // eight table rows, so its time is the row's mean time and is left out,
  // and its indices count up from 2. Rows::Skip checks each step's mask
  // against the stored rows in place, so 200 steps allocate what 10 do.
  const auto record = [](int steps) {
    tuner::TuningOutcome o;
    o.strategy = "online";
    o.workload = "hand-built";
    o.num_groups = 3;
    o.num_tiers = 3;
    o.baseline_time = 40.0;
    o.weights.footprint_bytes = {1e9, 2e9, 3e9};
    o.weights.footprint_total = 6e9;
    o.weights.traffic_bytes = {5e9, 1e9, 0.0};
    o.weights.traffic_total = 6e9;
    for (const tuner::ConfigMask mask : {0, 1, 2, 4, 5, 9, 13, 26})
      o.table.push_back({mask, 40.0 - static_cast<double>(mask), 0.0});
    for (int i = 0; i < steps; ++i) {
      const auto& row = o.table[static_cast<std::size_t>(1 + i % 7)];
      o.trajectory.push_back({i + 2, row.mask, row.mean_time, i == 0});
    }
    o.chosen_mask = o.trajectory.front().mask;
    o.chosen_time = o.trajectory.front().observed_time;
    o.configs_measured = 8;
    o.measurements = steps + 1;
    return Json::parse(tuner::outcome_to_json(o).dump(-1));
  };
  const Json small = record(10);
  const Json large = record(200);
  const JsonObject& trajectory = large.at("trajectory").as_object();
  EXPECT_FALSE(trajectory.contains("observed_time"));
  EXPECT_EQ(trajectory.find("index")->dump(-1), "2");
  const auto bytes_allocated = [](const Json& json, tuner::Rows rows) {
    const std::size_t before = g_allocated_bytes.load();
    const auto decoded = tuner::outcome_from_json(json, rows);
    EXPECT_EQ(decoded.trajectory.empty(), rows == tuner::Rows::Skip);
    return g_allocated_bytes.load() - before;
  };
  EXPECT_EQ(bytes_allocated(small, tuner::Rows::Skip),
            bytes_allocated(large, tuner::Rows::Skip));
  // Keeping the steps allocates them: the counter sees the difference.
  EXPECT_GE(bytes_allocated(large, tuner::Rows::Keep),
            bytes_allocated(small, tuner::Rows::Keep) +
                190 * sizeof(tuner::TuningStep));
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

TEST(DecodeAllocTest, MergeHoldsOneRecordAtATime) {
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
  // Budget by budget, so bt and sp records alternate: an sp sweep holds
  // more distinct times, and its record is about 2.7 times a bt one, so
  // the 8- and the 32-record campaigns below both hold the largest kind.
  auto all = matrix.expand();
  std::stable_sort(all.begin(), all.end(),
                   [](const Scenario& a, const Scenario& b) {
                     return a.budget_gb < b.budget_gb;
                   });
  ASSERT_EQ(all.size(), 32u);
  ASSERT_NE(all[0].workload.name, all[1].workload.name);
  std::map<std::string, std::string> payloads;  // fingerprint -> record
  std::size_t record_bytes = 0;  // the largest record
  for (const auto& s : all) {
    const auto& payload = payloads[s.fingerprint()] =
        OutcomeStore::make_payload(s, CampaignRunner::execute(s));
    record_bytes = std::max(record_bytes, payload.size());
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
    std::size_t merge_peak[2];
    for (const int big : {0, 1}) {
      const auto& shards = big ? large : small;
      const std::string out =
          (root / (tag + (big ? "-merged32" : "-merged8"))).string();
      merge_peak[big] = heap_peak_of([&] {
        const auto merged = merge_shards(shards, out, nullptr, format);
        EXPECT_EQ(merged.cached, big ? 32 : 8) << tag;
      });
    }
    // Four times the records may add headlines and manifest entries
    // (about 33 KB), but not one more record's bytes (of the largest
    // record, sp's: records differ in size by their distinct times).
    EXPECT_LT(merge_peak[1], merge_peak[0] + record_bytes)
        << tag << ": merge heap peak over 8 records " << merge_peak[0]
        << " B, over 32 records " << merge_peak[1] << " B";
  }
  fs::remove_all(root);
#endif
}

TEST(DecodeAllocTest, ArtefactWritersHoldOneRunAtATime) {
#ifdef HMPT_SANITIZED
  GTEST_SKIP() << "a sanitizer owns the allocator";
#else
  namespace fs = std::filesystem;
  const fs::path root = fs::temp_directory_path() / "hmpt_artefact_heap";
  fs::remove_all(root);

  // Headline-only results of `n` executed runs, as a campaign holds them.
  const auto result_of = [](int n) {
    static const char* const kStrategies[] = {"exhaustive", "estimator",
                                              "online"};
    CampaignResult result;
    for (int i = 0; i < n; ++i) {
      ScenarioRun run;
      run.scenario.workload =
          parse_workload_spec("stream:array_gb=" + std::to_string(i + 1));
      run.scenario.platform = "xeon-max";
      run.scenario.strategy = kStrategies[i % 3];
      run.fingerprint = run.scenario.fingerprint();
      run.status = ScenarioRun::Status::Executed;
      run.seconds = 0.01 * i;
      run.attempts = 1;
      auto& o = run.outcome;
      o.num_groups = 2;
      o.chosen_mask = static_cast<tuner::ConfigMask>(i % 4);
      o.baseline_time = 1.0;
      o.chosen_time = 1.0 / (1.0 + 0.001 * i);
      o.configs_measured = 4;
      o.measurements = 12;
      o.weights.footprint_bytes = {1e9, 3e9};
      o.weights.footprint_total = 4e9;
      result.runs.push_back(std::move(run));
    }
    result.executed = n;
    return result;
  };
  const auto writers_peak = [&](const CampaignResult& result) {
    const std::string out =
        (root / std::to_string(result.runs.size())).string();
    return heap_peak_of([&] {
      write_artifacts(result, out);
      report::write_report(result, out);
    });
  };

  constexpr int kRuns = 256;
  const CampaignResult small = result_of(kRuns);
  const CampaignResult large = result_of(4 * kRuns);
  writers_peak(small);  // first-use statics
  const std::size_t small_peak = writers_peak(small);
  const std::size_t large_peak = writers_peak(large);
  // The ranking and the scatter chart keep a pointer and two doubles per
  // run; a writer holding a document, a cell table or per-run JSON trees
  // needs several KB per run.
  const double per_run =
      (static_cast<double>(large_peak) - static_cast<double>(small_peak)) /
      (3.0 * kRuns);
  EXPECT_LE(per_run, 512.0)
      << "artefact writers' heap peak: " << small_peak << " B over "
      << kRuns << " runs, " << large_peak << " B over " << 4 * kRuns;
  fs::remove_all(root);
#endif
}

}  // namespace
}  // namespace hmpt::campaign
