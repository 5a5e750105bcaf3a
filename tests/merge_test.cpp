// Tests for campaign sharding and the merge layer: shard-spec parsing,
// partition disjointness/coverage on fuzzed matrices, shard-manifest
// round trips, merge validation (campaign fingerprint, shard count,
// coverage), conflicting-outcome detection, and the headline guarantee —
// N merged shards reproduce the unsharded artefacts byte for byte, in
// either store layout (dir or packed) and across lossless dir<->packed
// conversions, and a merged store merges again to the same artefacts.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <set>
#include <sstream>

#include "campaign/aggregate.h"
#include "campaign/campaign.h"
#include "campaign/merge.h"
#include "report/report.h"
#include "workloads/app_models.h"
#include "workloads/trace_io.h"

namespace hmpt::campaign {
namespace {

namespace fs = std::filesystem;

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::stringstream buffer;
  buffer << is.rdbuf();
  return buffer.str();
}

/// A fresh directory per test, removed on scope exit.
class TempDir {
 public:
  explicit TempDir(const std::string& name)
      : path_((fs::temp_directory_path() / name).string()) {
    fs::remove_all(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Every file and directory under `dir` with its bytes and modification
/// time: equal snapshots mean nothing was written, renamed or fsynced.
std::map<std::string, std::string> tree_of(const std::string& dir) {
  std::map<std::string, std::string> tree;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    std::string& value = tree[entry.path().string()];
    value = std::to_string(
        entry.last_write_time().time_since_epoch().count());
    if (entry.is_regular_file()) value += " " + slurp(entry.path().string());
  }
  return tree;
}

/// Damage the stored copy of `fingerprint` in the store at `dir` so that
/// it fails validation: truncate its file (dir format) or overwrite the
/// first payload byte of its frame in place (packed format, frame
/// intact). Returns the path of the file that holds it.
std::string damage_record(const std::string& dir,
                          const std::string& fingerprint) {
  std::string path = dir + "/outcomes/" + fingerprint + ".json";
  if (fs::exists(path)) {
    fs::resize_file(path, fs::file_size(path) / 2);
    return path;
  }
  path = dir + "/outcomes.log";
  std::string log = slurp(path);
  const auto frame = log.find("hmpt1 " + fingerprint + " ");
  EXPECT_NE(frame, std::string::npos) << fingerprint << " in " << path;
  log[log.find('\n', frame) + 1] = '#';
  std::ofstream(path, std::ios::binary) << log;
  return path;
}

// ------------------------------------------------------------- shard spec

TEST(ShardSpecTest, ParsesAndRejects) {
  EXPECT_EQ(parse_shard_spec("1/1").index, 1);
  EXPECT_EQ(parse_shard_spec("1/1").count, 1);
  EXPECT_TRUE(parse_shard_spec("1/1").is_whole());
  const auto two_of_three = parse_shard_spec("2/3");
  EXPECT_EQ(two_of_three.index, 2);
  EXPECT_EQ(two_of_three.count, 3);
  EXPECT_FALSE(two_of_three.is_whole());
  EXPECT_EQ(two_of_three.to_string(), "2/3");

  for (const char* bad :
       {"", "3", "0/3", "4/3", "-1/3", "1/0", "1/-2", "a/b", "1/3x", "/3",
        "1/"})
    EXPECT_THROW(parse_shard_spec(bad), Error) << bad;
}

// -------------------------------------------------------------- partition

TEST(ShardPartitionTest, DisjointnessAndCoverageOnFuzzedMatrices) {
  const std::vector<std::string> workloads = {
      "mg", "bt", "lu", "sp", "ua", "is", "kwave",
      "stream:array_gb=1", "pointer-chase:window_gb=1", "random-sum"};
  const std::vector<std::string> platforms = {"xeon-max", "xeon-max-1s",
                                              "spr-cxl", "knl"};
  const std::vector<std::string> strategies = {"exhaustive", "estimator",
                                               "online"};

  std::mt19937 rng(20260726);
  const auto pick = [&](const std::vector<std::string>& axis, int max_n) {
    std::vector<std::string> out;
    const int n =
        1 + static_cast<int>(rng() % static_cast<unsigned>(max_n));
    std::sample(axis.begin(), axis.end(), std::back_inserter(out),
                static_cast<std::size_t>(n), rng);
    return out;
  };

  for (int trial = 0; trial < 12; ++trial) {
    ScenarioMatrix matrix;
    for (const auto& w : pick(workloads, 4))
      matrix.workloads.push_back(parse_workload_spec(w));
    matrix.platforms = pick(platforms, 3);
    matrix.strategies = pick(strategies, 3);
    if (rng() % 2) matrix.budgets_gb = {0.0, 16.0};
    matrix.repetitions = 1 + static_cast<int>(rng() % 3);
    const auto full = matrix.expand();

    std::set<std::string> full_fps;
    for (const auto& s : full) full_fps.insert(s.fingerprint());

    // Including a count larger than the scenario list: trailing shards
    // are legitimately empty and the union must still be exact.
    for (const int count : {1, 2, 3, 5, static_cast<int>(full.size()) + 2}) {
      std::set<std::string> seen;
      std::size_t total = 0;
      std::size_t min_size = full.size();
      std::size_t max_size = 0;
      for (int index = 1; index <= count; ++index) {
        const auto slice = shard_scenarios(full, {index, count});
        min_size = std::min(min_size, slice.size());
        max_size = std::max(max_size, slice.size());
        total += slice.size();
        std::string previous;
        for (const auto& s : slice) {
          // Disjoint across shards...
          EXPECT_TRUE(seen.insert(s.fingerprint()).second)
              << "duplicate " << s.fingerprint() << " at count " << count;
          // ...and each slice is in fingerprint order.
          EXPECT_LT(previous, s.fingerprint());
          previous = s.fingerprint();
        }
      }
      // The union of the N shards is exactly the full scenario list.
      EXPECT_EQ(total, full.size()) << "count " << count;
      EXPECT_EQ(seen, full_fps) << "count " << count;
      // Round-robin dealing balances to within one scenario.
      EXPECT_LE(max_size - min_size, 1u) << "count " << count;
    }
  }
}

TEST(ShardPartitionTest, StableAcrossDeclarationOrderAndAliases) {
  ScenarioMatrix a;
  a.workloads = {parse_workload_spec("mg"), parse_workload_spec("bt")};
  a.platforms = {"xeon-max", "spr-cxl"};
  a.strategies = {"estimator", "online"};

  // Same campaign, different declaration order and an alias spelling.
  ScenarioMatrix b;
  b.workloads = {parse_workload_spec("bt"), parse_workload_spec("mg")};
  b.platforms = {"spr-cxl", "spr"};
  b.strategies = {"online", "estimator"};

  for (int index = 1; index <= 3; ++index) {
    const auto slice_a = shard_scenarios(a.expand(), {index, 3});
    const auto slice_b = shard_scenarios(b.expand(), {index, 3});
    ASSERT_EQ(slice_a.size(), slice_b.size());
    for (std::size_t i = 0; i < slice_a.size(); ++i)
      EXPECT_EQ(slice_a[i].fingerprint(), slice_b[i].fingerprint());
  }
}

TEST(CampaignFingerprintTest, HashesTheOrderedScenarioList) {
  ScenarioMatrix matrix;
  matrix.workloads = {parse_workload_spec("mg"), parse_workload_spec("bt")};
  matrix.platforms = {"xeon-max"};
  matrix.strategies = {"estimator"};
  const auto scenarios = matrix.expand();

  const std::string fp = campaign_fingerprint(scenarios);
  EXPECT_EQ(fp.size(), 16u);
  EXPECT_EQ(fp, campaign_fingerprint(scenarios));  // deterministic
  // The digest is part of every summary.json and shard manifest: pinned,
  // so hashing it piece by piece cannot drift from the whole-text hash
  // `campaign-v10|<fp>|<fp>` the format defines (the scenario fingerprints
  // 69699f854147a2a2 and b3a82dbf7da1b094, hashed as one text).
  EXPECT_EQ(fp, "7ddd08134721350d");
  EXPECT_EQ(campaign_fingerprint(std::vector<Scenario>{}), "f912d6a41e63b98d");
  CampaignHasher hasher;
  for (const auto& s : scenarios) hasher.add(s.fingerprint());
  EXPECT_EQ(hasher.digest(), fp);

  // Order is part of the identity (artefacts are matrix-ordered)...
  auto reversed = scenarios;
  std::reverse(reversed.begin(), reversed.end());
  EXPECT_NE(campaign_fingerprint(reversed), fp);
  // ...and so is every scenario.
  auto shrunk = scenarios;
  shrunk.pop_back();
  EXPECT_NE(campaign_fingerprint(shrunk), fp);
}

// --------------------------------------------------------------- manifest

TEST(ShardManifestTest, JsonRoundTripsLosslessly) {
  ShardManifest manifest;
  manifest.campaign = "00112233aabbccdd";
  manifest.shard = {2, 3};
  manifest.campaign_order = {"aaaa", "bbbb", "cccc"};

  ShardManifest::Entry ok;
  ok.fingerprint = "bbbb";
  ok.scenario.workload = parse_workload_spec("mg");
  ok.scenario.platform = "xeon-max";
  ok.scenario.strategy = "estimator";
  ok.status = ShardEntryStatus::Complete;
  ShardManifest::Entry failed;
  failed.fingerprint = "cccc";
  failed.scenario.workload =
      parse_workload_spec("recorded:path=/nonexistent.profile");
  failed.scenario.platform = "xeon-max";
  failed.scenario.strategy = "online";
  failed.status = ShardEntryStatus::Failed;
  failed.error = "cannot read profile";
  manifest.entries = {ok, failed};

  const auto back = ShardManifest::from_json(manifest.to_json());
  EXPECT_EQ(back.to_json().dump(), manifest.to_json().dump());
  EXPECT_EQ(back.shard.index, 2);
  EXPECT_EQ(back.shard.count, 3);
  EXPECT_EQ(back.entries[1].error, "cannot read profile");

  // Save/load round trip through the store directory.
  TempDir dir("hmpt_manifest_roundtrip");
  manifest.save(dir.path());
  const auto loaded = ShardManifest::load(dir.path());
  EXPECT_EQ(loaded.to_json().dump(), manifest.to_json().dump());

  // Missing and corrupt manifests fail loudly.
  TempDir empty("hmpt_manifest_missing");
  EXPECT_THROW(ShardManifest::load(empty.path()), Error);
  {
    fs::create_directories(empty.path());
    std::ofstream os(ShardManifest::path_in(empty.path()));
    os << "{ not json";
  }
  EXPECT_THROW(ShardManifest::load(empty.path()), Error);
}

TEST(ShardManifestTest, MakeManifestRefusesDryRuns) {
  ScenarioMatrix matrix;
  matrix.workloads = {parse_workload_spec("mg")};
  matrix.platforms = {"xeon-max"};
  matrix.strategies = {"estimator"};
  const auto scenarios = matrix.expand();

  CampaignResult planned;
  planned.runs.resize(1);
  planned.runs[0].scenario = scenarios[0];
  planned.runs[0].status = ScenarioRun::Status::Planned;
  EXPECT_THROW(make_manifest(scenarios, {1, 1}, planned), Error);
}

// ------------------------------------------------------------------ merge

/// Shared fixture: a small real campaign (4 scenarios, reps 1) run whole
/// and as shards, with every store under one temp root.
class MergeTest : public ::testing::Test {
 protected:
  static std::vector<Scenario> scenarios() {
    ScenarioMatrix matrix;
    matrix.workloads = {parse_workload_spec("mg"),
                        parse_workload_spec("stream:array_gb=1,iterations=2")};
    matrix.platforms = {"xeon-max"};
    matrix.strategies = {"estimator", "online"};
    matrix.repetitions = 1;
    return matrix.expand();
  }

  /// Run one shard of the campaign into `dir` and leave its manifest.
  static CampaignResult run_shard(const std::vector<Scenario>& full,
                                  const ShardSpec& shard,
                                  const std::string& dir,
                                  bool keep_going = false,
                                  StoreFormat format = StoreFormat::Dir) {
    CampaignOptions options;
    options.output_dir = dir;
    options.keep_going = keep_going;
    options.store_format = format;
    const auto result =
        CampaignRunner(options).run(shard_scenarios(full, shard));
    make_manifest(full, shard, result).save(dir);
    return result;
  }
};

TEST_F(MergeTest, ThreeShardsReproduceUnshardedArtifactsByteForByte) {
  TempDir root("hmpt_merge_bytes");
  const auto full = scenarios();

  // Unsharded reference run (matrix order, as hmpt_campaign runs it).
  CampaignOptions whole;
  whole.output_dir = root.path() + "/whole";
  const auto cold = CampaignRunner(whole).run(full);
  ASSERT_TRUE(cold.ok());
  write_artifacts(cold, whole.output_dir);

  std::vector<std::string> shard_dirs;
  for (int i = 1; i <= 3; ++i) {
    shard_dirs.push_back(root.path() + "/shard" + std::to_string(i));
    ASSERT_TRUE(run_shard(full, {i, 3}, shard_dirs.back()).ok());
  }

  MergeStats stats;
  const auto merged =
      merge_shards(shard_dirs, root.path() + "/merged", &stats);
  EXPECT_EQ(stats.shards, 3);
  EXPECT_EQ(stats.scenarios, static_cast<int>(full.size()));
  EXPECT_EQ(stats.outcomes_merged, static_cast<int>(full.size()));
  EXPECT_EQ(stats.campaign, campaign_fingerprint(full));
  EXPECT_EQ(merged.cached, static_cast<int>(full.size()));
  EXPECT_EQ(merged.failed, 0);

  // The acceptance criterion: byte-identical deterministic artefacts.
  write_artifacts(merged, root.path() + "/merged");
  EXPECT_EQ(slurp(root.path() + "/merged/runs.csv"),
            slurp(whole.output_dir + "/runs.csv"));
  EXPECT_EQ(slurp(root.path() + "/merged/summary.json"),
            slurp(whole.output_dir + "/summary.json"));

  // The merged store holds every outcome file, byte-identical to the
  // unsharded store's copy (content addressing is honest).
  for (const auto& s : full) {
    const std::string name = s.fingerprint() + ".json";
    EXPECT_EQ(slurp(root.path() + "/merged/outcomes/" + name),
              slurp(whole.output_dir + "/outcomes/" + name));
  }

  // A single unsharded store (1/1 manifest) merges too — artefact
  // regeneration from outcomes alone.
  make_manifest(full, {1, 1}, cold).save(whole.output_dir);
  const auto regenerated =
      merge_shards({whole.output_dir}, root.path() + "/regen");
  write_artifacts(regenerated, root.path() + "/regen");
  EXPECT_EQ(slurp(root.path() + "/regen/runs.csv"),
            slurp(whole.output_dir + "/runs.csv"));
  EXPECT_EQ(slurp(root.path() + "/regen/summary.json"),
            slurp(whole.output_dir + "/summary.json"));
}

TEST_F(MergeTest, MixedFormatShardsMergeIntoEitherFormatLosslessly) {
  TempDir root("hmpt_merge_formats");
  const auto full = scenarios();

  // Unsharded dir-format reference.
  CampaignOptions whole;
  whole.output_dir = root.path() + "/whole";
  const auto cold = CampaignRunner(whole).run(full);
  ASSERT_TRUE(cold.ok());
  write_artifacts(cold, whole.output_dir);

  // Shards in a mix of store layouts, as a fleet with hosts on different
  // versions would produce them; auto-detection makes the mix invisible.
  const StoreFormat shard_formats[] = {StoreFormat::Packed, StoreFormat::Dir,
                                       StoreFormat::Packed};
  std::vector<std::string> shard_dirs;
  for (int i = 1; i <= 3; ++i) {
    shard_dirs.push_back(root.path() + "/shard" + std::to_string(i));
    ASSERT_TRUE(run_shard(full, {i, 3}, shard_dirs.back(), false,
                          shard_formats[i - 1])
                    .ok());
  }

  // Merge the same shards into both output layouts.
  for (const auto format : {StoreFormat::Dir, StoreFormat::Packed}) {
    const std::string out =
        root.path() + (format == StoreFormat::Dir ? "/merged-dir"
                                                  : "/merged-packed");
    MergeStats stats;
    const auto merged = merge_shards(shard_dirs, out, &stats, format);
    EXPECT_EQ(stats.outcomes_merged, static_cast<int>(full.size()));
    write_artifacts(merged, out);
    // Byte-identical artefacts regardless of any store layout involved.
    EXPECT_EQ(slurp(out + "/runs.csv"),
              slurp(whole.output_dir + "/runs.csv"));
    EXPECT_EQ(slurp(out + "/summary.json"),
              slurp(whole.output_dir + "/summary.json"));
  }
  EXPECT_TRUE(fs::exists(root.path() + "/merged-packed/outcomes.log"));

  // Lossless cross-conversion: both outputs and the reference store hold
  // the identical record set, byte for byte.
  const auto reference =
      OutcomeStore::open_existing(whole.output_dir).load_all_payloads();
  ASSERT_EQ(reference.size(), full.size());
  EXPECT_EQ(OutcomeStore::open_existing(root.path() + "/merged-dir")
                .load_all_payloads(),
            reference);
  EXPECT_EQ(OutcomeStore::open_existing(root.path() + "/merged-packed")
                .load_all_payloads(),
            reference);
}

TEST_F(MergeTest, ThousandScenarioSyntheticTwinsMergeByteIdentically) {
  TempDir root("hmpt_merge_thousand");

  // A 1000-scenario campaign with synthetic (but well-formed) outcomes:
  // big enough to exercise the packed index and bulk-load paths, cheap
  // enough for a unit test because nothing is actually tuned.
  std::vector<Scenario> full;
  for (int i = 0; i < 1000; ++i) {
    Scenario s;
    s.workload = parse_workload_spec("mg");
    s.platform = "xeon-max";
    s.strategy = "estimator";
    s.repetitions = i + 1;  // 1000 distinct fingerprints
    full.push_back(s);
  }

  const OutcomeStore dir_twin(root.path() + "/dir", StoreFormat::Dir);
  const OutcomeStore packed_twin(root.path() + "/packed",
                                 StoreFormat::Packed);
  CampaignResult result;
  for (int i = 0; i < 1000; ++i) {
    const auto& s = full[static_cast<std::size_t>(i)];
    tuner::TuningOutcome o;
    o.strategy = s.strategy;
    o.workload = s.workload.name;
    o.num_groups = 1 + i % 5;
    o.num_tiers = 2;
    const std::vector<double> ones(static_cast<std::size_t>(o.num_groups), 1);
    o.weights = {ones, 1.0 * o.num_groups, ones, 1.0 * o.num_groups};
    o.chosen_mask = static_cast<unsigned>(i % 31) % (1u << o.num_groups);
    o.baseline_time = 10.0;
    o.chosen_time = 10.0 / (1.0 + (i % 97) / 31.0);
    o.configs_measured = 1 + i % 7;
    dir_twin.save(s, o);
    packed_twin.save(s, o);

    ScenarioRun run;
    run.scenario = s;
    run.fingerprint = s.fingerprint();
    run.status = ScenarioRun::Status::Executed;
    run.outcome = o;
    result.runs.push_back(std::move(run));
    ++result.executed;
  }
  make_manifest(full, {1, 1}, result).save(root.path() + "/dir");
  make_manifest(full, {1, 1}, result).save(root.path() + "/packed");

  // Cross-convert each twin through the merge path.
  const auto from_dir = merge_shards({root.path() + "/dir"},
                                     root.path() + "/dir-to-packed", nullptr,
                                     StoreFormat::Packed);
  const auto from_packed = merge_shards({root.path() + "/packed"},
                                        root.path() + "/packed-to-dir",
                                        nullptr, StoreFormat::Dir);

  // The converted packed log is byte-identical to the natively written
  // one (same records, same campaign order, same framing), and every
  // converted dir file matches its native twin.
  EXPECT_EQ(slurp(root.path() + "/dir-to-packed/outcomes.log"),
            slurp(root.path() + "/packed/outcomes.log"));
  for (const auto& s : full) {
    const std::string name = "/outcomes/" + s.fingerprint() + ".json";
    EXPECT_EQ(slurp(root.path() + "/packed-to-dir" + name),
              slurp(root.path() + "/dir" + name));
  }

  // And the artefacts derived from either side agree byte for byte.
  write_artifacts(from_dir, root.path() + "/dir-to-packed");
  write_artifacts(from_packed, root.path() + "/packed-to-dir");
  EXPECT_EQ(slurp(root.path() + "/dir-to-packed/runs.csv"),
            slurp(root.path() + "/packed-to-dir/runs.csv"));
  EXPECT_EQ(slurp(root.path() + "/dir-to-packed/summary.json"),
            slurp(root.path() + "/packed-to-dir/summary.json"));
  ASSERT_EQ(from_dir.runs.size(), 1000u);
  EXPECT_EQ(OutcomeStore::open_existing(root.path() + "/dir-to-packed")
                .load_all_payloads(),
            OutcomeStore::open_existing(root.path() + "/packed-to-dir")
                .load_all_payloads());
}

TEST_F(MergeTest, ValidatesManifestsBeforeTouchingAnything) {
  TempDir root("hmpt_merge_validate");
  const auto full = scenarios();

  std::vector<std::string> shard_dirs;
  for (int i = 1; i <= 2; ++i) {
    shard_dirs.push_back(root.path() + "/shard" + std::to_string(i));
    ASSERT_TRUE(run_shard(full, {i, 2}, shard_dirs.back()).ok());
  }

  // Not enough shards: the campaign declares 2, one given.
  EXPECT_THROW(merge_shards({shard_dirs[0]}, root.path() + "/m1"), Error);
  // The same shard twice: duplicate index.
  EXPECT_THROW(
      merge_shards({shard_dirs[0], shard_dirs[0]}, root.path() + "/m2"),
      Error);
  // A directory without a manifest.
  fs::create_directories(root.path() + "/not_a_store");
  EXPECT_THROW(merge_shards({shard_dirs[0], root.path() + "/not_a_store"},
                            root.path() + "/m3"),
               Error);

  // A shard of a *different* campaign (different reps => different
  // fingerprints): campaign fingerprint mismatch.
  ScenarioMatrix other_matrix;
  other_matrix.workloads = {parse_workload_spec("mg"),
                            parse_workload_spec(
                                "stream:array_gb=1,iterations=2")};
  other_matrix.platforms = {"xeon-max"};
  other_matrix.strategies = {"estimator", "online"};
  other_matrix.repetitions = 2;
  const auto other = other_matrix.expand();
  const std::string foreign = root.path() + "/foreign";
  ASSERT_TRUE(run_shard(other, {2, 2}, foreign).ok());
  EXPECT_THROW(merge_shards({shard_dirs[0], foreign}, root.path() + "/m4"),
               Error);
}

TEST_F(MergeTest, DetectsConflictingOutcomesForTheSameFingerprint) {
  TempDir root("hmpt_merge_conflict");
  const auto full = scenarios();

  std::vector<std::string> shard_dirs;
  for (int i = 1; i <= 2; ++i) {
    shard_dirs.push_back(root.path() + "/shard" + std::to_string(i));
    ASSERT_TRUE(run_shard(full, {i, 2}, shard_dirs.back()).ok());
  }

  // Plant a *different* outcome for a shard-1 fingerprint inside shard
  // 2's store: same content address, different bytes. The union must
  // fail loudly — this is either a determinism bug or a foreign store,
  // and silently preferring either copy would corrupt the campaign.
  std::string victim;
  for (const auto& file :
       fs::directory_iterator(shard_dirs[0] + "/outcomes"))
    if (file.path().extension() == ".json") {
      victim = file.path().filename().string();
      break;
    }
  ASSERT_FALSE(victim.empty());
  std::string tampered = slurp(shard_dirs[0] + "/outcomes/" + victim);
  tampered += " ";  // same JSON meaning, different bytes
  {
    std::ofstream os(shard_dirs[1] + "/outcomes/" + victim,
                     std::ios::binary);
    os << tampered;
  }

  try {
    merge_shards(shard_dirs, root.path() + "/merged");
    FAIL() << "conflicting outcomes must not merge";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("conflicting outcomes"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(MergeTest, OverlappingIdenticalCoverageMergesByteForByte) {
  TempDir root("hmpt_merge_overlap");
  const auto full = scenarios();

  // Unsharded reference.
  CampaignOptions whole;
  whole.output_dir = root.path() + "/whole";
  const auto cold = CampaignRunner(whole).run(full);
  ASSERT_TRUE(cold.ok());
  write_artifacts(cold, whole.output_dir);

  std::vector<std::string> shard_dirs;
  for (int i = 1; i <= 2; ++i) {
    shard_dirs.push_back(root.path() + "/shard" + std::to_string(i));
    ASSERT_TRUE(run_shard(full, {i, 2}, shard_dirs.back()).ok());
  }

  // Simulate a steal: shard 1 also executes (and claims) a scenario that
  // shard 2 owns — duplicate coverage, identical bytes, exactly what a
  // thief's --progress-manifest leaves behind when the victim finished
  // after all.
  const auto stolen = shard_scenarios(full, {2, 2}).front();
  CampaignOptions dup;
  dup.output_dir = shard_dirs[0];
  const auto dup_run = CampaignRunner(dup).run({stolen});
  ASSERT_TRUE(dup_run.ok());
  ManifestProgress progress(full, {1, 2}, shard_dirs[0]);
  progress.record(dup_run.runs[0]);

  MergeStats stats;
  const auto merged =
      merge_shards(shard_dirs, root.path() + "/merged", &stats);
  EXPECT_EQ(stats.overlapping, 1);
  EXPECT_EQ(stats.outcomes_merged, static_cast<int>(full.size()));
  EXPECT_EQ(merged.cached, static_cast<int>(full.size()));

  write_artifacts(merged, root.path() + "/merged");
  EXPECT_EQ(slurp(root.path() + "/merged/runs.csv"),
            slurp(whole.output_dir + "/runs.csv"));
  EXPECT_EQ(slurp(root.path() + "/merged/summary.json"),
            slurp(whole.output_dir + "/summary.json"));
}

TEST_F(MergeTest, OverlappingClaimsWithDifferingBytesStillFailLoudly) {
  TempDir root("hmpt_merge_overlap_conflict");
  const auto full = scenarios();

  std::vector<std::string> shard_dirs;
  for (int i = 1; i <= 2; ++i) {
    shard_dirs.push_back(root.path() + "/shard" + std::to_string(i));
    ASSERT_TRUE(run_shard(full, {i, 2}, shard_dirs.back()).ok());
  }

  // The same steal as above, but the duplicate copy's bytes are tampered
  // with after the fact: overlap tolerance must not weaken the
  // conflicting-outcome check.
  const auto stolen = shard_scenarios(full, {2, 2}).front();
  CampaignOptions dup;
  dup.output_dir = shard_dirs[0];
  const auto dup_run = CampaignRunner(dup).run({stolen});
  ASSERT_TRUE(dup_run.ok());
  ManifestProgress progress(full, {1, 2}, shard_dirs[0]);
  progress.record(dup_run.runs[0]);
  const std::string copy =
      shard_dirs[0] + "/outcomes/" + stolen.fingerprint() + ".json";
  std::string tampered = slurp(copy);
  tampered += " ";
  {
    std::ofstream os(copy, std::ios::binary);
    os << tampered;
  }

  try {
    merge_shards(shard_dirs, root.path() + "/merged");
    FAIL() << "overlapping claims with differing bytes must not merge";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("conflicting outcomes"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(MergeTest, CompleteClaimBeatsFailedClaimOnOverlap) {
  TempDir root("hmpt_merge_overlap_failed");
  const auto full = scenarios();

  CampaignOptions whole;
  whole.output_dir = root.path() + "/whole";
  const auto cold = CampaignRunner(whole).run(full);
  ASSERT_TRUE(cold.ok());
  write_artifacts(cold, whole.output_dir);

  std::vector<std::string> shard_dirs;
  for (int i = 1; i <= 2; ++i) {
    shard_dirs.push_back(root.path() + "/shard" + std::to_string(i));
    ASSERT_TRUE(run_shard(full, {i, 2}, shard_dirs.back()).ok());
  }

  // A victim recorded a failure for a scenario a thief then completed
  // (the victim's attempt hit a transient error; the re-deal succeeded).
  // Append the failed claim to shard 1's manifest for a scenario shard 2
  // completed — whichever direction the merge scans, Complete must own
  // the scenario and the artefacts must match the unsharded run.
  const auto stolen = shard_scenarios(full, {2, 2}).front();
  auto manifest = ShardManifest::load(shard_dirs[0]);
  ShardManifest::Entry failed_claim;
  failed_claim.fingerprint = stolen.fingerprint();
  failed_claim.scenario = stolen;
  failed_claim.status = ShardEntryStatus::Failed;
  failed_claim.error = "induced transient failure";
  manifest.entries.push_back(failed_claim);
  manifest.save(shard_dirs[0]);

  MergeStats stats;
  const auto merged =
      merge_shards(shard_dirs, root.path() + "/merged", &stats);
  EXPECT_EQ(stats.overlapping, 1);
  EXPECT_EQ(merged.failed, 0);
  write_artifacts(merged, root.path() + "/merged");
  EXPECT_EQ(slurp(root.path() + "/merged/runs.csv"),
            slurp(whole.output_dir + "/runs.csv"));
  EXPECT_EQ(slurp(root.path() + "/merged/summary.json"),
            slurp(whole.output_dir + "/summary.json"));
}

TEST_F(MergeTest, ManifestProgressUnionsAcrossGenerationsAndUpgradesFailures) {
  TempDir dir("hmpt_manifest_progress");
  const auto full = scenarios();
  fs::create_directories(dir.path());

  // Generation 1 records one completion and one failure, incrementally —
  // the manifest on disk is valid after every record.
  {
    ManifestProgress progress(full, {1, 1}, dir.path());
    EXPECT_EQ(ShardManifest::load(dir.path()).entries.size(), 0u);

    ScenarioRun done;
    done.scenario = full[0];
    done.fingerprint = full[0].fingerprint();
    done.status = ScenarioRun::Status::Executed;
    progress.record(done);
    EXPECT_EQ(ShardManifest::load(dir.path()).entries.size(), 1u);

    ScenarioRun failed;
    failed.scenario = full[1];
    failed.fingerprint = full[1].fingerprint();
    failed.status = ScenarioRun::Status::Failed;
    failed.error = "boom";
    progress.record(failed);
    const auto on_disk = ShardManifest::load(dir.path());
    ASSERT_EQ(on_disk.entries.size(), 2u);
    EXPECT_EQ(on_disk.entries[1].status, ShardEntryStatus::Failed);
    EXPECT_EQ(on_disk.entries[1].error, "boom");

    // Dry-run entries have no durable state to record.
    ScenarioRun planned;
    planned.scenario = full[2];
    planned.status = ScenarioRun::Status::Planned;
    EXPECT_THROW(progress.record(planned), Error);
  }

  // Generation 2 (a relaunch on the same store) unions with generation
  // 1's entries and upgrades the recorded failure to Complete when the
  // retry succeeds.
  {
    ManifestProgress progress(full, {1, 1}, dir.path());
    EXPECT_EQ(progress.manifest().entries.size(), 2u);
    ScenarioRun retried;
    retried.scenario = full[1];
    retried.fingerprint = full[1].fingerprint();
    retried.status = ScenarioRun::Status::Cached;
    progress.record(retried);
    const auto on_disk = ShardManifest::load(dir.path());
    ASSERT_EQ(on_disk.entries.size(), 2u);
    EXPECT_EQ(on_disk.entries[1].status, ShardEntryStatus::Complete);
  }

  // A stale manifest from a *different* campaign is discarded, not
  // unioned: the new generation starts fresh.
  {
    auto other = scenarios();
    other.pop_back();
    ManifestProgress progress(other, {1, 1}, dir.path());
    EXPECT_EQ(progress.manifest().entries.size(), 0u);
  }
}

TEST_F(MergeTest, StoredFingerprintsSurviveProfileChangesOnTheMergeHost) {
  TempDir root("hmpt_merge_recorded");

  // A campaign over a recorded profile: its fingerprint hashes the
  // profile *contents*, which exist at run time...
  const std::string profile = root.path() + "/run.profile";
  fs::create_directories(root.path());
  {
    auto sim = sim::MachineSimulator::paper_platform();
    workloads::save_workload(profile,
                             *workloads::make_mg_model(sim).workload);
  }
  ScenarioMatrix matrix;
  matrix.workloads = {parse_workload_spec("recorded:path=" + profile)};
  matrix.platforms = {"xeon-max"};
  matrix.strategies = {"estimator", "online"};
  matrix.repetitions = 1;
  const auto full = matrix.expand();

  CampaignOptions whole;
  whole.output_dir = root.path() + "/whole";
  auto cold = CampaignRunner(whole).run(full);
  ASSERT_TRUE(cold.ok());
  write_artifacts(cold, whole.output_dir);

  std::vector<std::string> shard_dirs;
  for (int i = 1; i <= 2; ++i) {
    shard_dirs.push_back(root.path() + "/shard" + std::to_string(i));
    ASSERT_TRUE(run_shard(full, {i, 2}, shard_dirs.back()).ok());
  }

  // ...but is gone by the time the merge runs (a different host, or the
  // profile was re-recorded). Manifests and run results carry the
  // fingerprints as stored strings, so the merge still validates and
  // the merged artefacts still match the unsharded run byte for byte.
  fs::remove(profile);
  const auto merged = merge_shards(shard_dirs, root.path() + "/merged");
  write_artifacts(merged, root.path() + "/merged");
  EXPECT_EQ(slurp(root.path() + "/merged/runs.csv"),
            slurp(whole.output_dir + "/runs.csv"));
  EXPECT_EQ(slurp(root.path() + "/merged/summary.json"),
            slurp(whole.output_dir + "/summary.json"));
}

TEST_F(MergeTest, ForeignOutcomesInReusedStoresAreLeftAlone) {
  TempDir root("hmpt_merge_foreign");
  const auto full = scenarios();

  std::vector<std::string> shard_dirs;
  for (int i = 1; i <= 2; ++i) {
    shard_dirs.push_back(root.path() + "/shard" + std::to_string(i));
    ASSERT_TRUE(run_shard(full, {i, 2}, shard_dirs.back()).ok());
  }

  // Reused store directories legitimately hold outcomes of *other*
  // campaigns. Plant contradictory stale files in both stores: outside
  // the campaign they must neither leak into the merged store nor
  // trigger conflict detection.
  for (int i = 0; i < 2; ++i) {
    std::ofstream os(shard_dirs[i] + "/outcomes/feedfacefeedface.json");
    os << "stale bytes from another campaign " << i;
  }
  // And a damaged foreign record: a truncated record of another campaign.
  // It must not fail the merge, and a merge never quarantines it.
  const std::string record =
      slurp(shard_dirs[0] + "/outcomes/" + full[0].fingerprint() + ".json");
  std::ofstream(shard_dirs[0] + "/outcomes/0123456789abcdef.json",
                std::ios::binary)
      << record.substr(0, record.size() / 2);
  const auto before1 = tree_of(shard_dirs[0]);
  const auto before2 = tree_of(shard_dirs[1]);

  MergeStats stats;
  const auto merged =
      merge_shards(shard_dirs, root.path() + "/merged", &stats);
  EXPECT_EQ(merged.cached, static_cast<int>(full.size()));
  EXPECT_EQ(stats.outcomes_merged, static_cast<int>(full.size()));
  EXPECT_FALSE(fs::exists(root.path() +
                          "/merged/outcomes/feedfacefeedface.json"));
  EXPECT_FALSE(fs::exists(root.path() +
                          "/merged/outcomes/0123456789abcdef.json"));
  EXPECT_EQ(tree_of(shard_dirs[0]), before1);
  EXPECT_EQ(tree_of(shard_dirs[1]), before2);
}

TEST_F(MergeTest, MergeNeverChangesTheShardStoresItReads) {
  for (const auto format : {StoreFormat::Dir, StoreFormat::Packed}) {
    const std::string tag = to_string(format);
    TempDir root("hmpt_merge_read_only_" + tag);
    const auto full = scenarios();
    CampaignOptions whole;
    whole.output_dir = root.path() + "/whole";
    const auto cold = CampaignRunner(whole).run(full);
    ASSERT_TRUE(cold.ok());
    write_artifacts(cold, whole.output_dir);

    std::vector<std::string> shard_dirs;
    for (int i = 1; i <= 2; ++i) {
      shard_dirs.push_back(root.path() + "/shard" + std::to_string(i));
      ASSERT_TRUE(run_shard(full, {i, 2}, shard_dirs.back(), false, format)
                      .ok());
    }
    // Shard 1 also ran one of shard 2's scenarios (a steal), and shard
    // 2's copy of it is damaged: the merge takes shard 1's intact copy.
    const auto stolen = shard_scenarios(full, {2, 2}).front();
    CampaignOptions dup;
    dup.output_dir = shard_dirs[0];
    dup.store_format = format;
    ASSERT_TRUE(CampaignRunner(dup).run({stolen}).ok());
    const std::string damaged =
        damage_record(shard_dirs[1], stolen.fingerprint());
    auto before = tree_of(shard_dirs[1]);

    const auto merged = merge_shards(shard_dirs, root.path() + "/merged");
    EXPECT_EQ(merged.cached, static_cast<int>(full.size())) << tag;
    write_artifacts(merged, root.path() + "/merged");
    EXPECT_EQ(slurp(root.path() + "/merged/runs.csv"),
              slurp(whole.output_dir + "/runs.csv"))
        << tag;
    EXPECT_EQ(tree_of(shard_dirs[1]), before) << tag;
    EXPECT_FALSE(fs::exists(damaged + ".corrupt")) << tag;

    // Damage the only copy of one of shard 1's own scenarios: the merge
    // fails loudly and still leaves the shard exactly as it was.
    const auto only = shard_scenarios(full, {1, 2}).front();
    const std::string lost = damage_record(shard_dirs[0], only.fingerprint());
    before = tree_of(shard_dirs[0]);
    try {
      merge_shards(shard_dirs, root.path() + "/merged-again");
      FAIL() << tag << ": a complete scenario without a record must not merge";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "complete but its outcome record is missing or damaged"),
                std::string::npos)
          << e.what();
    }
    EXPECT_EQ(tree_of(shard_dirs[0]), before) << tag;
    EXPECT_FALSE(fs::exists(lost + ".corrupt")) << tag;
  }
}

TEST_F(MergeTest, MergingAgainIntoTheSameOutputWritesNothing) {
  TempDir root("hmpt_merge_again");
  const auto full = scenarios();
  std::vector<std::string> shard_dirs;
  for (int i = 1; i <= 2; ++i) {
    shard_dirs.push_back(root.path() + "/shard" + std::to_string(i));
    ASSERT_TRUE(run_shard(full, {i, 2}, shard_dirs.back()).ok());
  }

  for (const auto format : {StoreFormat::Dir, StoreFormat::Packed}) {
    const std::string tag = to_string(format);
    const std::string out = root.path() + "/merged-" + tag;
    write_artifacts(merge_shards(shard_dirs, out, nullptr, format), out);

    // Every record is already there, byte for byte: no save, so no file,
    // rename or fsync, and the same artefacts.
    const auto before = tree_of(out);
    MergeStats stats;
    const auto again = merge_shards(shard_dirs, out, &stats, format);
    EXPECT_EQ(stats.outcomes_merged, 0) << tag;
    EXPECT_EQ(tree_of(out), before) << tag;
    write_artifacts(again, root.path() + "/again-" + tag);
    for (const char* artefact : {"/runs.csv", "/summary.json"})
      EXPECT_EQ(slurp(root.path() + "/again-" + tag + artefact),
                slurp(out + artefact))
          << tag;

    // A differing well-formed record already in the output still fails.
    const std::string fp = full[0].fingerprint();
    const std::string payload = *OutcomeStore(out, format).payload(fp) + " ";
    if (format == StoreFormat::Dir) {
      std::ofstream(out + "/outcomes/" + fp + ".json", std::ios::binary)
          << payload;
    } else {
      std::ofstream(out + "/outcomes.log", std::ios::binary | std::ios::app)
          << "hmpt1 " << fp << " " << payload.size() << "\n"
          << payload << "\n";
    }
    try {
      merge_shards(shard_dirs, out, nullptr, format);
      FAIL() << tag << ": a conflicting merged copy must not be overwritten";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("already merged into " + out),
                std::string::npos)
          << e.what();
    }
  }
}

TEST_F(MergeTest, FailedScenariosAreReproducedFromTheManifests) {
  TempDir root("hmpt_merge_failures");

  // A campaign where one scenario fails at execute time ("recorded" with
  // a missing profile passes planning), run whole with keep-going and as
  // two shards with keep-going.
  ScenarioMatrix matrix;
  matrix.workloads = {parse_workload_spec("mg"),
                      parse_workload_spec(
                          "recorded:path=/nonexistent.profile")};
  matrix.platforms = {"xeon-max"};
  matrix.strategies = {"estimator", "online"};
  matrix.repetitions = 1;
  const auto full = matrix.expand();

  CampaignOptions whole;
  whole.output_dir = root.path() + "/whole";
  whole.keep_going = true;
  const auto cold = CampaignRunner(whole).run(full);
  EXPECT_EQ(cold.failed, 2);
  write_artifacts(cold, whole.output_dir);

  std::vector<std::string> shard_dirs;
  for (int i = 1; i <= 2; ++i) {
    shard_dirs.push_back(root.path() + "/shard" + std::to_string(i));
    run_shard(full, {i, 2}, shard_dirs.back(), /*keep_going=*/true);
  }

  MergeStats stats;
  const auto merged =
      merge_shards(shard_dirs, root.path() + "/merged", &stats);
  EXPECT_EQ(stats.failed, 2);
  EXPECT_EQ(merged.failed, 2);

  // Failures (with their recorded error text) land in the merged summary
  // exactly as the unsharded run wrote them.
  write_artifacts(merged, root.path() + "/merged");
  EXPECT_EQ(slurp(root.path() + "/merged/summary.json"),
            slurp(whole.output_dir + "/summary.json"));
  EXPECT_EQ(slurp(root.path() + "/merged/runs.csv"),
            slurp(whole.output_dir + "/runs.csv"));
}

TEST_F(MergeTest, MergedStoresMergeAgainToTheSameArtefacts) {
  TempDir root("hmpt_merge_remerge");

  // One scenario pair fails at execute time ("recorded" with a missing
  // profile passes planning), so failures must survive both merges.
  ScenarioMatrix matrix;
  matrix.workloads = {parse_workload_spec("mg"),
                      parse_workload_spec(
                          "recorded:path=/nonexistent.profile")};
  matrix.platforms = {"xeon-max"};
  matrix.strategies = {"estimator", "online"};
  matrix.repetitions = 1;
  const auto full = matrix.expand();
  const auto report_of = [](const CampaignResult& result) {
    std::ostringstream os;
    report::write_report_html(os, result);
    return os.str();
  };

  CampaignOptions whole;
  whole.output_dir = root.path() + "/whole";
  whole.keep_going = true;
  const auto cold = CampaignRunner(whole).run(full);
  ASSERT_EQ(cold.failed, 2);
  write_artifacts(cold, whole.output_dir);
  make_manifest(full, {1, 1}, cold).save(whole.output_dir);
  const std::string cold_report = report_of(cold);

  for (const auto format : {StoreFormat::Dir, StoreFormat::Packed}) {
    const std::string tag = to_string(format);
    std::vector<std::string> shard_dirs;
    for (int i = 1; i <= 2; ++i) {
      shard_dirs.push_back(root.path() + "/" + tag + "-shard" +
                           std::to_string(i));
      run_shard(full, {i, 2}, shard_dirs.back(), /*keep_going=*/true,
                format);
    }
    // One shard also completes an mg scenario of the other's: an
    // overlapping claim, as a steal leaves it. Which shard holds an mg
    // scenario follows from the fingerprints, so the victim is looked up.
    const auto is_mg = [](const Scenario& s) {
      return s.workload.to_string() == "mg";
    };
    int victim = 2;
    auto slice = shard_scenarios(full, {victim, 2});
    if (std::none_of(slice.begin(), slice.end(), is_mg)) {
      victim = 1;
      slice = shard_scenarios(full, {victim, 2});
    }
    const Scenario stolen = *std::find_if(slice.begin(), slice.end(), is_mg);
    const int thief = 3 - victim;
    const std::string& thief_dir =
        shard_dirs[static_cast<std::size_t>(thief - 1)];
    CampaignOptions dup;
    dup.output_dir = thief_dir;
    dup.store_format = format;
    const auto dup_run = CampaignRunner(dup).run({stolen});
    ASSERT_TRUE(dup_run.ok()) << tag;
    ManifestProgress(full, {thief, 2}, thief_dir).record(dup_run.runs[0]);

    // Merge the shards, then the merged store alone, each writing what
    // hmpt_merge writes: the artefacts and a manifest of the stored
    // fingerprints. Both match the unsharded run.
    const auto merge_into = [&](const std::vector<std::string>& inputs,
                                const std::string& out, int overlapping) {
      MergeStats stats;
      const auto merged = merge_shards(inputs, out, &stats, format);
      EXPECT_EQ(stats.campaign, campaign_fingerprint(full)) << out;
      EXPECT_EQ(stats.overlapping, overlapping) << out;
      EXPECT_EQ(merged.failed, 2) << out;
      write_artifacts(merged, out);
      make_manifest(stats.campaign, merged).save(out);
      EXPECT_EQ(report_of(merged), cold_report) << out;
      for (const char* artefact :
           {"/runs.csv", "/summary.json", "/shard.manifest.json"})
        EXPECT_EQ(slurp(out + artefact), slurp(whole.output_dir + artefact))
            << out << artefact;
    };
    const std::string merged = root.path() + "/" + tag;
    merge_into(shard_dirs, merged, 1);
    merge_into({merged}, merged + "-again", 0);
    EXPECT_EQ(OutcomeStore(merged + "-again", format).load_all_payloads(),
              OutcomeStore(merged, format).load_all_payloads())
        << tag;
  }
}

}  // namespace
}  // namespace hmpt::campaign
