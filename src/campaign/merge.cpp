#include "campaign/merge.h"

#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "campaign/aggregate.h"
#include "common/error.h"

namespace hmpt::campaign {

namespace fs = std::filesystem;

namespace {

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is.good()) raise("cannot read " + path);
  std::stringstream buffer;
  buffer << is.rdbuf();
  return buffer.str();
}

/// The manifest entry of one finished run, keyed by its stored
/// fingerprint (re-hashed only when the run has none). Planned runs leave
/// no outcome to merge and throw.
ShardManifest::Entry manifest_entry(const ScenarioRun& run) {
  ShardManifest::Entry entry;
  entry.fingerprint = fingerprint_of(run);
  entry.scenario = run.scenario;
  switch (run.status) {
    case ScenarioRun::Status::Executed:
    case ScenarioRun::Status::Cached:
      entry.status = ShardEntryStatus::Complete;
      break;
    case ScenarioRun::Status::Failed:
      entry.status = ShardEntryStatus::Failed;
      entry.error = run.error;
      break;
    case ScenarioRun::Status::Planned:
      raise("cannot write a shard manifest for a dry run — plans leave "
            "no outcomes to merge");
  }
  return entry;
}

}  // namespace

// ----------------------------------------------------------- ShardManifest

const char* to_string(ShardEntryStatus status) {
  switch (status) {
    case ShardEntryStatus::Complete: return "complete";
    case ShardEntryStatus::Failed: return "failed";
  }
  return "?";
}

ShardEntryStatus shard_entry_status_from(const std::string& text) {
  if (text == "complete") return ShardEntryStatus::Complete;
  if (text == "failed") return ShardEntryStatus::Failed;
  raise("unknown shard entry status: '" + text + "'");
}

Json ShardManifest::to_json() const {
  JsonObject o;
  o["format_version"] = Json(format_version);
  o["campaign"] = Json(campaign);
  JsonObject spec;
  spec["index"] = Json(shard.index);
  spec["count"] = Json(shard.count);
  o["shard"] = Json(std::move(spec));
  JsonArray order;
  for (const auto& fp : campaign_order) order.push_back(Json(fp));
  o["campaign_order"] = Json(std::move(order));
  JsonArray scenario_array;
  for (const auto& entry : entries) {
    JsonObject e;
    e["fingerprint"] = Json(entry.fingerprint);
    e["scenario"] = entry.scenario.to_json();
    e["status"] = Json(std::string(to_string(entry.status)));
    if (entry.status == ShardEntryStatus::Failed)
      e["error"] = Json(entry.error);
    scenario_array.push_back(Json(std::move(e)));
  }
  o["scenarios"] = Json(std::move(scenario_array));
  return Json(std::move(o));
}

ShardManifest ShardManifest::from_json(const Json& json) {
  ShardManifest manifest;
  manifest.format_version = json.at("format_version").as_int();
  manifest.campaign = json.at("campaign").as_string();
  const Json& spec = json.at("shard");
  manifest.shard.index = spec.at("index").as_int();
  manifest.shard.count = spec.at("count").as_int();
  HMPT_REQUIRE(manifest.shard.count >= 1 && manifest.shard.index >= 1 &&
                   manifest.shard.index <= manifest.shard.count,
               "manifest shard spec out of range");
  for (const Json& fp : json.at("campaign_order").as_array())
    manifest.campaign_order.push_back(fp.as_string());
  for (const Json& e : json.at("scenarios").as_array()) {
    Entry entry;
    entry.fingerprint = e.at("fingerprint").as_string();
    entry.scenario = Scenario::from_json(e.at("scenario"));
    entry.status = shard_entry_status_from(e.at("status").as_string());
    if (entry.status == ShardEntryStatus::Failed)
      entry.error = e.at("error").as_string();
    manifest.entries.push_back(std::move(entry));
  }
  return manifest;
}

std::string ShardManifest::path_in(const std::string& store_dir) {
  return (fs::path(store_dir) / kManifestName).string();
}

void ShardManifest::save(const std::string& store_dir) const {
  std::error_code ec;
  fs::create_directories(store_dir, ec);
  if (ec)
    raise("cannot create shard store at " + store_dir + ": " + ec.message());
  const std::string bytes = to_json().dump();
  publish_file(path_in(store_dir), [&](std::ostream& os) { os << bytes; });
}

ShardManifest ShardManifest::load(const std::string& store_dir) {
  const std::string path = path_in(store_dir);
  std::ifstream is(path);
  if (!is.good())
    raise("no shard manifest at " + path +
          " (not a shard outcome store, or the shard run never finished)");
  try {
    return from_json(Json::parse(slurp(path)));
  } catch (const std::exception& e) {
    raise("corrupt shard manifest " + path + ": " + e.what());
  }
}

ShardManifest make_manifest(const std::vector<Scenario>& campaign_scenarios,
                            const ShardSpec& shard,
                            const CampaignResult& result) {
  ShardManifest manifest;
  manifest.campaign = campaign_fingerprint(campaign_scenarios);
  manifest.shard = shard;
  for (const auto& s : campaign_scenarios)
    manifest.campaign_order.push_back(s.fingerprint());
  for (const auto& run : result.runs)
    manifest.entries.push_back(manifest_entry(run));
  return manifest;
}

ShardManifest make_manifest(const std::string& campaign,
                            const CampaignResult& result) {
  ShardManifest manifest;
  manifest.campaign = campaign;
  for (const auto& run : result.runs) {
    manifest.entries.push_back(manifest_entry(run));
    manifest.campaign_order.push_back(manifest.entries.back().fingerprint);
  }
  return manifest;
}

// ------------------------------------------------------- ManifestProgress

ManifestProgress::ManifestProgress(
    const std::vector<Scenario>& campaign_scenarios, const ShardSpec& shard,
    std::string store_dir)
    : manifest_(make_manifest(campaign_scenarios, shard, CampaignResult{})),
      store_dir_(std::move(store_dir)) {
  // Union with an existing manifest for the same campaign and shard: a
  // relaunched worker (or a thief's later generation) appends to what
  // the store already proved finished. Anything else — a stale manifest
  // from another campaign, or unreadable bytes — is discarded: the store
  // contents stay authoritative either way (--resume re-checks them).
  try {
    ShardManifest existing = ShardManifest::load(store_dir_);
    if (existing.campaign == manifest_.campaign &&
        existing.shard.index == shard.index &&
        existing.shard.count == shard.count &&
        existing.campaign_order == manifest_.campaign_order)
      manifest_.entries = std::move(existing.entries);
  } catch (const std::exception&) {
    // No manifest yet, or not one of ours: start fresh.
  }
  for (std::size_t i = 0; i < manifest_.entries.size(); ++i)
    index_[manifest_.entries[i].fingerprint] = i;

  std::lock_guard<std::mutex> lock(mutex_);
  save_locked();
}

void ManifestProgress::record(const ScenarioRun& run) {
  ShardManifest::Entry entry = manifest_entry(run);
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(entry.fingerprint);
  if (it == index_.end()) {
    index_[entry.fingerprint] = manifest_.entries.size();
    manifest_.entries.push_back(std::move(entry));
  } else if (entry.status == ShardEntryStatus::Complete) {
    // Completion supersedes an earlier recorded failure; a repeated
    // completion rewrites the identical entry (harmless).
    manifest_.entries[it->second] = std::move(entry);
  } else {
    return;  // keep the existing terminal record; nothing new to persist
  }
  save_locked();
}

ShardManifest ManifestProgress::manifest() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return manifest_;
}

void ManifestProgress::save_locked() { manifest_.save(store_dir_); }

// ------------------------------------------------------------ merge_shards

CampaignResult merge_shards(const std::vector<std::string>& shard_dirs,
                            const std::string& output_dir,
                            MergeStats* stats, StoreFormat output_format) {
  HMPT_REQUIRE(!shard_dirs.empty(), "merge needs at least one shard dir");
  HMPT_REQUIRE(!output_dir.empty(), "merge needs an output dir");

  // 1. Load and cross-validate the manifests: one campaign, one shard
  //    count, one campaign order; indices exactly 1..N.
  std::vector<ShardManifest> manifests;
  for (const auto& dir : shard_dirs)
    manifests.push_back(ShardManifest::load(dir));
  const ShardManifest& ref = manifests.front();
  std::set<int> indices;
  for (std::size_t i = 0; i < manifests.size(); ++i) {
    const ShardManifest& m = manifests[i];
    HMPT_REQUIRE(m.format_version == kFingerprintVersion,
                 "shard " + shard_dirs[i] + " has manifest format version " +
                     std::to_string(m.format_version) + ", this tool speaks " +
                     std::to_string(kFingerprintVersion));
    if (m.campaign != ref.campaign)
      raise("shard " + shard_dirs[i] + " belongs to campaign " + m.campaign +
            ", but " + shard_dirs[0] + " to campaign " + ref.campaign +
            " — these shards are from different campaigns");
    HMPT_REQUIRE(m.shard.count == ref.shard.count,
                 "shard " + shard_dirs[i] + " declares " +
                     std::to_string(m.shard.count) + " shards, expected " +
                     std::to_string(ref.shard.count));
    HMPT_REQUIRE(m.campaign_order == ref.campaign_order,
                 "shard " + shard_dirs[i] +
                     " disagrees on the campaign scenario order");
    if (!indices.insert(m.shard.index).second)
      raise("shard index " + std::to_string(m.shard.index) +
            " appears twice (" + shard_dirs[i] + ")");
  }
  HMPT_REQUIRE(static_cast<int>(manifests.size()) == ref.shard.count,
               "campaign " + ref.campaign + " has " +
                   std::to_string(ref.shard.count) + " shards, got " +
                   std::to_string(manifests.size()) + " to merge");

  // 2. The slices must cover the campaign. Overlapping claims are legal —
  //    work stealing re-deals a straggler's scenarios to idle workers and
  //    both may finish — but only with identical bytes, which step 3
  //    verifies across every shard's store. Where claims disagree on
  //    status, a Complete record owns the scenario (it finished
  //    somewhere); among equal claims the lowest shard index wins, so the
  //    reconstruction is deterministic whatever order the steals landed.
  struct Owner {
    std::size_t shard;  ///< index into manifests/shard_dirs
    const ShardManifest::Entry* entry;
  };
  std::map<std::string, Owner> owners;
  int overlapping = 0;
  for (std::size_t i = 0; i < manifests.size(); ++i) {
    for (const auto& entry : manifests[i].entries) {
      const auto [it, inserted] =
          owners.emplace(entry.fingerprint, Owner{i, &entry});
      if (inserted) continue;
      ++overlapping;
      const bool incumbent_complete =
          it->second.entry->status == ShardEntryStatus::Complete;
      const bool claimant_complete =
          entry.status == ShardEntryStatus::Complete;
      if (claimant_complete != incumbent_complete) {
        if (claimant_complete) it->second = Owner{i, &entry};
      } else if (manifests[i].shard.index <
                 manifests[it->second.shard].shard.index) {
        // Equal status: the lowest shard *index* owns, so reconstruction
        // does not depend on the order the directories were listed in.
        it->second = Owner{i, &entry};
      }
    }
  }
  const std::set<std::string> campaign_set(ref.campaign_order.begin(),
                                           ref.campaign_order.end());
  for (const auto& fp : ref.campaign_order)
    if (owners.find(fp) == owners.end())
      raise("scenario " + fp + " belongs to campaign " + ref.campaign +
            " but no shard ran it — merge needs every shard of the "
            "campaign");
  for (const auto& [fp, owner] : owners)
    if (campaign_set.find(fp) == campaign_set.end())
      raise("shard " + shard_dirs[owner.shard] + " ran scenario " + fp +
            " which is not part of campaign " + ref.campaign);

  // 3. Union the content-addressed outcome stores one fingerprint at a
  //    time, in campaign order, so memory holds one record whatever the
  //    campaign's size. Only campaign fingerprints are read (shard
  //    directories may be reused stores holding other campaigns'
  //    outcomes). Every shard's copy is read with find_record, which never
  //    quarantines (a merge must not change the stores it reads), and
  //    byte-compared with the first valid copy: *different* bytes for one
  //    fingerprint are a determinism bug or a foreign store and fail the
  //    merge. Raw payload bytes flow straight into the output store, so
  //    the merged records are byte-identical whatever formats are on
  //    either side. Only the headline is kept.
  const OutcomeStore merged_store(output_dir, output_format);
  std::vector<OutcomeStore> shard_stores;
  for (const auto& dir : shard_dirs)
    shard_stores.push_back(OutcomeStore::open_existing(dir));
  int merged_records = 0;
  std::map<std::string, tuner::TuningOutcome> merged;  // step 4's working set
  for (const auto& fp : ref.campaign_order) {
    std::optional<ValidRecord> record;
    std::string source;
    for (std::size_t i = 0; i < shard_stores.size(); ++i) {
      auto copy = shard_stores[i].find_record(fp);
      if (!copy) continue;
      if (!record) {
        record = std::move(copy);
        source = shard_dirs[i];
      } else if (copy->payload != record->payload) {
        raise("conflicting outcomes for fingerprint " + fp + ": " +
              shard_dirs[i] + " differs from " + source +
              " — same scenario, different results (determinism bug or "
              "stores from different experiments)");
      }
    }
    if (!record) continue;  // failed scenario: no outcome anywhere
    if (const auto existing = merged_store.find_record(fp)) {
      if (existing->payload != record->payload)
        raise("conflicting outcomes for fingerprint " + fp + ": " + source +
              " differs from the copy already merged into " + output_dir);
    } else {
      merged_store.save_payload(fp, record->payload);
      ++merged_records;
    }
    merged.emplace(fp, std::move(record->outcome));
  }

  // 4. Reconstruct the campaign-ordered result from the merged records
  //    (and the manifests, for failures). Keying by the *stored*
  //    fingerprint string keeps the merge exact even when a recorded
  //    profile changed on disk after its shard ran.
  CampaignResult result;
  for (const auto& fp : ref.campaign_order) {
    const Owner& owner = owners.at(fp);
    ScenarioRun run;
    run.scenario = owner.entry->scenario;
    run.fingerprint = fp;  // the stored content address, never re-hashed
    if (owner.entry->status == ShardEntryStatus::Failed) {
      run.status = ScenarioRun::Status::Failed;
      run.error = owner.entry->error;
      ++result.failed;
    } else {
      const auto it = merged.find(fp);
      if (it == merged.end())
        raise("shard " + shard_dirs[owner.shard] + " marks scenario " + fp +
              " complete but its outcome record is missing or damaged");
      run.outcome = std::move(it->second);
      run.status = ScenarioRun::Status::Cached;
      ++result.cached;
    }
    result.runs.push_back(std::move(run));
  }

  if (stats) {
    stats->campaign = ref.campaign;
    stats->shards = static_cast<int>(manifests.size());
    stats->scenarios = static_cast<int>(ref.campaign_order.size());
    stats->outcomes_merged = merged_records;
    stats->failed = result.failed;
    stats->overlapping = overlapping;
  }
  return result;
}

}  // namespace hmpt::campaign
