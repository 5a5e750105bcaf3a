// merge.h — shard manifests and the lossless merge of sharded campaigns.
//
// A campaign sharded with `hmpt_campaign --shard i/N` runs each slice in
// its own process (or host) with its own outcome store; every shard writes
// a `shard.manifest.json` recording which campaign it belongs to (the
// campaign fingerprint), which slice it ran (the ShardSpec), and the
// completion status of every scenario it owned. `merge_shards` is the
// inverse of the partition: it validates the manifests against one
// another (same campaign fingerprint, same shard count, disjoint slices,
// complete coverage), unions the content-addressed outcome stores —
// failing loudly when two stores hold *different* outcome bytes for the
// same fingerprint — and reconstructs the campaign-ordered result, from
// which the standard aggregation emits `runs.csv`/`summary.json` byte
// for byte identical to an unsharded run of the same campaign.
#pragma once

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "campaign/campaign.h"
#include "common/json.h"

namespace hmpt::campaign {

/// The manifest file name inside a shard's outcome-store directory.
inline constexpr const char* kManifestName = "shard.manifest.json";

/// What one shard recorded about one of its scenarios.
struct ShardManifest;

/// Per-scenario completion status inside a manifest. `Complete` covers
/// both freshly-executed and resume-cached scenarios — either way the
/// outcome file exists and is authoritative.
enum class ShardEntryStatus { Complete, Failed };

const char* to_string(ShardEntryStatus status);
/// Parse the manifest spelling of a status; throws hmpt::Error otherwise.
ShardEntryStatus shard_entry_status_from(const std::string& text);

/// The durable record one shard run leaves next to its outcomes.
///
/// Everything a merge needs is captured at run time — in particular the
/// scenario fingerprints are *stored strings*, not recomputed hashes, so
/// a recorded-profile file changing on disk after the run cannot silently
/// re-key a finished scenario.
struct ShardManifest {
  struct Entry {
    std::string fingerprint;  ///< content address captured at run time
    Scenario scenario;        ///< the full scenario, for reconstruction
    ShardEntryStatus status = ShardEntryStatus::Complete;
    std::string error;        ///< Failed only: the recorded message
  };

  int format_version = kFingerprintVersion;
  std::string campaign;  ///< campaign fingerprint of the *full* matrix
  ShardSpec shard;       ///< which slice this store ran
  /// Every scenario fingerprint of the full campaign, matrix order — the
  /// row order of the merged runs.csv/summary.json.
  std::vector<std::string> campaign_order;
  /// This shard's scenarios (shard order), one entry each.
  std::vector<Entry> entries;

  /// Lossless JSON round trip (covered by tests).
  Json to_json() const;
  static ShardManifest from_json(const Json& json);

  /// `<store_dir>/shard.manifest.json`.
  static std::string path_in(const std::string& store_dir);
  /// Atomically write the manifest into a shard's store directory.
  void save(const std::string& store_dir) const;
  /// Load and validate a manifest; throws hmpt::Error when missing or
  /// malformed (a shard directory without a manifest cannot be merged).
  static ShardManifest load(const std::string& store_dir);
};

/// Build the manifest of a finished shard run: `campaign_scenarios` is the
/// *full* expanded matrix (matrix order), `result` the runs of this
/// shard's slice. Throws hmpt::Error when the result contains dry-run
/// (Planned) entries — plans leave no durable state to merge.
ShardManifest make_manifest(const std::vector<Scenario>& campaign_scenarios,
                            const ShardSpec& shard,
                            const CampaignResult& result);

/// Incremental manifest writing for fleet workers (`hmpt_campaign
/// --progress-manifest`): the manifest is (re)written atomically after
/// every completed scenario, so
///   * the fleet dispatcher can tail a worker's shard.manifest.json for
///     per-scenario completion while the worker runs, and
///   * a worker killed at any instant (SIGKILL, host death) leaves a
///     valid manifest holding exactly the scenarios it finished — the
///     dispatcher re-deals the rest to idle workers.
/// Construction unions with any manifest already in the store directory
/// for the *same* campaign and shard (a re-launched worker on its own
/// store, or a thief's second generation, must not drop earlier entries)
/// and saves immediately, so the manifest exists from t=0. A stale
/// manifest from a different campaign is discarded. Thread-safe.
class ManifestProgress {
 public:
  ManifestProgress(const std::vector<Scenario>& campaign_scenarios,
                   const ShardSpec& shard, std::string store_dir);

  /// Record one finished scenario (Executed/Cached → Complete, Failed →
  /// Failed; Planned throws) and atomically rewrite the manifest. A
  /// fingerprint recorded twice keeps the first terminal record unless
  /// the new one is Complete (completion supersedes a recorded failure —
  /// a retried scenario that eventually succeeded).
  void record(const ScenarioRun& run);

  /// The entries recorded so far, as a manifest value.
  ShardManifest manifest() const;

 private:
  void save_locked();

  mutable std::mutex mutex_;
  ShardManifest manifest_;
  std::map<std::string, std::size_t> index_;  ///< fingerprint → entry slot
  std::string store_dir_;
};

/// Counters reported by merge_shards for logging and benchmarks.
struct MergeStats {
  std::string campaign;     ///< validated campaign fingerprint
  int shards = 0;           ///< manifests merged
  int scenarios = 0;        ///< full campaign size
  int outcomes_merged = 0;  ///< outcome files unioned into the output store
  int failed = 0;           ///< scenarios recorded as failed by their shard
  /// Scenarios claimed by more than one shard (work stealing): benign
  /// when every copy holds identical bytes, which the merge verifies.
  int overlapping = 0;
};

/// Merge shard outcome stores into `output_dir`.
///
/// Validates that every directory holds a manifest for the *same* campaign
/// (fingerprint, shard count, campaign order), that the shard indices are
/// exactly 1..N with no duplicates, that the slices together cover the
/// campaign, and that every Complete scenario's outcome record exists.
/// Overlapping coverage — the same fingerprint claimed by several shards,
/// which work stealing produces legitimately (a straggler's scenario
/// re-dealt to an idle worker, both finishing) — is accepted *only* when
/// every copy holds identical outcome bytes; the content-addressed store
/// makes duplicate execution a byte-level no-op, and the merge verifies
/// that rather than assuming it. The stores are unioned content-addressed:
/// identical bytes under the same fingerprint merge silently; *different*
/// bytes under the same fingerprint throw hmpt::Error — that is either a
/// determinism bug or stores from different experiments, and must never
/// be papered over. When a fingerprint is claimed both Complete and
/// Failed (a thief finished what its victim had failed, or vice versa),
/// the Complete record wins — the scenario did complete somewhere, which
/// is exactly what an unsharded run would report.
///
/// Each shard store may be dir- or packed-format (auto-detected per
/// directory) and `output_format` picks the merged store's layout
/// independently, so a merge doubles as a lossless cross-format
/// conversion: outcome records are copied as raw payload bytes, never
/// re-serialised. They are read one fingerprint at a time, and a damaged
/// shard copy is skipped, never quarantined: shard stores stay unchanged.
///
/// Returns the campaign-ordered CampaignResult (outcomes loaded from the
/// merged store, status Cached; failures reproduced from the manifests),
/// ready for the standard aggregation: `runs.csv` and `summary.json`
/// derived from it are byte-identical to an unsharded run's, whatever
/// mix of store formats the shards used.
CampaignResult merge_shards(const std::vector<std::string>& shard_dirs,
                            const std::string& output_dir,
                            MergeStats* stats = nullptr,
                            StoreFormat output_format = StoreFormat::Dir);

}  // namespace hmpt::campaign
