// outcome_store.h — the content-addressed cache of finished scenarios.
//
// One logical record per scenario, keyed by the scenario fingerprint and
// holding the scenario that produced it (for human inspection and sanity
// checks) plus the serialised TuningOutcome. The fingerprint is the key:
// --resume asks contains()/load() before executing, and anything that
// changes the experiment (workload parameters, platform, strategy, tier
// count, budgets, repetitions, top-k, the format version) changes the
// fingerprint and so misses the cache.
//
// Two on-disk formats hold the same records byte-for-byte, selected per
// store (`hmpt_campaign --store-format`):
//
//   * Dir (the default): one file per scenario under
//     <dir>/outcomes/<fingerprint>.json. Writes go through an fsynced
//     unique temp file published by an atomic link, so a campaign killed
//     mid-save never leaves a half-written outcome for the next --resume
//     to trust, and concurrent writers of one fingerprint (a daemon
//     worker racing a batch run, two attached clients) are safe: the
//     first complete write wins, identical bytes are a silent no-op,
//     differing bytes fail loudly instead of silently picking a winner.
//
//   * Packed: one append-only <dir>/outcomes.log of length-prefixed
//     records, and nothing else: the log is its own index. One file per
//     scenario stops scaling around 10^5 scenarios — the packed log
//     keeps fleet-scale campaigns to one file and gives bulk readers
//     (report) one sequential pass. Readers and writers keep a
//     fingerprint → offset map of it and refresh it incrementally,
//     scanning only the frames appended since they last looked.
//     Appends are fsynced under an exclusive flock; a torn tail from a
//     crash mid-append is skipped on load (the same discipline as the
//     service job journal) and truncated away by the next save, so
//     re-execution repairs it.
//
// Every key is a fingerprint: 16 lowercase hex digits (is_fingerprint).
// A lookup of any other key reads as absent and a save of one throws, so
// no key can name a path outside the store.
//
// Both formats store identical payload bytes for identical outcomes, so
// a store can be converted losslessly between formats (hmpt_merge reads
// either and writes either) and merged artefacts stay byte-identical
// whatever mix of formats the shards used. First-write-wins byte-compare
// semantics hold in both: racing identical writes are no-ops, a
// well-formed conflicting write for an existing fingerprint throws.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "campaign/scenario.h"
#include "common/json.h"
#include "core/outcome_io.h"
#include "core/strategy.h"

namespace hmpt::campaign {

/// One validated stored record as merge and report read it: the payload
/// bytes and what they decode to, from a single parse.
struct ValidRecord {
  std::string payload;
  Json scenario;  ///< the record's `scenario` subtree, for Scenario::from_json
  /// The headline: every row was checked, none kept (tuner::Rows::Skip),
  /// so `table`, `trajectory` and `sweep` are empty. The rows are in
  /// `payload`; load() decodes them.
  tuner::TuningOutcome outcome;
};

/// On-disk layout of an OutcomeStore; see the file comment.
enum class StoreFormat { Dir, Packed };

/// The CLI spelling ("dir"/"packed").
const char* to_string(StoreFormat format);
/// Parse the CLI spelling; throws hmpt::Error on anything else.
StoreFormat store_format_from(const std::string& text);

/// Detect the format of an existing store at `directory`: Packed when
/// outcomes.log exists, Dir when outcomes/ exists, nullopt when neither
/// does (no store yet).
std::optional<StoreFormat> detect_store_format(const std::string& directory);

class OutcomeStore {
 public:
  /// Open the store under `directory` in `format`. Purely nominal:
  /// directories/files are created on the first save(), so opening (or
  /// dry-run planning against) a store writes nothing. Throws hmpt::Error
  /// when the directory already holds a store of the *other* format —
  /// silently shadowing existing outcomes would defeat --resume.
  explicit OutcomeStore(std::string directory,
                        StoreFormat format = StoreFormat::Dir);

  /// Open an existing store, auto-detecting its format (Dir when the
  /// directory holds no store yet).
  static OutcomeStore open_existing(const std::string& directory);

  /// The store's root directory.
  const std::string& directory() const;
  /// The on-disk layout this store reads and writes.
  StoreFormat format() const;

  /// Dir format only: the on-disk path of a scenario's outcome file,
  /// <dir>/outcomes/<fingerprint>.json. Throws for a packed store, whose
  /// scenarios have no per-scenario file.
  std::string path_for(const Scenario& scenario) const;

  bool contains(const Scenario& scenario) const;
  /// Load a cached outcome; nullopt when absent or damaged (a damaged
  /// record reads as a miss so the scenario re-executes — dir stores
  /// quarantine the file to <fingerprint>.json.corrupt, packed stores
  /// supersede the record on the repairing save). Every row is checked;
  /// with Rows::Skip the outcome comes back as its headline alone (the
  /// campaign resume probe), by default with its rows.
  std::optional<tuner::TuningOutcome> load(
      const Scenario& scenario, tuner::Rows rows = tuner::Rows::Keep) const;
  /// Load by content address alone, where no Scenario is in hand (the
  /// daemon's outcome lookups); nullopt when absent or damaged, and
  /// `rows` as for load().
  std::optional<tuner::TuningOutcome> load_by_fingerprint(
      const std::string& fingerprint,
      tuner::Rows rows = tuner::Rows::Keep) const;
  /// The validated `outcome` subtree of a stored record as parsed, for
  /// callers that forward it rather than use it (the daemon's `result`
  /// verb): dumped compactly it reproduces the stored bytes. The record
  /// is validated with Rows::Skip and the subtree moved out of it, not
  /// copied. nullopt when absent or damaged like load().
  std::optional<Json> load_outcome_json(const std::string& fingerprint) const;
  /// Persist a finished scenario. First complete write of a fingerprint
  /// wins; a racing identical write is a silent no-op, a differing one
  /// throws hmpt::Error (see the file comment).
  void save(const Scenario& scenario,
            const tuner::TuningOutcome& outcome) const;

  // Payload-level access: the raw stored document bytes, identical
  // across formats for identical outcomes. This is the merge/report
  // currency — byte-compares and cross-format conversion never
  // re-serialise, so they cannot silently normalise away a difference.

  // Every read below parses and validates each record once (JSON, format
  // version, fingerprint, range-checked outcome decode with Rows::Skip:
  // every row checked, none kept); a record that fails reads as absent.

  /// The stored payload bytes of a fingerprint; nullopt when absent or
  /// damaged (dir stores quarantine a damaged file, like load()).
  std::optional<std::string> payload(const std::string& fingerprint) const;
  /// Store raw payload bytes under a fingerprint with the same
  /// first-write-wins byte-compare semantics as save(). The caller owns
  /// payload/fingerprint consistency (merge copies validated records).
  void save_payload(const std::string& fingerprint,
                    const std::string& payload) const;
  /// The validated record of a fingerprint; nullopt when absent or
  /// damaged. A damaged copy is left as it is, never quarantined (merge
  /// reads shard stores this way).
  std::optional<ValidRecord> find_record(const std::string& fingerprint) const;
  /// Every valid (fingerprint, payload), in fingerprint order (one pass
  /// over a packed log, a sorted listing of a dir store); damaged records
  /// are skipped and left as they are. Tests compare stores with it.
  std::vector<std::pair<std::string, std::string>> load_all_payloads() const;

  /// The document bytes save() would store for this (scenario, outcome):
  /// format_version + fingerprint + scenario + outcome as compact JSON
  /// (docs/ARCHITECTURE.md describes the outcome's columnar layout).
  static std::string make_payload(const Scenario& scenario,
                                  const tuner::TuningOutcome& outcome);

 private:
  // Copyable value semantics over a shared backend (Scheduler and tests
  // pass stores by value); the backend is internally synchronised.
  std::shared_ptr<class OutcomeStoreBackend> backend_;
};

}  // namespace hmpt::campaign
