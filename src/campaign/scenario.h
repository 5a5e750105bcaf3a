// scenario.h — declarative scenarios and the matrix that expands them.
//
// A Scenario is one fully-specified tuning run: (workload, platform,
// strategy, tier count, capacity budgets, repetitions). Its canonical()
// rendering — alias-free platform name, sorted workload parameters,
// sorted tier budgets — is hashed into a content-addressed fingerprint
// that keys the on-disk outcome store: two scenarios with the same
// fingerprint are the same experiment, whatever order or spelling they
// were declared in. Execution knobs that cannot change the result (how
// many scenarios run at once) are deliberately excluded, so re-running a
// campaign with different parallelism still hits the cache.
//
// A ScenarioMatrix is the declarative cross product the campaign file and
// the CLI flags build up: workloads × platforms × strategies × tiers ×
// budgets, expanded to a validated, deduplicated scenario list.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/json.h"
#include "campaign/workload_registry.h"

namespace hmpt::campaign {

/// One fully-specified tuning run. Every field below is part of the
/// content address (fingerprint) except where noted; see canonical().
struct Scenario {
  WorkloadSpec workload;  ///< registry name + sorted parameters
  std::string platform;   ///< canonical name (see canonical_platform)
  std::string strategy;   ///< StrategyRegistry name (e.g. "estimator")
  int tiers = 0;          ///< 0 = the platform's native tier count
  double budget_gb = 0.0; ///< HBM budget; 0 = full machine HBM
  /// Per-tier budgets (tier, GB), kept sorted by tier.
  std::vector<std::pair<int, double>> tier_budgets_gb;
  int repetitions = 3;    ///< measurement repetitions per configuration
  int top_k = 3;          ///< estimator strategy: configs to measure

  /// Human-readable id, e.g. "mg/spr-cxl/estimator".
  std::string label() const;
  /// The exact text the fingerprint hashes (stable across versions of the
  /// runner; bump kFingerprintVersion on any semantic change).
  std::string canonical() const;
  /// 16-hex-digit FNV-1a hash of canonical().
  std::string fingerprint() const;

  /// Throws hmpt::Error naming the field ("top-k must be >= 1") unless
  /// tiers is 0 or >= 2, budgets are finite and >= 0 on tiers >= 1, and
  /// reps and top-k are >= 1. expand() and from_json() both call it.
  void validate() const;

  /// Lossless serialisation: from_json(to_json()) preserves canonical()
  /// and so the fingerprint (covered by tests). from_json validates.
  Json to_json() const;
  static Scenario from_json(const Json& json);
};

/// Bumped whenever canonical() or the outcome format changes meaning, so
/// stale caches invalidate instead of replaying wrong results.
inline constexpr int kFingerprintVersion = 10;

/// True for exactly 16 lowercase hex digits, the one spelling of every
/// scenario and campaign fingerprint. Outcome stores and the daemon
/// protocol accept no other key, so a key can never name a path.
bool is_fingerprint(std::string_view text);

/// Fingerprint of a whole campaign: the FNV-1a hash (16 hex digits) of the
/// matrix-ordered scenario fingerprints. Two campaign invocations share a
/// campaign fingerprint iff they would produce the same scenario list in
/// the same order — which is exactly when their shards may be merged into
/// one set of artefacts (`runs.csv`/`summary.json` are matrix-ordered, so
/// order is part of the identity).
std::string campaign_fingerprint(const std::vector<Scenario>& scenarios);

/// The campaign fingerprint fed one scenario fingerprint at a time, in
/// matrix order — for callers holding the content addresses captured at
/// run time (aggregation, reports), which must not re-hash scenarios
/// whose recorded-profile files may have changed since, and need not
/// collect them first.
class CampaignHasher {
 public:
  CampaignHasher();
  void add(std::string_view scenario_fingerprint);
  std::string digest() const;  ///< 16 hex digits

 private:
  std::uint64_t hash_;
};

/// Which slice of a campaign one process runs: shard `index` of `count`,
/// 1-based ("2/3" = the second of three shards). The default 1/1 is the
/// whole campaign.
struct ShardSpec {
  int index = 1;
  int count = 1;

  /// True for the trivial 1/1 shard (an unsharded run).
  bool is_whole() const { return count == 1; }
  /// "index/count", the spelling `parse_shard_spec` accepts.
  std::string to_string() const;
};

/// Parse "i/N" (1 <= i <= N); throws hmpt::Error on anything else.
ShardSpec parse_shard_spec(const std::string& text);

/// Serialise the expanded scenario list (matrix order) to a plan file —
/// how the fleet dispatcher hands its workers the full campaign, so every
/// process derives the same campaign fingerprint and artefact order
/// without re-expanding a matrix (whose recorded-profile digests could
/// have drifted between hosts). Atomic write (temp + rename).
void save_scenario_plan(const std::string& path,
                        const std::vector<Scenario>& scenarios);
/// Load a plan file; throws hmpt::Error when missing, malformed, or of a
/// different fingerprint version.
std::vector<Scenario> load_scenario_plan(const std::string& path);

/// Deterministically partition a campaign across `shard.count` processes:
/// the scenario list is ordered by fingerprint and rank r (0-based) goes
/// to shard (r mod count) + 1. Shards are pairwise disjoint, their union
/// is exactly `scenarios`, and — because fingerprints are content
/// addresses — the partition is stable across processes, declaration
/// order, alias spellings and --resume. The returned subset is in
/// fingerprint order.
std::vector<Scenario> shard_scenarios(const std::vector<Scenario>& scenarios,
                                      const ShardSpec& shard);

/// The declarative cross product a campaign file and/or CLI flags build
/// up; expand() turns it into the validated, deduplicated scenario list.
struct ScenarioMatrix {
  std::vector<WorkloadSpec> workloads;  ///< axis: registry workload specs
  std::vector<std::string> platforms;   ///< any alias; empty = {"xeon-max"}
  std::vector<std::string> strategies;  ///< StrategyRegistry names; empty =
                                        ///< {"exhaustive"}
  std::vector<int> tiers;               ///< empty = {0}
  std::vector<double> budgets_gb;       ///< empty = {0}
  std::vector<std::pair<int, double>> tier_budgets_gb;  ///< applied to all
  int repetitions = 3;                  ///< single-valued, all scenarios
  int top_k = 3;                        ///< single-valued, all scenarios

  /// Cross product in declaration order, deduplicated by fingerprint.
  /// Empty axes take their defaults; platforms are canonicalised.
  /// Validates every axis (known workloads/platforms/strategies, sane
  /// numerics) and throws hmpt::Error on the first violation.
  std::vector<Scenario> expand() const;

  /// Apply one campaign directive (the grammar below; the matrix CLI
  /// flags are the same words with "--" in front). Throws hmpt::Error on
  /// an unknown directive, or on a malformed value with a message that
  /// starts "<directive>: ".
  void apply(const std::string& directive, const std::string& value);
  /// True when apply() knows `name`.
  static bool is_directive(const std::string& name);

  /// Parse the campaign-file format (one directive per line, '#' comments):
  ///   workload <name[:k=v,...]>
  ///   platform <name>
  ///   strategy <name>
  ///   tiers <k>
  ///   budget-gb <n>
  ///   tier-budget-gb <tier>:<n>
  ///   reps <n>
  ///   top-k <n>
  /// Repeatable directives (workload/platform/strategy/tiers/budget-gb)
  /// append to their axis; reps and top-k are single-valued.
  static ScenarioMatrix parse(std::istream& is);
  static ScenarioMatrix parse(const std::string& text);
  static ScenarioMatrix load(const std::string& path);
};

}  // namespace hmpt::campaign
