// aggregate.h — campaign-wide views of a finished CampaignResult.
//
// Artefacts per campaign, split by stability. runs.csv and summary.json
// are derived *deterministically* from the per-scenario outcomes — the
// same bytes whether the campaign ran cold, resumed, or as N merged
// shards — while everything execution-dependent (statuses, wall times)
// lives in status.json, which is expected to differ between runs:
//   * runs.csv      one row per scenario with the headline numbers
//                   (machine-readable, matrix order),
//   * summary.json  campaign fingerprint + totals + per-scenario records
//                   (scenario, speedup, recorded error) — deterministic,
//   * status.json   executed/cached counts, per-run status and wall
//                   times — the volatile run log,
//   * a ranked text table (common/table) for the terminal, best speedup
//                   first.
// The artefact writers stream to their file one run at a time: memory
// stays one run's text, whatever the campaign's size.
#pragma once

#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "campaign/campaign.h"
#include "common/table.h"

namespace hmpt::campaign {

/// The planned-scenario listing shared by --dry-run and the pre-run plan
/// printout (one row per scenario, matrix order).
Table plan_table(const std::vector<Scenario>& scenarios);

/// The content address captured when the scenario ran; recomputed only
/// for hand-built results that never went through a runner or merge.
std::string fingerprint_of(const ScenarioRun& run);

/// The budget cell of runs.csv and the report: the HBM budget, then
/// `;tier:gb` per tier budget.
std::string budget_text(const Scenario& s);

/// The campaign fingerprint over the runs' captured content addresses,
/// in matrix order.
std::string campaign_fingerprint(const CampaignResult& result);

/// runs.csv: one row per scenario with an outcome (Executed/Cached),
/// matrix order. Deliberately excludes run status and timings: those
/// vary between a cold and a resumed campaign, and runs.csv must not.
void write_runs_csv(std::ostream& os, const CampaignResult& result);

/// Scenarios with outcomes (Executed/Cached) ranked by speedup, best
/// first, ties broken by label for determinism — the ordering shared by
/// the terminal ranking and the HTML report. Pointers into `result`.
std::vector<const ScenarioRun*> ranked_runs(const CampaignResult& result);

/// Scenarios with outcomes ranked by speedup, best first (ties broken by
/// label for determinism).
Table ranked_table(const CampaignResult& result);

/// summary.json: campaign fingerprint + totals + per-scenario records.
/// Deterministic: contains nothing that depends on *how* the outcomes
/// were obtained (cold, resumed or merged from shards), so a merged
/// campaign's summary.json is byte-identical to the unsharded run's.
/// Failures appear with their recorded error message.
void write_summary_json(std::ostream& os, const CampaignResult& result);

/// status.json, the volatile run log: executed/cached/failed/planned
/// counts, campaign wall time, and per-run status + seconds.
/// Deliberately separate from summary.json so the deterministic
/// artefacts stay comparable across resume and shard merges.
void write_status_json(std::ostream& os, const CampaignResult& result);

/// Create `path` and stream `write`'s bytes into it. Throws hmpt::Error
/// naming the path when the file cannot be opened, or when any byte
/// fails to reach it (checked after the last byte and again at close),
/// so a full disk never passes for a finished artefact.
void write_file(const std::string& path,
                const std::function<void(std::ostream&)>& write);

/// write_file() to `path + ".tmp." + pid`, then rename it over `path`, so
/// readers see the old bytes or the new ones, never a torn file. On any
/// failure the temporary is removed, `path` is left as it was, and the
/// error is rethrown.
void publish_file(const std::string& path,
                  const std::function<void(std::ostream&)>& write);

/// Write runs.csv, summary.json and status.json under `output_dir`;
/// returns the paths written. Per-scenario outcome JSONs are already in
/// the store.
std::vector<std::string> write_artifacts(const CampaignResult& result,
                                         const std::string& output_dir);

}  // namespace hmpt::campaign
