#include "campaign/aggregate.h"

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "common/error.h"
#include "common/units.h"
#include "core/report.h"

namespace hmpt::campaign {

namespace {

bool has_outcome(const ScenarioRun& run) {
  return run.status == ScenarioRun::Status::Executed ||
         run.status == ScenarioRun::Status::Cached;
}

/// The content address captured when the scenario ran; recomputed only
/// for hand-built results that never went through a runner or merge.
std::string fingerprint_of(const ScenarioRun& run) {
  return run.fingerprint.empty() ? run.scenario.fingerprint()
                                 : run.fingerprint;
}

std::string budget_text(const Scenario& s) {
  std::string out = cell(s.budget_gb, 1);
  for (const auto& [tier, gb] : s.tier_budgets_gb) {
    out.append(";").append(std::to_string(tier));
    out.append(":").append(cell(gb, 1));
  }
  return out;
}

}  // namespace

Table plan_table(const std::vector<Scenario>& scenarios) {
  Table table({"#", "workload", "platform", "strategy", "tiers", "budget_gb",
               "reps", "fingerprint"});
  int index = 0;
  for (const auto& s : scenarios)
    table.add_row({std::to_string(++index), s.workload.to_string(),
                   s.platform, s.strategy, std::to_string(s.tiers),
                   budget_text(s), std::to_string(s.repetitions),
                   s.fingerprint()});
  return table;
}

Table runs_table(const CampaignResult& result) {
  Table table({"fingerprint", "workload", "platform", "strategy", "tiers",
               "budget_gb", "reps", "chosen_config", "speedup",
               "baseline_time_s", "chosen_time_s", "hbm_usage",
               "configs_measured", "measurements"});
  for (const auto& run : result.runs) {
    if (!has_outcome(run)) continue;
    const auto& s = run.scenario;
    const auto& o = run.outcome;
    table.add_row({fingerprint_of(run), s.workload.to_string(), s.platform,
                   s.strategy, std::to_string(s.tiers), budget_text(s),
                   std::to_string(s.repetitions),
                   tuner::mask_label(o.chosen_mask, o.num_groups,
                                     o.num_tiers),
                   cell(o.speedup(), 4), cell(o.baseline_time, 6),
                   cell(o.chosen_time, 6), cell(o.hbm_usage(), 4),
                   std::to_string(o.configs_measured),
                   std::to_string(o.measurements)});
  }
  return table;
}

std::vector<const ScenarioRun*> ranked_runs(const CampaignResult& result) {
  std::vector<const ScenarioRun*> ranked;
  for (const auto& run : result.runs)
    if (has_outcome(run)) ranked.push_back(&run);
  std::sort(ranked.begin(), ranked.end(),
            [](const ScenarioRun* a, const ScenarioRun* b) {
              if (a->outcome.speedup() != b->outcome.speedup())
                return a->outcome.speedup() > b->outcome.speedup();
              return a->scenario.label() < b->scenario.label();
            });
  return ranked;
}

Table ranked_table(const CampaignResult& result) {
  const std::vector<const ScenarioRun*> ranked = ranked_runs(result);

  Table table({"rank", "scenario", "speedup", "chosen config", "HBM usage",
               "configs"});
  int rank = 0;
  for (const ScenarioRun* run : ranked) {
    const auto& o = run->outcome;
    table.add_row({std::to_string(++rank), run->scenario.label(),
                   cell(o.speedup(), 2) + "x",
                   tuner::mask_label(o.chosen_mask, o.num_groups,
                                     o.num_tiers),
                   format_percent(o.hbm_usage()),
                   std::to_string(o.configs_measured)});
  }
  return table;
}

Json summary_json(const CampaignResult& result) {
  int with_outcome = 0;
  int failed = 0;
  std::vector<std::string> fingerprints;
  for (const auto& run : result.runs) {
    fingerprints.push_back(fingerprint_of(run));
    if (has_outcome(run)) ++with_outcome;
    if (run.status == ScenarioRun::Status::Failed) ++failed;
  }

  JsonObject o;
  o["campaign"] = Json(campaign_fingerprint(fingerprints));
  o["scenarios"] = Json(static_cast<int>(result.runs.size()));
  o["with_outcome"] = Json(with_outcome);
  o["failed"] = Json(failed);

  JsonArray runs;
  for (const auto& run : result.runs) {
    JsonObject r;
    r["fingerprint"] = Json(fingerprint_of(run));
    r["scenario"] = run.scenario.to_json();
    if (has_outcome(run)) r["speedup"] = Json(run.outcome.speedup());
    if (run.status == ScenarioRun::Status::Failed)
      r["error"] = Json(run.error);
    runs.push_back(Json(std::move(r)));
  }
  o["runs"] = Json(std::move(runs));
  return Json(std::move(o));
}

Json status_json(const CampaignResult& result) {
  JsonObject o;
  o["scenarios"] = Json(static_cast<int>(result.runs.size()));
  o["executed"] = Json(result.executed);
  o["cached"] = Json(result.cached);
  o["failed"] = Json(result.failed);
  o["planned"] = Json(result.planned);
  o["seconds"] = Json(result.seconds);

  JsonArray runs;
  for (const auto& run : result.runs) {
    JsonObject r;
    r["fingerprint"] = Json(fingerprint_of(run));
    r["status"] = Json(std::string(to_string(run.status)));
    if (run.status == ScenarioRun::Status::Executed)
      r["seconds"] = Json(run.seconds);
    if (run.status == ScenarioRun::Status::Failed)
      r["error"] = Json(run.error);
    // Attempt counts are volatile (retry timing varies run to run) and
    // belong here, never in runs.csv/summary.json — those stay
    // byte-identical across faulty and fault-free runs.
    if (run.attempts > 0) r["attempts"] = Json(run.attempts);
    runs.push_back(Json(std::move(r)));
  }
  o["runs"] = Json(std::move(runs));
  return Json(std::move(o));
}

std::vector<std::string> write_artifacts(const CampaignResult& result,
                                         const std::string& output_dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(output_dir, ec);
  if (ec)
    raise("cannot create campaign output dir " + output_dir + ": " +
          ec.message());

  const auto write = [&](const std::string& name, const std::string& text) {
    const std::string path = (fs::path(output_dir) / name).string();
    std::ofstream os(path);
    if (!os.good()) raise("cannot write " + path);
    os << text;
    os.flush();
    if (!os.good()) raise("short write to " + path);
    return path;
  };

  return {write("runs.csv", runs_table(result).to_csv()),
          write("summary.json", summary_json(result).dump()),
          write("status.json", status_json(result).dump())};
}

}  // namespace hmpt::campaign
