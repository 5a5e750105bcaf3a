#include "campaign/aggregate.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <ostream>

#include "common/error.h"
#include "common/units.h"
#include "core/report.h"

namespace hmpt::campaign {

namespace {

bool has_outcome(const ScenarioRun& run) {
  return run.status == ScenarioRun::Status::Executed ||
         run.status == ScenarioRun::Status::Cached;
}

}  // namespace

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

std::string campaign_fingerprint(const CampaignResult& result) {
  CampaignHasher hasher;
  for (const auto& run : result.runs) hasher.add(fingerprint_of(run));
  return hasher.digest();
}

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

void write_runs_csv(std::ostream& os, const CampaignResult& result) {
  write_csv_row(os, {"fingerprint", "workload", "platform", "strategy",
                     "tiers", "budget_gb", "reps", "chosen_config",
                     "speedup", "baseline_time_s", "chosen_time_s",
                     "hbm_usage", "configs_measured", "measurements"});
  for (const auto& run : result.runs) {
    if (!has_outcome(run)) continue;
    const auto& s = run.scenario;
    const auto& o = run.outcome;
    write_csv_row(os, {fingerprint_of(run), s.workload.to_string(),
                       s.platform, s.strategy, std::to_string(s.tiers),
                       budget_text(s), std::to_string(s.repetitions),
                       tuner::mask_label(o.chosen_mask, o.num_groups,
                                         o.num_tiers),
                       cell(o.speedup(), 4), cell(o.baseline_time, 6),
                       cell(o.chosen_time, 6), cell(o.hbm_usage(), 4),
                       std::to_string(o.configs_measured),
                       std::to_string(o.measurements)});
  }
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

void write_summary_json(std::ostream& os, const CampaignResult& result) {
  int with_outcome = 0;
  int failed = 0;
  for (const auto& run : result.runs) {
    if (has_outcome(run)) ++with_outcome;
    if (run.status == ScenarioRun::Status::Failed) ++failed;
  }

  JsonObject head;
  head["campaign"] = Json(campaign_fingerprint(result));
  head["scenarios"] = Json(static_cast<int>(result.runs.size()));
  head["with_outcome"] = Json(with_outcome);
  head["failed"] = Json(failed);

  JsonArrayStream runs(os, head, "runs");
  for (const auto& run : result.runs) {
    JsonObject r;
    r["fingerprint"] = Json(fingerprint_of(run));
    r["scenario"] = run.scenario.to_json();
    if (has_outcome(run)) r["speedup"] = Json(run.outcome.speedup());
    if (run.status == ScenarioRun::Status::Failed)
      r["error"] = Json(run.error);
    runs.push(Json(std::move(r)));
  }
  runs.finish();
}

void write_status_json(std::ostream& os, const CampaignResult& result) {
  JsonObject head;
  head["scenarios"] = Json(static_cast<int>(result.runs.size()));
  head["executed"] = Json(result.executed);
  head["cached"] = Json(result.cached);
  head["failed"] = Json(result.failed);
  head["planned"] = Json(result.planned);
  head["seconds"] = Json(result.seconds);

  JsonArrayStream runs(os, head, "runs");
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
    runs.push(Json(std::move(r)));
  }
  runs.finish();
}

void write_file(const std::string& path,
                const std::function<void(std::ostream&)>& write) {
  std::ofstream os(path, std::ios::binary);
  if (!os.good()) raise("cannot write " + path);
  write(os);
  os.flush();
  if (!os.good()) raise("short write to " + path);
  os.close();
  if (os.fail()) raise("short write to " + path + " (at close)");
}

void publish_file(const std::string& path,
                  const std::function<void(std::ostream&)>& write) {
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  try {
    write_file(tmp, write);
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) raise("cannot publish " + path + ": " + ec.message());
  } catch (...) {
    std::remove(tmp.c_str());
    throw;
  }
}

std::vector<std::string> write_artifacts(const CampaignResult& result,
                                         const std::string& output_dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(output_dir, ec);
  if (ec)
    raise("cannot create campaign output dir " + output_dir + ": " +
          ec.message());

  using Writer = void (*)(std::ostream&, const CampaignResult&);
  const auto write = [&](const char* name, Writer writer) {
    const std::string path = (fs::path(output_dir) / name).string();
    write_file(path, [&](std::ostream& os) { writer(os, result); });
    return path;
  };
  return {write("runs.csv", write_runs_csv),
          write("summary.json", write_summary_json),
          write("status.json", write_status_json)};
}

}  // namespace hmpt::campaign
