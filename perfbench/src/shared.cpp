#include <filesystem>
#include <set>

#include "bench.h"
#include "campaign/aggregate.h"
#include "campaign/merge.h"
#include "common/error.h"
#include "core/outcome_io.h"
#include "daemon_client.h"
#include "report/report.h"
#include "support.h"

namespace fs = std::filesystem;

namespace perfbench {

using namespace hmpt::campaign;

void RunReport::check(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  errors_.push_back(what);
}

void RunReport::metric(const std::string& name, double value,
                       const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void RunReport::layer_metric(const std::string& name, double value,
                             const std::string& unit) {
  layer_metrics_.push_back({name, value, unit});
}

void RunReport::absorb(const RunReport& other) {
  attempted_ += other.attempted_;
  failed_ += other.failed_;
  errors_.insert(errors_.end(), other.errors_.begin(), other.errors_.end());
  metrics_.insert(metrics_.end(), other.metrics_.begin(),
                  other.metrics_.end());
  layer_metrics_.insert(layer_metrics_.end(), other.layer_metrics_.begin(),
                        other.layer_metrics_.end());
}

hmpt::Json controls_json(const WorkloadDef& def, int cpus, int malloc_arenas) {
  const auto batch = batch_options("");
  hmpt::JsonObject controls;
  controls["cpus"] = hmpt::Json(cpus);
  controls["malloc_arenas"] = hmpt::Json(malloc_arenas);
  controls["batch_scenario_jobs"] = hmpt::Json(batch.scenario_jobs);
  controls["batch_measure_jobs"] = hmpt::Json(batch.measure_jobs);
  controls["store_format"] = hmpt::Json(to_string(batch.store_format));
  controls["daemon_workers"] = hmpt::Json(DaemonClient::kWorkers);
  controls["daemon_connections"] = hmpt::Json(DaemonClient::kConnections);
  controls["setup_repetitions"] = hmpt::Json(kSetupRepetitions);
  controls["min_daemon_jobs"] =
      hmpt::Json(static_cast<std::uint64_t>(kMinDaemonJobs));
  controls["min_result_fetches"] =
      hmpt::Json(static_cast<std::uint64_t>(kMinResultFetches));
  controls["result_fingerprints"] =
      hmpt::Json(static_cast<std::uint64_t>(kResultFingerprints));
  controls["scenarios_per_pass"] =
      hmpt::Json(static_cast<std::uint64_t>(def.scenarios));
  hmpt::JsonObject shares;
  shares["cold"] = hmpt::Json(def.cold_share);
  shares["resume"] = hmpt::Json(def.resume_share);
  shares["merge"] = hmpt::Json(def.merge_share);
  shares["daemon_jobs"] = hmpt::Json(def.daemon_share);
  shares["daemon_results"] = hmpt::Json(def.result_share);
  controls["phase_shares"] = hmpt::Json(std::move(shares));
  controls["traced_daemon_jobs"] = hmpt::Json(def.traced_daemon_jobs);
  controls["traced_cache_resubmits"] = hmpt::Json(def.traced_cache_resubmits);
  controls["traced_result_fetches"] = hmpt::Json(def.traced_results);
  return hmpt::Json(std::move(controls));
}

std::string path_in(const std::string& dir, const std::string& name) {
  return (fs::path(dir) / name).string();
}

CampaignOptions batch_options(const std::string& dir) {
  CampaignOptions options;
  options.output_dir = dir;
  options.store_format = StoreFormat::Dir;
  options.scenario_jobs = 1;
  options.measure_jobs = 1;
  return options;
}

void warm_up(const std::vector<Scenario>& scenarios, const std::string& dir) {
  const OutcomeStore store(dir, StoreFormat::Dir);
  std::set<std::pair<std::string, std::string>> seen;
  for (const auto& scenario : scenarios) {
    if (!seen.insert({scenario.workload.name, scenario.platform}).second)
      continue;
    const auto outcome = CampaignRunner::execute(scenario, 1);
    const std::string fingerprint = scenario.fingerprint();
    store.save_payload(fingerprint, OutcomeStore::make_payload(scenario, outcome));
    const auto payload = store.payload(fingerprint);
    HMPT_REQUIRE(payload.has_value(), "warm-up record did not read back");
    hmpt::tuner::outcome_from_json(hmpt::Json::parse(*payload).at("outcome"));
  }
}

void write_outputs(const CampaignResult& result, const std::string& dir) {
  write_artifacts(result, dir);
  hmpt::report::write_report(result, dir);
}

std::string deterministic_artifacts(const std::string& dir) {
  return slurp(path_in(dir, "runs.csv")) + '\0' +
         slurp(path_in(dir, "summary.json"));
}

std::vector<std::string> build_shards(const std::vector<Scenario>& scenarios,
                                      const std::string& store_dir,
                                      const std::string& work_dir) {
  const OutcomeStore source(store_dir, StoreFormat::Dir);
  const int kShards = 3;
  std::vector<std::string> dirs;
  for (int i = 1; i <= kShards; ++i) {
    const ShardSpec spec{i, kShards};
    const std::string dir = path_in(work_dir, "shard-" + std::to_string(i));
    fs::remove_all(dir);
    const OutcomeStore shard(dir, StoreFormat::Dir);
    CampaignResult slice;
    for (const auto& scenario : shard_scenarios(scenarios, spec)) {
      ScenarioRun run;
      run.scenario = scenario;
      run.fingerprint = scenario.fingerprint();
      run.status = ScenarioRun::Status::Cached;
      const auto payload = source.payload(run.fingerprint);
      HMPT_REQUIRE(payload.has_value(),
                   "cold store lacks " + run.fingerprint);
      shard.save_payload(run.fingerprint, *payload);
      slice.runs.push_back(std::move(run));
    }
    make_manifest(scenarios, spec, slice).save(dir);
    dirs.push_back(dir);
  }
  return dirs;
}

std::uint64_t store_bytes(const std::string& store_dir) {
  return tree_bytes(path_in(store_dir, "outcomes"));
}

}  // namespace perfbench
