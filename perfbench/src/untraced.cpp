// untraced.cpp — the end-to-end run: set-up, then the timed phases.
//
// Set-up is timed as process CPU time, every thread included: the work it
// does is fixed, but on a shared host its wall time also holds waits for
// the disk (a set-up writes thousands of store files) and for CPUs other
// tenants hold, and those waits drift twofold within half an hour. Each
// part of the set-up runs kSetupRepetitions times and its median counts;
// each repetition starts once the filesystem has written back what the
// run wrote before it, so no repetition shares the disk with that
// writeback.
//
// The phases run one after another, each repeating whole units (a pass,
// or a daemon request) within its share of --seconds. Their times are
// wall time minus the time spent in fsync/fdatasync within them
// (WorkTimer): the flush latency of a shared disk swings threefold within
// a minute, which no code change controls. The flushes still run, with
// the shipped policy; their count and wait are per-layer metrics of the
// traced run. Per-scenario cold times are ScenarioRun::seconds as the
// runner measures it, flushes included.
#include <filesystem>
#include <functional>
#include <iostream>
#include <map>
#include <memory>

#include "bench.h"
#include "campaign/aggregate.h"
#include "campaign/merge.h"
#include "common/error.h"
#include "core/outcome_io.h"
#include "daemon_client.h"
#include "service/protocol.h"
#include "support.h"

namespace fs = std::filesystem;

namespace perfbench {

using namespace hmpt::campaign;

namespace {

/// Run `unit` at least `min_units` (>= 1) times, then again while one
/// more unit of the mean length so far still fits in `budget_s`, or until
/// it returns false (nothing left to do). Every unit counts; returns how
/// many ran.
std::size_t repeat_within(double budget_s, std::size_t min_units,
                          const std::function<bool()>& unit) {
  const auto start = Clock::now();
  std::size_t units = 0;
  while (units < min_units ||
         seconds_since(start) * static_cast<double>(units + 1) /
                 static_cast<double>(units) <=
             budget_s) {
    if (!unit()) break;
    ++units;
  }
  return units;
}

/// Canonical compact encoding of a stored outcome, for equality checks.
std::string canonical_outcome(const OutcomeStore& store,
                              const std::string& fingerprint) {
  const auto outcome = store.load_by_fingerprint(fingerprint);
  HMPT_REQUIRE(outcome.has_value(), "store lacks " + fingerprint);
  return hmpt::tuner::outcome_to_json(*outcome).dump(-1);
}

}  // namespace

RunReport run_untraced(const RunOptions& options) {
  const WorkloadDef& def = *options.workload;
  const std::string& work = options.work_dir;
  const std::string socket = path_in(work, "d.sock");
  RunReport report;

  // ---- set-up: matrix, warm-up, daemon start. The last repetition's
  // daemon serves the daemon phases.
  Samples setup_s;
  std::vector<Scenario> scenarios;
  std::unique_ptr<DaemonClient> daemon;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    daemon.reset();  // teardown is not set-up work
    flush_filesystem(work);
    const std::string tag = std::to_string(rep);
    const CpuTimer timer;
    scenarios = make_matrix(def, options.seed).expand();
    warm_up(scenarios, path_in(work, "warm-" + tag));
    daemon = std::make_unique<DaemonClient>(socket,
                                            path_in(work, "daemon-" + tag));
    setup_s.add(timer.seconds());
  }
  const std::size_t n = scenarios.size();
  report.check(n == def.scenarios,
               "matrix expanded to " + std::to_string(n) + " scenarios, not " +
                   std::to_string(def.scenarios));

  // ---- cold: empty store, every scenario executes and is persisted. The
  // first pass's store feeds resume, merge and the result checks. No store
  // is deleted before set-up is done: ext4 passes over recently deleted
  // inodes when it allocates one, so deleting thousands of files makes
  // the set-up's file creation costlier for minutes.
  std::string store_dir;
  std::string reference;
  Samples scenario_ms;
  double cold_s = 0.0;
  std::size_t cold_index = 0;
  const std::size_t cold_passes =
      repeat_within(options.seconds * def.cold_share, 1, [&] {
        const std::string dir =
            path_in(work, "cold-" + std::to_string(cold_index++));
        const WorkTimer timer;
        const auto result = CampaignRunner(batch_options(dir)).run(scenarios);
        write_outputs(result, dir);
        cold_s += timer.work_s();
        for (const auto& run : result.runs) {
          report.check(run.status == ScenarioRun::Status::Executed,
                       "cold pass did not execute " + run.fingerprint);
          scenario_ms.add(run.seconds * 1e3);
        }
        const std::string artefacts = deterministic_artifacts(dir);
        if (reference.empty()) reference = artefacts;
        report.check(artefacts == reference,
                     "cold pass artefacts differ between passes");
        if (store_dir.empty()) store_dir = dir;
        return true;
      });

  // ---- set-up, continued: the merge input, three shard stores cut from
  // the first cold store.
  Samples shards_s;
  std::vector<std::string> shard_dirs;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    flush_filesystem(work);
    const CpuTimer timer;
    shard_dirs = build_shards(scenarios, store_dir,
                              path_in(work, "shards-" + std::to_string(rep)));
    shards_s.add(timer.seconds());
  }
  for (std::size_t k = 1; k < cold_index; ++k)
    fs::remove_all(path_in(work, "cold-" + std::to_string(k)));

  // ---- resume: every scenario is a store hit; artefacts are rewritten.
  double resume_s = 0.0;
  const std::size_t resume_passes =
      repeat_within(options.seconds * def.resume_share, 1, [&] {
        auto resume_options = batch_options(store_dir);
        resume_options.resume = true;
        const WorkTimer timer;
        const auto result = CampaignRunner(resume_options).run(scenarios);
        write_outputs(result, store_dir);
        resume_s += timer.work_s();
        for (const auto& run : result.runs)
          report.check(run.status == ScenarioRun::Status::Cached,
                       "resume missed " + run.fingerprint);
        report.check(deterministic_artifacts(store_dir) == reference,
                     "resumed artefacts differ from the cold pass");
        return true;
      });

  // ---- merge: union the three shard stores.
  double merge_s = 0.0;
  const std::size_t merge_passes =
      repeat_within(options.seconds * def.merge_share, 1, [&] {
        const std::string dir = path_in(work, "merged");
        fs::remove_all(dir);
        MergeStats stats;
        const WorkTimer timer;
        const auto merged = merge_shards(shard_dirs, dir, &stats);
        merge_s += timer.work_s();
        report.check(stats.scenarios == static_cast<int>(n) &&
                         merged.cached == static_cast<int>(n),
                     "merge did not reproduce every scenario");
        write_artifacts(merged, dir);
        report.check(deterministic_artifacts(dir) == reference,
                     "merged artefacts differ from the cold pass");
        return true;
      });

  // ---- daemon jobs: submit on an empty store, wait for the watch event.
  Samples job_ms;
  std::vector<std::string> done;
  repeat_within(options.seconds * def.daemon_share, kMinDaemonJobs, [&] {
    if (done.size() == n) return false;
    const Scenario& scenario = scenarios[done.size()];
    const WorkTimer timer;
    const auto ms = daemon->run_job(scenario);
    report.check(ms.has_value(),
                 "daemon job failed for " + scenario.fingerprint());
    if (!ms) return false;
    job_ms.add(*ms - timer.fsync_ms());
    done.push_back(scenario.fingerprint());
    return true;
  });

  // ---- daemon results: fetch the first few finished jobs round robin.
  // The first response for a fingerprint must decode to the batch store's
  // outcome; every later one must repeat its bytes (compared by hash).
  Samples result_ms;
  std::map<std::string, std::size_t> verified;  // fingerprint -> line hash
  const OutcomeStore batch_store(store_dir, StoreFormat::Dir);
  repeat_within(options.seconds * def.result_share, kMinResultFetches, [&] {
    if (done.empty()) return false;
    const std::string fingerprint =
        done[result_ms.size() % std::min(done.size(), kResultFingerprints)];
    double ms = 0.0;
    const std::string line = daemon->result_line(fingerprint, &ms);
    result_ms.add(ms);
    const std::size_t hash = std::hash<std::string>{}(line);
    const auto seen = verified.find(fingerprint);
    if (seen != verified.end()) {
      report.check(seen->second == hash,
                   "daemon result changed between fetches of " + fingerprint);
      return true;
    }
    const auto message = hmpt::service::parse_server_message(line);
    const bool same =
        message.ok &&
        hmpt::tuner::outcome_to_json(
            hmpt::tuner::outcome_from_json(message.body.at("outcome")))
                .dump(-1) == canonical_outcome(batch_store, fingerprint);
    report.check(same, "daemon result differs from the batch store for " +
                           fingerprint);
    verified[fingerprint] = hash;
    return true;
  });
  daemon.reset();

  std::cout << "set-up CPU s: matrix, warm-up and daemon";
  for (double v : setup_s.values()) std::cout << " " << v;
  std::cout << "; shard stores";
  for (double v : shards_s.values()) std::cout << " " << v;
  std::cout << "\n";
  std::cout << "passes: cold " << cold_passes << ", resume " << resume_passes
            << ", merge " << merge_passes << "; daemon jobs " << job_ms.size()
            << ", result fetches " << result_ms.size() << "\n";

  report.metric("setup_s", setup_s.percentile(50) + shards_s.percentile(50),
                "s");
  report.layer_metric("cold_scenarios_per_s",
                      static_cast<double>(n * cold_passes) / cold_s, "1/s");
  report.layer_metric("cold_scenario_ms_p50", scenario_ms.percentile(50),
                      "ms");
  report.layer_metric("cold_scenario_ms_p90", scenario_ms.percentile(90),
                      "ms");
  report.layer_metric("resume_scenarios_per_s",
                      static_cast<double>(n * resume_passes) / resume_s,
                      "1/s");
  report.layer_metric("merge_scenarios_per_s",
                      static_cast<double>(n * merge_passes) / merge_s, "1/s");
  report.layer_metric("daemon_job_ms_p50", job_ms.percentile(50), "ms");
  report.layer_metric("daemon_job_ms_p90", job_ms.percentile(90), "ms");
  report.layer_metric("result_ms_p50", result_ms.percentile(50), "ms");
  report.layer_metric("result_ms_p90", result_ms.percentile(90), "ms");
  report.metric("store_bytes_per_scenario",
                static_cast<double>(store_bytes(store_dir)) /
                    static_cast<double>(n),
                "bytes");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  return report;
}

}  // namespace perfbench
