// bench.h — the two kinds of perfbench run and the steps they share.
//
// An untraced run measures set-up, then the timed phases (cold, resume,
// merge, daemon jobs, daemon results) one after another, each within its
// share of --seconds. Its end-to-end metrics are the ones that hold
// steady on a shared host: set-up CPU time, store bytes and peak RSS. The
// phase timings are per-layer metrics: the host's speed and its disk's
// flush latency drift by 20-50% over tens of minutes, more than any
// bound a gate could use. A traced run arms the obs recorder, calls each
// layer's public entry point one by one inside a span named after the
// layer, and reports the per-layer metrics.
//
// Load model (both runs): one process, one workload, closed loop, pinned
// to one CPU. Batch phases run serially (scenario_jobs = 1,
// measure_jobs = 1); the daemon has one worker and is driven from two
// connections.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/campaign.h"
#include "campaign/scenario.h"
#include "common/json.h"
#include "workloads.h"

namespace perfbench {

struct RunOptions {
  const WorkloadDef* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 30.0;
  /// Scratch root for stores and artefacts; emptied on entry and exit.
  std::string work_dir = ".bench_run";
  /// Chrome trace output of a traced run.
  std::string trace_path;
};

/// What a run measured and whether its outputs were correct.
class RunReport {
 public:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };

  /// Count one attempted operation or check; a false `ok` is a failure
  /// and `what` is reported.
  void check(bool ok, const std::string& what);
  /// Record an end-to-end metric (reported by --trace 0).
  void metric(const std::string& name, double value, const std::string& unit);
  /// Record a per-layer metric (reported by --trace 1).
  void layer_metric(const std::string& name, double value,
                    const std::string& unit);
  /// Add another report's counts, errors and metrics to this one.
  void absorb(const RunReport& other);

  bool correct() const { return failed_ == 0; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<Metric>& metrics() const { return metrics_; }
  const std::vector<Metric>& layer_metrics() const { return layer_metrics_; }
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<Metric> metrics_;
  std::vector<Metric> layer_metrics_;
  std::vector<std::string> errors_;
};

RunReport run_untraced(const RunOptions& options);
RunReport run_traced(const RunOptions& options);

// ---------------------------------------------------------------- shared

/// Set-up is repeated this many times per untraced run; the median counts.
inline constexpr int kSetupRepetitions = 3;
/// Floors under the time-boxed daemon phases, so percentiles always rest
/// on enough samples.
inline constexpr std::size_t kMinDaemonJobs = 20;
inline constexpr std::size_t kMinResultFetches = 20;
/// Result fetches cycle over this many finished jobs.
inline constexpr std::size_t kResultFingerprints = 8;

/// The load model and noise controls a run applies, emitted with every
/// result so perfbench/record.json cannot drift from the code.
/// `cpus` and `malloc_arenas` are what main() managed to set.
hmpt::Json controls_json(const WorkloadDef& def, int cpus, int malloc_arenas);

/// `dir`/`name`.
std::string path_in(const std::string& dir, const std::string& name);

/// Campaign options of every batch pass: dir store under `dir`, serial.
hmpt::campaign::CampaignOptions batch_options(const std::string& dir);

/// Execute, encode, store, read back and decode the first scenario of
/// every (workload, platform) pair, so code, allocator and page cache are
/// warm before anything is timed. Stores under `dir`.
void warm_up(const std::vector<hmpt::campaign::Scenario>& scenarios,
             const std::string& dir);

/// runs.csv + summary.json + status.json + report/index.html under `dir`.
void write_outputs(const hmpt::campaign::CampaignResult& result,
                   const std::string& dir);

/// The deterministic artefacts of a pass (runs.csv + summary.json bytes),
/// for byte-identity checks between passes.
std::string deterministic_artifacts(const std::string& dir);

/// Split the store under `store_dir` into three shard stores (with
/// manifests) under `work_dir`, copying payload bytes with save_payload.
/// Returns the shard directories.
std::vector<std::string> build_shards(
    const std::vector<hmpt::campaign::Scenario>& scenarios,
    const std::string& store_dir, const std::string& work_dir);

/// Bytes of the outcome records of a dir store.
std::uint64_t store_bytes(const std::string& store_dir);

}  // namespace perfbench
