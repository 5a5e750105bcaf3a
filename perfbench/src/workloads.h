// workloads.h — the benchmark's named workloads and their seeded inputs.
//
// Each workload is a scenario matrix generated from --seed: the seed picks
// the app-model `scale` values and the HBM budgets, and the program only
// ever sees the expanded scenario list. The matrix shape (apps, platforms,
// strategies, axis lengths) is fixed per workload, so every seed yields
// the same scenario count and the same mix of work.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/scenario.h"

namespace perfbench {

struct WorkloadDef {
  std::string name;
  /// Scenarios per cold pass, identical for every seed.
  std::size_t scenarios = 0;
  /// Share of --seconds each timed phase may use before it starts no
  /// further unit (pass or request): cold, resume, merge, daemon jobs,
  /// daemon results.
  double cold_share = 0.0;
  double resume_share = 0.0;
  double merge_share = 0.0;
  double daemon_share = 0.0;
  double result_share = 0.0;
  /// Daemon jobs and result fetches the traced run makes (fixed, so the
  /// service counters repeat exactly).
  int traced_daemon_jobs = 0;
  int traced_cache_resubmits = 0;
  int traced_results = 0;
};

/// The known workloads, in BENCHMARK.json order.
const std::vector<WorkloadDef>& workload_defs();

/// Look up a workload by name; throws hmpt::Error for unknown names.
const WorkloadDef& workload_def(const std::string& name);

/// The seeded scenario matrix of a workload (not yet expanded).
hmpt::campaign::ScenarioMatrix make_matrix(const WorkloadDef& def,
                                           std::uint64_t seed);

}  // namespace perfbench
