#include "workloads.h"

#include <cstdio>

#include "common/error.h"

namespace perfbench {

namespace {

/// splitmix64: a small, well-mixed stream for picking inputs from a seed.
class SeedStream {
 public:
  explicit SeedStream(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// `count` distinct values from the grid lo, lo+1, ..., hi (times `step`),
/// one from each of `count` equal strata: every seed covers the whole
/// range evenly, so the mix of work stays the same from seed to seed.
std::vector<double> pick_strata(SeedStream& stream, int count, int lo, int hi,
                                double step) {
  const int width = (hi - lo + 1) / count;
  HMPT_REQUIRE(width >= 1, "grid too small");
  std::vector<double> values;
  for (int i = 0; i < count; ++i) {
    const auto offset = static_cast<int>(
        stream.next() % static_cast<std::uint64_t>(width));
    values.push_back((lo + i * width + offset) * step);
  }
  return values;
}

std::string scale_text(double scale) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.2f", scale);
  return buffer;
}

/// apps × scales on the workloads axis ("bt:scale=1.37", ...).
std::vector<hmpt::campaign::WorkloadSpec> app_specs(
    const std::vector<std::string>& apps, const std::vector<double>& scales) {
  std::vector<hmpt::campaign::WorkloadSpec> specs;
  for (const auto& app : apps)
    for (double scale : scales)
      specs.push_back(hmpt::campaign::parse_workload_spec(
          app + ":scale=" + scale_text(scale)));
  return specs;
}

}  // namespace

const std::vector<WorkloadDef>& workload_defs() {
  static const std::vector<WorkloadDef> defs = [] {
    WorkloadDef exhaustive;
    exhaustive.name = "exhaustive-3tier";
    exhaustive.scenarios = 102;  // 3 apps x 17 scales x 2 budgets
    // One cold, resume and merge pass each fills a run; the rest of it
    // goes to the daemon, whose samples are the slowest to gather.
    exhaustive.cold_share = 0.20;
    exhaustive.resume_share = 0.20;
    exhaustive.merge_share = 0.10;
    exhaustive.daemon_share = 0.25;
    exhaustive.result_share = 0.25;
    exhaustive.traced_daemon_jobs = 20;
    exhaustive.traced_cache_resubmits = 5;
    exhaustive.traced_results = 10;

    WorkloadDef search;
    search.name = "search-dir";
    search.scenarios = 1008;  // 7 apps x 6 scales x 2 platforms x 2 x 6
    search.cold_share = 0.30;
    search.resume_share = 0.20;
    search.merge_share = 0.15;
    search.daemon_share = 0.25;
    search.result_share = 0.10;
    search.traced_daemon_jobs = 200;
    search.traced_cache_resubmits = 20;
    search.traced_results = 200;
    return std::vector<WorkloadDef>{exhaustive, search};
  }();
  return defs;
}

const WorkloadDef& workload_def(const std::string& name) {
  for (const auto& def : workload_defs())
    if (def.name == name) return def;
  hmpt::raise("unknown workload '" + name +
              "' (expected exhaustive-3tier or search-dir)");
}

hmpt::campaign::ScenarioMatrix make_matrix(const WorkloadDef& def,
                                           std::uint64_t seed) {
  SeedStream stream(seed * 0x100000001b3ULL + def.scenarios);
  hmpt::campaign::ScenarioMatrix matrix;
  if (def.name == "exhaustive-3tier") {
    // The paper's method at the ROADMAP's realistic size: full 3^8 sweeps
    // of the 8-group apps on the three-tier platform.
    matrix.workloads =
        app_specs({"bt", "sp", "ua"}, pick_strata(stream, 17, 50, 200, 0.01));
    matrix.platforms = {"spr-cxl"};
    matrix.strategies = {"exhaustive"};
    matrix.budgets_gb = pick_strata(stream, 2, 16, 48, 1.0);
  } else {
    // Every paper app model under the two search strategies, on the
    // two-tier and the three-tier platform.
    matrix.workloads = app_specs({"mg", "bt", "lu", "sp", "ua", "is", "kwave"},
                                 pick_strata(stream, 6, 50, 200, 0.01));
    matrix.platforms = {"xeon-max", "spr-cxl"};
    matrix.strategies = {"estimator", "online"};
    matrix.budgets_gb = pick_strata(stream, 6, 4, 64, 1.0);
  }
  return matrix;
}

}  // namespace perfbench
