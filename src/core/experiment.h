// experiment.h — the measurement campaign over the configuration space.
//
// For a fixed workload, the runner measures every placement configuration
// n times on the (simulated) platform and aggregates the run times, whose
// ratio to the all-DDR baseline is the speedup — the roughly 2^|AG| * n
// measurements of Sec. III-A on the paper's two-tier platform, k^|AG| * n
// on a k-tier machine.
//
// The campaign is the tuner's hot path, so the runner scales it two ways:
//   * parallelism — `jobs` worker threads split the enumeration into
//     contiguous chunks (the simulator is const and thread-safe);
//   * memoization — each worker re-times only the phases whose allocation
//     group moved tier, exploiting the Gray-order enumeration (one group
//     moves one tier per step, at any k) through a per-worker
//     CachedTraceTimer, and the deterministic trace time is computed once
//     per configuration with per-repetition noise applied on top instead
//     of re-timing every repetition.
// Both are exact: serial and parallel sweeps equal timing every config
// afresh, bit for bit (the simulator's per-(mask, repetition) noise
// streams are order-independent, and the cache stores exact doubles).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/config_space.h"
#include "simmem/simulator.h"
#include "simmem/timing_cache.h"
#include "workloads/workload.h"

namespace hmpt {
class ThreadPool;
}

namespace hmpt::tuner {

/// Aggregated result of one placement configuration: what was measured.
/// Every value derived from it (speedup, HBM usage and density, groups in
/// HBM) is one function below, of the row, the baseline and the weights.
struct ConfigResult {
  ConfigMask mask = 0;
  double mean_time = 0.0;
  double stddev_time = 0.0;
};

/// The per-group weights a configuration's HBM fractions are sums of:
/// group footprints (ConfigSpace::group_bytes/total_bytes) and the bytes
/// each group's streams access in the workload's trace.
struct GroupWeights {
  std::vector<double> footprint_bytes;
  double footprint_total = 0.0;
  std::vector<double> traffic_bytes;
  double traffic_total = 0.0;
};

/// The weights of `workload` placed over `space`.
GroupWeights group_weights(const workloads::Workload& workload,
                           const ConfigSpace& space);

// The derived values, one definition each. The HBM fractions sum the
// weights of the groups in HBM (tier 1) in group order from 0.0, so a
// value is bit-for-bit the same wherever it is computed.

/// Speedup of a run taking `time` over the all-DDR baseline's time; 1
/// when there is no baseline.
double speedup_of(double baseline_time, double time);
/// Fraction of the footprint `mask` places in HBM.
double hbm_usage_of(const GroupWeights& weights, ConfigMask mask,
                    int num_tiers);
/// Fraction of the trace's bytes `mask` serves from HBM; 0 when the trace
/// moves no bytes.
double hbm_density_of(const GroupWeights& weights, ConfigMask mask,
                      int num_tiers);
/// Groups `mask` places outside the DDR baseline tier (for two tiers: the
/// popcount of the HBM bitmask).
int groups_in_hbm_of(ConfigMask mask, int num_groups, int num_tiers);

struct ExperimentOptions {
  int repetitions = 3;  ///< n runs averaged per configuration
  /// Worker threads measuring configurations; 1 = serial in the calling
  /// thread, 0 = all hardware threads. Results are bit-identical at any
  /// job count.
  int jobs = 1;
};

/// Full sweep outcome.
struct SweepResult {
  std::vector<ConfigResult> configs;  ///< sorted by mask; [0] = all-DDR
  double baseline_time = 0.0;

  /// The result of `mask`. Throws hmpt::Error when the sweep holds no such
  /// configuration (out-of-range mask, or a table that was never measured
  /// at that mask) instead of returning an unrelated or zeroed entry.
  const ConfigResult& of(ConfigMask mask) const;
  const ConfigResult& all_ddr() const { return of(0); }
  /// The configuration with every group in HBM (tier 1); on a two-tier
  /// sweep this is the last configuration, as before.
  const ConfigResult& all_hbm() const;
  int num_groups = 0;
  int num_tiers = 2;  ///< tier count of the space the sweep enumerated
};

/// Observer invoked after each configuration finishes measuring.
using ConfigCallback = std::function<void(const ConfigResult&)>;

class ExperimentRunner {
 public:
  ExperimentRunner(sim::MachineSimulator& sim, sim::ExecutionContext ctx,
                   ExperimentOptions options = {});

  /// Measure every configuration of `space` for `workload`, enumerated in
  /// Gray order; results are returned sorted by mask. `on_config` (when
  /// given) fires once per configuration, always from the calling thread
  /// and always in Gray order (baseline first) whatever the job count —
  /// the hook the strategy layer uses for progress reporting.
  SweepResult sweep(const workloads::Workload& workload,
                    const ConfigSpace& space);
  SweepResult sweep(const workloads::Workload& workload,
                    const ConfigSpace& space,
                    const ConfigCallback& on_config);

  /// Measure a single configuration (n repetitions).
  ConfigResult measure(const workloads::Workload& workload,
                       const ConfigSpace& space, ConfigMask mask);

  /// Measure a batch of configurations (in parallel when options.jobs says
  /// so); results are returned in the order of `masks` and are identical
  /// to measuring each mask serially. The partial-space counterpart of
  /// sweep() for strategies that probe selected configurations.
  std::vector<ConfigResult> measure_batch(const workloads::Workload& workload,
                                          const ConfigSpace& space,
                                          const std::vector<ConfigMask>& masks);

  /// The worker-thread count a sweep will actually use.
  int resolved_jobs() const;

 private:
  /// Measure `mask`, refilling `placement` (one group per entry) with it.
  ConfigResult measure_config(const sim::PhaseTrace& trace,
                              const ConfigSpace& space, ConfigMask mask,
                              sim::Placement& placement,
                              sim::CachedTraceTimer* timer) const;

  /// The worker pool, created on the first parallel campaign and reused
  /// across sweeps and batches (its threads persist).
  ThreadPool& pool();

  sim::MachineSimulator* sim_;
  sim::ExecutionContext ctx_;
  ExperimentOptions options_;
  std::shared_ptr<ThreadPool> pool_;  ///< shared so runners stay copyable
};

}  // namespace hmpt::tuner
