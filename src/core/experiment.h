// experiment.h — the measurement campaign over the configuration space.
//
// For a fixed workload, the runner measures every placement configuration
// n times on the (simulated) platform and aggregates the run times, whose
// ratio to the all-DDR baseline is the speedup — the roughly 2^|AG| * n
// measurements of Sec. III-A on the paper's two-tier platform, k^|AG| * n
// on a k-tier machine.
//
// The campaign is the tuner's hot path. It runs as one serial loop in the
// calling thread, memoized: a CachedTraceTimer re-times only the phases
// whose allocation group moved tier, exploiting the Gray-order enumeration
// (one group moves one tier per step, at any k), and the deterministic
// trace time is computed once per configuration with per-repetition noise
// applied on top instead of re-timing every repetition. Memoization is
// exact: the cache stores the solver's exact doubles, and the simulator's
// per-(mask, repetition) noise streams are order-independent, so a sweep
// equals timing every config afresh, bit for bit. Concurrency lives one
// level up, across scenarios (campaign --jobs, fleet and daemon workers).
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "core/config_space.h"
#include "simmem/simulator.h"
#include "workloads/workload.h"

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
  /// given) fires once per configuration, in Gray order (baseline first) —
  /// the hook the strategy layer uses for progress reporting.
  SweepResult sweep(const workloads::Workload& workload,
                    const ConfigSpace& space);
  SweepResult sweep(const workloads::Workload& workload,
                    const ConfigSpace& space,
                    const ConfigCallback& on_config);

  /// Measure a batch of configurations; results are returned in the order
  /// of `masks`. The partial-space counterpart of sweep() for strategies
  /// that probe selected configurations.
  std::vector<ConfigResult> measure_batch(const workloads::Workload& workload,
                                          const ConfigSpace& space,
                                          const std::vector<ConfigMask>& masks);

 private:
  /// The one measurement loop: time `masks` in order through one timer and
  /// one refilled placement, handing each result and its index to `emit`.
  void measure_each(
      const workloads::Workload& workload, const ConfigSpace& space,
      const std::vector<ConfigMask>& masks,
      const std::function<void(std::size_t, const ConfigResult&)>& emit) const;

  sim::MachineSimulator* sim_;
  sim::ExecutionContext ctx_;
  ExperimentOptions options_;
};

}  // namespace hmpt::tuner
