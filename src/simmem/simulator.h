// simulator.h — convenience front-end bundling machine, calibration, cache
// hierarchy, pool model and solver into a single timing oracle.
//
// This is the "platform" the rest of hmpt runs against: the ExperimentRunner
// asks it for workload runtimes under a placement; the platform-analysis
// benches (Figs. 2-5) ask it for STREAM bandwidths, chase latencies and
// random-access throughput; optional measurement noise emulates run-to-run
// variance of a real machine so the n-repetition averaging in the tuner is
// exercised meaningfully.
//
// k-tier memory model: a Placement assigns every allocation group one
// memory tier — a topo::PoolKind, whose enum value is the tier index (0 =
// DDR baseline, 1 = HBM, 2 = CXL-class expansion memory). Each tier has
// its own bandwidth/latency calibration (PoolCalibration in config.h); the
// solver times every pool the phase touches and takes the bottleneck, so
// adding a tier never changes the timing of placements that do not use it.
// Two-tier machines are a strict special case of the k-tier model: a
// DDR/HBM machine produces bit-identical times, noise streams, chosen
// placements and report bytes to the original two-pool implementation
// (tests/tier_equivalence_test.cpp locks this down).
//
// Determinism guarantee: the simulator is fully const after construction —
// no shared RNG, no mutable state — so every timing query is thread-safe.
// Measurement noise is drawn from counter-based streams keyed by
// MeasurementKey{stream, repetition}: the noisy time of a given
// (configuration-id, repetition) pair is a pure function of the noise seed
// and that key, independent of how many other measurements ran before it,
// from which thread, or in which order. The configuration id is the
// mixed-radix code of the placement (digit g, base num_tiers, = group g's
// tier), which for two tiers is exactly the legacy placement bitmask — so
// two-tier noise streams are unchanged. A sweep in any order and a
// cheaper strategy (estimator, online) that touch the same keys therefore
// observe bit-identical measured times.
#pragma once

#include <optional>

#include "common/rng.h"
#include "simmem/cache.h"
#include "simmem/config.h"
#include "simmem/phase.h"
#include "simmem/pool_model.h"
#include "simmem/roofline.h"
#include "simmem/solver.h"
#include "topo/machine.h"

namespace hmpt::sim {

/// Multiplicative log-normal-ish measurement noise applied per run.
struct NoiseModel {
  double relative_sigma = 0.0;  ///< 0 disables noise
  std::uint64_t seed = 42;
};

/// Identity of one simulated measurement, used to seed its noise stream.
/// `stream` names the configuration being measured (the tuner passes the
/// placement ConfigMask); `repetition` counts repeated runs of the same
/// configuration (the runner's n repetitions, or the online tuner's
/// revisits of a mask).
struct MeasurementKey {
  std::uint64_t stream = 0;
  std::uint64_t repetition = 0;
};

class MachineSimulator {
 public:
  /// Builds the simulator for `machine` with `config` calibration; the
  /// cache hierarchy defaults to the SPR single-core one (Fig. 3).
  MachineSimulator(topo::Machine machine, MemSystemConfig config,
                   NoiseModel noise = {});

  static MachineSimulator paper_platform();         // dual socket
  static MachineSimulator paper_platform_single();  // one socket (Figs. 2-5)
  /// Three-tier platform: the single-socket paper machine plus a CXL
  /// memory-expander node (topo::cxl_tiered_xeon_max with
  /// cxl_tiered_calibration). The tuner enumerates 3^n placements on it.
  static MachineSimulator cxl_tiered_platform();

  const topo::Machine& machine() const { return machine_; }
  const PoolPerfModel& pool_model() const { return pool_model_; }
  const CacheHierarchy& cache() const { return cache_; }
  const StreamBottleneckSolver& solver() const { return solver_; }
  const MemSystemConfig& config() const { return pool_model_.config(); }

  /// Deterministic (noise-free) runtime of a trace under a placement.
  double time_trace(const PhaseTrace& trace, const Placement& placement,
                    const ExecutionContext& ctx) const;

  /// One "measured" run: deterministic time perturbed by the noise model.
  /// The perturbation is drawn from the counter-based stream named by
  /// `key` (see the determinism guarantee above), so repeated repetitions
  /// of one configuration pass increasing `key.repetition` values.
  double measure_trace(const PhaseTrace& trace, const Placement& placement,
                       const ExecutionContext& ctx,
                       MeasurementKey key) const;

  /// Multiplicative noise factor of the measurement named by `key`
  /// (1.0 when noise is disabled). measure_trace == time_trace * this;
  /// exposed so callers that already know the deterministic time (e.g. a
  /// memoized sweep) can apply repetition noise without re-timing.
  double noise_factor(MeasurementKey key) const;

  /// Achieved STREAM-style bandwidth of a single phase (Figs. 2, 5).
  double phase_bandwidth(const KernelPhase& phase, const Placement& placement,
                         const ExecutionContext& ctx) const;

  /// Single-core pointer-chase latency for a working-set window (Fig. 3).
  double chase_latency(double window_bytes, topo::PoolKind kind) const;

  /// Aggregate random-access throughput (Fig. 4 numerator/denominator).
  double random_access_bandwidth(topo::PoolKind kind, int threads,
                                 int tiles) const;

  /// Default execution context: all cores of the machine.
  ExecutionContext full_machine() const;
  /// Context restricted to one socket with `threads_per_tile` threads/tile.
  ExecutionContext socket_context(int threads_per_tile) const;

 private:
  topo::Machine machine_;
  CacheHierarchy cache_;
  PoolPerfModel pool_model_;
  StreamBottleneckSolver solver_;
  NoiseModel noise_;
};

}  // namespace hmpt::sim
