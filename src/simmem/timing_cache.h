// timing_cache.h — incremental memoization of per-phase trace timing.
//
// A phase's time depends only on the placement of the allocation groups it
// actually touches: with |AG| groups total but k << |AG| touched per phase,
// a phase has at most kNumPoolKinds^k distinct timings while the sweep
// visits 2^|AG| configurations. CachedTraceTimer memoizes each phase's
// total keyed by its restricted sub-placement, so a Gray-order sweep —
// where adjacent configurations differ in exactly one group — only
// re-times the phases whose group flipped, turning the per-configuration
// cost from O(phases) into O(touched phases).
//
// The memoized values are the exact doubles StreamBottleneckSolver
// produces, and time() sums them in phase order like time_trace does, so
// cached and uncached timings are bit-identical.
//
// One timer serves one (trace, context) pair and is NOT thread-safe; the
// experiment runner's serial loop keeps one timer per sweep or batch.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "simmem/phase.h"
#include "simmem/solver.h"

namespace hmpt::sim {

class CachedTraceTimer {
 public:
  /// `trace` is kept by reference and must outlive the timer.
  CachedTraceTimer(const StreamBottleneckSolver& solver,
                   const PhaseTrace& trace, ExecutionContext ctx);

  /// Runtime of the trace under `placement`; bit-identical to
  /// solver.time_trace(trace, placement, ctx).
  double time(const Placement& placement);

  /// Cache effectiveness counters (per-phase lookups).
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

 private:
  /// Dense tables are used while kNumPoolKinds^k stays small; phases
  /// touching more groups fall back to a hash map.
  static constexpr std::size_t kDenseLimit = 4096;

  struct PhaseCache {
    std::vector<int> groups;    ///< sorted distinct groups the phase touches
    std::vector<double> dense;  ///< sub-placement key -> total (NaN = empty)
    std::unordered_map<std::uint64_t, double> sparse;
    bool use_dense = true;
  };

  const StreamBottleneckSolver* solver_;
  const PhaseTrace* trace_;
  ExecutionContext ctx_;
  std::vector<PhaseCache> phases_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace hmpt::sim
