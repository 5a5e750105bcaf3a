// summary.h — the paper's headline analysis of a placement sweep.
//
// Produces the quantities of Table II and the summary views (Figs. 7b,
// 9-15): maximum speedup and its configuration, HBM-only speedup, the
// 90 %-of-max threshold, and the minimum HBM footprint that reaches it.
#pragma once

#include <vector>

#include "core/estimator.h"
#include "core/experiment.h"

namespace hmpt::tuner {

struct SummaryPoint {
  ConfigMask mask = 0;
  double hbm_usage = 0.0;
  double speedup = 0.0;
  double estimate = 0.0;  ///< linear-estimator speedup
  bool single_group = false;
};

struct SummaryAnalysis {
  int num_groups = 0;  ///< arity of the analysed space
  int num_tiers = 2;   ///< tier count of the analysed space
  double max_speedup = 0.0;
  ConfigMask max_mask = 0;
  double max_usage = 0.0;        ///< HBM usage of the best configuration
  double hbm_only_speedup = 0.0;
  double threshold90 = 0.0;      ///< 1 + 0.9 (max - 1)
  /// Smallest-footprint configuration with speedup >= threshold90.
  ConfigMask usage90_mask = 0;
  double usage90 = 0.0;          ///< its HBM usage (Table II last column)
  double usage90_speedup = 0.0;
  std::vector<SummaryPoint> points;  ///< the full scatter (Fig. 7b)
};

/// Analyse a finished sweep, whose HBM usage comes from `weights`.
/// `fraction` generalises the 90 % criterion.
SummaryAnalysis summarize(const SweepResult& sweep,
                          const GroupWeights& weights, double fraction = 0.9);

}  // namespace hmpt::tuner
