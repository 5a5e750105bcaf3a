// analysis.h — the paper's report of an exhaustive sweep.
//
// The tool's workflow (paper Fig. 6) is: record a profiling run as a workload
// (record_workload), tune it through the Session front door (session.h)
// with the "exhaustive" strategy, and turn that outcome into the paper's
// full report with analyze(): summary views, linear-estimator error and
// the minimal placement reaching 90 % of the maximum speedup
// (summary.usage90_mask). The recommended placement is the outcome's own
// chosen placement, so a shim plan for the next run is
// to_placement_plan(groups, outcome.chosen_placement()).
#pragma once

#include <string>
#include <vector>

#include "core/estimator.h"
#include "core/grouping.h"
#include "core/planner.h"
#include "core/report.h"
#include "core/strategy.h"
#include "core/summary.h"
#include "shim/shim_allocator.h"
#include "workloads/recorded.h"

namespace hmpt::tuner {

/// Everything one analysis produces.
struct AnalysisReport {
  /// The exhaustive outcome the analysis is built from: its sweep is the
  /// per-config data, its chosen placement the recommendation (the best
  /// under the session's capacity caps).
  TuningOutcome outcome;
  SummaryAnalysis summary;
  EstimatorError estimator_error;
  DetailedView detailed;
  SummaryView summary_view;

  /// Full human-readable report (tables + charts + recommendation).
  std::string to_text() const;
};

/// Analyse the outcome of an exhaustive Session. `fraction` (in (0, 1])
/// generalises the paper's 90 % criterion. Throws hmpt::Error when the
/// outcome holds no sweep.
AnalysisReport analyze(TuningOutcome exhaustive, double fraction = 0.9);

/// Build a RecordedWorkload from a finished profiling run: groups from
/// the shim registry (filter + top-k fold using the sampling report) and
/// the trace recorded by the mini kernel. `alloc_order_labels` gives the
/// trace's group-id ordering (allocation order).
workloads::RecordedWorkload record_workload(
    const shim::ShimAllocator& shim, const sample::SampleReport& samples,
    sim::PhaseTrace trace,
    const std::vector<std::string>& alloc_order_labels,
    const GroupingOptions& grouping, const std::string& name);

}  // namespace hmpt::tuner
