// report.h — the detailed and summary views of an analysed workload.
//
// Renders exactly what Figs. 7a/7b show: the detailed view lists every
// configuration with measured and linear-estimate speedup, HBM usage and
// HBM access-sample fraction (bars + table); the summary view is the
// speedup-vs-footprint scatter with the max and 90 %-of-max reference
// lines. Both render as CSV (for plotting) and as ASCII.
#pragma once

#include <string>

#include "common/chart.h"
#include "common/table.h"
#include "core/summary.h"

namespace hmpt::tuner {

/// Human-readable configuration label. Two tiers keep the paper's Fig. 7a
/// x-label format "[0 2 3]" (the groups in HBM); k > 2 tiers annotate each
/// promoted group with its tier, e.g. "[0:HBM 2:CXL]". All-DDR is "[DDR]".
std::string mask_label(ConfigMask mask, int num_groups, int num_tiers = 2);

struct DetailedView {
  Table table;            ///< one row per configuration
  std::string bar_chart;  ///< measured vs estimated speedup bars
};

struct SummaryView {
  Table table;
  std::string scatter;  ///< the Fig. 7b-style chart
};

/// Fig. 7a equivalent; the access fractions come from `weights`.
/// `max_rank` limits rows to configurations with at most that many groups
/// in HBM (0 = no limit); the paper shows ranks 1..n for MG's three groups.
DetailedView render_detailed_view(const SweepResult& sweep,
                                  const GroupWeights& weights,
                                  const SummaryAnalysis& summary,
                                  int max_rank = 0);

/// Fig. 7b / Figs. 9-15 equivalent for one workload.
SummaryView render_summary_view(const SummaryAnalysis& summary,
                                const std::string& workload_name);

/// One-line Table II-style row: name, max, HBM-only, usage at 90 %.
std::vector<std::string> table2_row(const std::string& name,
                                    const SummaryAnalysis& summary);

}  // namespace hmpt::tuner
