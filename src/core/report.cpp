#include "core/report.h"

#include <algorithm>

#include "common/units.h"

namespace hmpt::tuner {

std::string mask_label(ConfigMask mask, int num_groups, int num_tiers) {
  const auto k = static_cast<ConfigMask>(num_tiers);
  std::string label = "[";
  bool first = true;
  for (int g = 0; g < num_groups; ++g) {
    const int tier = static_cast<int>(mask % k);
    mask /= k;
    if (tier == 0) continue;
    if (!first) label += ' ';
    label += std::to_string(g);
    if (num_tiers > 2) {
      label += ':';
      label += topo::to_string(static_cast<topo::PoolKind>(tier));
    }
    first = false;
  }
  label += ']';
  return first ? "[DDR]" : label;
}

DetailedView render_detailed_view(const SweepResult& sweep,
                                  const GroupWeights& weights,
                                  const SummaryAnalysis& summary,
                                  int max_rank) {
  DetailedView view;
  view.table = Table({"config", "speedup", "linear_est", "hbm_usage",
                      "hbm_access_fraction", "mean_time_s", "stddev_s"});

  std::vector<BarItem> bars;
  for (const auto& point : summary.points) {
    if (point.mask == 0) continue;
    if (max_rank > 0 && groups_in_hbm_of(point.mask, sweep.num_groups,
                                         sweep.num_tiers) > max_rank)
      continue;
    const auto& cfg = sweep.of(point.mask);
    const std::string label =
        mask_label(point.mask, sweep.num_groups, sweep.num_tiers);
    view.table.add_row(
        {label, cell(point.speedup, 3), cell(point.estimate, 3),
         cell(point.hbm_usage, 3),
         cell(hbm_density_of(weights, point.mask, sweep.num_tiers), 3),
         cell(cfg.mean_time, 4), cell(cfg.stddev_time, 5)});
    bars.push_back({label, point.speedup, point.estimate});
  }
  // The paper orders the x-axis by rank then index; points is mask-ordered,
  // so sort bars the same way Fig. 7a reads.
  std::stable_sort(bars.begin(), bars.end(),
                   [&](const BarItem& a, const BarItem& b) {
                     return a.label.size() < b.label.size();
                   });
  view.bar_chart = render_bar_chart(
      bars, "measured (#) vs linear estimate (~), baseline = all-DDR", 48,
      1.0);
  return view;
}

SummaryView render_summary_view(const SummaryAnalysis& summary,
                                const std::string& workload_name) {
  SummaryView view;
  view.table = Table({"hbm_footprint", "speedup", "linear_est", "config",
                      "kind"});

  ChartSeries combos{"combinations", 'o', {}, {}};
  ChartSeries singles{"groups (single-allocation)", 's', {}, {}};
  ChartSeries estimates{"comb. est.", '+', {}, {}};

  for (const auto& p : summary.points) {
    const bool single = p.single_group || p.mask == 0;
    view.table.add_row({cell(p.hbm_usage, 3), cell(p.speedup, 3),
                        cell(p.estimate, 3),
                        mask_label(p.mask, summary.num_groups,
                                   summary.num_tiers),
                        single ? "group" : "combination"});
    if (single) {
      singles.x.push_back(p.hbm_usage);
      singles.y.push_back(p.speedup);
    } else {
      combos.x.push_back(p.hbm_usage);
      combos.y.push_back(p.speedup);
    }
    estimates.x.push_back(p.hbm_usage);
    estimates.y.push_back(p.estimate);
  }

  ChartOptions options;
  options.title = workload_name + " — speedup vs HBM memory footprint";
  options.x_label = "HBM Memory Footprint [-]";
  options.y_label = "Speedup [-]";
  options.hlines = {summary.max_speedup, summary.threshold90};
  options.x_min = 0.0;
  options.x_max = 1.0;
  view.scatter =
      render_xy_chart({estimates, combos, singles}, options) +
      "  (upper '-' line: max speedup " + cell(summary.max_speedup, 2) +
      ", lower: 90 % of max at usage " + cell(summary.usage90, 3) + ")\n";
  return view;
}

std::vector<std::string> table2_row(const std::string& name,
                                    const SummaryAnalysis& summary) {
  return {name, cell(summary.max_speedup, 2),
          cell(summary.hbm_only_speedup, 2),
          cell(summary.usage90 * 100.0, 1)};
}

}  // namespace hmpt::tuner
