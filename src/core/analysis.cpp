#include "core/analysis.h"

#include <sstream>
#include <utility>

#include "common/error.h"
#include "common/units.h"

namespace hmpt::tuner {

std::string AnalysisReport::to_text() const {
  const SweepResult& sweep = *outcome.sweep;
  const int groups = outcome.num_groups;
  const int tiers = outcome.num_tiers;
  std::ostringstream os;
  os << "=== analysis: " << outcome.workload << " ===\n\n";
  os << "configurations measured: " << sweep.configs.size() << " ("
     << groups << " groups)\n";
  os << "strategy: " << outcome.strategy << " (" << outcome.measurements
     << " simulator runs)\n";
  os << "all-DDR baseline: " << format_time(sweep.baseline_time) << "\n\n";
  os << "detailed view:\n" << detailed.table.to_text() << '\n'
     << detailed.bar_chart << '\n';
  os << "summary view:\n" << summary_view.scatter << '\n';
  os << "maximum speedup: " << cell(summary.max_speedup, 2) << "x at "
     << format_percent(summary.max_usage) << " HBM usage ("
     << mask_label(summary.max_mask, groups, tiers) << ")\n";
  os << "HBM-only speedup: " << cell(summary.hbm_only_speedup, 2) << "x\n";
  os << "90 % of max (" << cell(summary.threshold90, 2) << "x) at "
     << format_percent(summary.usage90) << " HBM usage ("
     << mask_label(summary.usage90_mask, groups, tiers) << ")\n";
  os << "linear-estimator error: max " << cell(estimator_error.max_abs, 3)
     << ", rmse " << cell(estimator_error.rmse, 3) << "\n\n";
  os << "recommended placement (budget " << format_bytes(outcome.hbm_bytes())
     << " HBM): " << mask_label(outcome.chosen_mask, groups, tiers) << " at "
     << cell(outcome.speedup(), 2) << "x\n";
  os << "minimal 90 %-speedup placement: "
     << mask_label(summary.usage90_mask, groups, tiers) << " using "
     << format_bytes(tier_sum(outcome.weights.footprint_bytes,
                              summary.usage90_mask, tiers,
                              topo::PoolKind::HBM))
     << " of HBM\n";
  return os.str();
}

AnalysisReport analyze(TuningOutcome exhaustive, double fraction) {
  HMPT_REQUIRE(fraction > 0.0 && fraction <= 1.0,
               "threshold fraction out of range");
  HMPT_REQUIRE(exhaustive.sweep.has_value(),
               "analysis needs an exhaustive outcome (one with a sweep)");
  const SweepResult& sweep = *exhaustive.sweep;
  SummaryAnalysis summary = summarize(sweep, exhaustive.weights, fraction);
  EstimatorError error = estimator_error(sweep, LinearEstimator(sweep));
  DetailedView detailed =
      render_detailed_view(sweep, exhaustive.weights, summary);
  SummaryView summary_view = render_summary_view(summary, exhaustive.workload);
  return {std::move(exhaustive), std::move(summary), std::move(error),
          std::move(detailed), std::move(summary_view)};
}

workloads::RecordedWorkload record_workload(
    const shim::ShimAllocator& shim, const sample::SampleReport& samples,
    sim::PhaseTrace trace,
    const std::vector<std::string>& alloc_order_labels,
    const GroupingOptions& grouping, const std::string& name) {
  const auto usage = shim.registry().site_usage(shim.sites());
  const auto densities =
      site_densities(shim.registry(), shim.sites(), samples);
  const auto groups = build_groups(usage, densities, grouping);
  HMPT_REQUIRE(!groups.empty(), "profiling run produced no groups");

  // The recorded trace indexes groups in allocation order; the grouping
  // step returns them ranked by impact. Build the remap table by label.
  std::vector<int> remap(alloc_order_labels.size(), -1);
  for (std::size_t old_id = 0; old_id < alloc_order_labels.size();
       ++old_id) {
    for (std::size_t new_id = 0; new_id < groups.size(); ++new_id) {
      const auto& g = groups[new_id];
      const bool direct = g.label == alloc_order_labels[old_id];
      // Folded sites land in the rest group; detect by membership.
      bool member = direct;
      if (!member) {
        const int site =
            shim.sites().find_by_label(alloc_order_labels[old_id]);
        for (int s : g.sites) member = member || s == site;
      }
      if (member) {
        remap[old_id] = static_cast<int>(new_id);
        break;
      }
    }
    HMPT_REQUIRE(remap[old_id] >= 0, "trace group without a grouping: " +
                                         alloc_order_labels[old_id]);
  }

  // Construct at the trace's allocation-order arity, then fold to the
  // grouped arity via the remap.
  std::vector<workloads::GroupInfo> old_infos;
  for (const auto& label : alloc_order_labels)
    old_infos.push_back({label, 0.0});
  std::vector<workloads::GroupInfo> new_infos;
  for (const auto& g : groups) new_infos.push_back({g.label, g.bytes});

  workloads::RecordedWorkload recorded(name, std::move(old_infos),
                                       std::move(trace));
  recorded.remap_groups(remap, std::move(new_infos));
  return recorded;
}

}  // namespace hmpt::tuner
