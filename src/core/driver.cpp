#include "core/driver.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/error.h"
#include "common/units.h"
#include "core/session.h"

namespace hmpt::tuner {

std::string AnalysisReport::to_text() const {
  std::ostringstream os;
  os << "=== analysis: " << workload_name << " ===\n\n";
  os << "configurations measured: " << sweep.configs.size() << " ("
     << space.num_groups() << " groups)\n";
  os << "strategy: " << outcome.strategy << " (" << outcome.measurements
     << " simulator runs)\n";
  os << "all-DDR baseline: " << format_time(sweep.baseline_time) << "\n\n";
  os << "detailed view:\n" << detailed.table.to_text() << '\n'
     << detailed.bar_chart << '\n';
  os << "summary view:\n" << summary_view.scatter << '\n';
  os << "maximum speedup: " << cell(summary.max_speedup, 2) << "x at "
     << format_percent(summary.max_usage) << " HBM usage ("
     << mask_label(summary.max_mask, space.num_groups(), space.num_tiers())
     << ")\n";
  os << "HBM-only speedup: " << cell(summary.hbm_only_speedup, 2) << "x\n";
  os << "90 % of max (" << cell(summary.threshold90, 2) << "x) at "
     << format_percent(summary.usage90) << " HBM usage ("
     << mask_label(summary.usage90_mask, space.num_groups(),
                   space.num_tiers())
     << ")\n";
  os << "linear-estimator error: max " << cell(estimator_error.max_abs, 3)
     << ", rmse " << cell(estimator_error.rmse, 3) << "\n\n";
  os << "recommended placement (budget "
     << format_bytes(recommended.hbm_bytes) << " HBM): "
     << mask_label(recommended.mask, space.num_groups(),
                   space.num_tiers())
     << " at " << cell(recommended.speedup, 2) << "x\n";
  os << "minimal 90 %-speedup placement: "
     << mask_label(minimal90.mask, space.num_groups(), space.num_tiers())
     << " using " << format_bytes(minimal90.hbm_bytes) << " of HBM\n";
  return os.str();
}

Driver::Driver(sim::MachineSimulator& sim, sim::ExecutionContext ctx,
               DriverOptions options)
    : sim_(&sim), ctx_(ctx), options_(options) {
  HMPT_REQUIRE(options_.threshold_fraction > 0.0 &&
                   options_.threshold_fraction <= 1.0,
               "threshold fraction out of range");
}

double Driver::effective_budget() const {
  if (options_.hbm_budget_bytes > 0.0) return options_.hbm_budget_bytes;
  return sim_->machine().capacity_of_kind(topo::PoolKind::HBM);
}

std::vector<double> Driver::effective_caps(int num_tiers) const {
  // One resolution policy for the whole stack: the planner prunes with
  // exactly the caps the strategy layer enforced.
  TuningBudget budget;
  budget.hbm_budget_bytes = options_.hbm_budget_bytes;
  budget.tier_budget_bytes = options_.tier_budget_bytes;
  return resolved_caps(*sim_, budget, num_tiers);
}

AnalysisReport Driver::analyze(const workloads::Workload& workload) const {
  std::vector<double> bytes;
  for (const auto& g : workload.groups()) bytes.push_back(g.bytes);
  const int machine_tiers = sim_->machine().num_memory_tiers();
  const int tiers = options_.tiers == 0 ? machine_tiers : options_.tiers;
  HMPT_REQUIRE(tiers <= machine_tiers,
               "driver requests more tiers than the machine has");
  ConfigSpace space(std::move(bytes), tiers);

  // The measurement campaign runs behind the strategy API; the full report
  // needs the complete space, so the driver always runs "exhaustive".
  Session session = Session::on(*sim_)
                        .workload(workload)
                        .context(ctx_)
                        .strategy("exhaustive")
                        .tiers(tiers)
                        .repetitions(options_.experiment.repetitions)
                        .gray_order(options_.experiment.gray_order)
                        .jobs(options_.experiment.jobs)
                        .budget_bytes(
                            std::max(options_.hbm_budget_bytes, 0.0));
  for (std::size_t t = 1; t < options_.tier_budget_bytes.size(); ++t)
    if (options_.tier_budget_bytes[t] > 0.0)
      session.tier_budget_bytes(static_cast<int>(t),
                                options_.tier_budget_bytes[t]);
  TuningOutcome outcome = session.run();
  // AnalysisReport::sweep becomes the canonical per-config data; the
  // embedded outcome keeps only the summary numbers (its 2^n-sized
  // trajectory adds nothing the report's views don't already show).
  SweepResult sweep = std::move(*outcome.sweep);
  outcome.sweep.reset();
  outcome.trajectory = {};
  SummaryAnalysis summary =
      summarize(sweep, outcome.weights, options_.threshold_fraction);
  const LinearEstimator estimator(sweep);

  CapacityPlanner planner(sweep, space);
  PlanChoice recommended = planner.best_under_caps(effective_caps(tiers));
  auto minimal = planner.cheapest_reaching(summary.threshold90);
  HMPT_REQUIRE(minimal.has_value(),
               "no configuration reaches the threshold");

  DetailedView detailed =
      render_detailed_view(sweep, outcome.weights, summary);
  AnalysisReport report{
      workload.name(),
      space,
      std::move(outcome),
      sweep,
      summary,
      estimator_error(sweep, estimator),
      recommended,
      *minimal,
      std::move(detailed),
      render_summary_view(summary, workload.name()),
  };
  return report;
}

workloads::RecordedWorkload Driver::record(
    const shim::ShimAllocator& shim, const sample::SampleReport& samples,
    sim::PhaseTrace trace,
    const std::vector<std::string>& alloc_order_labels,
    const GroupingOptions& grouping, const std::string& name) const {
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

shim::PlacementPlan Driver::plan_for(
    const AnalysisReport& report,
    const std::vector<AllocationGroup>& groups) const {
  // Decode through the report's space so k-tier ids keep their digits.
  return to_placement_plan(groups,
                           report.space.placement(report.recommended.mask));
}

shim::PlacementPlan Driver::plan_for(
    const AnalysisReport& report,
    const std::vector<AllocationGroup>& groups,
    const shim::CallSiteRegistry& sites) const {
  return to_placement_plan(
      groups, report.space.placement(report.recommended.mask), sites);
}

}  // namespace hmpt::tuner
