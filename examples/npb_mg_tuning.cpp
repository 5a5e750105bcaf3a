// npb_mg_tuning — the paper's flagship case study (Sec. III-A, Fig. 7):
// full placement analysis of the NPB Multi-Grid benchmark. Shows both the
// detailed view (per-configuration bars with measured vs linear-estimate
// speedup) and the summary view (speedup vs HBM footprint), then derives
// the minimal-footprint plan achieving 90 % of the maximum speedup.
#include <iostream>

#include "common/units.h"
#include "core/planner.h"
#include "core/report.h"
#include "core/summary.h"
#include "simmem/simulator.h"
#include "workloads/app_models.h"

int main() {
  using namespace hmpt;

  auto simulator = sim::MachineSimulator::paper_platform();
  const auto app = workloads::make_mg_model(simulator);
  std::cout << "analysing " << app.name << " (" << app.variant << "), "
            << format_bytes(app.memory_bytes) << " across "
            << app.workload->num_groups() << " allocation groups\n\n";

  std::vector<double> bytes;
  for (const auto& g : app.workload->groups()) {
    std::cout << "  group " << g.label << ": " << format_bytes(g.bytes)
              << '\n';
    bytes.push_back(g.bytes);
  }

  tuner::ConfigSpace space(bytes);
  std::cout << "\nsweeping " << space.size()
            << " placement configurations x 3 repetitions...\n\n";
  tuner::ExperimentRunner runner(simulator, app.context, {3});
  const auto sweep = runner.sweep(*app.workload, space);
  const auto weights = tuner::group_weights(*app.workload, space);
  const auto summary = tuner::summarize(sweep, weights);

  const auto detailed = tuner::render_detailed_view(sweep, weights, summary);
  std::cout << "detailed view (Fig. 7a):\n"
            << detailed.table.to_text() << '\n'
            << detailed.bar_chart << '\n';

  const auto view = tuner::render_summary_view(summary, app.variant);
  std::cout << "summary view (Fig. 7b):\n" << view.scatter << '\n';

  std::cout << "maximum speedup " << cell(summary.max_speedup, 2) << "x at "
            << format_percent(summary.max_usage) << " of data in HBM\n"
            << "90 % of that (" << cell(summary.threshold90, 2)
            << "x) needs only " << format_percent(summary.usage90)
            << " in HBM — configuration "
            << tuner::mask_label(summary.usage90_mask, sweep.num_groups)
            << "\n\n";

  // What if this socket only had 16 GB of free HBM? Ask the planner.
  tuner::CapacityPlanner planner(sweep, space);
  const double budget = 16.0 * GB;
  const auto constrained = planner.best_under_budget(budget);
  std::cout << "under a " << format_bytes(budget)
            << " HBM budget the best placement is "
            << tuner::mask_label(constrained.mask, sweep.num_groups)
            << " at " << cell(constrained.speedup, 2) << "x ("
            << format_bytes(constrained.hbm_bytes) << " of HBM)\n";
  return 0;
}
