// capacity_planner — using the analysis for deployment decisions.
//
// The paper's conclusion is capacity-oriented: 25-30 % of application data
// can stay in DDR at near-peak performance, freeing scarce HBM (16 GB per
// tile). This example sweeps an HBM budget from 0 to the full footprint
// for every benchmark and prints the achievable speedup at each budget
// (the measured Pareto front), plus the knapsack-planned placement for a
// group count too large to sweep exhaustively.
#include <iostream>

#include "common/table.h"
#include "common/units.h"
#include "core/planner.h"
#include "core/report.h"
#include "core/summary.h"
#include "simmem/simulator.h"
#include "workloads/app_models.h"

int main() {
  using namespace hmpt;

  auto simulator = sim::MachineSimulator::paper_platform();
  const auto suite = workloads::paper_benchmark_suite(simulator);

  std::cout << "achievable speedup under an HBM capacity budget\n\n";
  Table table({"Application", "budget 25%", "budget 50%", "budget 75%",
               "unlimited", "bytes for 90%"});

  for (const auto& app : suite) {
    std::vector<double> bytes;
    for (const auto& g : app.workload->groups()) bytes.push_back(g.bytes);
    tuner::ConfigSpace space(bytes);
    tuner::ExperimentRunner runner(simulator, app.context, {2});
    const auto sweep = runner.sweep(*app.workload, space);
    tuner::CapacityPlanner planner(sweep, space);

    std::vector<std::string> row{app.name};
    for (double fraction : {0.25, 0.50, 0.75, 1.0}) {
      const auto choice =
          planner.best_under_budget(fraction * space.total_bytes());
      row.push_back(cell(choice.speedup, 2) + "x");
    }
    const auto summary =
        tuner::summarize(sweep, tuner::group_weights(*app.workload, space));
    const auto cheapest = planner.cheapest_reaching(summary.threshold90);
    row.push_back(cheapest ? format_bytes(cheapest->hbm_bytes) : "-");
    table.add_row(row);
  }
  std::cout << table.to_text() << '\n';

  // Knapsack planning on the linear estimator: useful when the group count
  // makes 2^n measurement sweeps impractical.
  const auto sp = workloads::make_sp_model(simulator);
  std::vector<double> bytes;
  for (const auto& g : sp.workload->groups()) bytes.push_back(g.bytes);
  tuner::ConfigSpace space(bytes);
  tuner::ExperimentRunner runner(simulator, sp.context, {1});
  const auto sweep = runner.sweep(*sp.workload, space);
  const tuner::LinearEstimator estimator(sweep);

  std::cout << "knapsack plan for " << sp.name
            << " under half its footprint:\n";
  const auto plan = tuner::knapsack_plan(estimator, bytes,
                                         0.5 * space.total_bytes());
  std::cout << "  placement "
            << tuner::mask_label(plan.mask, space.num_groups())
            << ", estimated " << cell(plan.speedup, 2) << "x using "
            << format_bytes(plan.hbm_bytes) << " of HBM\n"
            << "  (measured at that placement: "
            << cell(tuner::speedup_of(sweep.baseline_time,
                                      sweep.of(plan.mask).mean_time),
                    2)
            << "x)\n";
  return 0;
}
