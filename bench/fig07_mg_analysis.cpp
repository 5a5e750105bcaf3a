// fig07_mg_analysis — regenerates Fig. 7: the full analysis of the NPB
// Multi-Grid benchmark. (a) detailed view: all 7 non-baseline placement
// configurations of the 3 significant allocations with measured speedup,
// linear-estimate speedup, HBM usage and HBM access-sample fraction;
// (b) summary view: speedup vs HBM footprint scatter with the max and
// 90 %-of-max lines.
#include <iostream>

#include "bench_util.h"
#include "core/report.h"

int main() {
  using namespace hmpt;
  bench::print_header("Fig. 7", "analysis of NPB: Multi-Grid (mg.D)");

  auto simulator = sim::MachineSimulator::paper_platform();
  const auto app = workloads::make_mg_model(simulator);

  tuner::ConfigSpace space([&] {
    std::vector<double> bytes;
    for (const auto& g : app.workload->groups()) bytes.push_back(g.bytes);
    return bytes;
  }());
  tuner::ExperimentRunner runner(simulator, app.context, {3});
  const auto sweep = runner.sweep(*app.workload, space);
  const auto weights = tuner::group_weights(*app.workload, space);
  const auto summary = tuner::summarize(sweep, weights);

  std::cout << "-- Fig. 7a: detailed view --\n";
  const auto detailed = tuner::render_detailed_view(sweep, weights, summary);
  std::cout << detailed.table.to_text() << detailed.bar_chart;
  bench::print_csv_block("fig07a", detailed.table);

  std::cout << "-- Fig. 7b: summary view --\n";
  const auto view = tuner::render_summary_view(summary, app.variant);
  std::cout << view.scatter;
  bench::print_csv_block("fig07b", view.table);

  std::cout << "paper check: groups 0/1 individually >1.6x, both together "
               ">2.2x, max "
            << cell(summary.max_speedup, 2) << " at usage "
            << cell(summary.max_usage * 100.0, 1) << " % (paper: 2.27 at "
            << "69.6 %)\n";
  return 0;
}
