// fig09_15_summary_views — regenerates Figs. 9-15: the summary view
// (speedup vs HBM memory footprint with max / 90 %-of-max lines) for every
// application of the evaluation: MG, UA, SP, BT, LU, IS and k-Wave.
#include <iostream>

#include "bench_util.h"
#include "core/report.h"

int main() {
  using namespace hmpt;
  bench::print_header("Figs. 9-15", "summary views for all benchmarks");

  auto simulator = sim::MachineSimulator::paper_platform();
  const auto suite = workloads::paper_benchmark_suite(simulator);

  const char* figure_of[] = {"Fig. 9",  "Fig. 12", "Fig. 13", "Fig. 11",
                             "Fig. 10", "Fig. 14", "Fig. 15"};
  int idx = 0;
  for (const auto& app : suite) {
    tuner::ConfigSpace space([&] {
      std::vector<double> bytes;
      for (const auto& g : app.workload->groups()) bytes.push_back(g.bytes);
      return bytes;
    }());
    tuner::ExperimentRunner runner(simulator, app.context, {3});
    const auto sweep = runner.sweep(*app.workload, space);
    const auto summary =
        tuner::summarize(sweep, tuner::group_weights(*app.workload, space));

    std::cout << "\n-- " << figure_of[idx++] << ": " << app.name << " ("
              << app.variant << ") --\n";
    const auto view = tuner::render_summary_view(summary, app.variant);
    std::cout << view.scatter;
    std::cout << "  max " << cell(summary.max_speedup, 2) << "x (paper "
              << cell(app.paper.max_speedup, 2) << "x), HBM-only "
              << cell(summary.hbm_only_speedup, 2) << "x (paper "
              << cell(app.paper.hbm_only_speedup, 2) << "x), 90% usage "
              << cell(summary.usage90 * 100.0, 1) << " % (paper "
              << cell(app.paper.usage90 * 100.0, 1) << " %)\n";
    bench::print_csv_block(app.variant, view.table);
  }
  return 0;
}
