// ablation_estimator — accuracy of the independent-groups linear estimate
// (Fig. 7a's orange bars) across all applications: per app the max/mean
// absolute error and RMSE of est(S) = 1 + sum (s_i - 1) against measured
// speedups, plus the worst configuration. Apps with shared-bandwidth
// phases (MG, k-Wave) interact and show larger errors than the additive
// solvers.
//
// Second table: the "estimator" strategy in action — fit from the n
// single-group runs, measure only the top-k predicted placements, and
// compare achieved speedup and measurement cost against the exhaustive
// sweep (O(n + k) vs O(2^n) configurations).
#include <iostream>

#include "bench_util.h"
#include "core/report.h"
#include "core/session.h"

int main() {
  using namespace hmpt;
  bench::print_header("Ablation", "linear-estimator error per application");

  auto simulator = sim::MachineSimulator::paper_platform();
  const auto suite = workloads::paper_benchmark_suite(simulator);

  Table table({"Application", "max_abs_err", "mean_abs_err", "rmse",
               "worst_config"});
  for (const auto& app : suite) {
    tuner::ConfigSpace space([&] {
      std::vector<double> bytes;
      for (const auto& g : app.workload->groups()) bytes.push_back(g.bytes);
      return bytes;
    }());
    tuner::ExperimentRunner runner(simulator, app.context, {2});
    const auto sweep = runner.sweep(*app.workload, space);
    const tuner::LinearEstimator estimator(sweep);
    const auto err = tuner::estimator_error(sweep, estimator);
    table.add_row({app.name, cell(err.max_abs, 4), cell(err.mean_abs, 4),
                   cell(err.rmse, 4),
                   tuner::mask_label(err.worst_mask, sweep.num_groups)});
  }
  std::cout << table.to_text();
  bench::print_csv_block("ablation_estimator", table);
  std::cout << "expected: near-zero error for the additive solvers "
               "(BT/LU/SP/UA/IS); visible error for MG and k-Wave whose "
               "phases co-stream multiple groups\n";

  bench::print_header("Ablation",
                      "estimator-guided strategy vs exhaustive sweep");
  Table guided_table({"Application", "optimal", "guided", "achieved",
                      "guided configs", "sweep configs"});
  for (const auto& app : suite) {
    const auto exhaustive = tuner::Session::on(simulator)
                                .workload(app.workload)
                                .context(app.context)
                                .strategy("exhaustive")
                                .repetitions(1)
                                .run();
    const auto guided = tuner::Session::on(simulator)
                            .workload(app.workload)
                            .context(app.context)
                            .strategy("estimator")
                            .repetitions(1)
                            .top_k(3)
                            .run();
    guided_table.add_row(
        {app.name, cell(exhaustive.speedup(), 2) + "x",
         cell(guided.speedup(), 2) + "x",
         format_percent(guided.speedup() / exhaustive.speedup()),
         std::to_string(guided.configs_measured),
         std::to_string(exhaustive.configs_measured)});
  }
  std::cout << guided_table.to_text();
  bench::print_csv_block("ablation_estimator_guided", guided_table);
  std::cout << "expected: the guided strategy stays within a few percent "
               "of the optimum at 1 + n + k measured configurations, a "
               "large saving for the 8-group solvers (12 vs 256)\n";
  return 0;
}
