// ablation_noise — repetition count vs decision stability under
// measurement noise.
//
// The paper averages each configuration over n runs (Sec. III-A). This
// ablation injects realistic run-to-run noise into the simulated
// measurements and reports, for increasing n, how often the analysis still
// identifies the true best configuration and the true minimal 90 %-speedup
// configuration of the MG model (50 trials per point).
#include <cmath>
#include <iostream>

#include "bench_util.h"
#include "core/summary.h"

int main() {
  using namespace hmpt;
  bench::print_header("Ablation",
                      "measurement repetitions vs decision stability");

  // Ground truth from the noise-free platform.
  auto clean = sim::MachineSimulator::paper_platform();
  const auto app = workloads::make_mg_model(clean);
  tuner::ConfigSpace space([&] {
    std::vector<double> bytes;
    for (const auto& g : app.workload->groups()) bytes.push_back(g.bytes);
    return bytes;
  }());
  tuner::ExperimentRunner clean_runner(clean, app.context, {1});
  const auto weights = tuner::group_weights(*app.workload, space);
  const auto truth =
      tuner::summarize(clean_runner.sweep(*app.workload, space), weights);

  constexpr int kTrials = 50;
  constexpr double kSigma = 0.02;  // 2 % run-to-run noise

  Table table({"repetitions", "best_config_correct_pct",
               "usage90_config_correct_pct", "mean_speedup_error"});
  for (const int reps : {1, 2, 3, 5, 10}) {
    int best_ok = 0, usage_ok = 0;
    double speedup_err = 0.0;
    for (int trial = 0; trial < kTrials; ++trial) {
      sim::MachineSimulator noisy(
          topo::xeon_max_9468_duo_flat_snc4(),
          sim::default_spr_hbm_calibration(),
          {kSigma, static_cast<std::uint64_t>(trial * 977 + reps)});
      tuner::ExperimentRunner runner(noisy, app.context, {reps});
      const auto summary =
          tuner::summarize(runner.sweep(*app.workload, space), weights);
      if (summary.max_mask == truth.max_mask) ++best_ok;
      if (summary.usage90_mask == truth.usage90_mask) ++usage_ok;
      speedup_err +=
          std::fabs(summary.max_speedup - truth.max_speedup);
    }
    table.add_row({std::to_string(reps),
                   cell(100.0 * best_ok / kTrials, 0),
                   cell(100.0 * usage_ok / kTrials, 0),
                   cell(speedup_err / kTrials, 4)});
  }
  std::cout << table.to_text();
  bench::print_csv_block("ablation_noise", table);
  std::cout << "expected: n = 3 (the paper's practice) is where the "
               "90 %-footprint decision stabilises under ~2 % noise\n";
  return 0;
}
