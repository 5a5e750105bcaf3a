// ablation_online — online tuning vs exhaustive sweep.
//
// The paper's outlook is a dynamic tool (Sec. III). This ablation compares
// the "online" strategy (greedy migration with confirmation runs) against
// the exhaustive 2^n x n sweep on every benchmark — both driven through
// the same Session facade: achieved fraction of the optimal speedup and
// measured-run budget, with and without measurement noise.
#include <iostream>

#include "bench_util.h"
#include "core/session.h"

int main() {
  using namespace hmpt;
  bench::print_header("Ablation", "online strategy vs exhaustive sweep");

  Table table({"Application", "optimal", "online(clean)", "runs",
               "online(2% noise)", "runs(noise)", "sweep runs"});

  auto clean = sim::MachineSimulator::paper_platform();
  for (const auto& app : workloads::paper_benchmark_suite(clean)) {
    const auto exhaustive = tuner::Session::on(clean)
                                .workload(app.workload)
                                .context(app.context)
                                .strategy("exhaustive")
                                .repetitions(3)
                                .run();
    const auto r_clean = tuner::Session::on(clean)
                             .workload(app.workload)
                             .context(app.context)
                             .strategy("online")
                             .run();

    sim::MachineSimulator noisy(topo::xeon_max_9468_duo_flat_snc4(),
                                sim::default_spr_hbm_calibration(),
                                {0.02, 1234});
    const auto r_noisy = tuner::Session::on(noisy)
                             .workload(app.workload)
                             .context(app.context)
                             .strategy("online")
                             .patience(2)  // noise warrants a second look
                             .run();

    table.add_row({app.name, cell(exhaustive.speedup(), 2) + "x",
                   cell(r_clean.speedup(), 2) + "x",
                   std::to_string(r_clean.measurements),
                   cell(r_noisy.speedup(), 2) + "x",
                   std::to_string(r_noisy.measurements),
                   std::to_string(exhaustive.measurements)});
  }
  std::cout << table.to_text();
  bench::print_csv_block("ablation_online", table);
  std::cout << "expected: the online strategy reaches >= 90 % of the "
               "optimum in tens of runs instead of hundreds-to-thousands; "
               "noise costs some extra confirmation runs\n";
  return 0;
}
