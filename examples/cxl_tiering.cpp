// cxl_tiering — placement tuning across three memory tiers.
//
// Runs the NPB Multi-Grid model on the HBM / DDR / CXL platform
// (single-socket Xeon Max plus a CXL memory expander) and shows what the
// k-tier search adds over the paper's two-tier sweep:
//   * the exhaustive strategy enumerates 3^n placements in mixed-radix
//     Gray order (one group moves one tier per step);
//   * per-tier capacity budgets steer the choice — squeezing the HBM
//     budget pushes cold groups to CXL instead of DDR when that frees DDR
//     bandwidth for the hot ones;
//   * restricting the same machine to --tiers 2 reproduces the paper's
//     two-tier search exactly.
//
// Build & run:  cmake --build build && ./build/examples/cxl_tiering
#include <iostream>

#include "common/table.h"
#include "common/units.h"
#include "core/report.h"
#include "core/session.h"
#include "workloads/app_models.h"

int main() {
  using namespace hmpt;

  auto simulator = sim::MachineSimulator::cxl_tiered_platform();
  const auto app = workloads::make_mg_model(simulator);
  std::cout << simulator.machine().describe() << "\n";
  std::cout << "memory tiers: " << simulator.machine().num_memory_tiers()
            << " (DDR / HBM / CXL)\n\n";

  // Full three-tier sweep: 3^n configurations.
  const auto three_tier = tuner::Session::on(simulator)
                              .workload(*app.workload)
                              .context(app.context)
                              .run();
  std::cout << three_tier.to_text() << "\n";

  // The same machine restricted to the paper's two-tier space.
  const auto two_tier = tuner::Session::on(simulator)
                            .workload(*app.workload)
                            .context(app.context)
                            .tiers(2)
                            .run();
  std::cout << "two-tier restriction measures " << two_tier.configs_measured
            << " configurations (vs " << three_tier.configs_measured
            << " with CXL) and recommends "
            << tuner::mask_label(two_tier.chosen_mask, two_tier.num_groups)
            << " at " << cell(two_tier.speedup(), 2) << "x\n\n";

  // Per-tier budgets: 10 GB of HBM forces one hot group out; 64 GB of CXL
  // absorbs the cold group, keeping DDR for the remaining hot one.
  const auto budgeted = tuner::Session::on(simulator)
                            .workload(*app.workload)
                            .context(app.context)
                            .tier_budget_gb(1, 10.0)
                            .tier_budget_gb(2, 64.0)
                            .run();
  std::cout << "with 10 GB HBM + 64 GB CXL budgets: "
            << tuner::mask_label(budgeted.chosen_mask, budgeted.num_groups,
                                 budgeted.num_tiers)
            << " at " << cell(budgeted.speedup(), 2) << "x using "
            << format_bytes(budgeted.hbm_bytes()) << " of HBM\n";

  // The chosen placement as a per-group tier vector.
  std::cout << "placement vector:";
  for (int g = 0; g < budgeted.num_groups; ++g)
    std::cout << ' ' << app.workload->groups()[static_cast<std::size_t>(g)].label
              << "->"
              << topo::to_string(budgeted.chosen_placement().of(g));
  std::cout << '\n';
  return 0;
}
