// online_tuning — the paper's stated future direction (Sec. III): online
// profiling and control instead of an offline 2^n sweep.
//
// The "online" strategy starts from all-DDR and, between iterations of the
// running application, greedily migrates the allocation group with the
// best expected gain per HBM byte, keeping a move only when the next
// observed iteration confirms the improvement. This example tunes every
// paper benchmark through the Session facade — the same front door as the
// exhaustive sweep, just a different strategy name — and compares cost
// (measured runs) and result, then demonstrates the matching low-level
// primitive: live object migration in the pool allocator.
#include <cstring>
#include <iostream>

#include "common/table.h"
#include "common/units.h"
#include "core/session.h"
#include "simmem/simulator.h"
#include "workloads/app_models.h"

int main() {
  using namespace hmpt;

  auto simulator = sim::MachineSimulator::paper_platform();
  const auto suite = workloads::paper_benchmark_suite(simulator);

  Table table({"Application", "online speedup", "exhaustive max",
               "online runs", "exhaustive runs"});
  for (const auto& app : suite) {
    const auto online = tuner::Session::on(simulator)
                            .workload(app.workload)
                            .context(app.context)
                            .strategy("online")
                            .run();
    const auto exhaustive = tuner::Session::on(simulator)
                                .workload(app.workload)
                                .context(app.context)
                                .strategy("exhaustive")
                                .repetitions(3)
                                .run();
    table.add_row({app.name, cell(online.speedup(), 2) + "x",
                   cell(exhaustive.speedup(), 2) + "x",
                   std::to_string(online.measurements),
                   std::to_string(exhaustive.measurements)});
  }
  std::cout << table.to_text() << '\n';

  // Show one search in detail, watching it live through the progress hook.
  const auto mg = workloads::make_mg_model(simulator);
  const auto result = tuner::Session::on(simulator)
                          .workload(mg.workload)
                          .context(mg.context)
                          .strategy("online")
                          .progress([&](const tuner::TuningProgress& p) {
                            std::cout << "  measured config " << p.mask
                                      << " in " << format_time(p.observed_time)
                                      << " (best so far "
                                      << cell(p.best_speedup, 2) << "x)\n";
                          })
                          .run();
  std::cout << '\n' << result.to_text() << '\n';

  // The low-level primitive behind a kept move: object migration.
  pools::PoolAllocator pool(simulator.machine());
  auto block = pool.allocate(64u << 20, topo::PoolKind::DDR);
  std::memset(block.ptr, 0x42, 64u << 20);
  std::cout << "migrating a " << format_bytes(64.0 * MiB)
            << " object DDR -> HBM... ";
  const auto moved = pool.migrate(block.ptr, topo::PoolKind::HBM);
  std::cout << "now on node " << moved.node << " ("
            << topo::to_string(moved.kind) << "), contents "
            << (static_cast<unsigned char*>(moved.ptr)[12345] == 0x42
                    ? "intact"
                    : "CORRUPT")
            << '\n';
  pool.deallocate(moved.ptr);
  return 0;
}
