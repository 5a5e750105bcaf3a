// quickstart — the five-minute tour of hmpt.
//
// Runs a small application (mini STREAM) through the SHIM allocator on the
// simulated Xeon Max platform, profiles its allocations with IBS-style
// sampling, sweeps all DDR/HBM placements, prints the paper-style summary
// view, and emits the placement plan you would apply to the next run.
//
// Build & run:  cmake --build build && ./build/examples/quickstart
#include <iostream>

#include "common/units.h"
#include "core/grouping.h"
#include "core/planner.h"
#include "core/report.h"
#include "core/session.h"
#include "core/summary.h"
#include "simmem/simulator.h"
#include "workloads/stream.h"

int main() {
  using namespace hmpt;

  // --- 1. A simulated platform (the paper's dual Xeon Max 9468).
  auto simulator = sim::MachineSimulator::paper_platform();
  std::cout << simulator.machine().describe() << '\n';

  // --- 2. Run the application through the SHIM allocator with sampling.
  pools::PoolAllocator pool(simulator.machine());
  shim::ShimAllocator shim(pool);
  sample::IbsSampler sampler({512, sample::SamplingMode::Poisson, 1});
  const auto run = workloads::run_mini_stream(shim, 1u << 14, 2, &sampler);
  std::cout << "mini STREAM residual: " << run.max_residual << "\n\n";

  // --- 3. Group the intercepted allocations (top-k + rest).
  const auto usage = shim.registry().site_usage(shim.sites());
  const auto densities =
      tuner::site_densities(shim.registry(), shim.sites(),
                            sampler.report());
  const auto groups = tuner::build_groups(usage, densities, {0.0, 8});
  std::cout << "allocation groups:\n";
  for (const auto& g : groups)
    std::cout << "  " << g.label << "  " << format_bytes(g.bytes)
              << "  density " << format_percent(g.access_density) << '\n';

  // --- 4. Tune the paper-scale STREAM workload through the Session
  //        facade: one fluent call sweeps every placement (strategy
  //        "exhaustive"; swap the name for "online" or "estimator" to
  //        search the same space with far fewer measurements).
  workloads::StreamWorkload workload(16.0 * GB, 1);
  const auto outcome = tuner::Session::on(simulator)
                           .workload(workload)
                           .strategy("exhaustive")
                           .repetitions(3)
                           .run();
  const auto summary = tuner::summarize(*outcome.sweep, outcome.weights);

  std::cout << '\n'
            << tuner::render_summary_view(summary, workload.name()).scatter;
  std::cout << "max speedup " << summary.max_speedup << "x at "
            << format_percent(summary.max_usage) << " HBM usage; 90 % of it"
            << " already at " << format_percent(summary.usage90) << "\n"
            << "(" << outcome.configs_measured << " configurations, "
            << outcome.measurements << " simulated runs)\n\n";

  // --- 5. Materialise the placement plan for the next run.
  std::vector<tuner::AllocationGroup> stream_groups(3);
  stream_groups[0].label = "stream::a";
  stream_groups[1].label = "stream::b";
  stream_groups[2].label = "stream::c";
  const auto plan =
      tuner::to_placement_plan(stream_groups, summary.usage90_mask);
  std::cout << "placement plan for the 90 % configuration:\n"
            << plan.serialize();
  return 0;
}
