// bench_util.h — shared plumbing of the figure/table harnesses.
//
// Every harness prints a header naming the paper artefact it regenerates,
// a CSV block (machine-readable), and an ASCII rendering. Keeping the
// format uniform lets `for b in build/bench/*; do $b; done` produce a
// complete reproduction log.
#pragma once

#include <iostream>
#include <string>

#include "common/chart.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/units.h"
#include "core/config_space.h"
#include "core/experiment.h"
#include "core/summary.h"
#include "simmem/simulator.h"
#include "workloads/app_models.h"

namespace hmpt::bench {

inline void print_header(const std::string& artefact,
                         const std::string& description) {
  std::cout << "\n=== " << artefact << " — " << description << " ===\n";
}

inline void print_csv_block(const std::string& name, const Table& table) {
  std::cout << "--- csv: " << name << " ---\n"
            << table.to_csv() << "--- end csv ---\n";
}

/// Sweep one paper application and summarise it.
inline tuner::SummaryAnalysis sweep_app(sim::MachineSimulator& sim,
                                        const workloads::AppInfo& app,
                                        int repetitions = 3) {
  tuner::ConfigSpace space([&] {
    std::vector<double> bytes;
    for (const auto& g : app.workload->groups()) bytes.push_back(g.bytes);
    return bytes;
  }());
  tuner::ExperimentRunner runner(sim, app.context, {repetitions});
  const auto sweep = runner.sweep(*app.workload, space);
  return tuner::summarize(sweep, tuner::group_weights(*app.workload, space));
}

}  // namespace hmpt::bench
