// ablation_grouping — how the group budget (top-k + rest) affects the
// achievable result. The paper fixes 8 groups; this ablation re-runs the
// UA model (56 raw allocations folded to 8) with coarser budgets by
// merging the tail groups, showing the lost tuning resolution: the max
// speedup survives coarse grouping but the minimal 90 %-speedup footprint
// degrades (more data must move because it is welded to hot groups).
#include <iostream>

#include "bench_util.h"

namespace {

using namespace hmpt;

/// Merge the last `tail` groups of a workload into one, remapping traffic.
class MergedTailWorkload final : public workloads::Workload {
 public:
  MergedTailWorkload(workloads::WorkloadPtr base, int keep)
      : base_(std::move(base)), keep_(keep) {
    HMPT_REQUIRE(keep_ >= 1 && keep_ < base_->num_groups(),
                 "keep out of range");
  }
  std::string name() const override {
    return base_->name() + "/merged" + std::to_string(keep_);
  }
  std::vector<workloads::GroupInfo> groups() const override {
    auto gs = base_->groups();
    std::vector<workloads::GroupInfo> out(
        gs.begin(), gs.begin() + keep_);
    workloads::GroupInfo rest{"merged_rest", 0.0};
    for (std::size_t i = static_cast<std::size_t>(keep_); i < gs.size();
         ++i)
      rest.bytes += gs[i].bytes;
    out.push_back(rest);
    return out;
  }
  sim::PhaseTrace trace() const override {
    auto trace = base_->trace();
    for (auto& phase : trace.phases)
      for (auto& s : phase.streams)
        if (s.group >= keep_) s.group = keep_;
    return trace;
  }

 private:
  workloads::WorkloadPtr base_;
  int keep_;
};

}  // namespace

int main() {
  bench::print_header("Ablation", "group budget (top-k + rest) on ua.D");

  auto simulator = sim::MachineSimulator::paper_platform();
  const auto app = workloads::make_ua_model(simulator);

  Table table({"groups", "max_speedup", "usage90_percent",
               "configs_measured"});
  for (int keep = app.workload->num_groups() - 1; keep >= 1; --keep) {
    workloads::WorkloadPtr wl =
        keep == app.workload->num_groups() - 1
            ? app.workload
            : std::make_shared<MergedTailWorkload>(app.workload, keep);
    // keep == n-1 keeps the original grouping; smaller keeps merge tails.
    tuner::ConfigSpace space([&] {
      std::vector<double> bytes;
      for (const auto& g : wl->groups()) bytes.push_back(g.bytes);
      return bytes;
    }());
    tuner::ExperimentRunner runner(simulator, app.context, {2});
    const auto sweep = runner.sweep(*wl, space);
    const auto summary =
        tuner::summarize(sweep, tuner::group_weights(*wl, space));
    table.add_row({std::to_string(wl->num_groups()),
                   cell(summary.max_speedup, 3),
                   cell(summary.usage90 * 100.0, 1),
                   std::to_string(space.size())});
  }
  std::cout << table.to_text();
  bench::print_csv_block("ablation_grouping", table);
  std::cout << "expected: max speedup is stable; the 90 %-speedup HBM "
               "footprint grows as grouping coarsens\n";
  return 0;
}
