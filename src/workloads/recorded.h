// recorded.h — a Workload built from a profiling run.
//
// The tool profiles the real application once through the shim (recorded
// trace + registry groups; tuner::record_workload) and then analyses the recorded behaviour
// offline against arbitrary placements — the "analysis from a previous
// run" mode of the paper's tool. Also supports remapping the trace's group
// ids when the grouping step reorders or folds allocations.
#pragma once

#include "workloads/workload.h"

namespace hmpt::workloads {

class RecordedWorkload final : public Workload {
 public:
  RecordedWorkload(std::string name, std::vector<GroupInfo> groups,
                   sim::PhaseTrace trace);

  std::string name() const override { return name_; }
  std::vector<GroupInfo> groups() const override { return groups_; }
  sim::PhaseTrace trace() const override { return trace_; }

  /// Rewrite stream group ids: new_id = remap[old_id]. Ids mapping to the
  /// same value are folded into one group. `remap` must cover every id the
  /// trace references.
  void remap_groups(const std::vector<int>& remap,
                    std::vector<GroupInfo> new_groups);

  /// Scale the recorded traffic, e.g. to extrapolate a short profiling run
  /// to the production iteration count.
  void scale(double factor) { trace_.scale(factor); }

 private:
  std::string name_;
  std::vector<GroupInfo> groups_;
  sim::PhaseTrace trace_;
};

}  // namespace hmpt::workloads
