// session.h — the fluent front door of the tuner.
//
// One builder configures platform, workload, strategy and budget, and one
// run() call produces the unified TuningOutcome, whatever search method is
// behind it:
//
//   auto outcome = Session::on(simulator)
//                      .workload(w)
//                      .budget_gb(16)
//                      .strategy("online")
//                      .progress([](const TuningProgress& p) { ... })
//                      .run();
//
// Strategies are resolved by name through the StrategyRegistry, so a
// Session drives any registered method — built-in or user-supplied —
// without the caller wiring up config spaces, runners or capacity caps.
// It is the only way the library, the CLIs and the campaign engine
// configure and run a tune; the paper's full report of an exhaustive
// outcome is analyze() (analysis.h), layered on what run() returns.
#pragma once

#include <optional>
#include <string>

#include "core/strategy.h"

namespace hmpt::tuner {

class Session {
 public:
  /// Start a session on a simulated platform.
  static Session on(sim::MachineSimulator& sim) { return Session(sim); }

  /// The workload to tune (kept by reference; must outlive run()).
  Session& workload(const workloads::Workload& w);
  /// Shared-ownership variant.
  Session& workload(workloads::WorkloadPtr w);

  /// Execution context; defaults to the simulator's full machine.
  Session& context(sim::ExecutionContext ctx);
  /// Strategy name looked up in the registry (default "exhaustive").
  Session& strategy(std::string name);

  Session& budget_gb(double gb);
  Session& budget_bytes(double bytes);
  /// Capacity cap of one non-DDR tier (tier = PoolKind value >= 1);
  /// tier 1 is the HBM budget, tier 2 the CXL budget.
  Session& tier_budget_gb(int tier, double gb);
  Session& tier_budget_bytes(int tier, double bytes);
  /// Number of memory tiers to search over (>= 2, at most the machine's
  /// num_memory_tiers); 0 (the default) = the machine's full tier count.
  Session& tiers(int count);
  Session& repetitions(int reps);
  /// Kept only because perfbench calls jobs(1); measurement is serial, and
  /// any other value throws.
  Session& jobs(int n);
  Session& top_k(int k);
  Session& max_measurements(int n);
  Session& patience(int passes);
  Session& progress(std::function<void(const TuningProgress&)> callback);

  const std::string& strategy_name() const { return strategy_; }
  const TuningBudget& budget() const { return budget_; }

  /// Resolve the strategy, build the config space from the workload's
  /// groups, and tune. Throws hmpt::Error when no workload was given or
  /// the strategy name is unknown.
  TuningOutcome run() const;

 private:
  explicit Session(sim::MachineSimulator& sim) : sim_(&sim) {}

  sim::MachineSimulator* sim_;
  const workloads::Workload* workload_ = nullptr;
  workloads::WorkloadPtr owned_;  ///< keeps shared workloads alive
  std::optional<sim::ExecutionContext> ctx_;
  std::string strategy_ = "exhaustive";
  int tiers_ = 0;  ///< 0 = the machine's native tier count
  TuningBudget budget_;
  TuningCallbacks callbacks_;
};

}  // namespace hmpt::tuner
