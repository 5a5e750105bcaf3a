// strategy.h — the pluggable tuning-strategy API.
//
// A TuningStrategy is one search method over the placement configuration
// space: it decides which configurations to measure on the simulated
// platform and which placement to recommend, under a common budget and with
// a common progress/outcome contract. The built-in strategies cover the
// three search regimes of the paper and its outlook:
//
//   "exhaustive"  measure all k^n configurations (Sec. III-A sweep; k = 2
//                 on the paper's two-tier platform),
//   "online"      greedy iterative extension with confirmation runs,
//   "estimator"   fit the linear estimator from the n single-group runs
//                 and measure only the top-k predicted placements —
//                 O(n + k) measurements instead of O(2^n).
//
// Strategies are looked up by name in a string-keyed registry so new
// methods (sharded sweeps, batched search, model-based tuners) plug in
// without another parallel entry point; the Session facade (session.h) is
// the intended front door.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/config_space.h"
#include "core/experiment.h"
#include "simmem/simulator.h"
#include "workloads/workload.h"

namespace hmpt::tuner {

/// Resource limits common to all strategies.
struct TuningBudget {
  /// HBM capacity the chosen placement must fit; <= 0 means "the machine's
  /// full HBM capacity".
  double hbm_budget_bytes = 0.0;
  /// Per-tier capacity caps indexed by tier (PoolKind value); tier 0 (DDR)
  /// is never constrained. An entry <= 0 — or a tier beyond the vector —
  /// falls back to the machine's capacity of that kind; a positive tier-1
  /// entry takes precedence over the legacy `hbm_budget_bytes`.
  std::vector<double> tier_budget_bytes;
  int repetitions = 3;  ///< simulator runs averaged per configuration
  /// "estimator": number of top predicted configurations to measure.
  int top_k = 3;
  /// Cap on measured runs for iterative strategies; 0 = strategy default.
  int max_measurements = 0;
  /// "online": rejected full passes tolerated before stopping — lower it
  /// on noisy platforms for fewer confirmation runs, raise it for more.
  int patience = 3;
  /// Worker threads for the measurement campaign (exhaustive sweeps and
  /// the estimator's probe batches); 1 = serial, 0 = all hardware threads.
  /// Outcomes are bit-identical at any job count.
  int jobs = 1;
};

/// One progress tick: a configuration finished measuring.
struct TuningProgress {
  std::string strategy;
  int configs_measured = 0;   ///< distinct configurations so far
  ConfigMask mask = 0;        ///< configuration just measured
  double observed_time = 0.0;
  double best_speedup = 1.0;  ///< incumbent so far
};

struct TuningCallbacks {
  std::function<void(const TuningProgress&)> on_progress;  ///< may be empty
};

/// One entry of the search trajectory.
struct TuningStep {
  int index = 0;          ///< 1-based measurement order
  ConfigMask mask = 0;    ///< configuration tried
  double observed_time = 0.0;  ///< its speedup: speedup_of(baseline_time, it)
  bool accepted = false;  ///< became (or stayed part of) the incumbent
};

/// Unified result of any strategy: the chosen placement, how the search got
/// there, and the per-configuration table of everything it measured.
struct TuningOutcome {
  std::string strategy;
  std::string workload;
  int num_groups = 0;
  int num_tiers = 2;  ///< tier count of the searched placement space

  ConfigMask chosen_mask = 0;
  double chosen_time = 0.0;
  double baseline_time = 0.0;

  int configs_measured = 0;  ///< distinct configurations measured
  int measurements = 0;      ///< simulator runs incl. repetitions

  /// The weights every row's HBM fractions are computed from. Session::run
  /// fills them for every strategy, built-in or added to the registry.
  GroupWeights weights;

  /// The search's measurements in order. Empty for a full sweep, whose
  /// order is the space's Gray enumeration and whose rows are in `sweep`.
  std::vector<TuningStep> trajectory;
  /// Distinct configurations measured, sorted by mask. Strategies that
  /// sweep the whole space store it once in `sweep` instead of duplicating
  /// it here — read through configs(), which serves whichever is present.
  std::vector<ConfigResult> table;
  /// The full sweep, present when the strategy measured the whole space.
  std::optional<SweepResult> sweep;

  /// The per-configuration results, wherever they live.
  const std::vector<ConfigResult>& configs() const {
    return sweep.has_value() ? sweep->configs : table;
  }

  // The headline's derived values, one definition each. The HBM ones read
  // `weights`, which a strategy's tune() called without a Session leaves
  // empty.

  /// Speedup of the chosen placement over the all-DDR baseline.
  double speedup() const { return speedup_of(baseline_time, chosen_time); }
  /// Footprint of the chosen placement in HBM.
  double hbm_bytes() const {
    return tier_sum(weights.footprint_bytes, chosen_mask, num_tiers,
                    topo::PoolKind::HBM);
  }
  /// Fraction of the footprint the chosen placement puts in HBM.
  double hbm_usage() const {
    return hbm_usage_of(weights, chosen_mask, num_tiers);
  }
  /// The chosen placement as a per-group tier vector.
  sim::Placement chosen_placement() const {
    return config_placement(chosen_mask, num_groups, num_tiers);
  }

  /// Human-readable report: chosen placement, trajectory, config table.
  std::string to_text() const;
};

/// Per-tier capacity caps every strategy enforces, resolved from a budget:
/// tier 0 (DDR) is never constrained; a non-DDR tier takes its positive
/// tier_budget_bytes entry, falling back to the legacy hbm_budget_bytes
/// for tier 1 and then to the machine's capacity of the tier's pool kind
/// ("<= 0 means the machine's full capacity", as before).
std::vector<double> resolved_caps(const sim::MachineSimulator& sim,
                                  const TuningBudget& budget, int num_tiers);

class TuningStrategy {
 public:
  virtual ~TuningStrategy() = default;

  virtual std::string name() const = 0;
  virtual TuningOutcome tune(sim::MachineSimulator& sim,
                             sim::ExecutionContext ctx,
                             const workloads::Workload& workload,
                             const ConfigSpace& space,
                             const TuningBudget& budget,
                             const TuningCallbacks& callbacks) const = 0;
};

/// String-keyed strategy registry. The built-in strategies are registered
/// on first access; libraries add their own with add().
class StrategyRegistry {
 public:
  using Factory = std::function<std::unique_ptr<TuningStrategy>()>;

  static StrategyRegistry& instance();

  /// Register a factory; throws hmpt::Error on a duplicate name.
  void add(const std::string& name, Factory factory);
  bool contains(const std::string& name) const;
  /// Instantiate; throws hmpt::Error naming the known strategies when
  /// `name` is not registered.
  std::unique_ptr<TuningStrategy> create(const std::string& name) const;
  /// Registered names, sorted.
  std::vector<std::string> names() const;

 private:
  StrategyRegistry();
  std::vector<std::pair<std::string, Factory>> factories_;
};

/// Convenience: StrategyRegistry::instance().create(name).
std::unique_ptr<TuningStrategy> make_strategy(const std::string& name);

// ------------------------------------------------------ built-in strategies

/// Measures every configuration (wraps ExperimentRunner::sweep); chooses
/// the best measured placement that fits the HBM budget.
class ExhaustiveStrategy : public TuningStrategy {
 public:
  std::string name() const override { return "exhaustive"; }
  TuningOutcome tune(sim::MachineSimulator& sim, sim::ExecutionContext ctx,
                     const workloads::Workload& workload,
                     const ConfigSpace& space, const TuningBudget& budget,
                     const TuningCallbacks& callbacks) const override;
};

/// Greedy iterative extension with confirmation runs: starts at all-DDR,
/// tries the most promising single-group tier move, keeps it only when the
/// observed time confirms the gain, and stops after `patience` rejected
/// passes or `max_measurements` runs (default 200).
class OnlineGreedyStrategy : public TuningStrategy {
 public:
  std::string name() const override { return "online"; }
  TuningOutcome tune(sim::MachineSimulator& sim, sim::ExecutionContext ctx,
                     const workloads::Workload& workload,
                     const ConfigSpace& space, const TuningBudget& budget,
                     const TuningCallbacks& callbacks) const override;
};

/// Fits the LinearEstimator from the baseline + n single-group runs, then
/// measures only the top-k predicted configurations that fit the budget:
/// 1 + n + k configurations instead of 2^n.
class EstimatorGuidedStrategy : public TuningStrategy {
 public:
  std::string name() const override { return "estimator"; }
  TuningOutcome tune(sim::MachineSimulator& sim, sim::ExecutionContext ctx,
                     const workloads::Workload& workload,
                     const ConfigSpace& space, const TuningBudget& budget,
                     const TuningCallbacks& callbacks) const override;
};

}  // namespace hmpt::tuner
