#include "core/strategy.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/error.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/units.h"
#include "core/estimator.h"
#include "core/planner.h"
#include "core/report.h"
#include "obs/trace.h"

namespace hmpt::tuner {

std::vector<double> resolved_caps(const sim::MachineSimulator& sim,
                                  const TuningBudget& budget,
                                  int num_tiers) {
  std::vector<double> caps(static_cast<std::size_t>(num_tiers), 0.0);
  for (int t = 1; t < num_tiers; ++t) {
    const auto ti = static_cast<std::size_t>(t);
    if (ti < budget.tier_budget_bytes.size() &&
        budget.tier_budget_bytes[ti] > 0.0)
      caps[ti] = budget.tier_budget_bytes[ti];
    else if (t == 1 && budget.hbm_budget_bytes > 0.0)
      caps[ti] = budget.hbm_budget_bytes;
    else
      caps[ti] = sim.machine().capacity_of_kind(
          static_cast<topo::PoolKind>(t));
  }
  return caps;
}

namespace {

/// Does every non-DDR tier of `mask` fit its capacity cap?
bool fits(const ConfigSpace& space, ConfigMask mask,
          const std::vector<double>& caps) {
  return fits_caps(tier_sums(space.group_bytes(), mask, space.num_tiers()),
                   caps, space.num_tiers());
}

void emit_progress(const TuningCallbacks& callbacks, const std::string& name,
                   int configs_measured, ConfigMask mask, double time,
                   double best_speedup) {
  if (!callbacks.on_progress) return;
  callbacks.on_progress({name, configs_measured, mask, time, best_speedup});
}

/// Set a finished outcome's tier count and sort its table by mask.
void finish_outcome(TuningOutcome& out, const ConfigSpace& space) {
  out.num_tiers = space.num_tiers();
  std::sort(out.table.begin(), out.table.end(),
            [](const ConfigResult& a, const ConfigResult& b) {
              return a.mask < b.mask;
            });
}

}  // namespace

std::string TuningOutcome::to_text() const {
  std::ostringstream os;
  os << "=== tuning: " << workload << " — strategy " << strategy
     << " ===\n\n";
  std::size_t total = 1;
  for (int g = 0; g < num_groups; ++g)
    total *= static_cast<std::size_t>(num_tiers);
  os << "configurations measured: " << configs_measured << " of " << total
     << " (" << measurements << " simulator runs, " << num_groups
     << " groups)\n";
  os << "all-DDR baseline: " << format_time(baseline_time) << "\n";
  os << "recommended placement: "
     << mask_label(chosen_mask, num_groups, num_tiers) << " at "
     << cell(speedup(), 2) << "x, using " << format_bytes(hbm_bytes())
     << " of HBM (" << format_percent(hbm_usage()) << " of footprint)\n";

  if (!trajectory.empty()) {
    Table steps({"step", "config", "time", "speedup", "accepted"});
    for (const auto& s : trajectory)
      steps.add_row({std::to_string(s.index),
                     mask_label(s.mask, num_groups, num_tiers),
                     format_time(s.observed_time),
                     cell(speedup_of(baseline_time, s.observed_time), 2) + "x",
                     s.accepted ? "yes" : "no"});
    os << "\ntrajectory:\n" << steps.to_text();
  }
  if (!configs().empty()) {
    Table rows({"config", "speedup", "HBM usage", "groups in HBM"});
    for (const auto& c : configs())
      rows.add_row(
          {mask_label(c.mask, num_groups, num_tiers),
           cell(speedup_of(baseline_time, c.mean_time), 2) + "x",
           format_percent(hbm_usage_of(weights, c.mask, num_tiers)),
           std::to_string(groups_in_hbm_of(c.mask, num_groups, num_tiers))});
    os << "\nmeasured configurations:\n" << rows.to_text();
  }
  return os.str();
}

// --------------------------------------------------------------- registry

StrategyRegistry::StrategyRegistry() {
  add("exhaustive", [] { return std::make_unique<ExhaustiveStrategy>(); });
  add("online", [] { return std::make_unique<OnlineGreedyStrategy>(); });
  add("estimator",
      [] { return std::make_unique<EstimatorGuidedStrategy>(); });
}

StrategyRegistry& StrategyRegistry::instance() {
  static StrategyRegistry registry;
  return registry;
}

void StrategyRegistry::add(const std::string& name, Factory factory) {
  HMPT_REQUIRE(!name.empty(), "strategy name must not be empty");
  HMPT_REQUIRE(factory != nullptr, "strategy factory must not be null");
  HMPT_REQUIRE(!contains(name), "strategy already registered: " + name);
  factories_.emplace_back(name, std::move(factory));
}

bool StrategyRegistry::contains(const std::string& name) const {
  for (const auto& [key, factory] : factories_)
    if (key == name) return true;
  return false;
}

std::unique_ptr<TuningStrategy> StrategyRegistry::create(
    const std::string& name) const {
  for (const auto& [key, factory] : factories_)
    if (key == name) return factory();
  std::string known;
  for (const auto& n : names()) known += (known.empty() ? "" : ", ") + n;
  raise("unknown tuning strategy: '" + name + "' (known: " + known + ")");
}

std::vector<std::string> StrategyRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(factories_.size());
  for (const auto& [key, factory] : factories_) out.push_back(key);
  std::sort(out.begin(), out.end());
  return out;
}

std::unique_ptr<TuningStrategy> make_strategy(const std::string& name) {
  return StrategyRegistry::instance().create(name);
}

// ------------------------------------------------------------- exhaustive

TuningOutcome ExhaustiveStrategy::tune(
    sim::MachineSimulator& sim, sim::ExecutionContext ctx,
    const workloads::Workload& workload, const ConfigSpace& space,
    const TuningBudget& budget, const TuningCallbacks& callbacks) const {
  ExperimentOptions options;
  options.repetitions = budget.repetitions;
  options.jobs = budget.jobs;
  ExperimentRunner runner(sim, ctx, options);

  TuningOutcome out;
  out.strategy = name();
  out.workload = workload.name();
  out.num_groups = space.num_groups();

  const auto caps = resolved_caps(sim, budget, space.num_tiers());
  // The sweep is its own record of the search, so it keeps no trajectory;
  // only a progress listener needs each configuration's incumbent.
  ConfigCallback on_config;
  if (callbacks.on_progress)
    on_config = [&, measured = 0, baseline = 0.0,
                 best = 0.0](const ConfigResult& result) mutable {
      // The sweep reports the all-DDR baseline first.
      if (result.mask == 0) baseline = result.mean_time;
      const double speedup = speedup_of(baseline, result.mean_time);
      if (fits(space, result.mask, caps) && speedup > best)
        best = speedup;
      callbacks.on_progress(
          {name(), ++measured, result.mask, result.mean_time, best});
    };
  SweepResult sweep = [&] {
    obs::TraceSpan sweep_span("strategy", "sweep");
    sweep_span.arg_number("configs",
                          static_cast<std::uint64_t>(space.size()));
    return runner.sweep(workload, space, on_config);
  }();
  out.baseline_time = sweep.baseline_time;
  out.configs_measured = static_cast<int>(sweep.configs.size());
  out.measurements = out.configs_measured * budget.repetitions;
  out.chosen_mask = CapacityPlanner(sweep, space).best_under_caps(caps).mask;
  out.chosen_time = sweep.of(out.chosen_mask).mean_time;
  out.sweep = std::move(sweep);  // configs() serves the table from here
  finish_outcome(out, space);
  return out;
}

// ------------------------------------------------------------ online greedy
//
// The paper positions its tool as "the first step towards a more dynamic
// approach ... potentially allows for online profiling and control"
// (Sec. III). Instead of sweeping all k^n configurations offline, the
// search starts from all-DDR and adjusts the placement between iterations
// of the running application: observe one iteration's time, greedily move
// the group with the best expected gain to another tier, and keep the
// move only if the next observed iteration confirms it. It converges in
// O(n^2) iterations and respects the per-tier capacity caps throughout.
// On a k-tier machine candidate moves cover every (group, other tier)
// pair; for k = 2 the search is exactly the original HBM flip sequence.

namespace {

/// Relative improvement a trial move must show to be kept.
constexpr double kKeepThreshold = 1e-3;
/// Iteration cap when the budget sets no max_measurements.
constexpr int kDefaultMaxIterations = 200;

}  // namespace

TuningOutcome OnlineGreedyStrategy::tune(
    sim::MachineSimulator& sim, sim::ExecutionContext ctx,
    const workloads::Workload& workload, const ConfigSpace& space,
    const TuningBudget& budget, const TuningCallbacks& callbacks) const {
  // tune() can be called without a Session, so it checks the budget the
  // Session's builder would have.
  HMPT_REQUIRE(budget.max_measurements >= 0,
               "max_measurements must be >= 0 (0 = strategy default)");
  HMPT_REQUIRE(budget.patience >= 1, "patience must be >= 1");
  const int max_iterations = budget.max_measurements > 0
                                 ? budget.max_measurements
                                 : kDefaultMaxIterations;
  HMPT_REQUIRE(space.num_groups() == workload.num_groups(),
               "space/workload arity mismatch");
  TuningOutcome out;
  out.strategy = name();
  out.workload = workload.name();
  out.num_groups = space.num_groups();

  const auto trace = workload.trace();
  const int n = space.num_groups();
  const int tiers = space.num_tiers();
  const auto caps = resolved_caps(sim, budget, tiers);

  // Every observation, aggregated per mask: repeated observations of a
  // mask (confirmation passes) average like the runner's repetitions do,
  // so the table is not min-biased under noise. The i-th observation of a
  // mask draws noise stream (mask, i), matching the i-th repetition of an
  // exhaustive sweep over the same configuration.
  std::vector<RunningStats> seen(space.size());
  int distinct = 0;
  const auto observe = [&](ConfigMask mask) {
    RunningStats& times = seen[mask];
    const double time =
        sim.measure_trace(trace, space.placement(mask), ctx,
                          {mask, static_cast<std::uint64_t>(times.count())});
    if (times.count() == 0) ++distinct;
    times.add(time);
    return time;
  };

  obs::TraceSpan search_span("strategy", "search");
  search_span.arg_number("patience",
                         static_cast<std::uint64_t>(budget.patience));

  // The first observation is the all-DDR baseline; every speedup is
  // relative to it.
  ConfigMask mask = 0;
  std::vector<int> tier(static_cast<std::size_t>(n), 0);  ///< current digits
  double current = observe(mask);
  out.baseline_time = current;
  emit_progress(callbacks, name(), distinct, mask, current, 1.0);
  double best_speedup = 1.0;
  int iterations = 1;
  int rejections = 0;

  // Place value of each group's digit, for single-move id updates.
  std::vector<ConfigMask> place(static_cast<std::size_t>(n), 1);
  for (int g = 0; g < n; ++g)
    place[static_cast<std::size_t>(g)] = config_place_value(g, tiers);

  // Heuristic priority: sampled access density per byte — the quantity
  // the IBS profile gives the online controller for free.
  std::vector<double> density(static_cast<std::size_t>(n), 0.0);
  for (int g = 0; g < n; ++g)
    density[static_cast<std::size_t>(g)] =
        trace.access_fraction(g) /
        std::max(1.0, space.group_bytes()[static_cast<std::size_t>(g)]);

  // Directional weight of a tier move: the difference of the tiers' speed
  // ranks (position in the saturated-bandwidth ordering; bandwidth ties
  // break toward the lower tier index), normalised to [-1, 1]. For two
  // tiers with HBM at least as fast as DDR the weights are exactly the
  // +1/-1 of the original flip heuristic.
  std::vector<int> order(static_cast<std::size_t>(tiers), 0);
  for (int t = 0; t < tiers; ++t) order[static_cast<std::size_t>(t)] = t;
  const auto bw = [&](int t) {
    return sim.config().of(static_cast<topo::PoolKind>(t))
        .sat_bandwidth_per_tile;
  };
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    if (bw(a) != bw(b)) return bw(a) < bw(b);
    return a < b;
  });
  std::vector<double> rank(static_cast<std::size_t>(tiers), 0.0);
  for (int r = 0; r < tiers; ++r)
    rank[static_cast<std::size_t>(order[static_cast<std::size_t>(r)])] = r;

  while (iterations < max_iterations && rejections < budget.patience) {
    // Candidate moves, best heuristic first: hot groups toward fast
    // tiers, cold groups toward slow ones.
    struct Candidate {
      int group;
      int to_tier;
      double score;
    };
    std::vector<Candidate> candidates;
    const TierSums used = tier_sums(space.group_bytes(), mask, tiers);
    for (int g = 0; g < n; ++g) {
      const auto gi = static_cast<std::size_t>(g);
      const int from = tier[gi];
      for (int to = 0; to < tiers; ++to) {
        if (to == from) continue;
        // Would the move blow the target tier's capacity?
        const auto ti = static_cast<std::size_t>(to);
        if (to != 0 && used[ti] + space.group_bytes()[gi] > caps[ti]) continue;
        const double weight = (rank[static_cast<std::size_t>(to)] -
                               rank[static_cast<std::size_t>(from)]) /
                              static_cast<double>(tiers - 1);
        candidates.push_back({g, to, weight * density[gi]});
      }
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& a, const Candidate& b) {
                return a.score > b.score;
              });

    bool improved = false;
    for (const auto& candidate : candidates) {
      if (iterations >= max_iterations) break;
      const auto gi = static_cast<std::size_t>(candidate.group);
      const ConfigMask trial_mask =
          mask + (static_cast<ConfigMask>(candidate.to_tier) * place[gi] -
                  static_cast<ConfigMask>(tier[gi]) * place[gi]);
      const double trial = observe(trial_mask);
      ++iterations;

      const bool kept = trial < current * (1.0 - kKeepThreshold);
      if (kept) best_speedup = speedup_of(out.baseline_time, trial);
      out.trajectory.push_back({iterations, trial_mask, trial, kept});
      emit_progress(callbacks, name(), distinct, trial_mask, trial,
                    best_speedup);

      if (kept) {
        mask = trial_mask;
        tier[gi] = candidate.to_tier;
        current = trial;
        improved = true;
        break;  // re-rank candidates from the new state
      }
    }
    if (improved) {
      rejections = 0;
    } else {
      // A full pass found nothing; with measurement noise a further pass
      // (up to `patience` of them) may still flip a verdict.
      ++rejections;
      if (candidates.empty()) break;
    }
  }

  out.chosen_mask = mask;
  out.chosen_time = current;
  out.measurements = iterations;
  out.configs_measured = distinct;
  for (ConfigMask m = 0; m < seen.size(); ++m)
    if (seen[m].count() > 0)
      out.table.push_back({m, seen[m].mean(), seen[m].stddev()});
  finish_outcome(out, space);
  return out;
}

// -------------------------------------------------------- estimator-guided

TuningOutcome EstimatorGuidedStrategy::tune(
    sim::MachineSimulator& sim, sim::ExecutionContext ctx,
    const workloads::Workload& workload, const ConfigSpace& space,
    const TuningBudget& budget, const TuningCallbacks& callbacks) const {
  HMPT_REQUIRE(budget.top_k >= 1, "estimator strategy needs top_k >= 1");
  ExperimentOptions options;
  options.repetitions = budget.repetitions;
  options.jobs = budget.jobs;
  ExperimentRunner runner(sim, ctx, options);

  TuningOutcome out;
  out.strategy = name();
  out.workload = workload.name();
  out.num_groups = space.num_groups();

  const auto caps = resolved_caps(sim, budget, space.num_tiers());
  const int n = space.num_groups();
  const int tiers = space.num_tiers();
  double best = 0.0;

  std::vector<char> measured(space.size(), 0);
  // Bookkeeping of one finished measurement. Batches measure in parallel
  // but record in batch order, and the simulator's noise streams are
  // order-independent, so the trajectory matches a serial run exactly.
  const auto record = [&](const ConfigResult& result) {
    measured[result.mask] = 1;
    ++out.configs_measured;
    const double speedup = speedup_of(out.baseline_time, result.mean_time);
    const bool accepted =
        fits(space, result.mask, caps) && speedup > best;
    if (accepted) {
      best = speedup;
      out.chosen_mask = result.mask;
      out.chosen_time = result.mean_time;
    }
    out.trajectory.push_back(
        {out.configs_measured, result.mask, result.mean_time, accepted});
    out.table.push_back(result);
    emit_progress(callbacks, name(), out.configs_measured, result.mask,
                  result.mean_time, best);
  };

  // Phase 1: baseline + the n * (tiers - 1) single-group runs the
  // estimator needs — group g alone in each non-DDR tier. The singles are
  // measured even when over budget — the fit needs them; only the chosen
  // placement must fit.
  std::vector<ConfigMask> single_masks;
  for (int g = 0; g < n; ++g)
    for (int t = 1; t < tiers; ++t)
      single_masks.push_back(static_cast<ConfigMask>(t) *
                             config_place_value(g, tiers));
  std::vector<double> singles(single_masks.size(), 1.0);
  {
    obs::TraceSpan phase_span("strategy", "enumerate");
    phase_span.arg_number("singles",
                          static_cast<std::uint64_t>(single_masks.size()));
    const ConfigResult baseline = runner.measure(workload, space, 0);
    out.baseline_time = baseline.mean_time;
    record(baseline);

    const auto single_results =
        runner.measure_batch(workload, space, single_masks);
    for (std::size_t i = 0; i < single_results.size(); ++i) {
      record(single_results[i]);
      singles[i] = speedup_of(out.baseline_time, single_results[i].mean_time);
    }
  }

  // Phase 2: rank the unmeasured, budget-fitting configurations by the
  // linear estimate and measure only the top-k predicted.
  std::vector<ConfigMask> top_masks;
  {
    obs::TraceSpan phase_span("strategy", "estimate");
    const LinearEstimator estimator(singles, tiers);
    std::vector<std::pair<double, ConfigMask>> ranked;
    for (ConfigMask mask = 0; mask < space.size(); ++mask) {
      if (measured[mask]) continue;
      if (!fits(space, mask, caps)) continue;
      ranked.emplace_back(estimator.estimate(mask), mask);
    }
    std::sort(ranked.begin(), ranked.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    const std::size_t k =
        std::min<std::size_t>(static_cast<std::size_t>(budget.top_k),
                              ranked.size());
    for (std::size_t i = 0; i < k; ++i)
      top_masks.push_back(ranked[i].second);
    phase_span.arg_number("ranked",
                          static_cast<std::uint64_t>(ranked.size()));
    phase_span.arg_number("top_k", static_cast<std::uint64_t>(k));
  }
  {
    obs::TraceSpan phase_span("strategy", "measure");
    phase_span.arg_number("batch",
                          static_cast<std::uint64_t>(top_masks.size()));
    for (const auto& result : runner.measure_batch(workload, space, top_masks))
      record(result);
  }

  out.measurements = out.configs_measured * budget.repetitions;
  finish_outcome(out, space);
  return out;
}

}  // namespace hmpt::tuner
