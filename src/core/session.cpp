#include "core/session.h"

#include <utility>

#include "common/error.h"
#include "common/units.h"
#include "obs/trace.h"

namespace hmpt::tuner {

Session& Session::workload(const workloads::Workload& w) {
  workload_ = &w;
  owned_.reset();
  return *this;
}

Session& Session::workload(workloads::WorkloadPtr w) {
  HMPT_REQUIRE(w != nullptr, "session workload must not be null");
  owned_ = std::move(w);
  workload_ = owned_.get();
  return *this;
}

Session& Session::context(sim::ExecutionContext ctx) {
  ctx_ = ctx;
  return *this;
}

Session& Session::strategy(std::string name) {
  strategy_ = std::move(name);
  return *this;
}

Session& Session::budget_gb(double gb) {
  HMPT_REQUIRE(gb >= 0.0, "HBM budget must be >= 0 GB");
  budget_.hbm_budget_bytes = gb * GB;
  return *this;
}

Session& Session::budget_bytes(double bytes) {
  HMPT_REQUIRE(bytes >= 0.0, "HBM budget must be >= 0 bytes");
  budget_.hbm_budget_bytes = bytes;
  return *this;
}

Session& Session::tier_budget_gb(int tier, double gb) {
  HMPT_REQUIRE(gb >= 0.0, "tier budget must be >= 0 GB");
  return tier_budget_bytes(tier, gb * GB);
}

Session& Session::tier_budget_bytes(int tier, double bytes) {
  HMPT_REQUIRE(tier >= 1 && tier < topo::kNumPoolKinds,
               "tier budget applies to non-DDR tiers only");
  HMPT_REQUIRE(bytes >= 0.0, "tier budget must be >= 0 bytes");
  if (budget_.tier_budget_bytes.size() <=
      static_cast<std::size_t>(tier))
    budget_.tier_budget_bytes.resize(static_cast<std::size_t>(tier) + 1,
                                     0.0);
  budget_.tier_budget_bytes[static_cast<std::size_t>(tier)] = bytes;
  return *this;
}

Session& Session::tiers(int count) {
  HMPT_REQUIRE(count == 0 || (count >= 2 && count <= topo::kNumPoolKinds),
               "tiers must be 0 (machine native) or in [2, kNumPoolKinds]");
  tiers_ = count;
  return *this;
}

Session& Session::repetitions(int reps) {
  HMPT_REQUIRE(reps >= 1, "need >= 1 repetition");
  budget_.repetitions = reps;
  return *this;
}

Session& Session::jobs(int n) {
  HMPT_REQUIRE(n >= 0, "jobs must be >= 0 (0 = all hardware threads)");
  budget_.jobs = n;
  return *this;
}

Session& Session::top_k(int k) {
  HMPT_REQUIRE(k >= 1, "top_k must be >= 1");
  budget_.top_k = k;
  return *this;
}

Session& Session::max_measurements(int n) {
  HMPT_REQUIRE(n >= 0, "max_measurements must be >= 0");
  budget_.max_measurements = n;
  return *this;
}

Session& Session::patience(int passes) {
  HMPT_REQUIRE(passes >= 1, "patience must be >= 1");
  budget_.patience = passes;
  return *this;
}

Session& Session::progress(
    std::function<void(const TuningProgress&)> callback) {
  callbacks_.on_progress = std::move(callback);
  return *this;
}

TuningOutcome Session::run() const {
  HMPT_REQUIRE(workload_ != nullptr, "session has no workload");
  obs::TraceSpan span("session", "run");
  span.arg("strategy", strategy_);
  span.arg("workload", workload_->name());
  const auto strategy = make_strategy(strategy_);

  std::vector<double> bytes;
  for (const auto& g : workload_->groups()) bytes.push_back(g.bytes);
  const int machine_tiers = sim_->machine().num_memory_tiers();
  const int tiers = tiers_ == 0 ? machine_tiers : tiers_;
  HMPT_REQUIRE(tiers <= machine_tiers,
               "session requests more tiers than the machine has");
  // A budget for a tier the search never visits would be silently dead
  // configuration; every entry point (CLI, campaigns, library callers)
  // gets this check by running through here.
  for (std::size_t t = static_cast<std::size_t>(tiers);
       t < budget_.tier_budget_bytes.size(); ++t)
    HMPT_REQUIRE(budget_.tier_budget_bytes[t] <= 0.0,
                 "tier " + std::to_string(t) +
                     " budget names a tier outside the searched space (" +
                     std::to_string(tiers) + " tiers)");
  const ConfigSpace space(std::move(bytes), tiers);

  const sim::ExecutionContext ctx =
      ctx_.has_value() ? *ctx_ : sim_->full_machine();
  TuningOutcome out =
      strategy->tune(*sim_, ctx, *workload_, space, budget_, callbacks_);
  // Every outcome, whichever strategy produced it, carries the weights its
  // rows' HBM fractions are computed from.
  out.weights = group_weights(*workload_, space);
  return out;
}

}  // namespace hmpt::tuner
