#include "core/experiment.h"

#include "common/error.h"
#include "common/stats.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "simmem/timing_cache.h"

namespace hmpt::tuner {

namespace {

/// Fold one timer's lifetime tallies into the process-wide cache metrics
/// and (when tracing) mark them in the calling lane. Called once, when the
/// measurement loop's timer retires, so the counters see each hit exactly
/// once.
void note_timer_stats(const sim::CachedTraceTimer& timer) {
  const std::uint64_t hits = timer.hits();
  const std::uint64_t misses = timer.misses();
  static obs::Counter& hit_counter = obs::metrics().counter("timer.hits");
  static obs::Counter& miss_counter = obs::metrics().counter("timer.misses");
  hit_counter.add(hits);
  miss_counter.add(misses);
  if (!obs::trace_enabled()) return;
  obs::trace_instant("experiment", "timer_cache",
                     {obs::TraceArg::number("hits", hits),
                      obs::TraceArg::number("misses", misses)});
}

}  // namespace

const ConfigResult& SweepResult::of(ConfigMask mask) const {
  // Dense, mask-indexed tables (the runner's layout) resolve in O(1)...
  if (mask < configs.size() && configs[mask].mask == mask)
    return configs[mask];
  // ...anything else (sparse or reordered tables) falls back to a scan, so
  // a found entry is always the right one.
  for (const auto& cfg : configs)
    if (cfg.mask == mask) return cfg;
  raise("configuration " + std::to_string(mask) +
        " was not measured in this sweep (" +
        std::to_string(configs.size()) + " configurations, " +
        std::to_string(num_groups) + " groups)");
}

const ConfigResult& SweepResult::all_hbm() const {
  // Uniform tier-1 id: sum over groups of 1 * k^g. For two tiers this is
  // 2^n - 1, the last configuration of the sweep.
  return of(config_uniform_id(num_groups, 1, num_tiers));
}

ExperimentRunner::ExperimentRunner(sim::MachineSimulator& sim,
                                   sim::ExecutionContext ctx,
                                   ExperimentOptions options)
    : sim_(&sim), ctx_(ctx), options_(options) {
  HMPT_REQUIRE(options_.repetitions >= 1, "need >= 1 repetition");
}

void ExperimentRunner::measure_each(
    const workloads::Workload& workload, const ConfigSpace& space,
    const std::vector<ConfigMask>& masks,
    const std::function<void(std::size_t, const ConfigResult&)>& emit) const {
  const auto trace = workload.trace();
  // One timer and one placement live across the whole list, so a
  // Gray-order enumeration re-times only the phases touching the flipped
  // group and no configuration allocates.
  sim::CachedTraceTimer timer(sim_->solver(), trace, ctx_);
  auto placement = space.placement(0);
  for (std::size_t i = 0; i < masks.size(); ++i) {
    const ConfigMask mask = masks[i];
    HMPT_REQUIRE(mask < space.size(), "mask out of range");
    refill_placement(placement, mask, space.num_tiers());
    // The deterministic time is a pure function of the placement: compute
    // it once and apply per-repetition noise on top, instead of re-timing
    // the whole trace `repetitions` times.
    const double t = timer.time(placement);
    RunningStats runs;
    for (int rep = 0; rep < options_.repetitions; ++rep)
      runs.add(t *
               sim_->noise_factor({mask, static_cast<std::uint64_t>(rep)}));
    emit(i, {mask, runs.mean(), runs.stddev()});
  }
  note_timer_stats(timer);
}

std::vector<ConfigResult> ExperimentRunner::measure_batch(
    const workloads::Workload& workload, const ConfigSpace& space,
    const std::vector<ConfigMask>& masks) {
  obs::TraceSpan span("experiment", "measure_batch");
  span.arg_number("masks", static_cast<std::uint64_t>(masks.size()));
  std::vector<ConfigResult> results(masks.size());
  measure_each(workload, space, masks,
               [&](std::size_t i, const ConfigResult& r) { results[i] = r; });
  return results;
}

SweepResult ExperimentRunner::sweep(const workloads::Workload& workload,
                                    const ConfigSpace& space) {
  return sweep(workload, space, ConfigCallback{});
}

SweepResult ExperimentRunner::sweep(const workloads::Workload& workload,
                                    const ConfigSpace& space,
                                    const ConfigCallback& on_config) {
  HMPT_REQUIRE(space.num_groups() == workload.num_groups(),
               "config space arity does not match the workload");
  SweepResult sweep;
  sweep.num_groups = space.num_groups();
  sweep.num_tiers = space.num_tiers();
  sweep.configs.resize(space.size());

  // The Gray order starts at mask 0, so the all-DDR baseline is measured
  // (and reported) first.
  const auto masks = space.gray_masks();
  obs::TraceSpan span("experiment", "sweep");
  span.arg_number("configs", static_cast<std::uint64_t>(masks.size()));
  measure_each(workload, space, masks,
               [&](std::size_t, const ConfigResult& r) {
                 sweep.configs[r.mask] = r;
                 if (on_config) on_config(r);
               });
  sweep.baseline_time = sweep.configs[0].mean_time;
  return sweep;
}

GroupWeights group_weights(const workloads::Workload& workload,
                           const ConfigSpace& space) {
  GroupWeights weights;
  weights.footprint_bytes = space.group_bytes();
  weights.footprint_total = space.total_bytes();
  weights.traffic_bytes.assign(static_cast<std::size_t>(space.num_groups()),
                               0.0);
  const auto trace = workload.trace();
  for (const auto& phase : trace.phases) {
    for (const auto& s : phase.streams) {
      const double bytes = s.bytes_read + s.bytes_written;
      HMPT_REQUIRE(s.group >= 0 && s.group < space.num_groups(),
                   "trace group out of range");
      weights.traffic_bytes[static_cast<std::size_t>(s.group)] += bytes;
      weights.traffic_total += bytes;
    }
  }
  return weights;
}

double speedup_of(double baseline_time, double time) {
  return baseline_time > 0.0 ? baseline_time / time : 1.0;
}

double hbm_usage_of(const GroupWeights& weights, ConfigMask mask,
                    int num_tiers) {
  return tier_sum(weights.footprint_bytes, mask, num_tiers,
                  topo::PoolKind::HBM) /
         weights.footprint_total;
}

double hbm_density_of(const GroupWeights& weights, ConfigMask mask,
                      int num_tiers) {
  return weights.traffic_total > 0.0
             ? tier_sum(weights.traffic_bytes, mask, num_tiers,
                        topo::PoolKind::HBM) /
                   weights.traffic_total
             : 0.0;
}

int groups_in_hbm_of(ConfigMask mask, int num_groups, int num_tiers) {
  const auto k = static_cast<ConfigMask>(num_tiers);
  int count = 0;
  for (int g = 0; g < num_groups; ++g, mask /= k) count += mask % k != 0;
  return count;
}

}  // namespace hmpt::tuner
