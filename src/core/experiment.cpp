#include "core/experiment.h"

#include "common/error.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hmpt::tuner {

namespace {

/// Fold one timer's lifetime tallies into the process-wide cache metrics
/// and (when tracing) mark them in the owning lane. Called when a timer
/// retires — end of a serial enumeration or of a worker's chunk — so the
/// counters see each hit exactly once.
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
  HMPT_REQUIRE(options_.jobs >= 0, "jobs must be >= 0 (0 = hardware)");
}

int ExperimentRunner::resolved_jobs() const {
  return options_.jobs == 0 ? ThreadPool::hardware_jobs() : options_.jobs;
}

ThreadPool& ExperimentRunner::pool() {
  if (!pool_) pool_ = std::make_shared<ThreadPool>(resolved_jobs());
  return *pool_;
}

ConfigResult ExperimentRunner::measure_config(
    const sim::PhaseTrace& trace, const ConfigSpace& space, ConfigMask mask,
    sim::Placement& placement, sim::CachedTraceTimer* timer) const {
  HMPT_REQUIRE(mask < space.size(), "mask out of range");
  refill_placement(placement, mask, space.num_tiers());
  // The deterministic time is a pure function of the placement: compute it
  // once and apply per-repetition noise on top, instead of re-timing the
  // whole trace `repetitions` times.
  const double t = timer != nullptr
                       ? timer->time(placement)
                       : sim_->time_trace(trace, placement, ctx_);
  RunningStats runs;
  for (int rep = 0; rep < options_.repetitions; ++rep)
    runs.add(t * sim_->noise_factor({mask, static_cast<std::uint64_t>(rep)}));
  return {mask, runs.mean(), runs.stddev()};
}

ConfigResult ExperimentRunner::measure(const workloads::Workload& workload,
                                       const ConfigSpace& space,
                                       ConfigMask mask) {
  auto placement = space.placement(0);
  return measure_config(workload.trace(), space, mask, placement, nullptr);
}

std::vector<ConfigResult> ExperimentRunner::measure_batch(
    const workloads::Workload& workload, const ConfigSpace& space,
    const std::vector<ConfigMask>& masks) {
  const auto trace = workload.trace();
  std::vector<ConfigResult> results(masks.size());

  obs::TraceSpan span("experiment", "measure_batch");
  span.arg_number("masks", static_cast<std::uint64_t>(masks.size()));

  const int jobs = resolved_jobs();
  if (jobs <= 1 || masks.size() < 2) {
    sim::CachedTraceTimer timer(sim_->solver(), trace, ctx_);
    auto placement = space.placement(0);
    for (std::size_t i = 0; i < masks.size(); ++i)
      results[i] =
          measure_config(trace, space, masks[i], placement, &timer);
    note_timer_stats(timer);
    return results;
  }

  pool().parallel_chunks(masks.size(), [&](std::size_t begin,
                                           std::size_t end) {
    sim::CachedTraceTimer timer(sim_->solver(), trace, ctx_);
    auto placement = space.placement(0);
    for (std::size_t i = begin; i < end; ++i)
      results[i] =
          measure_config(trace, space, masks[i], placement, &timer);
    note_timer_stats(timer);
  });
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
  const auto trace = workload.trace();

  SweepResult sweep;
  sweep.num_groups = space.num_groups();
  sweep.num_tiers = space.num_tiers();
  sweep.configs.resize(space.size());

  // The Gray order starts at mask 0, so the all-DDR baseline is measured
  // (and reported) first.
  const auto masks = space.gray_masks();
  const int jobs = resolved_jobs();

  obs::TraceSpan span("experiment", "sweep");
  span.arg_number("configs", static_cast<std::uint64_t>(masks.size()));
  span.arg_number("jobs", static_cast<std::uint64_t>(jobs));

  if (jobs <= 1) {
    // Serial: one timer and one placement live across the whole
    // enumeration, so Gray order re-times only the phases touching the
    // flipped group and no configuration allocates.
    sim::CachedTraceTimer timer(sim_->solver(), trace, ctx_);
    auto placement = space.placement(0);
    for (const ConfigMask mask : masks) {
      sweep.configs[mask] =
          measure_config(trace, space, mask, placement, &timer);
      if (on_config) on_config(sweep.configs[mask]);
    }
    note_timer_stats(timer);
    sweep.baseline_time = sweep.configs[0].mean_time;
    return sweep;
  }

  // Parallel: the enumeration is split into contiguous chunks — each
  // worker keeps its own timer, so Gray-order adjacency still pays off
  // within a chunk. Per-mask result slots make the region write-disjoint.
  pool().parallel_chunks(masks.size(), [&](std::size_t begin,
                                           std::size_t end) {
    sim::CachedTraceTimer timer(sim_->solver(), trace, ctx_);
    auto placement = space.placement(0);
    for (std::size_t i = begin; i < end; ++i)
      sweep.configs[masks[i]] =
          measure_config(trace, space, masks[i], placement, &timer);
    note_timer_stats(timer);
  });
  sweep.baseline_time = sweep.configs[0].mean_time;

  // Callbacks fire after the barrier, from this thread, in enumeration
  // order — the exact sequence the serial sweep produces.
  if (on_config)
    for (const ConfigMask mask : masks) on_config(sweep.configs[mask]);
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
