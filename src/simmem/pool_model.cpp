#include "simmem/pool_model.h"

#include <cmath>

#include "common/error.h"

namespace hmpt::sim {

PoolPerfModel::PoolPerfModel(const topo::Machine& machine,
                             MemSystemConfig config)
    : machine_(&machine), config_(config) {
  // Validate exactly the pool kinds the machine exposes: two-tier
  // calibrations leave the CXL slot zeroed, and no query ever reaches a
  // kind the machine does not have.
  for (int k = 0; k < topo::kNumPoolKinds; ++k) {
    if (!machine.has_kind(static_cast<topo::PoolKind>(k))) continue;
    HMPT_REQUIRE(config_.pool[k].sat_bandwidth_per_tile > 0,
                 "pool saturation bandwidth must be positive");
    HMPT_REQUIRE(config_.pool[k].idle_latency > 0,
                 "pool latency must be positive");
  }
}

double PoolPerfModel::idle_latency(topo::PoolKind kind) const {
  return config_.of(kind).idle_latency;
}

double PoolPerfModel::smooth_min(double linear, double saturation) const {
  // p-norm smooth minimum: reproduces the gradual knee of Fig. 2 without a
  // discontinuous slope change.
  const double p = config_.saturation_sharpness;
  const double a = std::pow(linear, -p);
  const double b = std::pow(saturation, -p);
  return std::pow(a + b, -1.0 / p);
}

double PoolPerfModel::per_core_stream_bandwidth(topo::PoolKind kind) const {
  return config_.mlp_stream * kCacheLine / config_.of(kind).idle_latency;
}

double PoolPerfModel::per_core_random_bandwidth(topo::PoolKind kind) const {
  return config_.mlp_random * kCacheLine / config_.of(kind).idle_latency;
}

double PoolPerfModel::stream_bandwidth(topo::PoolKind kind, int threads,
                                       int tiles) const {
  HMPT_REQUIRE(threads >= 1, "stream_bandwidth needs >= 1 thread");
  HMPT_REQUIRE(tiles >= 1 && tiles <= machine_->num_tiles(),
               "tile count out of range");
  const double linear = threads * per_core_stream_bandwidth(kind);
  const double saturation =
      tiles * config_.of(kind).sat_bandwidth_per_tile;
  return smooth_min(linear, saturation);
}

double PoolPerfModel::random_bandwidth(topo::PoolKind kind, int threads,
                                       int tiles) const {
  HMPT_REQUIRE(threads >= 1, "random_bandwidth needs >= 1 thread");
  HMPT_REQUIRE(tiles >= 1 && tiles <= machine_->num_tiles(),
               "tile count out of range");
  const double linear = threads * per_core_random_bandwidth(kind);
  const double saturation =
      tiles * config_.of(kind).rand_bandwidth_per_tile;
  return smooth_min(linear, saturation);
}

double PoolPerfModel::chase_bandwidth(topo::PoolKind, int threads,
                                      double effective_latency) const {
  HMPT_REQUIRE(threads >= 1, "chase_bandwidth needs >= 1 thread");
  HMPT_REQUIRE(effective_latency > 0, "latency must be positive");
  // One outstanding line per thread; the paper observes this never
  // saturates either pool up to 48 cores (Sec. I-A), so the pool kind
  // enters only through the latency.
  return threads * config_.mlp_chase * kCacheLine / effective_latency;
}

double PoolPerfModel::chase_bandwidth(topo::PoolKind kind,
                                      int threads) const {
  return chase_bandwidth(kind, threads, idle_latency(kind));
}

double PoolPerfModel::compute_rate(int threads, bool vectorized) const {
  const double per_core = vectorized ? config_.vector_flops_per_core
                                     : config_.scalar_flops_per_core;
  return threads * per_core * config_.compute_efficiency;
}

}  // namespace hmpt::sim
