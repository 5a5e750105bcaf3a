// Tests for hmpt::sim — pool curves, cache hierarchy, phase solver,
// roofline, simulator front-end. These pin down the mechanisms the paper's
// platform analysis (Sec. I-A) reports.
#include <gtest/gtest.h>

#include "common/error.h"
#include "common/units.h"
#include "simmem/simulator.h"

namespace hmpt::sim {
namespace {

using topo::PoolKind;

class PoolModelTest : public ::testing::Test {
 protected:
  topo::Machine machine_ = topo::xeon_max_9468_single_flat_snc4();
  MemSystemConfig config_ = default_spr_hbm_calibration();
  PoolPerfModel model_{machine_, config_};
};

TEST_F(PoolModelTest, HbmLatencyIsTwentyPercentHigher) {
  const double ratio = model_.idle_latency(PoolKind::HBM) /
                       model_.idle_latency(PoolKind::DDR);
  EXPECT_NEAR(ratio, 1.2, 0.02);
}

TEST_F(PoolModelTest, SocketSaturationMatchesPaper) {
  // ~200 GB/s DDR and ~700 GB/s HBM achieved per socket (Fig. 2).
  const double ddr = model_.stream_bandwidth(PoolKind::DDR, 48, 4);
  const double hbm = model_.stream_bandwidth(PoolKind::HBM, 48, 4);
  EXPECT_NEAR(ddr / GB, 200.0, 5.0);
  EXPECT_NEAR(hbm / GB, 675.0, 50.0);
}

TEST_F(PoolModelTest, DdrSaturatesEarlyHbmKeepsScaling) {
  // Fig. 2 shape: DDR flat from ~4 threads/tile, HBM still rising at 12.
  const double ddr4 = model_.stream_bandwidth(PoolKind::DDR, 16, 4);
  const double ddr12 = model_.stream_bandwidth(PoolKind::DDR, 48, 4);
  EXPECT_NEAR(ddr12 / ddr4, 1.0, 0.03);
  const double hbm8 = model_.stream_bandwidth(PoolKind::HBM, 32, 4);
  const double hbm12 = model_.stream_bandwidth(PoolKind::HBM, 48, 4);
  EXPECT_GT(hbm12 / hbm8, 1.2);
}

TEST_F(PoolModelTest, StreamBandwidthMonotoneInThreads) {
  for (PoolKind kind : {PoolKind::DDR, PoolKind::HBM}) {
    double prev = 0.0;
    for (int t = 1; t <= 48; ++t) {
      const double bw = model_.stream_bandwidth(kind, t, 4);
      EXPECT_GE(bw, prev);
      prev = bw;
    }
  }
}

TEST_F(PoolModelTest, SingleThreadPrefersDdr) {
  // Lower latency wins when parallelism cannot be exploited.
  EXPECT_GT(model_.stream_bandwidth(PoolKind::DDR, 1, 1),
            model_.stream_bandwidth(PoolKind::HBM, 1, 1));
  EXPECT_GT(model_.random_bandwidth(PoolKind::DDR, 1, 1),
            model_.random_bandwidth(PoolKind::HBM, 1, 1));
}

TEST_F(PoolModelTest, RandomCrossoverAtHighThreadCounts) {
  // Fig. 4: the indirect sum catches up only near full occupancy.
  const double lo = model_.random_bandwidth(PoolKind::HBM, 8, 4) /
                    model_.random_bandwidth(PoolKind::DDR, 8, 4);
  const double hi = model_.random_bandwidth(PoolKind::HBM, 48, 4) /
                    model_.random_bandwidth(PoolKind::DDR, 48, 4);
  EXPECT_LT(lo, 0.9);
  EXPECT_GT(hi, 1.0);
}

TEST_F(PoolModelTest, ChaseBandwidthIsLatencyBound) {
  const double one = model_.chase_bandwidth(PoolKind::DDR, 1);
  EXPECT_NEAR(one, kCacheLine / config_.of(PoolKind::DDR).idle_latency,
              1e-6);
  // Scales linearly with threads (one outstanding miss each, Sec. I-A).
  EXPECT_NEAR(model_.chase_bandwidth(PoolKind::DDR, 48) / one, 48.0, 1e-9);
  // DDR beats HBM at any thread count.
  EXPECT_GT(model_.chase_bandwidth(PoolKind::DDR, 48),
            model_.chase_bandwidth(PoolKind::HBM, 48));
}

TEST_F(PoolModelTest, ComputeRateScalesWithThreadsAndVectorization) {
  EXPECT_DOUBLE_EQ(model_.compute_rate(2, true),
                   2.0 * model_.compute_rate(1, true));
  EXPECT_GT(model_.compute_rate(1, true), model_.compute_rate(1, false));
}

TEST_F(PoolModelTest, InvalidArgumentsThrow) {
  EXPECT_THROW(model_.stream_bandwidth(PoolKind::DDR, 0, 1), Error);
  EXPECT_THROW(model_.stream_bandwidth(PoolKind::DDR, 1, 0), Error);
  EXPECT_THROW(model_.stream_bandwidth(PoolKind::DDR, 1, 99), Error);
  EXPECT_THROW(model_.chase_bandwidth(PoolKind::DDR, 0), Error);
}

// ------------------------------------------------------------------- cache
TEST(CacheTest, HitFractionsPartitionTheWindow) {
  const auto cache = spr_single_core_hierarchy();
  for (double window : {8.0 * KB, 256.0 * KB, 8.0 * MB, 256.0 * MB}) {
    const auto fractions = cache.hit_fractions(window);
    double total = cache.memory_fraction(window);
    for (double f : fractions) total += f;
    EXPECT_NEAR(total, 1.0, 1e-12) << window;
  }
}

TEST(CacheTest, LatencyPlateausMatchFig3) {
  const auto cache = spr_single_core_hierarchy();
  const double ddr_lat = 107.0 * ns;
  // L1-resident window: ~L1 latency.
  EXPECT_NEAR(cache.effective_latency(8.0 * KB, ddr_lat) / ns, 1.9, 0.1);
  // Out-of-cache window: approaches memory latency.
  EXPECT_GT(cache.effective_latency(256.0 * MB, ddr_lat) / ns, 95.0);
  // Monotone in window size.
  double prev = 0.0;
  for (int e = 3; e <= 18; ++e) {
    const double lat =
        cache.effective_latency(static_cast<double>(1 << e) * KB, ddr_lat);
    EXPECT_GE(lat, prev);
    prev = lat;
  }
}

TEST(CacheTest, InvalidHierarchyThrows) {
  EXPECT_THROW(CacheHierarchy({}), Error);
  // Non-increasing capacities rejected.
  EXPECT_THROW(CacheHierarchy({{"L1", 64.0 * KiB, 1.0 * ns},
                               {"L2", 32.0 * KiB, 5.0 * ns}}),
               Error);
}

// ------------------------------------------------------------------ phases
TEST(PhaseTraceTest, AggregatesBytesAndFlops) {
  PhaseTrace trace;
  KernelPhase phase;
  phase.flops = 100.0;
  phase.streams.push_back({0, 10.0, 5.0, AccessPattern::Sequential, true,
                           0.0});
  phase.streams.push_back({2, 20.0, 0.0, AccessPattern::Random, true, 0.0});
  trace.phases.push_back(phase);
  EXPECT_DOUBLE_EQ(trace.total_bytes(), 35.0);
  EXPECT_DOUBLE_EQ(trace.total_bytes_of_group(0), 15.0);
  EXPECT_DOUBLE_EQ(trace.total_flops(), 100.0);
  EXPECT_EQ(trace.num_groups(), 3);
  EXPECT_NEAR(trace.access_fraction(2), 20.0 / 35.0, 1e-12);
}

TEST(PhaseTraceTest, ScaleAndAppend) {
  PhaseTrace a;
  KernelPhase phase;
  phase.flops = 10.0;
  phase.streams.push_back({0, 8.0, 0.0, AccessPattern::Sequential, true,
                           0.0});
  a.phases.push_back(phase);
  PhaseTrace b = a;
  a.append(b);
  EXPECT_EQ(a.phases.size(), 2u);
  a.scale(0.5);
  EXPECT_DOUBLE_EQ(a.total_bytes(), 8.0);
  EXPECT_DOUBLE_EQ(a.total_flops(), 10.0);
  EXPECT_THROW(a.scale(0.0), Error);
}

// ------------------------------------------------------------------ solver
class SolverTest : public ::testing::Test {
 protected:
  topo::Machine machine_ = topo::xeon_max_9468_single_flat_snc4();
  MemSystemConfig config_ = default_spr_hbm_calibration();
  PoolPerfModel model_{machine_, config_};
  CacheHierarchy cache_ = spr_single_core_hierarchy();
  StreamBottleneckSolver solver_{model_, cache_};
  ExecutionContext ctx_{48, 4};
};

TEST_F(SolverTest, SingleStreamMatchesBandwidthDivision) {
  KernelPhase phase;
  phase.streams.push_back({0, 100.0 * GB, 0.0, AccessPattern::Sequential,
                           true, 0.0});
  const auto ddr = solver_.time_phase(
      phase, [](int) { return PoolKind::DDR; }, ctx_);
  EXPECT_NEAR(ddr.total,
              100.0 * GB / model_.stream_bandwidth(PoolKind::DDR, 48, 4),
              1e-9);
  EXPECT_EQ(ddr.bottleneck, static_cast<int>(PoolKind::DDR));
}

TEST_F(SolverTest, SplitStreamsUseBothPoolsConcurrently) {
  // Two equal streams: placing one in HBM should shrink time towards the
  // DDR stream alone — the pools' bandwidths add up.
  KernelPhase phase;
  phase.streams.push_back({0, 50.0 * GB, 0.0, AccessPattern::Sequential,
                           true, 0.0});
  phase.streams.push_back({1, 50.0 * GB, 0.0, AccessPattern::Sequential,
                           true, 0.0});
  const auto all_ddr = solver_.time_phase(
      phase, [](int) { return PoolKind::DDR; }, ctx_);
  const auto split = solver_.time_phase(
      phase, [](int g) { return g == 0 ? PoolKind::DDR : PoolKind::HBM; },
      ctx_);
  EXPECT_NEAR(split.total, all_ddr.total / 2.0, all_ddr.total * 0.01);
}

TEST_F(SolverTest, ComputeFloorClipsFastPlacements) {
  KernelPhase phase;
  phase.streams.push_back({0, 10.0 * GB, 0.0, AccessPattern::Sequential,
                           true, 0.0});
  phase.flops = 1e12;
  const double compute_time = 1e12 / model_.compute_rate(48, true);
  const auto hbm = solver_.time_phase(
      phase, [](int) { return PoolKind::HBM; }, ctx_);
  EXPECT_GE(hbm.total, compute_time * (1.0 - 1e-12));
}

TEST_F(SolverTest, CrossPoolWritePenaltyIsDirectional) {
  // Copy kernel (Fig. 5a): HBM->DDR suffers, DDR->HBM does not.
  KernelPhase copy;
  copy.streams.push_back({0, 16.0 * GB, 0.0, AccessPattern::Sequential,
                          true, 0.0});
  copy.streams.push_back({1, 0.0, 16.0 * GB, AccessPattern::Sequential,
                          true, 0.0});
  const auto h2d = solver_.time_phase(
      copy, [](int g) { return g == 0 ? PoolKind::HBM : PoolKind::DDR; },
      ctx_);
  const auto d2h = solver_.time_phase(
      copy, [](int g) { return g == 0 ? PoolKind::DDR : PoolKind::HBM; },
      ctx_);
  // Without the penalty both would be ~16 GB / 200 GB/s; with it the
  // HBM->DDR direction is ~1/0.65 slower.
  EXPECT_NEAR(h2d.total / d2h.total, 1.0 / 0.65, 0.05);
}

TEST_F(SolverTest, WriteAllocateAddsRfoTraffic) {
  KernelPhase nt;
  nt.streams.push_back({0, 0.0, 16.0 * GB, AccessPattern::Sequential, true,
                        0.0});
  KernelPhase rfo = nt;
  rfo.streams[0].nontemporal_writes = false;
  const auto placement = [](int) { return PoolKind::DDR; };
  const double t_nt = solver_.time_phase(nt, placement, ctx_).total;
  const double t_rfo = solver_.time_phase(rfo, placement, ctx_).total;
  EXPECT_NEAR(t_rfo / t_nt, 2.0, 1e-9);  // write_allocate_read_factor = 1
}

TEST_F(SolverTest, ChaseStreamPrefersDdr) {
  KernelPhase chase;
  chase.streams.push_back({0, 1.0 * GB, 0.0, AccessPattern::PointerChase,
                           true, 8.0 * GB});
  const double t_ddr = solver_.time_phase(
      chase, [](int) { return PoolKind::DDR; }, ctx_).total;
  const double t_hbm = solver_.time_phase(
      chase, [](int) { return PoolKind::HBM; }, ctx_).total;
  EXPECT_GT(t_hbm, t_ddr);
  EXPECT_NEAR(t_hbm / t_ddr, 1.196, 0.02);
}

TEST_F(SolverTest, TraceTimeIsSumOfPhases) {
  KernelPhase phase;
  phase.streams.push_back({0, 10.0 * GB, 0.0, AccessPattern::Sequential,
                           true, 0.0});
  PhaseTrace trace;
  trace.phases = {phase, phase, phase};
  const auto placement = Placement::uniform(1, PoolKind::DDR);
  const double one = solver_.time_phase(phase, placement.fn(), ctx_).total;
  EXPECT_NEAR(solver_.time_trace(trace, placement, ctx_), 3.0 * one, 1e-12);
}

TEST_F(SolverTest, PhaseBandwidthCountsAllBytes) {
  const double bytes = 16.0 * GB;
  KernelPhase copy;
  copy.streams.push_back({0, bytes, 0.0, AccessPattern::Sequential, true,
                          0.0});
  copy.streams.push_back({1, 0.0, bytes, AccessPattern::Sequential, true,
                          0.0});
  const double bw = solver_.phase_bandwidth(
      copy, [](int) { return PoolKind::DDR; }, ctx_);
  const double ref = model_.stream_bandwidth(PoolKind::DDR, 48, 4);
  EXPECT_NEAR(bw, ref, ref * 1e-12);
}

// --------------------------------------------------------------- placement
TEST(PlacementTest, UniformAndSetters) {
  auto p = Placement::uniform(3, PoolKind::DDR);
  EXPECT_EQ(p.size(), 3);
  p.set(1, PoolKind::HBM);
  EXPECT_EQ(p.of(0), PoolKind::DDR);
  EXPECT_EQ(p.of(1), PoolKind::HBM);
  EXPECT_THROW(p.of(3), Error);
  EXPECT_THROW(p.set(-1, PoolKind::DDR), Error);
}

// ---------------------------------------------------------------- roofline
TEST(RooflineTest, CeilingsMatchFig8) {
  const auto roofline = spr_hbm_roofline();
  EXPECT_DOUBLE_EQ(roofline.bandwidth_of("HBM"), 700.0 * GB);
  EXPECT_DOUBLE_EQ(roofline.bandwidth_of("DDR"), 200.0 * GB);
  EXPECT_DOUBLE_EQ(roofline.peak_compute(), 3225.6e9);
  EXPECT_THROW(roofline.bandwidth_of("L4"), Error);
}

TEST(RooflineTest, AttainableIsMinOfRoofs) {
  const auto roofline = spr_hbm_roofline();
  // Memory-bound region: performance = AI * BW.
  EXPECT_NEAR(roofline.attainable(0.1, "DDR"), 0.1 * 200.0 * GB, 1.0);
  // Compute-bound region: clipped at peak.
  EXPECT_DOUBLE_EQ(roofline.attainable(1000.0, "DDR"), 3225.6e9);
  // Ridge points: HBM's is left of DDR's.
  EXPECT_LT(roofline.ridge_point("HBM"), roofline.ridge_point("DDR"));
  EXPECT_NEAR(roofline.ridge_point("HBM"), 3225.6 / 700.0, 1e-9);
}

// --------------------------------------------------------------- simulator
TEST(SimulatorTest, NoiseFreeMeasurementIsDeterministic) {
  auto simulator = MachineSimulator::paper_platform();
  KernelPhase phase;
  phase.streams.push_back({0, 10.0 * GB, 0.0, AccessPattern::Sequential,
                           true, 0.0});
  PhaseTrace trace;
  trace.phases.push_back(phase);
  const auto placement = Placement::uniform(1, PoolKind::DDR);
  const auto ctx = simulator.full_machine();
  const double a = simulator.measure_trace(trace, placement, ctx, {0, 0});
  const double b = simulator.measure_trace(trace, placement, ctx, {0, 1});
  EXPECT_DOUBLE_EQ(a, b);
}

TEST(SimulatorTest, NoiseStaysWithinReason) {
  MachineSimulator simulator(topo::xeon_max_9468_duo_flat_snc4(),
                             default_spr_hbm_calibration(), {0.02, 99});
  KernelPhase phase;
  phase.streams.push_back({0, 10.0 * GB, 0.0, AccessPattern::Sequential,
                           true, 0.0});
  PhaseTrace trace;
  trace.phases.push_back(phase);
  const auto placement = Placement::uniform(1, PoolKind::DDR);
  const auto ctx = simulator.full_machine();
  const double clean = simulator.time_trace(trace, placement, ctx);
  for (int i = 0; i < 50; ++i) {
    const double noisy = simulator.measure_trace(
        trace, placement, ctx, {0, static_cast<std::uint64_t>(i)});
    EXPECT_NEAR(noisy / clean, 1.0, 0.15);
    EXPECT_GT(noisy, 0.0);
  }
}

TEST(SimulatorTest, NoiseStreamsAreCallOrderIndependent) {
  // The determinism guarantee of simulator.h: the noise of a given
  // (stream, repetition) key is a pure function of the key, whatever ran
  // before — a sweep in any order and cheaper strategies see identical
  // noise.
  MachineSimulator simulator(topo::xeon_max_9468_duo_flat_snc4(),
                             default_spr_hbm_calibration(), {0.02, 99});
  KernelPhase phase;
  phase.streams.push_back({0, 10.0 * GB, 0.0, AccessPattern::Sequential,
                           true, 0.0});
  PhaseTrace trace;
  trace.phases.push_back(phase);
  const auto placement = Placement::uniform(1, PoolKind::DDR);
  const auto ctx = simulator.full_machine();

  const double first = simulator.measure_trace(trace, placement, ctx, {3, 1});
  for (int i = 0; i < 7; ++i)  // interleave unrelated measurements
    simulator.measure_trace(trace, placement, ctx,
                            {static_cast<std::uint64_t>(i), 0});
  // Exactly reproducible, and genuinely distinct across streams and reps.
  EXPECT_EQ(first, simulator.measure_trace(trace, placement, ctx, {3, 1}));
  EXPECT_NE(first, simulator.measure_trace(trace, placement, ctx, {3, 2}));
  EXPECT_NE(first, simulator.measure_trace(trace, placement, ctx, {4, 1}));

  // Distinct seeds give distinct streams for the same key.
  MachineSimulator reseeded(topo::xeon_max_9468_duo_flat_snc4(),
                            default_spr_hbm_calibration(), {0.02, 100});
  EXPECT_NE(first, reseeded.measure_trace(trace, placement, ctx, {3, 1}));
}

TEST(SimulatorTest, SocketContextValidatesThreads) {
  auto simulator = MachineSimulator::paper_platform_single();
  const auto ctx = simulator.socket_context(6);
  EXPECT_EQ(ctx.threads, 24);
  EXPECT_EQ(ctx.tiles, 4);
  EXPECT_THROW(simulator.socket_context(0), Error);
  EXPECT_THROW(simulator.socket_context(13), Error);
}

TEST(SimulatorTest, ChaseLatencyWindowSweepHitsBothEnds) {
  auto simulator = MachineSimulator::paper_platform_single();
  EXPECT_LT(simulator.chase_latency(8.0 * KB, PoolKind::DDR), 3.0 * ns);
  EXPECT_GT(simulator.chase_latency(256.0 * MB, PoolKind::HBM), 110.0 * ns);
}

}  // namespace
}  // namespace hmpt::sim
