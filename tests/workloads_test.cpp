// Tests for hmpt::workloads — STREAM, pointer chase, random sum, FFT,
// mini k-Wave, mini NPB kernels and the paper-scale app models.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <functional>

#include "common/error.h"
#include "common/rng.h"
#include "common/units.h"
#include "simmem/simulator.h"
#include "workloads/app_models.h"
#include "workloads/fft.h"
#include "workloads/kwave.h"
#include "workloads/npb_kernels.h"
#include "workloads/pointer_chase.h"
#include "workloads/random_access.h"
#include "workloads/stream.h"
#include "workloads/trace_io.h"

namespace hmpt::workloads {
namespace {

using topo::PoolKind;

class WorkloadFixture : public ::testing::Test {
 protected:
  topo::Machine machine_ = topo::xeon_max_9468_single_flat_snc4();
  pools::PoolAllocator pool_{machine_};
  shim::ShimAllocator shim_{pool_};
};

// ------------------------------------------------------------------ STREAM
TEST(StreamTest, PhaseShapesMatchKernelDefinitions) {
  const auto copy = make_stream_phase(StreamKernel::Copy, 16.0 * GB);
  ASSERT_EQ(copy.streams.size(), 2u);
  EXPECT_DOUBLE_EQ(copy.streams[0].bytes_read, 16.0 * GB);
  EXPECT_DOUBLE_EQ(copy.streams[1].bytes_written, 16.0 * GB);
  EXPECT_DOUBLE_EQ(copy.flops, 0.0);

  const auto triad = make_stream_phase(StreamKernel::Triad, 8.0 * GB);
  ASSERT_EQ(triad.streams.size(), 3u);
  EXPECT_DOUBLE_EQ(triad.flops, 2.0 * 8.0 * GB / sizeof(double));
  EXPECT_EQ(stream_arity(StreamKernel::Add), 3);
  EXPECT_EQ(stream_arity(StreamKernel::Scale), 2);
}

TEST(StreamTest, WorkloadTraceCoversAllKernelsAndIterations) {
  StreamWorkload workload(1.0 * GB, 5);
  EXPECT_EQ(workload.num_groups(), 3);
  const auto trace = workload.trace();
  EXPECT_EQ(trace.phases.size(), 20u);
  EXPECT_NEAR(workload.footprint_fraction(0), 1.0 / 3.0, 1e-12);
}

TEST_F(WorkloadFixture, MiniStreamValidates) {
  const auto result = run_mini_stream(shim_, 4096, 3);
  EXPECT_LT(result.max_residual, 1e-9);
  EXPECT_EQ(result.trace.phases.size(), 12u);
  EXPECT_EQ(shim_.registry().live_count(), 0u);  // arrays freed on scope
}

TEST_F(WorkloadFixture, MiniStreamFeedsSampler) {
  sample::IbsSampler sampler({256, sample::SamplingMode::Poisson, 1});
  const auto result = run_mini_stream(shim_, 8192, 2, &sampler);
  EXPECT_LT(result.max_residual, 1e-9);
  const auto report = sampler.report();
  EXPECT_GT(report.samples_kept, 100u);
  EXPECT_EQ(report.samples_unattributed, 0u);
  EXPECT_EQ(report.per_tag.size(), 3u);  // a, b, c
}

// ------------------------------------------------------------ pointer chase
TEST_F(WorkloadFixture, MiniChaseVisitsFullCycle) {
  const auto result = run_mini_chase(shim_, 1024, 5000);
  EXPECT_TRUE(result.full_cycle);
  EXPECT_LT(result.final_index, 1024u);
  ASSERT_EQ(result.trace.phases.size(), 1u);
  EXPECT_EQ(result.trace.phases[0].streams[0].pattern,
            sim::AccessPattern::PointerChase);
}

TEST(ChaseWorkloadTest, TraceReflectsWindowAndAccesses) {
  PointerChaseWorkload workload(64.0 * MB, 1e6);
  const auto trace = workload.trace();
  EXPECT_DOUBLE_EQ(trace.phases[0].streams[0].working_set_bytes, 64.0 * MB);
  EXPECT_DOUBLE_EQ(trace.total_bytes(), 1e6 * kCacheLine);
}

// -------------------------------------------------------------- random sum
TEST_F(WorkloadFixture, MiniRandomSumMatchesReference) {
  const auto result = run_mini_random_sum(shim_, 4096, 20'000);
  EXPECT_DOUBLE_EQ(result.sum, result.reference);
}

TEST(RandomSumWorkloadTest, PatternsSplitDataAndIndex) {
  RandomSumWorkload workload(1.0 * GB, 1e6);
  const auto trace = workload.trace();
  ASSERT_EQ(trace.phases[0].streams.size(), 2u);
  EXPECT_EQ(trace.phases[0].streams[0].pattern, sim::AccessPattern::Random);
  EXPECT_EQ(trace.phases[0].streams[1].pattern,
            sim::AccessPattern::Sequential);
}

// --------------------------------------------------------------------- FFT
TEST(FftTest, RoundTripRecoversSignal) {
  std::vector<Complex> data(256);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = Complex(std::sin(0.1 * static_cast<double>(i)),
                      std::cos(0.05 * static_cast<double>(i)));
  const auto original = data;
  fft_inplace(data, false);
  fft_inplace(data, true);
  for (std::size_t i = 0; i < data.size(); ++i)
    EXPECT_NEAR(std::abs(data[i] - original[i]), 0.0, 1e-10) << i;
}

TEST(FftTest, DeltaTransformsToConstant) {
  std::vector<Complex> data(64, Complex(0, 0));
  data[0] = Complex(1, 0);
  fft_inplace(data, false);
  for (const auto& v : data) EXPECT_NEAR(std::abs(v - Complex(1, 0)), 0.0,
                                         1e-12);
}

TEST(FftTest, SingleModeHasSingleBin) {
  const std::size_t n = 128;
  std::vector<Complex> data(n);
  const int k = 5;
  for (std::size_t i = 0; i < n; ++i) {
    const double phase = 2.0 * M_PI * k * static_cast<double>(i) /
                         static_cast<double>(n);
    data[i] = Complex(std::cos(phase), std::sin(phase));
  }
  fft_inplace(data, false);
  for (std::size_t i = 0; i < n; ++i) {
    const double expected = i == static_cast<std::size_t>(k)
                                ? static_cast<double>(n)
                                : 0.0;
    EXPECT_NEAR(std::abs(data[i]), expected, 1e-9) << i;
  }
}

TEST(FftTest, ParsevalHolds) {
  std::vector<Complex> data(512);
  Rng rng(3);
  double time_energy = 0.0;
  for (auto& v : data) {
    v = Complex(rng.next_double() - 0.5, rng.next_double() - 0.5);
    time_energy += std::norm(v);
  }
  fft_inplace(data, false);
  double freq_energy = 0.0;
  for (const auto& v : data) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy / static_cast<double>(data.size()), time_energy,
              1e-9);
}

TEST(FftTest, ThreeDimensionalRoundTrip) {
  const std::size_t n = 8;
  std::vector<Complex> vol(n * n * n);
  Rng rng(4);
  for (auto& v : vol) v = Complex(rng.next_double(), rng.next_double());
  const auto original = vol;
  fft3d_inplace(vol.data(), n, n, n, false);
  fft3d_inplace(vol.data(), n, n, n, true);
  for (std::size_t i = 0; i < vol.size(); ++i)
    EXPECT_NEAR(std::abs(vol[i] - original[i]), 0.0, 1e-10);
}

TEST(FftTest, NonPowerOfTwoRejected) {
  std::vector<Complex> data(100);
  EXPECT_THROW(fft_inplace(data, false), hmpt::Error);
  EXPECT_FALSE(is_pow2(0));
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(4096));
}

TEST(FftTest, FlopCountsScale) {
  EXPECT_DOUBLE_EQ(fft_flops(1), 0.0);
  EXPECT_DOUBLE_EQ(fft_flops(8), 5.0 * 8.0 * 3.0);
  EXPECT_GT(fft3d_flops(16, 16, 16), 3.0 * fft_flops(16) * 256.0 * 0.99);
}

// ------------------------------------------------------------------ k-Wave
TEST_F(WorkloadFixture, MiniKWaveStaysFiniteAndConservesMass) {
  KWaveConfig config;
  config.n = 8;
  config.steps = 3;
  const auto result = run_mini_kwave(shim_, config);
  EXPECT_TRUE(result.finite);
  EXPECT_GT(result.max_pressure, 0.0);
  // drho/dt = -rho0 div(u): the k=0 mode is untouched, so the mean density
  // (relative to the initial mean) must be conserved to FP precision.
  EXPECT_LT(result.mass_drift, 1e-12);
}

TEST(KWaveTraceTest, GroupFootprintsMatchPaperScale) {
  const auto groups = kwave_groups(512);
  double total = 0.0;
  for (const auto& g : groups) total += g.bytes;
  EXPECT_NEAR(total / GB, 9.79, 0.15);  // Table I: 9.79 GB
  // fft_tmp (two complex fields) dominates the footprint.
  EXPECT_GT(groups[3].bytes, groups[2].bytes);
}

TEST(KWaveTraceTest, FftTemporariesDominateTraffic) {
  const auto trace = kwave_trace(64, 2);
  double tmp_bytes = trace.total_bytes_of_group(3);
  EXPECT_GT(tmp_bytes / trace.total_bytes(), 0.5);
}

// --------------------------------------------------------------- NPB minis
TEST_F(WorkloadFixture, MiniMgReducesResidual) {
  MiniMgConfig config;
  config.n = 16;
  config.v_cycles = 3;
  const auto result = run_mini_mg(shim_, config);
  EXPECT_TRUE(result.converging);
  EXPECT_LT(result.final_residual, 0.5 * result.initial_residual);
}

TEST_F(WorkloadFixture, MiniMgTraceHasThreeGroups) {
  MiniMgConfig config;
  config.n = 8;
  config.v_cycles = 1;
  const auto result = run_mini_mg(shim_, config);
  EXPECT_EQ(result.trace.num_groups(), 3);
  // u and r dominate the traffic; v is touched only at the finest level.
  const double u_frac = result.trace.access_fraction(0);
  const double r_frac = result.trace.access_fraction(1);
  const double v_frac = result.trace.access_fraction(2);
  EXPECT_GT(u_frac + r_frac, 0.85);
  EXPECT_LT(v_frac, 0.15);
}

TEST_F(WorkloadFixture, MiniIsSortsCorrectly) {
  MiniIsConfig config;
  config.num_keys = 1u << 12;
  config.max_key = 1u << 8;
  const auto result = run_mini_is(shim_, config);
  EXPECT_TRUE(result.sorted);
  EXPECT_TRUE(result.permutation_ok);
  EXPECT_EQ(result.trace.num_groups(), 4);
}

TEST_F(WorkloadFixture, MiniIsSamplerSeesHistogramTraffic) {
  sample::IbsSampler sampler({64, sample::SamplingMode::Poisson, 2});
  MiniIsConfig config;
  config.num_keys = 1u << 12;
  config.max_key = 1u << 8;
  const auto result = run_mini_is(shim_, config, &sampler);
  EXPECT_TRUE(result.sorted);
  EXPECT_GE(sampler.report().per_tag.size(), 3u);
}

// -------------------------------------------------------------- app models
class AppModelTest : public ::testing::Test {
 protected:
  sim::MachineSimulator sim_ = sim::MachineSimulator::paper_platform();
};

TEST_F(AppModelTest, SuiteMatchesTableOne) {
  const auto suite = paper_benchmark_suite(sim_);
  ASSERT_EQ(suite.size(), 7u);
  // Table I memory usage within 2 %.
  const double expected_gb[] = {26.46, 10.68, 8.65, 11.19, 7.25, 20.0,
                                9.79};
  const int expected_allocs[] = {3, 9, 7, 10, 56, 4, 34};
  for (std::size_t i = 0; i < suite.size(); ++i) {
    EXPECT_NEAR(suite[i].memory_bytes / GB, expected_gb[i],
                expected_gb[i] * 0.02)
        << suite[i].name;
    EXPECT_EQ(suite[i].filtered_allocations, expected_allocs[i]);
    EXPECT_GE(suite[i].workload->num_groups(), 3);
  }
}

TEST_F(AppModelTest, GroupFootprintsSumToAppFootprint) {
  for (const auto& app : paper_benchmark_suite(sim_)) {
    double total = 0.0;
    for (const auto& g : app.workload->groups()) total += g.bytes;
    EXPECT_NEAR(total, app.memory_bytes, app.memory_bytes * 1e-6)
        << app.name;
  }
}

TEST_F(AppModelTest, TracesReferenceOnlyDeclaredGroups) {
  for (const auto& app : paper_benchmark_suite(sim_)) {
    const auto trace = app.workload->trace();
    EXPECT_LE(trace.num_groups(), app.workload->num_groups()) << app.name;
    EXPECT_GT(trace.total_bytes(), 0.0);
  }
}

TEST_F(AppModelTest, ArithmeticIntensityOrdersLikeFig8) {
  // BT (compute-heavy) must have far higher AI than MG (bandwidth-bound).
  const double ai_mg =
      arithmetic_intensity(*make_mg_model(sim_).workload);
  const double ai_bt =
      arithmetic_intensity(*make_bt_model(sim_).workload);
  EXPECT_GT(ai_bt, 3.0 * ai_mg);
}

TEST_F(AppModelTest, SyntheticBuilderValidatesInput) {
  const auto ctx = sim_.full_machine();
  EXPECT_THROW(make_synthetic_app("x", 1.0 * GB, {{"g", 0.5}}, {}, 10.0,
                                  sim_, ctx),
               hmpt::Error);  // fractions must sum to 1
  EXPECT_THROW(make_synthetic_app("x", 0.0, {{"g", 1.0}}, {}, 10.0, sim_,
                                  ctx),
               hmpt::Error);
}

TEST_F(AppModelTest, SyntheticAppRoundTripsTimeFractions) {
  // A single group with seq_time 0.6 plus compute 0.4 must run in exactly
  // `runtime` seconds when everything stays in DDR.
  const auto ctx = sim_.full_machine();
  const double runtime = 25.0;
  const auto wl = make_synthetic_app(
      "probe", 1.0 * GB, {{"g", 1.0}},
      {{"sweep", {{0, 0.6, 0.0}}, 0.0}, {"comp", {}, 0.4}}, runtime, sim_,
      ctx);
  const double t = sim_.time_trace(
      wl->trace(), sim::Placement::uniform(1, PoolKind::DDR), ctx);
  EXPECT_NEAR(t, runtime, runtime * 1e-6);
}

// ---------------------------------------------------------------- trace_io

TEST(TraceIoTest, ProfileRoundTripsLosslessly) {
  // Serialise -> parse -> serialise must be a fixed point: the profile
  // format stores doubles at 17 significant digits, so a recorded
  // workload replays with bit-identical traffic.
  auto sim = sim::MachineSimulator::paper_platform();
  for (const auto& app : paper_benchmark_suite(sim)) {
    const std::string text = serialize_workload(*app.workload);
    const RecordedWorkload parsed = parse_workload(text);
    EXPECT_EQ(serialize_workload(parsed), text) << app.name;

    // Groups survive exactly (labels sanitised, bytes bit-identical).
    const auto original = app.workload->groups();
    const auto round = parsed.groups();
    ASSERT_EQ(round.size(), original.size()) << app.name;
    for (std::size_t g = 0; g < original.size(); ++g)
      EXPECT_EQ(round[g].bytes, original[g].bytes) << app.name;

    // And so does the trace, stream for stream.
    const auto a = app.workload->trace();
    const auto b = parsed.trace();
    ASSERT_EQ(b.phases.size(), a.phases.size()) << app.name;
    for (std::size_t p = 0; p < a.phases.size(); ++p) {
      EXPECT_EQ(b.phases[p].flops, a.phases[p].flops);
      EXPECT_EQ(b.phases[p].vectorized, a.phases[p].vectorized);
      ASSERT_EQ(b.phases[p].streams.size(), a.phases[p].streams.size());
      for (std::size_t s = 0; s < a.phases[p].streams.size(); ++s) {
        EXPECT_EQ(b.phases[p].streams[s].group, a.phases[p].streams[s].group);
        EXPECT_EQ(b.phases[p].streams[s].bytes_read,
                  a.phases[p].streams[s].bytes_read);
        EXPECT_EQ(b.phases[p].streams[s].bytes_written,
                  a.phases[p].streams[s].bytes_written);
      }
    }
  }
}

TEST(TraceIoTest, FileRoundTripMatchesStringRoundTrip) {
  auto sim = sim::MachineSimulator::paper_platform();
  const auto app = make_kwave_model(sim);
  const std::string path = "/tmp/hmpt_trace_io_test.profile";
  save_workload(path, *app.workload);
  const RecordedWorkload loaded = load_workload(path);
  EXPECT_EQ(serialize_workload(loaded), serialize_workload(*app.workload));
  std::remove(path.c_str());
  EXPECT_THROW(load_workload(path), hmpt::Error);  // gone again
}

TEST(TraceIoTest, BadInputErrorsAreTheMessageAlone) {
  // A profile error names the input, never the parser's source file or
  // line, so a failed scenario's recorded error stays the same when the
  // parser is edited.
  const auto error_of = [](const std::function<void()>& load) {
    try {
      load();
    } catch (const hmpt::Error& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  const std::string missing = "/nonexistent/hmpt_missing.profile";
  EXPECT_EQ(error_of([&] { load_workload(missing); }),
            "cannot open profile: " + missing);
  const std::pair<const char*, const char*> bad[] = {
      {"workload\n", "workload needs a name (line 1)"},
      {"group 0 a\n", "group needs <id> <label> <bytes> (line 1)"},
      {"group 1 a 8\n", "group ids must be dense and in order (line 1)"},
      {"group 0 a -8\n", "negative group bytes (line 1)"},
      {"group 0 a 8\nphase p 1\n",
       "phase needs <name> <flops> <vectorized> (line 2)"},
      {"group 0 a 8\nstream 0 1 1 random 0 8\n",
       "stream before any phase (line 2)"},
      {"group 0 a 8\nphase p 1 0\nstream 0 1 1\n",
       "stream needs 6 fields (line 3)"},
      {"group 0 a 8\nphase p 1 0\nstream 1 1 1 random 0 8\n",
       "stream group out of range (line 3)"},
      {"# nothing but a comment\n", "profile declares no groups"},
  };
  for (const auto& [text, error] : bad)
    EXPECT_EQ(error_of([&] { parse_workload(std::string(text)); }), error)
        << text;
}

TEST(TraceIoTest, SavingToAFullDeviceThrows) {
  // The open succeeds and every byte is lost: a profile that never reached
  // the disk must not pass for a saved one.
  auto sim = sim::MachineSimulator::paper_platform();
  const auto app = make_mg_model(sim);
  EXPECT_THROW(save_workload("/dev/full", *app.workload), hmpt::Error);
}

}  // namespace
}  // namespace hmpt::workloads
