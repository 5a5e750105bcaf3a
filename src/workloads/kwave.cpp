#include "workloads/kwave.h"

#include <cmath>

#include "common/error.h"

namespace hmpt::workloads {

namespace {

/// Angular wavenumber of index i on a periodic grid of n cells.
double wavenumber(std::size_t i, std::size_t n, double dx) {
  const auto si = static_cast<long long>(i);
  const auto sn = static_cast<long long>(n);
  const long long k = si <= sn / 2 ? si : si - sn;
  return 2.0 * M_PI * static_cast<double>(k) /
         (static_cast<double>(n) * dx);
}

/// Sequential read+write stream helper for trace building.
sim::StreamAccess rw(int group, double read_bytes, double write_bytes) {
  sim::StreamAccess s;
  s.group = group;
  s.bytes_read = read_bytes;
  s.bytes_written = write_bytes;
  s.pattern = sim::AccessPattern::Sequential;
  return s;
}

constexpr int kGroupP = 0;
constexpr int kGroupRho = 1;
constexpr int kGroupUVec = 2;
constexpr int kGroupFftTmp = 3;
constexpr int kGroupKSpace = 4;

}  // namespace

std::vector<GroupInfo> kwave_groups(std::size_t n) {
  const double cells = static_cast<double>(n) * static_cast<double>(n) *
                       static_cast<double>(n);
  const double real_bytes = cells * sizeof(double);
  const double complex_bytes = cells * sizeof(Complex);
  return {
      {"kwave::p", real_bytes},
      {"kwave::rho", real_bytes},
      {"kwave::u_vec", 3.0 * real_bytes},
      {"kwave::fft_tmp", 2.0 * complex_bytes},
      {"kwave::kspace", 3.0 * static_cast<double>(n) * sizeof(double)},
  };
}

sim::PhaseTrace kwave_trace(std::size_t n, int steps) {
  HMPT_REQUIRE(is_pow2(n), "grid must be a power of two");
  HMPT_REQUIRE(steps >= 1, "need >= 1 step");
  const double cells = static_cast<double>(n) * static_cast<double>(n) *
                       static_cast<double>(n);
  const double real_bytes = cells * sizeof(double);
  const double complex_bytes = cells * sizeof(Complex);
  // One in-place 3-D FFT makes three axis passes, each reading and writing
  // the full complex volume.
  const double fft_pass_bytes = 3.0 * 2.0 * complex_bytes;
  const double fft_flops = fft3d_flops(n, n, n);

  sim::PhaseTrace trace;
  for (int step = 0; step < steps; ++step) {
    // Phase 1: velocity update, u -= dt/rho0 * ifft(ik fft(p)) per axis.
    // One forward FFT of p, three inverse FFTs (one per axis).
    sim::KernelPhase grad;
    grad.name = "kwave::grad_p";
    grad.streams.push_back(rw(kGroupP, real_bytes, 0.0));
    grad.streams.push_back(
        rw(kGroupFftTmp, 4.0 * fft_pass_bytes / 2.0,
           4.0 * fft_pass_bytes / 2.0));
    grad.streams.push_back(rw(kGroupUVec, 3.0 * real_bytes,
                              3.0 * real_bytes));
    grad.streams.push_back(
        rw(kGroupKSpace, 3.0 * static_cast<double>(n) * sizeof(double),
           0.0));
    grad.flops = 4.0 * fft_flops + 6.0 * cells;
    trace.phases.push_back(grad);

    // Phase 2: density update, rho -= dt*rho0 * sum_a ifft(ik_a fft(u_a)).
    // Three forward FFTs, accumulation in k-space, one inverse FFT.
    sim::KernelPhase divu;
    divu.name = "kwave::div_u";
    divu.streams.push_back(rw(kGroupUVec, 3.0 * real_bytes, 0.0));
    divu.streams.push_back(
        rw(kGroupFftTmp, 4.0 * fft_pass_bytes / 2.0,
           4.0 * fft_pass_bytes / 2.0));
    divu.streams.push_back(rw(kGroupRho, real_bytes, real_bytes));
    divu.streams.push_back(
        rw(kGroupKSpace, 3.0 * static_cast<double>(n) * sizeof(double),
           0.0));
    divu.flops = 4.0 * fft_flops + 5.0 * cells;
    trace.phases.push_back(divu);

    // Phase 3: equation of state, p = c0^2 * rho.
    sim::KernelPhase eos;
    eos.name = "kwave::eos";
    eos.streams.push_back(rw(kGroupRho, real_bytes, 0.0));
    eos.streams.push_back(rw(kGroupP, 0.0, real_bytes));
    eos.flops = cells;
    trace.phases.push_back(eos);
  }
  return trace;
}

MiniKWaveResult run_mini_kwave(shim::ShimAllocator& shim,
                               const KWaveConfig& config,
                               sample::IbsSampler* sampler) {
  const std::size_t n = config.n;
  HMPT_REQUIRE(is_pow2(n) && n >= 4, "grid must be a power of two >= 4");
  const std::size_t cells = n * n * n;
  const double dt = config.cfl * config.dx / config.c0;

  TrackedArray<double> p(shim, "kwave::p", cells);
  TrackedArray<double> rho(shim, "kwave::rho", cells);
  TrackedArray<double> u(shim, "kwave::u_vec", 3 * cells);
  TrackedArray<Complex> tmp_a(shim, "kwave::fft_tmp", cells);
  TrackedArray<Complex> tmp_b(shim, "kwave::fft_tmp", cells);
  TrackedArray<double> kvec(shim, "kwave::kspace", 3 * n);

  const pools::PageMap map = shim.pool().page_map_snapshot();
  if (sampler != nullptr) {
    p.attach_sampler(sampler, &map);
    rho.attach_sampler(sampler, &map);
    u.attach_sampler(sampler, &map);
    tmp_a.attach_sampler(sampler, &map);
    tmp_b.attach_sampler(sampler, &map);
    kvec.attach_sampler(sampler, &map);
  }

  for (std::size_t a = 0; a < 3; ++a)
    for (std::size_t i = 0; i < n; ++i)
      kvec.store(a * n + i, wavenumber(i, n, config.dx));

  // Initial condition: centred Gaussian pressure pulse, quiescent medium.
  const double centre = static_cast<double>(n - 1) / 2.0;
  const double width = static_cast<double>(n) / 8.0;
  double rho_mean0 = 0.0;
  for (std::size_t x = 0; x < n; ++x)
    for (std::size_t y = 0; y < n; ++y)
      for (std::size_t z = 0; z < n; ++z) {
        const double dx2 = (static_cast<double>(x) - centre) *
                           (static_cast<double>(x) - centre);
        const double dy2 = (static_cast<double>(y) - centre) *
                           (static_cast<double>(y) - centre);
        const double dz2 = (static_cast<double>(z) - centre) *
                           (static_cast<double>(z) - centre);
        const double value =
            std::exp(-(dx2 + dy2 + dz2) / (2.0 * width * width));
        const std::size_t idx = (x * n + y) * n + z;
        p.store(idx, value);
        rho.store(idx, value / (config.c0 * config.c0));
        rho_mean0 += value / (config.c0 * config.c0);
      }
  rho_mean0 /= static_cast<double>(cells);
  for (std::size_t i = 0; i < 3 * cells; ++i) u.store(i, 0.0);

  // Spectral derivative: out = ifft3(i * k_a * fft3(field)).
  auto spectral_derivative = [&](const TrackedArray<double>& field,
                                 std::size_t base_offset, int axis,
                                 TrackedArray<Complex>& work) {
    for (std::size_t i = 0; i < cells; ++i)
      work.store(i, Complex(field.load(base_offset + i), 0.0));
    fft3d_inplace(work.data(), n, n, n, false);
    for (std::size_t x = 0; x < n; ++x)
      for (std::size_t y = 0; y < n; ++y)
        for (std::size_t z = 0; z < n; ++z) {
          const std::size_t axis_idx = axis == 0 ? x : (axis == 1 ? y : z);
          const double k =
              kvec.load(static_cast<std::size_t>(axis) * n + axis_idx);
          const std::size_t idx = (x * n + y) * n + z;
          work.data()[idx] *= Complex(0.0, k);
        }
    fft3d_inplace(work.data(), n, n, n, true);
  };

  for (int step = 0; step < config.steps; ++step) {
    // Velocity update from the pressure gradient.
    for (int axis = 0; axis < 3; ++axis) {
      spectral_derivative(p, 0, axis, tmp_a);
      const std::size_t base = static_cast<std::size_t>(axis) * cells;
      for (std::size_t i = 0; i < cells; ++i)
        u.store(base + i,
                u.load(base + i) -
                    dt / config.rho0 * tmp_a.data()[i].real());
    }
    // Density update from the velocity divergence.
    for (std::size_t i = 0; i < cells; ++i) tmp_b.store(i, Complex(0, 0));
    for (int axis = 0; axis < 3; ++axis) {
      spectral_derivative(u, static_cast<std::size_t>(axis) * cells, axis,
                          tmp_a);
      for (std::size_t i = 0; i < cells; ++i)
        tmp_b.data()[i] += tmp_a.data()[i];
    }
    for (std::size_t i = 0; i < cells; ++i)
      rho.store(i, rho.load(i) - dt * config.rho0 * tmp_b.load(i).real());
    // Equation of state.
    for (std::size_t i = 0; i < cells; ++i)
      p.store(i, config.c0 * config.c0 * rho.load(i));
  }

  MiniKWaveResult result;
  double rho_mean = 0.0;
  for (std::size_t i = 0; i < cells; ++i) {
    const double pv = p.data()[i];
    if (!std::isfinite(pv)) result.finite = false;
    result.max_pressure = std::max(result.max_pressure, std::fabs(pv));
    rho_mean += rho.data()[i];
  }
  rho_mean /= static_cast<double>(cells);
  result.mass_drift = std::fabs(rho_mean - rho_mean0);
  result.trace = kwave_trace(n, config.steps);
  return result;
}

}  // namespace hmpt::workloads
