// micro_library — google-benchmark microbenchmarks of the library's hot
// paths: arena allocation, page-map lookup, sampler feeding, phase timing
// and full configuration sweeps. These guard the "lightweight tool"
// property the paper claims: interception and sampling must stay cheap
// relative to application work.
#include <benchmark/benchmark.h>

#include "core/config_space.h"
#include "core/experiment.h"
#include "pools/pool_allocator.h"
#include "sample/sampler.h"
#include "shim/shim_allocator.h"
#include "simmem/simulator.h"
#include "workloads/app_models.h"
#include "workloads/fft.h"
#include "workloads/line_solver.h"
#include "workloads/trace_io.h"

namespace {

using namespace hmpt;

void BM_ArenaAllocFree(benchmark::State& state) {
  pools::PoolArena arena(1u << 30);
  const std::size_t size = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    void* p = arena.allocate(size);
    benchmark::DoNotOptimize(p);
    arena.deallocate(p);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ArenaAllocFree)->Arg(64)->Arg(4096)->Arg(1 << 20);

void BM_PageMapLookup(benchmark::State& state) {
  pools::PageMap map;
  const int n = static_cast<int>(state.range(0));
  for (int i = 0; i < n; ++i)
    map.insert(static_cast<std::uintptr_t>(i) * 8192 + 4096, 4096, i % 2,
               static_cast<std::uint64_t>(i));
  std::uintptr_t probe = 4096 + 100;
  for (auto _ : state) {
    auto hit = map.lookup(probe);
    benchmark::DoNotOptimize(hit);
    probe = (probe + 8192) % (static_cast<std::uintptr_t>(n) * 8192);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PageMapLookup)->Arg(64)->Arg(4096);

void BM_ShimAllocate(benchmark::State& state) {
  auto machine = topo::two_pool_testbed();
  pools::PoolAllocator pool(machine);
  shim::ShimAllocator shim(pool);
  for (auto _ : state) {
    void* p = shim.allocate_named("bench::block", 4096);
    benchmark::DoNotOptimize(p);
    shim.deallocate(p);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ShimAllocate);

void BM_SamplerFeed(benchmark::State& state) {
  auto machine = topo::two_pool_testbed();
  pools::PoolAllocator pool(machine);
  auto alloc = pool.allocate(1u << 20, topo::PoolKind::DDR);
  const auto map = pool.page_map_snapshot();
  sample::IbsSampler sampler(
      {static_cast<std::uint64_t>(state.range(0)),
       sample::SamplingMode::Poisson, 1});
  const auto base = reinterpret_cast<std::uintptr_t>(alloc.ptr);
  std::uintptr_t addr = base;
  for (auto _ : state) {
    sampler.feed({addr, false, 0.0}, map);
    addr = base + (addr - base + 64) % (1u << 20);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SamplerFeed)->Arg(64)->Arg(1024);

void BM_PhaseTiming(benchmark::State& state) {
  auto simulator = sim::MachineSimulator::paper_platform();
  const auto app = workloads::make_mg_model(simulator);
  const auto trace = app.workload->trace();
  const auto placement =
      sim::Placement::uniform(app.workload->num_groups(),
                              topo::PoolKind::HBM);
  for (auto _ : state) {
    const double t =
        simulator.time_trace(trace, placement, app.context);
    benchmark::DoNotOptimize(t);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PhaseTiming);

void BM_Fft3d(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<workloads::Complex> volume(n * n * n,
                                         workloads::Complex(1.0, 0.5));
  for (auto _ : state) {
    workloads::fft3d_inplace(volume.data(), n, n, n, false);
    workloads::fft3d_inplace(volume.data(), n, n, n, true);
    benchmark::DoNotOptimize(volume.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n * n));
}
BENCHMARK(BM_Fft3d)->Arg(8)->Arg(16)->Arg(32);

void BM_TridiagonalSolve(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<double> sub(n, -1.0), diag(n, 4.0), super(n, -1.0), rhs(n),
      scratch(n);
  sub[0] = super[n - 1] = 0.0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i)
      rhs[i] = static_cast<double>(i % 13);
    workloads::solve_tridiagonal(sub.data(), diag.data(), super.data(),
                                 rhs.data(), scratch.data(), n);
    benchmark::DoNotOptimize(rhs.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_TridiagonalSolve)->Arg(64)->Arg(1024);

void BM_TraceSerialisation(benchmark::State& state) {
  auto simulator = sim::MachineSimulator::paper_platform();
  const auto app = workloads::make_kwave_model(simulator);
  for (auto _ : state) {
    const auto text = workloads::serialize_workload(*app.workload);
    const auto restored = workloads::parse_workload(text);
    benchmark::DoNotOptimize(restored.num_groups());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TraceSerialisation);

void BM_FullSweep(benchmark::State& state) {
  auto simulator = sim::MachineSimulator::paper_platform();
  const auto app = workloads::make_sp_model(simulator);  // 8 groups = 256
  tuner::ConfigSpace space([&] {
    std::vector<double> bytes;
    for (const auto& g : app.workload->groups()) bytes.push_back(g.bytes);
    return bytes;
  }());
  for (auto _ : state) {
    tuner::ExperimentRunner runner(simulator, app.context, {1});
    auto sweep = runner.sweep(*app.workload, space);
    benchmark::DoNotOptimize(sweep.baseline_time);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(space.size()));
}
BENCHMARK(BM_FullSweep);

}  // namespace

BENCHMARK_MAIN();
