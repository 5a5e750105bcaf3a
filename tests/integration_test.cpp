// End-to-end tests of the full pipeline the paper's tool implements
// (Fig. 6): run an application through the SHIM allocator, sample its
// accesses IBS-style, aggregate per call site, filter/group allocations,
// sweep the placement space on the simulated platform, pick a plan, and
// re-run the application under that plan.
#include <gtest/gtest.h>

#include "common/units.h"
#include "core/grouping.h"
#include "core/planner.h"
#include "core/report.h"
#include "core/summary.h"
#include "simmem/simulator.h"
#include "workloads/kwave.h"
#include "workloads/npb_kernels.h"
#include "workloads/stream.h"

namespace hmpt {
namespace {

using topo::PoolKind;

/// Workload adapter over a recorded mini-kernel trace + registry groups.
class RecordedWorkload final : public workloads::Workload {
 public:
  RecordedWorkload(std::string name,
                   std::vector<workloads::GroupInfo> groups,
                   sim::PhaseTrace trace)
      : name_(std::move(name)),
        groups_(std::move(groups)),
        trace_(std::move(trace)) {}
  std::string name() const override { return name_; }
  std::vector<workloads::GroupInfo> groups() const override {
    return groups_;
  }
  sim::PhaseTrace trace() const override { return trace_; }

 private:
  std::string name_;
  std::vector<workloads::GroupInfo> groups_;
  sim::PhaseTrace trace_;
};

class PipelineTest : public ::testing::Test {
 protected:
  topo::Machine machine_ = topo::xeon_max_9468_duo_flat_snc4();
  pools::PoolAllocator pool_{machine_};
  shim::ShimAllocator shim_{pool_};
  sim::MachineSimulator sim_ = sim::MachineSimulator::paper_platform();
};

TEST_F(PipelineTest, MiniMgProfileSweepPlanReplay) {
  // ---- Step 1: profiling run through the shim with IBS sampling.
  sample::IbsSampler sampler({512, sample::SamplingMode::Poisson, 17});
  workloads::MiniMgConfig config;
  config.n = 16;
  config.v_cycles = 2;
  const auto profile = run_mini_mg(shim_, config, &sampler);
  ASSERT_TRUE(profile.converging);

  // ---- Step 2: per-site usage + densities from the sampling report.
  const auto usage = shim_.registry().site_usage(shim_.sites());
  ASSERT_EQ(usage.size(), 3u);  // mg::u, mg::r, mg::v
  const auto densities =
      tuner::site_densities(shim_.registry(), shim_.sites(),
                            sampler.report());
  // u and r must dominate the sampled accesses, as in Fig. 7a.
  const int site_u = shim_.sites().find_by_label("mg::u");
  const int site_v = shim_.sites().find_by_label("mg::v");
  ASSERT_GE(site_u, 0);
  ASSERT_GE(site_v, 0);
  EXPECT_GT(densities[static_cast<std::size_t>(site_u)], 0.3);
  EXPECT_LT(densities[static_cast<std::size_t>(site_v)], 0.2);

  // ---- Step 3: filter + group (everything here is significant).
  tuner::GroupingOptions options;
  options.min_bytes = 0.0;
  options.max_groups = 8;
  const auto groups = tuner::build_groups(usage, densities, options);
  ASSERT_EQ(groups.size(), 3u);

  // ---- Step 4: sweep the recorded trace on the simulated platform.
  std::vector<workloads::GroupInfo> infos;
  std::vector<double> bytes;
  for (const auto& g : groups) {
    infos.push_back({g.label, g.bytes});
    bytes.push_back(g.bytes);
  }
  // Group ids in the recorded trace follow allocation order (u, r, v);
  // build_groups returns density order. Remap trace groups to that order.
  auto trace = profile.trace;
  std::vector<int> remap(3);
  const std::vector<std::string> alloc_order = {"mg::u", "mg::r", "mg::v"};
  for (int old_id = 0; old_id < 3; ++old_id) {
    for (std::size_t new_id = 0; new_id < groups.size(); ++new_id)
      if (groups[new_id].label == alloc_order[static_cast<std::size_t>(
              old_id)])
        remap[static_cast<std::size_t>(old_id)] = static_cast<int>(new_id);
  }
  for (auto& phase : trace.phases)
    for (auto& s : phase.streams)
      s.group = remap[static_cast<std::size_t>(s.group)];

  RecordedWorkload workload("mini-mg", infos, trace);
  tuner::ConfigSpace space(bytes);
  tuner::ExperimentRunner runner(sim_, sim_.full_machine(), {2});
  const auto sweep = runner.sweep(workload, space);
  const auto summary =
      tuner::summarize(sweep, tuner::group_weights(workload, space));
  EXPECT_GT(summary.max_speedup, 1.5);  // mini MG is bandwidth-bound

  // ---- Step 5: materialise the best-under-budget plan and replay.
  tuner::CapacityPlanner planner(sweep, space);
  const auto choice = planner.best_under_budget(space.total_bytes());
  const auto plan =
      tuner::to_placement_plan(groups, choice.mask, shim_.sites());

  shim_.set_plan(plan);
  pools::PoolAllocator fresh_pool(machine_);
  shim::ShimAllocator replay_shim(fresh_pool, plan);
  const auto replay = run_mini_mg(replay_shim, config);
  EXPECT_TRUE(replay.converging);

  // Allocations from sites in the chosen mask landed in HBM.
  for (const auto& rec : replay_shim.registry().all_records()) {
    const auto hash = replay_shim.sites().site(rec.site).hash;
    const bool should_be_hbm = plan.kind_for(hash) == PoolKind::HBM;
    EXPECT_EQ(rec.kind == PoolKind::HBM, should_be_hbm);
  }
}

TEST_F(PipelineTest, PlanSerialisationSurvivesDiskRoundTrip) {
  // The driver script writes the plan to disk between runs; emulate that.
  workloads::MiniIsConfig config;
  config.num_keys = 1u << 12;
  config.max_key = 1u << 8;
  run_mini_is(shim_, config);
  const auto usage = shim_.registry().site_usage(shim_.sites());
  std::vector<double> densities(usage.size(), 0.25);
  const auto groups = tuner::build_groups(usage, densities, {0.0, 8});

  const auto plan =
      tuner::to_placement_plan(groups, 0b11, shim_.sites());
  const auto restored = shim::PlacementPlan::parse(plan.serialize());
  for (const auto& g : groups)
    for (int site : g.sites) {
      const auto hash = shim_.sites().site(site).hash;
      EXPECT_EQ(restored.kind_for(hash), plan.kind_for(hash));
    }
}

TEST_F(PipelineTest, KWaveCustomGroupingFlowsThroughSweep) {
  // k-Wave: vector fields folded into one group by label (Sec. IV-B).
  sample::IbsSampler sampler({256, sample::SamplingMode::Poisson, 5});
  workloads::KWaveConfig config;
  config.n = 8;
  config.steps = 2;
  const auto result = run_mini_kwave(shim_, config, &sampler);
  ASSERT_TRUE(result.finite);

  const auto usage = shim_.registry().site_usage(shim_.sites());
  const auto densities = tuner::site_densities(
      shim_.registry(), shim_.sites(), sampler.report());
  const auto groups = tuner::build_groups_by_labels(
      usage, densities,
      {{"kwave::fft_tmp"}, {"kwave::u_vec"}, {"kwave::p", "kwave::rho"}});
  ASSERT_EQ(groups.size(), 4u);  // three sets + rest (kspace)
  EXPECT_EQ(groups[0].label, "kwave::fft_tmp");
  // The complex FFT temporaries carry a major share of sampled accesses
  // (the shim instruments pack/unpack traffic, not the raw butterflies,
  // so the share is lower than the trace-level fraction).
  EXPECT_GT(groups[0].access_density, 0.2);

  std::vector<double> bytes;
  for (const auto& g : groups) bytes.push_back(g.bytes);
  tuner::ConfigSpace space(bytes);
  RecordedWorkload workload(
      "mini-kwave",
      [&] {
        std::vector<workloads::GroupInfo> infos;
        for (const auto& g : groups) infos.push_back({g.label, g.bytes});
        return infos;
      }(),
      [&] {
        // Remap the canonical 5-group kwave trace onto the custom groups:
        // p(0)/rho(1) -> 2, u_vec(2) -> 1, fft_tmp(3) -> 0, kspace(4) -> 3.
        auto trace = result.trace;
        const int remap[5] = {2, 2, 1, 0, 3};
        for (auto& phase : trace.phases)
          for (auto& s : phase.streams)
            s.group = remap[s.group];
        return trace;
      }());
  tuner::ExperimentRunner runner(sim_, sim_.full_machine(), {1});
  const auto sweep = runner.sweep(workload, space);
  const auto summary =
      tuner::summarize(sweep, tuner::group_weights(workload, space));
  EXPECT_GE(summary.max_speedup, 1.0);
  EXPECT_LE(summary.usage90, 1.0);
}

TEST_F(PipelineTest, SpilledAllocationsAreFlaggedEndToEnd) {
  // An HBM-everything plan on a tiny-HBM machine must spill and record it.
  auto tiny = topo::two_pool_testbed(1.0 * GiB, 8.0 * MiB);
  pools::PoolAllocator pool(tiny, pools::OomPolicy::Spill);
  shim::PlacementPlan plan(PoolKind::HBM);
  shim::ShimAllocator shim(pool, plan);
  void* a = shim.allocate_named("big1", 6u << 20);
  void* b = shim.allocate_named("big2", 6u << 20);  // exceeds 8 MiB HBM
  const auto records = shim.registry().all_records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_FALSE(records[0].spilled);
  EXPECT_TRUE(records[1].spilled);
  EXPECT_EQ(records[1].kind, PoolKind::DDR);
  shim.deallocate(a);
  shim.deallocate(b);
}

TEST_F(PipelineTest, StreamWorkloadSweepReproducesFig5Insight) {
  // Sweeping STREAM's three arrays finds the paper's Fig. 5b insight: one
  // input array can stay in DDR at (near-)HBM-only Add performance.
  workloads::StreamWorkload stream(16.0 * GB, 1,
                                   {workloads::StreamKernel::Add});
  tuner::ConfigSpace space({16.0 * GB, 16.0 * GB, 16.0 * GB});
  auto single = sim::MachineSimulator::paper_platform_single();
  tuner::ExperimentRunner runner(single, single.socket_context(12), {1});
  const auto sweep = runner.sweep(stream, space);
  // b+c in HBM, a in DDR (mask 0b110) ~ all-HBM performance.
  const auto speedup = [&](tuner::ConfigMask mask) {
    return tuner::speedup_of(sweep.baseline_time, sweep.of(mask).mean_time);
  };
  EXPECT_GT(speedup(0b110), 0.9 * speedup(sweep.all_hbm().mask));
}

}  // namespace
}  // namespace hmpt
