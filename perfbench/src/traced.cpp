// traced.cpp — the per-layer run.
//
// Arms the obs recorder and calls each layer's public entry point one by
// one, inside a span named after the layer. Its cold pass does per
// scenario exactly what CampaignRunner::run + execute do — build the
// platform and workload, tune through a Session, make_payload,
// save_payload — and CampaignRunner runs each scenario too, right beside
// it: the layers must add up to the runner's scenario time (obs.coverage),
// and the payloads they store must be byte-identical to an untraced
// CampaignRunner pass.
#include <algorithm>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <optional>

#include "bench.h"
#include "campaign/aggregate.h"
#include "campaign/merge.h"
#include "campaign/platforms.h"
#include "core/outcome_io.h"
#include "core/session.h"
#include "daemon_client.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "report/report.h"
#include "service/protocol.h"
#include "support.h"

namespace fs = std::filesystem;

namespace perfbench {

using namespace hmpt::campaign;
using hmpt::Json;

namespace {

using LayerSamples = std::map<std::string, Samples>;

/// A span named after a layer, also timed into that layer's samples.
class Layer {
 public:
  Layer(const char* name, LayerSamples& layers)
      : span_("perfbench", name),
        samples_(layers[name]),
        start_(Clock::now()) {}
  ~Layer() { samples_.add(ms_since(start_)); }
  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;

 private:
  hmpt::obs::TraceSpan span_;
  Samples& samples_;
  Clock::time_point start_;
};

/// The layers one traced cold scenario is made of, in call order.
const char* const kScenarioLayers[] = {
    "campaign.build", "core.tune", "campaign.make_payload",
    "campaign.store_write"};

/// Mean of the last tenth of `samples` over the mean of the first tenth.
double growth(const Samples& samples) {
  const auto& v = samples.values();
  const std::size_t tenth = std::max<std::size_t>(v.size() / 10, 1);
  double first = 0.0, last = 0.0;
  for (std::size_t i = 0; i < tenth; ++i) {
    first += v[i];
    last += v[v.size() - 1 - i];
  }
  return last / first;
}

std::uint64_t counter(const char* name) {
  return hmpt::obs::metrics().counter(name).value();
}

/// Tune one scenario on an already-built platform and workload, with the
/// Session settings CampaignRunner::execute uses.
hmpt::tuner::TuningOutcome tune(const Scenario& scenario,
                                hmpt::sim::MachineSimulator& simulator,
                                const ResolvedWorkload& resolved) {
  auto session = hmpt::tuner::Session::on(simulator)
                     .workload(resolved.workload)
                     .strategy(scenario.strategy)
                     .tiers(scenario.tiers)
                     .repetitions(scenario.repetitions)
                     .budget_gb(scenario.budget_gb)
                     .top_k(scenario.top_k)
                     .jobs(1);
  if (resolved.context.has_value()) session.context(*resolved.context);
  for (const auto& [tier, gb] : scenario.tier_budgets_gb)
    session.tier_budget_gb(tier, gb);
  return session.run();
}

/// Time of a CampaignRunner pass's scenarios (ScenarioRun::seconds), less
/// the flush waits within the pass, in ms.
double scenario_work_ms(const CampaignResult& result, double flush_ms) {
  double ms = -flush_ms;
  for (const auto& run : result.runs) ms += run.seconds * 1e3;
  return ms;
}

/// What one decomposed cold pass measured.
struct ColdPass {
  /// Per scenario: build+tune+encode+write, without flush waits.
  std::vector<double> window_work_ms;
  double flush_ms = 0.0;  ///< flush waits within those windows
  double fsyncs = 0.0, timer_hits = 0.0, timer_misses = 0.0;
  double configs = 0.0, measurements = 0.0, payload_bytes = 0.0;
  /// The same scenarios run by CampaignRunner: how many it executed, and
  /// its scenario time without flush waits, which the layers must add up
  /// to.
  int runner_executed = 0;
  double runner_work_ms = 0.0;
};

/// Work, in ms, of one block of the decomposed pass (see below).
constexpr double kBlockMs = 20.0;

/// The cold pass layer by layer, into a dir store under `dir`: per
/// scenario build, tune, make_payload, save_payload, and make_payload's
/// two halves (outcome_to_json and Json::dump) timed again outside the
/// scenario window; then the artefacts. CampaignRunner also runs every
/// scenario, into `runner_dir`, a block at a time beside the layers'
/// block. A block holds about kBlockMs of runner work (at least one
/// scenario, by the runner's mean so far): short enough that the host's
/// speed, which swings within a second, is the same for both, long enough
/// that neither evicts the other's caches scenario by scenario. The
/// runner goes first on even blocks and last on odd ones.
ColdPass decomposed_cold_pass(const std::vector<Scenario>& scenarios,
                              const std::string& dir,
                              const std::string& runner_dir,
                              LayerSamples& layers) {
  const OutcomeStore store(dir, StoreFormat::Dir);
  const CampaignRunner runner(batch_options(runner_dir));
  ColdPass pass;
  pass.window_work_ms.resize(scenarios.size());
  CampaignResult cold;
  std::size_t block_size = 1;
  bool runner_first = true;
  for (std::size_t begin = 0, end = 0; begin < scenarios.size();
       begin = end, runner_first = !runner_first) {
    end = std::min(scenarios.size(), begin + block_size);
    const auto run_runner = [&] {
      const std::vector<Scenario> block(
          scenarios.begin() + static_cast<std::ptrdiff_t>(begin),
          scenarios.begin() + static_cast<std::ptrdiff_t>(end));
      const WorkTimer timer;
      const auto done = runner.run(block);
      pass.runner_work_ms += scenario_work_ms(done, timer.fsync_ms());
      pass.runner_executed += done.executed;
      const double mean_ms =
          pass.runner_work_ms / static_cast<double>(end);
      block_size = static_cast<std::size_t>(
          std::clamp(kBlockMs / std::max(mean_ms, 1e-3), 1.0, 64.0));
    };
    if (runner_first) run_runner();
    for (std::size_t i = begin; i < end; ++i) {
      const Scenario& scenario = scenarios[i];
      ScenarioRun run;
      run.scenario = scenario;
      run.fingerprint = scenario.fingerprint();
      std::string payload;
      const std::uint64_t fsyncs_before = fsync_calls();
      const std::uint64_t hits_before = counter("timer.hits");
      const std::uint64_t misses_before = counter("timer.misses");
      const WorkTimer window;
      {
        // The simulator is built in place (it must not be moved once a
        // workload is resolved against it), so the build span is closed
        // by hand.
        std::optional<Layer> build;
        build.emplace("campaign.build", layers);
        auto simulator = make_platform(scenario.platform);
        const auto resolved =
            WorkloadRegistry::instance().create(scenario.workload, simulator);
        build.reset();
        Layer layer("core.tune", layers);
        run.outcome = tune(scenario, simulator, resolved);
      }
      {
        Layer layer("campaign.make_payload", layers);
        payload = OutcomeStore::make_payload(scenario, run.outcome);
      }
      {
        Layer layer("campaign.store_write", layers);
        store.save_payload(run.fingerprint, payload);
      }
      pass.window_work_ms[i] = window.work_ms();
      pass.flush_ms += window.fsync_ms();
      pass.fsyncs += static_cast<double>(fsync_calls() - fsyncs_before);
      pass.timer_hits +=
          static_cast<double>(counter("timer.hits") - hits_before);
      pass.timer_misses +=
          static_cast<double>(counter("timer.misses") - misses_before);

      Json encoded;
      {
        Layer layer("core.encode", layers);
        encoded = hmpt::tuner::outcome_to_json(run.outcome);
      }
      {
        Layer layer("common.json_dump", layers);
        encoded.dump();
      }
      pass.configs += run.outcome.configs_measured;
      pass.measurements += run.outcome.measurements;
      pass.payload_bytes += static_cast<double>(payload.size());
      run.status = ScenarioRun::Status::Executed;
      cold.runs.push_back(std::move(run));
      ++cold.executed;
    }
    if (!runner_first) run_runner();
  }
  {
    Layer layer("campaign.aggregate", layers);
    write_artifacts(cold, dir);
  }
  {
    Layer layer("report.render", layers);
    hmpt::report::write_report(cold, dir);
  }
  return pass;
}

}  // namespace

RunReport run_traced(const RunOptions& options) {
  const WorkloadDef& def = *options.workload;
  const std::string& work = options.work_dir;
  RunReport report;
  LayerSamples layers;

  const auto matrix = make_matrix(def, options.seed);
  const auto scenarios = matrix.expand();
  const std::size_t n = scenarios.size();
  warm_up(scenarios, path_in(work, "warm"));

  // ---- reference: an untraced CampaignRunner cold pass, whose store
  // bytes and artefacts the traced passes must reproduce.
  const std::string plain_dir = path_in(work, "cold-runner");
  double untraced_work_ms = 0.0;
  {
    const WorkTimer timer;
    const auto result = CampaignRunner(batch_options(plain_dir)).run(scenarios);
    untraced_work_ms = scenario_work_ms(result, timer.fsync_ms());
    write_outputs(result, plain_dir);
    report.check(result.executed == static_cast<int>(n),
                 "reference cold pass did not execute every scenario");
  }
  const std::string reference = deterministic_artifacts(plain_dir);

  // ---- the same pass traced: the ratio of the two is the tracing
  // overhead.
  hmpt::obs::TraceRecorder::instance().start();
  {
    Layer layer("campaign.expand", layers);
    report.check(matrix.expand().size() == n, "re-expansion changed size");
  }
  double traced_work_ms = 0.0;
  {
    const std::string dir = path_in(work, "cold-runner-traced");
    const WorkTimer timer;
    const auto result = CampaignRunner(batch_options(dir)).run(scenarios);
    traced_work_ms = scenario_work_ms(result, timer.fsync_ms());
    write_artifacts(result, dir);
    report.check(deterministic_artifacts(dir) == reference,
                 "traced CampaignRunner artefacts differ from the untraced");
    fs::remove_all(dir);
  }

  // ---- the traced layer-by-layer pass, beside a traced CampaignRunner.
  const std::string cold_dir = path_in(work, "cold-traced");
  const std::string runner_dir = path_in(work, "cold-traced-runner");
  const OutcomeStore store(cold_dir, StoreFormat::Dir);
  const ColdPass cold =
      decomposed_cold_pass(scenarios, cold_dir, runner_dir, layers);
  report.check(deterministic_artifacts(cold_dir) == reference,
               "traced artefacts differ from the CampaignRunner pass");
  report.check(cold.runner_executed == static_cast<int>(n),
               "interleaved CampaignRunner did not execute every scenario");
  fs::remove_all(runner_dir);
  const OutcomeStore plain_store(plain_dir, StoreFormat::Dir);
  for (const auto& scenario : scenarios)
    report.check(slurp(store.path_for(scenario)) ==
                     slurp(plain_store.path_for(scenario)),
                 "traced payload differs for " + scenario.fingerprint());
  fs::remove_all(plain_dir);

  // ---- the same records appended to a packed store (layout A/B).
  {
    const std::string packed_dir = path_in(work, "packed");
    const OutcomeStore packed(packed_dir, StoreFormat::Packed);
    for (const auto& scenario : scenarios) {
      const std::string bytes = slurp(store.path_for(scenario));
      Layer layer("campaign.packed_store_write", layers);
      packed.save_payload(scenario.fingerprint(), bytes);
    }
    fs::remove_all(packed_dir);
  }

  // ---- traced resume: read, parse and decode every stored record.
  double hit_ratio = 0.0;
  {
    CampaignResult resumed;
    std::size_t found = 0;
    for (const auto& scenario : scenarios) {
      ScenarioRun run;
      run.scenario = scenario;
      run.fingerprint = scenario.fingerprint();
      std::optional<std::string> bytes;
      {
        Layer layer("campaign.store_read", layers);
        bytes = store.payload(run.fingerprint);
      }
      report.check(bytes.has_value(), "resume missed " + run.fingerprint);
      if (!bytes) continue;
      ++found;
      Json doc;
      {
        Layer layer("common.json_parse", layers);
        doc = Json::parse(*bytes);
      }
      {
        Layer layer("core.decode", layers);
        run.outcome = hmpt::tuner::outcome_from_json(doc.at("outcome"));
      }
      run.status = ScenarioRun::Status::Cached;
      resumed.runs.push_back(std::move(run));
      ++resumed.cached;
    }
    const std::string resume_dir = path_in(work, "resume-traced");
    write_artifacts(resumed, resume_dir);
    report.check(deterministic_artifacts(resume_dir) == reference,
                 "resumed artefacts differ from the cold pass");
    hit_ratio = static_cast<double>(found) / static_cast<double>(n);
  }

  // ---- merge of three shard stores cut from the traced store.
  double merge_mb = 0.0;
  {
    const auto shard_dirs = build_shards(scenarios, cold_dir, work);
    const std::string merged_dir = path_in(work, "merged-traced");
    MergeStats stats;
    CampaignResult merged;
    {
      Layer layer("campaign.merge", layers);
      merged = merge_shards(shard_dirs, merged_dir, &stats);
    }
    merge_mb = static_cast<double>(store_bytes(merged_dir)) / 1e6;
    write_artifacts(merged, merged_dir);
    report.check(deterministic_artifacts(merged_dir) == reference,
                 "merged artefacts differ from the cold pass");
  }

  // ---- daemon: fixed job, resubmit and fetch counts.
  Samples overhead_ms;
  Samples result_ms;
  double result_bytes = 0.0;
  double dispatched = 0.0, cache_hits = 0.0;
  {
    DaemonClient daemon(path_in(work, "d.sock"), path_in(work, "daemon"));
    // The scheduler counters are process-wide, so take them as deltas.
    const auto counter_of = [&daemon](const char* name) {
      return daemon.stats().at("metrics").at("counters").number_or(name, 0.0);
    };
    const double dispatched_before = counter_of("scheduler.dispatched");
    const double cache_hits_before = counter_of("scheduler.cache_hits");
    const std::size_t jobs =
        std::min(n, static_cast<std::size_t>(def.traced_daemon_jobs));
    for (std::size_t i = 0; i < jobs; ++i) {
      const WorkTimer timer;
      const auto ms = daemon.run_job(scenarios[i]);
      report.check(ms.has_value(),
                   "daemon job failed for " + scenarios[i].fingerprint());
      if (ms) overhead_ms.add(*ms - timer.fsync_ms() - cold.window_work_ms[i]);
    }
    const auto resubmits = std::min(
        jobs, static_cast<std::size_t>(def.traced_cache_resubmits));
    for (std::size_t i = 0; i < resubmits; ++i)
      report.check(daemon.resubmit_cached(scenarios[i]),
                   "resubmit was not a cache hit");
    dispatched = counter_of("scheduler.dispatched") - dispatched_before;
    cache_hits = counter_of("scheduler.cache_hits") - cache_hits_before;
    report.check(dispatched == static_cast<double>(jobs) &&
                     cache_hits == static_cast<double>(resubmits),
                 "daemon counters disagree with the jobs submitted");
    for (int k = 0; k < def.traced_results && jobs > 0; ++k) {
      const std::string fingerprint =
          scenarios[static_cast<std::size_t>(k) % jobs].fingerprint();
      double ms = 0.0;
      const std::string line = daemon.result_line(fingerprint, &ms);
      result_ms.add(ms);
      result_bytes += static_cast<double>(line.size() + 1);
      report.check(hmpt::service::parse_server_message(line).ok,
                   "result failed for " + fingerprint);
    }
  }

  hmpt::obs::TraceRecorder::instance().stop_and_write(options.trace_path);

  // ---- per-layer table: each layer's share of the cold scenario time
  // CampaignRunner measured, flush waits left out of both.
  double covered_ms = 0.0;
  std::cout << "per-layer breakdown (" << def.name << ", " << n
            << " scenarios; CampaignRunner scenario time " << std::fixed
            << std::setprecision(1) << cold.runner_work_ms
            << " ms, without " << cold.flush_ms
            << " ms of flush wait in the layers)\n";
  std::cout << "  layer                       p50 ms      total ms   share\n";
  for (const char* name : kScenarioLayers) {
    const Samples& s = layers[name];
    const bool writes = std::string(name) == "campaign.store_write";
    const double ms = s.sum() - (writes ? cold.flush_ms : 0.0);
    covered_ms += ms;
    std::cout << "  " << std::left << std::setw(26) << name << std::right
              << std::setw(9) << std::setprecision(3) << s.percentile(50)
              << std::setw(14) << std::setprecision(1) << ms << std::setw(7)
              << std::setprecision(1) << 100.0 * ms / cold.runner_work_ms
              << "%\n";
  }
  std::cout.unsetf(std::ios::floatfield);
  std::cout << std::setprecision(6);
  const double coverage = covered_ms / cold.runner_work_ms;
  report.check(coverage >= 0.9, "obs.coverage below 0.9");

  const double dn = static_cast<double>(n);
  const auto p = [&](const char* name, double pct) {
    return layers[name].percentile(pct);
  };
  const auto sum = [&](const char* name) { return layers[name].sum(); };
  const auto put = [&report](const char* name, double value,
                             const char* unit) {
    report.layer_metric(name, value, unit);
  };
  put("campaign.expand_ms", sum("campaign.expand"), "ms");
  put("campaign.build_ms_p50", p("campaign.build", 50), "ms");
  put("core.tune_ms_p50", p("core.tune", 50), "ms");
  put("core.tune_ms_p90", p("core.tune", 90), "ms");
  put("simmem.configs_per_s", cold.configs / (sum("core.tune") / 1e3), "1/s");
  put("simmem.timer_hit_ratio",
      cold.timer_hits / (cold.timer_hits + cold.timer_misses), "ratio");
  put("core.configs_per_scenario", cold.configs / dn, "count");
  put("core.measurements_per_scenario", cold.measurements / dn, "count");
  put("campaign.make_payload_ms_p50", p("campaign.make_payload", 50), "ms");
  put("core.encode_ms_p50", p("core.encode", 50), "ms");
  put("common.json_dump_ms_p50", p("common.json_dump", 50), "ms");
  put("core.encode_bytes_per_scenario", cold.payload_bytes / dn, "bytes");
  put("campaign.store_write_ms_p50", p("campaign.store_write", 50), "ms");
  put("campaign.store_write_ms_p90", p("campaign.store_write", 90), "ms");
  put("campaign.fsyncs_per_scenario", cold.fsyncs / dn, "count");
  put("campaign.fsync_wait_ms_per_scenario", cold.flush_ms / dn, "ms");
  put("campaign.store_write_growth", growth(layers["campaign.store_write"]),
      "ratio");
  put("campaign.packed_store_write_ms_p50",
      p("campaign.packed_store_write", 50), "ms");
  put("campaign.packed_store_write_growth",
      growth(layers["campaign.packed_store_write"]), "ratio");
  put("campaign.store_read_ms_p50", p("campaign.store_read", 50), "ms");
  put("common.json_parse_ms_p50", p("common.json_parse", 50), "ms");
  put("core.decode_ms_p50", p("core.decode", 50), "ms");
  put("campaign.resume_hit_ratio", hit_ratio, "ratio");
  put("campaign.aggregate_ms", sum("campaign.aggregate"), "ms");
  put("report.render_ms", sum("report.render"), "ms");
  put("campaign.merge_ms", sum("campaign.merge"), "ms");
  put("campaign.merge_mb_per_s", merge_mb / (sum("campaign.merge") / 1e3),
      "MB/s");
  put("service.job_overhead_ms_p50", overhead_ms.percentile(50), "ms");
  put("service.dispatched", dispatched, "count");
  put("service.cache_hits", cache_hits, "count");
  put("service.result_bytes_per_response",
      result_bytes / static_cast<double>(result_ms.size()), "bytes");
  put("service.result_mb_per_s",
      result_bytes / 1e6 / (result_ms.sum() / 1e3), "MB/s");
  put("obs.coverage", coverage, "ratio");
  put("obs.trace_overhead", untraced_work_ms / traced_work_ms, "ratio");
  return report;
}

}  // namespace perfbench
