#include "campaign/campaign.h"

#include <chrono>
#include <mutex>
#include <utility>

#include "campaign/platforms.h"
#include "common/error.h"
#include "common/retry.h"
#include "common/thread_pool.h"
#include "core/session.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hmpt::campaign {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// `outcome` without its row lists, which the store holds: all a
/// ScenarioRun keeps.
tuner::TuningOutcome headline_of(tuner::TuningOutcome outcome) {
  outcome.trajectory = std::vector<tuner::TuningStep>();
  outcome.table = std::vector<tuner::ConfigResult>();
  outcome.sweep.reset();
  return outcome;
}

}  // namespace

const char* to_string(ScenarioRun::Status status) {
  switch (status) {
    case ScenarioRun::Status::Planned: return "planned";
    case ScenarioRun::Status::Executed: return "executed";
    case ScenarioRun::Status::Cached: return "cached";
    case ScenarioRun::Status::Failed: return "failed";
  }
  return "?";
}

ScenarioExecution execute_and_store(
    const Scenario& scenario, const std::string& fingerprint,
    const OutcomeStore& store, const RetryPolicy& policy,
    const std::function<tuner::TuningOutcome(const CancelToken&)>& body,
    const CancelToken* parent) {
  ScenarioExecution result;
  const auto start = Clock::now();
  const RetryResult retried = run_with_retries(
      policy, stream_of(fingerprint),
      [&](const CancelToken& token) {
        obs::TraceSpan span("campaign", "attempt");
        span.arg("fingerprint", fingerprint);
        token.check();
        auto outcome = body(token);
        store.save(scenario, outcome);
        result.outcome = std::move(outcome);
      },
      parent);
  result.seconds = seconds_since(start);
  result.attempts = retried.attempts();
  for (const auto& failure : retried.failures)
    if (failure.error.find("timeout:") != std::string::npos)
      ++result.timeouts;
  if (!retried.ok) {
    result.error = retried.failures.size() == 1
                       ? retried.failures.front().error
                       : "after " + std::to_string(result.attempts) +
                             " attempts: " + format_attempts(retried.failures);
  }

  static obs::Counter& retries = obs::metrics().counter("scenario.retries");
  static obs::Counter& timeouts = obs::metrics().counter("scenario.timeouts");
  retries.add(static_cast<std::uint64_t>(result.attempts - 1));
  timeouts.add(static_cast<std::uint64_t>(result.timeouts));
  return result;
}

CampaignRunner::CampaignRunner(CampaignOptions options)
    : options_(std::move(options)),
      store_(options_.output_dir, options_.store_format) {
  HMPT_REQUIRE(options_.scenario_jobs >= 0,
               "scenario_jobs must be >= 0 (0 = all hardware threads)");
  HMPT_REQUIRE(options_.measure_jobs == 1,
               "measure_jobs must be 1 (measurement is serial)");
  HMPT_REQUIRE(options_.attempts >= 1, "attempts must be >= 1");
  HMPT_REQUIRE(options_.scenario_timeout_s >= 0.0,
               "scenario_timeout_s must be >= 0 (0 = none)");
}

tuner::TuningOutcome CampaignRunner::execute(const Scenario& scenario,
                                             int measure_jobs) {
  HMPT_REQUIRE(measure_jobs == 1,
               "measure_jobs must be 1 (measurement is serial)");
  auto simulator = make_platform(scenario.platform);
  const auto resolved = WorkloadRegistry::instance().create(
      scenario.workload, simulator);

  // Tier sanity (tier count within the platform, budgets within the
  // searched tiers) is enforced by Session::run for every entry point.
  auto session = tuner::Session::on(simulator)
                     .workload(resolved.workload)
                     .strategy(scenario.strategy)
                     .tiers(scenario.tiers)
                     .repetitions(scenario.repetitions)
                     .budget_gb(scenario.budget_gb)
                     .top_k(scenario.top_k);
  if (resolved.context.has_value()) session.context(*resolved.context);
  for (const auto& [tier, gb] : scenario.tier_budgets_gb)
    session.tier_budget_gb(tier, gb);
  return session.run();
}

CampaignResult CampaignRunner::run(const std::vector<Scenario>& scenarios,
                                   const ScenarioCallback& on_scenario) const {
  CampaignResult result;
  result.runs.resize(scenarios.size());
  const auto campaign_start = Clock::now();

  std::mutex mutex;  // guards the counters and the progress callback
  const auto finish = [&](std::size_t i, ScenarioRun&& run) {
    std::lock_guard<std::mutex> lock(mutex);
    switch (run.status) {
      case ScenarioRun::Status::Planned: ++result.planned; break;
      case ScenarioRun::Status::Executed: ++result.executed; break;
      case ScenarioRun::Status::Cached: ++result.cached; break;
      case ScenarioRun::Status::Failed: ++result.failed; break;
    }
    result.runs[i] = std::move(run);
    if (on_scenario) on_scenario(i, result.runs[i]);
  };

  const auto run_one = [&](std::size_t i) {
    ScenarioRun run;
    run.scenario = scenarios[i];
    run.fingerprint = run.scenario.fingerprint();

    // The whole scenario — cache probe, attempts, store write — as one
    // span; the closing args record how it ended. Purely observational:
    // disarmed this is four no-op calls, and armed it touches nothing
    // the outcome or the artefacts derive from.
    obs::TraceSpan span("campaign", "scenario");
    span.arg("fingerprint", run.fingerprint);
    span.arg("label", run.scenario.label());
    static obs::Counter& scenarios_finished =
        obs::metrics().counter("campaign.scenarios");
    scenarios_finished.add();

    if (options_.dry_run) {
      run.status = ScenarioRun::Status::Planned;
      span.arg("status", "planned");
      finish(i, std::move(run));
      return;
    }
    try {
      if (options_.resume) {
        if (auto cached = store_.load(run.scenario, tuner::Rows::Skip)) {
          run.status = ScenarioRun::Status::Cached;
          run.outcome = std::move(*cached);
          span.arg("status", "cached");
          finish(i, std::move(run));
          return;
        }
      }
      // The executor the daemon scheduler shares: transient failures
      // retry with deterministic backoff, each attempt has a cooperative
      // deadline, terminal errors stop the loop.
      RetryPolicy policy;
      policy.max_attempts = options_.attempts;
      policy.attempt_deadline_s = options_.scenario_timeout_s;
      auto executed = execute_and_store(
          run.scenario, run.fingerprint, store_, policy,
          [&](const CancelToken&) {
            return execute(run.scenario);
          });
      run.seconds = executed.seconds;
      run.attempts = executed.attempts;
      span.arg_number("attempts", static_cast<std::uint64_t>(run.attempts));
      if (!executed.ok()) raise(executed.error);
      run.outcome = headline_of(std::move(*executed.outcome));
      run.status = ScenarioRun::Status::Executed;
      span.arg("status", "executed");
    } catch (const std::exception& e) {
      if (!options_.keep_going) throw;  // the pool rethrows to the caller
      run.status = ScenarioRun::Status::Failed;
      run.error = e.what();
      span.arg("status", "failed");
    }
    finish(i, std::move(run));
  };

  parallel_for(options_.scenario_jobs, scenarios.size(), run_one);

  result.seconds = seconds_since(campaign_start);
  return result;
}

}  // namespace hmpt::campaign
