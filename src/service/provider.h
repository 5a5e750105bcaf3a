// provider.h — the execution seam between the scheduler and a backend.
//
// The scheduler never touches Session/simulator code directly: every job
// runs through an ExecutionProvider, so the in-tree simulator backend
// (SimulatorProvider, which executes the exact batch-campaign path) is
// just the first provider. A real-hardware provider — shim + sampler on a
// live machine, closing the measure-and-tune loop of the paper — plugs in
// behind the same scheduler by implementing run(); results it returns are
// persisted and streamed exactly like simulated ones.
//
// Contract: run() must be safe to call concurrently from multiple worker
// threads, must be deterministic per scenario fingerprint (byte-identical
// TuningOutcome serialisation for a repeated scenario — the store's
// first-write-wins race handling relies on it), and reports failure by
// throwing. It is the body of the scenario executor (campaign.h), which
// retries, stores, and reports the exception text as the job error.
// Errors are classified by message (common/retry): a "terminal:" prefix
// never retries, anything else is transient.
//
// Cancellation is cooperative: run() receives the attempt's CancelToken
// (attempt deadline, scheduler stop) and should call token.check() at
// its yield points and token.sleep_for() instead of raw sleeps, so a
// timed-out or canceled job stops burning its worker. A provider that
// never checks simply runs to completion — only latency suffers.
#pragma once

#include "campaign/scenario.h"
#include "common/retry.h"
#include "core/strategy.h"

namespace hmpt::service {

class ExecutionProvider {
 public:
  virtual ~ExecutionProvider() = default;

  /// The provider's registry-style name ("simulator", "hardware", ...).
  virtual std::string name() const = 0;

  /// Execute one scenario to completion. Thread-safe; throws on failure.
  /// `token` carries the attempt's deadline and cancellation — check it
  /// cooperatively (see the file comment).
  virtual tuner::TuningOutcome run(const campaign::Scenario& scenario,
                                   const CancelToken& token) = 0;
};

/// The simulator backend: builds the scenario's platform model and tunes
/// through the Session facade via CampaignRunner::execute — the same code
/// path hmpt_campaign runs, so daemon outcomes are byte-identical to
/// batch outcomes for the same fingerprint.
class SimulatorProvider : public ExecutionProvider {
 public:
  /// `measure_jobs` = measurement threads per scenario (the campaign
  /// default 1 composes best with scheduler-level concurrency).
  explicit SimulatorProvider(int measure_jobs = 1);

  std::string name() const override { return "simulator"; }
  tuner::TuningOutcome run(const campaign::Scenario& scenario,
                           const CancelToken& token) override;

 private:
  int measure_jobs_ = 1;
};

}  // namespace hmpt::service
