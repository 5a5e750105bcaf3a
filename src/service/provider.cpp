#include "service/provider.h"

#include "campaign/campaign.h"
#include "common/error.h"

namespace hmpt::service {

SimulatorProvider::SimulatorProvider(int measure_jobs)
    : measure_jobs_(measure_jobs) {
  HMPT_REQUIRE(measure_jobs >= 0,
               "measure_jobs must be >= 0 (0 = all hardware threads)");
}

tuner::TuningOutcome SimulatorProvider::run(
    const campaign::Scenario& scenario, const CancelToken&) {
  // One uninterrupted burst: the executor checks the token before it.
  return campaign::CampaignRunner::execute(scenario, measure_jobs_);
}

}  // namespace hmpt::service
