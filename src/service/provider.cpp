#include "service/provider.h"

#include "campaign/campaign.h"

namespace hmpt::service {

tuner::TuningOutcome SimulatorProvider::run(
    const campaign::Scenario& scenario, const CancelToken&) {
  // One uninterrupted burst: the executor checks the token before it.
  return campaign::CampaignRunner::execute(scenario);
}

}  // namespace hmpt::service
