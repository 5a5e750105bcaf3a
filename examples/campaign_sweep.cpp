// campaign_sweep — drive a scenario-matrix campaign programmatically.
//
// Builds the same kind of matrix a campaign file declares (three paper
// workloads × two platforms × all three strategies), runs it through the
// CampaignRunner with an on-disk outcome store, then re-runs with resume
// to show that a finished campaign costs nothing: every scenario loads
// from the store and the aggregate artefacts come out byte-identical.
#include <filesystem>
#include <iostream>
#include <sstream>

#include "campaign/aggregate.h"
#include "campaign/campaign.h"

int main() {
  using namespace hmpt;

  campaign::ScenarioMatrix matrix;
  matrix.workloads = {campaign::parse_workload_spec("mg"),
                      campaign::parse_workload_spec("bt"),
                      campaign::parse_workload_spec("kwave")};
  matrix.platforms = {"xeon-max", "spr-cxl"};
  matrix.strategies = {"exhaustive", "estimator", "online"};
  matrix.repetitions = 3;

  const auto scenarios = matrix.expand();
  std::cout << "campaign of " << scenarios.size() << " scenarios:\n"
            << campaign::plan_table(scenarios).to_text() << "\n";

  campaign::CampaignOptions options;
  options.output_dir =
      (std::filesystem::temp_directory_path() / "hmpt_campaign_sweep")
          .string();
  options.scenario_jobs = 0;  // one scenario per hardware thread

  const campaign::CampaignRunner runner(options);
  const auto cold = runner.run(scenarios);
  std::cout << "cold run: executed " << cold.executed << ", cached "
            << cold.cached << "\n\nranked scenarios:\n"
            << campaign::ranked_table(cold).to_text() << "\n";

  // Second run with --resume semantics: everything is served from the
  // outcome store, nothing executes.
  auto resumed_options = options;
  resumed_options.resume = true;
  const auto warm = campaign::CampaignRunner(resumed_options).run(scenarios);
  std::cout << "resumed run: executed " << warm.executed << ", cached "
            << warm.cached << "\n";
  // The artefact writers stream to any std::ostream; here, to memory.
  std::ostringstream cold_csv, warm_csv;
  campaign::write_runs_csv(cold_csv, cold);
  campaign::write_runs_csv(warm_csv, warm);
  std::cout << "runs.csv identical across resume: "
            << (cold_csv.str() == warm_csv.str() ? "yes" : "NO") << "\n";
  std::cout << "outcome store: " << runner.store().directory()
            << "/outcomes/\n";
  return 0;
}
