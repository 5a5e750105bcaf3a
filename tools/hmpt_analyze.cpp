// hmpt_analyze — command-line front end of the tuner.
//
// Loads a recorded workload profile (the format trace_io writes, e.g. for
// a workload record_workload built from a profiling run), tunes its
// placement on a simulated platform with the selected strategy, prints the
// analysis, and optionally writes the recommended shim placement plan for
// the next run:
//
//   hmpt_analyze <profile> [--platform NAME] [--strategy NAME]
//                [--tiers K] [--budget-gb N] [--tier-budget-gb T:N]
//                [--threshold F] [--reps N] [--top-k N]
//                [--plan-out FILE] [--json FILE] [--csv] [--trace FILE]
//                [--list-platforms] [--list-workloads]
//
// Platforms come from the campaign catalogue (--list-platforms) and
// workload names from the campaign registry (--list-workloads); --json
// writes the TuningOutcome with the campaign serializer, so a single
// analysis emits the same artefact a campaign scenario stores.
//
// The default "exhaustive" strategy prints the full paper-style report
// (detailed + summary views); every other registered strategy prints the
// unified TuningOutcome (chosen placement, trajectory, measured table).
//
// Exit codes: 0 success, 1 bad usage, 2 analysis failure.
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "campaign/platforms.h"
#include "campaign/workload_registry.h"
#include "cli_parse.h"
#include "common/file_io.h"
#include "common/units.h"
#include "core/analysis.h"
#include "core/outcome_io.h"
#include "core/session.h"
#include "obs/trace.h"
#include "simmem/simulator.h"
#include "version.h"
#include "workloads/trace_io.h"

namespace {

void usage(const char* argv0) {
  std::string strategies;
  for (const auto& name : hmpt::tuner::StrategyRegistry::instance().names())
    strategies += (strategies.empty() ? "" : "|") + name;
  std::string platforms;
  for (const auto& name : hmpt::campaign::platform_names())
    platforms += (platforms.empty() ? "" : "|") + name;
  std::cerr
      << "usage: " << argv0 << " <profile> [options]\n"
      << "  --platform " << platforms << "\n"
      << "                            platform model (default spr =\n"
      << "                            xeon-max, the dual-socket paper\n"
      << "                            platform; --list-platforms for the\n"
      << "                            full catalogue with aliases)\n"
      << "  --strategy " << strategies << "\n"
      << "                            search method (default exhaustive)\n"
      << "  --tiers K                 memory tiers to search (K >= 2, at\n"
      << "                            most the platform's tier count;\n"
      << "                            0 = the platform's native count,\n"
      << "                            the default)\n"
      << "  --budget-gb N             HBM capacity budget for the plan\n"
      << "                            (N >= 0; 0 = full machine HBM)\n"
      << "  --tier-budget-gb T:N      capacity budget of tier T (1 = HBM,\n"
      << "                            2 = CXL); repeatable\n"
      << "  --threshold F             speedup fraction for the minimal\n"
      << "                            footprint search, in (0,1]\n"
      << "                            (default 0.9)\n"
      << "  --reps N                  measurement repetitions (default 3,\n"
      << "                            N >= 1)\n"
      << "  --top-k N                 estimator strategy: predicted\n"
      << "                            configurations to measure (default 3)\n"
      << "  --plan-out FILE           write the recommended shim plan\n"
      << "  --json FILE               write the TuningOutcome as JSON (the\n"
      << "                            campaign outcome format)\n"
      << "  --csv                     also print the summary-view CSV\n"
      << "  --trace FILE              record a Chrome trace-event file of\n"
      << "                            the tuning run (load in Perfetto or\n"
      << "                            chrome://tracing); never changes the\n"
      << "                            analysis output\n"
      << "  --list-platforms          print the platform catalogue, exit\n"
      << "  --list-workloads          print the workload registry, exit\n";
}

double parse_double(const char* argv0, const std::string& flag,
                    const char* text) {
  return hmpt::cli::parse_double(flag, text, [argv0] { usage(argv0); });
}

int parse_int(const char* argv0, const std::string& flag, const char* text) {
  return hmpt::cli::parse_int(flag, text, [argv0] { usage(argv0); });
}

[[noreturn]] void bad_value(const char* argv0, const std::string& message) {
  std::cerr << message << '\n';
  usage(argv0);
  std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hmpt;
  if (argc < 2) {
    usage(argv[0]);
    return 1;
  }

  std::string profile_path;
  std::string platform = "spr";
  std::string strategy = "exhaustive";
  std::string plan_out;
  std::string json_out;
  double budget_gb = 0.0;
  std::vector<std::pair<int, double>> tier_budgets_gb;
  double threshold = 0.9;
  int tiers = 0;  // 0 = platform native tier count
  int reps = 3;
  int top_k = 3;
  bool csv = false;
  std::string trace_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage(argv[0]);
        std::exit(1);
      }
      return argv[++i];
    };
    if (arg == "--platform") platform = next();
    else if (arg == "--strategy") strategy = next();
    else if (arg == "--tiers") tiers = parse_int(argv[0], arg, next());
    else if (arg == "--budget-gb")
      budget_gb = parse_double(argv[0], arg, next());
    else if (arg == "--tier-budget-gb") {
      const std::string spec = next();
      const auto colon = spec.find(':');
      if (colon == std::string::npos)
        bad_value(argv[0], "--tier-budget-gb expects T:N (e.g. 2:64)");
      const int tier =
          parse_int(argv[0], arg, spec.substr(0, colon).c_str());
      const double gb =
          parse_double(argv[0], arg, spec.substr(colon + 1).c_str());
      if (tier < 1 || tier >= hmpt::topo::kNumPoolKinds || gb < 0.0)
        bad_value(argv[0],
                  "--tier-budget-gb needs 1 <= tier < " +
                      std::to_string(hmpt::topo::kNumPoolKinds) +
                      " and budget >= 0");
      tier_budgets_gb.emplace_back(tier, gb);
    }
    else if (arg == "--threshold")
      threshold = parse_double(argv[0], arg, next());
    else if (arg == "--reps") reps = parse_int(argv[0], arg, next());
    else if (arg == "--top-k") top_k = parse_int(argv[0], arg, next());
    else if (arg == "--plan-out") plan_out = next();
    else if (arg == "--json") json_out = next();
    else if (arg == "--csv") csv = true;
    else if (arg == "--trace") trace_path = next();
    else if (arg == "--list-platforms") {
      std::cout << campaign::platform_catalog_text();
      return 0;
    }
    else if (arg == "--list-workloads") {
      std::cout << campaign::WorkloadRegistry::instance().list_text();
      return 0;
    }
    else if (arg == "--version") {
      cli::print_version("hmpt_analyze");
      return 0;
    }
    else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown option: " << arg << '\n';
      usage(argv[0]);
      return 1;
    } else if (profile_path.empty()) {
      profile_path = arg;
    } else {
      usage(argv[0]);
      return 1;
    }
  }
  if (profile_path.empty()) {
    usage(argv[0]);
    return 1;
  }
  if (!(threshold > 0.0 && threshold <= 1.0))
    bad_value(argv[0], "--threshold must be in (0,1]");
  if (budget_gb < 0.0) bad_value(argv[0], "--budget-gb must be >= 0");
  if (reps < 1) bad_value(argv[0], "--reps must be >= 1");
  if (top_k < 1) bad_value(argv[0], "--top-k must be >= 1");
  if (tiers != 0 && tiers < 2)
    bad_value(argv[0], "--tiers must be 0 (platform native) or >= 2");
  if (!tuner::StrategyRegistry::instance().contains(strategy))
    bad_value(argv[0], "unknown strategy: " + strategy);

  try {
    // Arm before any tuning work so the sweep/search/phase spans land in
    // the trace; the analysis output itself is unaffected.
    if (!trace_path.empty()) obs::TraceRecorder::instance().start();

    auto simulator = campaign::make_platform(platform);

    // Tier flags must name tiers the selected platform actually searches —
    // a silently ignored budget is worse than an error.
    const int machine_tiers = simulator.machine().num_memory_tiers();
    const int effective_tiers = tiers == 0 ? machine_tiers : tiers;
    if (effective_tiers > machine_tiers)
      bad_value(argv[0], "--tiers " + std::to_string(tiers) +
                             ": platform has only " +
                             std::to_string(machine_tiers) + " tiers");
    for (const auto& tb : tier_budgets_gb) {
      if (tb.first >= effective_tiers)
        bad_value(argv[0], "--tier-budget-gb " + std::to_string(tb.first) +
                               ":...: the search covers only tiers 0-" +
                               std::to_string(effective_tiers - 1));
    }

    const auto workload = workloads::load_workload(profile_path);
    std::cout << "profile: " << profile_path << " (" << workload.name()
              << ", " << workload.num_groups() << " groups, "
              << format_bytes(workload.total_bytes()) << ")\n";
    std::cout << "platform: " << simulator.machine().name() << "\n\n";

    // Every strategy runs through the Session front door; "exhaustive"
    // additionally gets the paper's full report, analysed from the same
    // outcome.
    auto session = tuner::Session::on(simulator)
                       .workload(workload)
                       .strategy(strategy)
                       .tiers(tiers)
                       .repetitions(reps)
                       .budget_gb(budget_gb)
                       .top_k(top_k);
    for (const auto& [tier, gb] : tier_budgets_gb)
      session.tier_budget_gb(tier, gb);
    auto outcome = session.run();
    if (strategy == "exhaustive") {
      auto report = tuner::analyze(std::move(outcome), threshold);
      std::cout << report.to_text();
      if (csv) {
        std::cout << "\nsummary view CSV:\n"
                  << report.summary_view.table.to_csv();
      }
      outcome = std::move(report.outcome);
    } else {
      std::cout << outcome.to_text();
      if (csv) {
        Table table({"config", "speedup", "hbm_usage"});
        for (const auto& c : outcome.configs())
          table.add_row({tuner::mask_label(c.mask, outcome.num_groups,
                                           outcome.num_tiers),
                         cell(tuner::speedup_of(outcome.baseline_time,
                                                c.mean_time),
                              4),
                         cell(tuner::hbm_usage_of(outcome.weights, c.mask,
                                                  outcome.num_tiers),
                              4)});
        std::cout << "\nmeasured configurations CSV:\n" << table.to_csv();
      }
    }

    if (!plan_out.empty()) {
      // Materialise the recommended placement against the profile's group
      // labels (named call sites).
      std::vector<tuner::AllocationGroup> groups;
      for (const auto& g : workload.groups()) {
        tuner::AllocationGroup ag;
        ag.label = g.label;
        ag.bytes = g.bytes;
        groups.push_back(ag);
      }
      const auto plan =
          tuner::to_placement_plan(groups, outcome.chosen_placement());
      write_file(plan_out, [&](std::ostream& os) { os << plan.serialize(); });
      std::cout << "\nplacement plan written to " << plan_out << '\n';
    }

    if (!json_out.empty()) {
      write_file(json_out, [&](std::ostream& os) {
        os << tuner::outcome_to_json(outcome).dump();
      });
      std::cout << "\noutcome JSON written to " << json_out << '\n';
    }

    if (!trace_path.empty()) {
      obs::TraceRecorder::instance().stop_and_write(trace_path);
      std::cout << "\ntrace written to " << trace_path << '\n';
    }
  } catch (const std::exception& e) {
    std::cerr << "analysis failed: " << e.what() << '\n';
    return 2;
  }
  return 0;
}
