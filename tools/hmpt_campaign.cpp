// hmpt_campaign — scenario-matrix sweeps with a resumable outcome store.
//
// Expands a campaign (workloads × platforms × strategies × tiers ×
// budgets), declared in a campaign file and/or via repeatable flags, into
// a deduplicated scenario list and runs every scenario through the tuner,
// persisting each outcome as JSON under the output directory:
//
//   hmpt_campaign [<campaign-file>]
//                 [--workload NAME[:k=v,...]]... [--platform NAME]...
//                 [--strategy NAME]... [--tiers K]... [--budget-gb N]...
//                 [--tier-budget-gb T:N]... [--reps N] [--top-k N]
//                 [--out DIR] [--store-format dir|packed] [--shard I/N]
//                 [--plan FILE] [--assign FILE] [--progress-manifest]
//                 [--fleet N] [--worker-bin PATH] [--exec-template T]
//                 [--sync-template T] [--straggler-after S]
//                 [--poll-interval S] [--max-deals N]
//                 [--resume] [--dry-run] [--keep-going] [--report]
//                 [--jobs N]
//                 [--retries N] [--scenario-timeout S] [--quiet]
//                 [--list-workloads] [--list-platforms]
//
// --resume skips every scenario whose fingerprint is already stored (a
// re-run of a finished campaign executes nothing and reproduces runs.csv
// byte-for-byte); --dry-run prints the same scenario plan a real run
// starts with and exits. The matrix flags are the campaign-file
// directives with "--" in front; they apply after the campaign file, and
// unset axes take the matrix defaults (platform xeon-max, strategy
// exhaustive).
//
// --shard I/N runs the I-th of N deterministic slices of the campaign
// (fingerprint-ordered, round-robin — disjoint, stable under --resume and
// across hosts). Every real run writes a shard.manifest.json next to its
// outcomes (an unsharded run is the 1/1 shard); hmpt_merge validates N
// such stores against the campaign fingerprint and reproduces the
// unsharded artefacts byte-for-byte.
//
// --fleet N runs the whole campaign as N shard worker processes (this
// binary, or --worker-bin) with work stealing: the dispatcher tails every
// worker's manifest and re-deals unfinished work away from dead or
// stalled workers, then merges in-process — artefacts byte-identical to
// an unsharded run, whatever was killed or stolen (src/fleet/fleet.h).
// --exec-template launches each worker through /bin/sh -c with {cmd} and
// {index} substituted ("ssh node{index} {cmd}" makes an ssh fleet);
// --sync-template pulls each store back before the merge ({dir}/{index}).
// --plan/--assign/--progress-manifest are the worker side of that
// protocol: run the exact scenario list of a dispatcher-written plan
// file, restricted to an assigned fingerprint set, rewriting the shard
// manifest after every scenario so the dispatcher can tail progress and
// a SIGKILLed worker leaves a valid manifest.
//
// Exit codes: 0 success, 1 bad usage, 2 campaign or fleet failure
// (including any failed scenario under --keep-going).
#include <unistd.h>

#include <cerrno>
#include <climits>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "campaign/aggregate.h"
#include "campaign/campaign.h"
#include "campaign/merge.h"
#include "campaign/platforms.h"
#include "cli_parse.h"
#include "common/error.h"
#include "common/units.h"
#include "fleet/fleet.h"
#include "obs/trace.h"
#include "report/report.h"
#include "version.h"

namespace {

using namespace hmpt;

void usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [<campaign-file>] [options]\n"
      << "  --workload NAME[:k=v,...]  add a workload (repeatable; see\n"
      << "                             --list-workloads)\n"
      << "  --platform NAME            add a platform (repeatable; default\n"
      << "                             xeon-max; see --list-platforms)\n"
      << "  --strategy NAME            add a strategy (repeatable; default\n"
      << "                             exhaustive)\n"
      << "  --tiers K                  add a tier count (repeatable;\n"
      << "                             default 0 = platform native)\n"
      << "  --budget-gb N              add an HBM budget (repeatable;\n"
      << "                             default 0 = full machine)\n"
      << "  --tier-budget-gb T:N       tier T capacity cap, all scenarios\n"
      << "                             (repeatable)\n"
      << "  --reps N                   measurement repetitions (default 3)\n"
      << "  --top-k N                  estimator: configs to measure\n"
      << "                             (default 3)\n"
      << "  --out DIR                  outcome store + artefacts (default\n"
      << "                             campaign-out)\n"
      << "  --store-format dir|packed  outcome store layout: one JSON file\n"
      << "                             per scenario (dir, default) or one\n"
      << "                             append-only outcomes.log (its own\n"
      << "                             index) for fleet-scale campaigns\n"
      << "  --shard I/N                run the I-th of N deterministic\n"
      << "                             slices of the campaign (1-based;\n"
      << "                             merge the stores with hmpt_merge)\n"
      << "  --plan FILE                run the exact scenario list of a\n"
      << "                             plan file (written by the fleet\n"
      << "                             dispatcher) instead of a campaign\n"
      << "                             file / matrix flags\n"
      << "  --assign FILE              run only the fingerprints listed in\n"
      << "                             FILE (one per line; each must\n"
      << "                             belong to the campaign)\n"
      << "  --progress-manifest        rewrite shard.manifest.json\n"
      << "                             atomically after every scenario, so\n"
      << "                             a dispatcher can tail progress and\n"
      << "                             a killed run leaves a valid\n"
      << "                             manifest\n"
      << "  --fleet N                  run the campaign as N shard worker\n"
      << "                             processes with work stealing, then\n"
      << "                             merge (artefacts byte-identical to\n"
      << "                             an unsharded run; docs/FLEET.md)\n"
      << "  --worker-bin PATH          fleet: worker binary (default:\n"
      << "                             this binary)\n"
      << "  --exec-template T          fleet: launch each worker via\n"
      << "                             /bin/sh -c with {cmd}/{index}\n"
      << "                             substituted (ssh/srun seam)\n"
      << "  --sync-template T          fleet: run per worker store before\n"
      << "                             the merge ({dir}/{index})\n"
      << "  --straggler-after S        fleet: steal from a worker with no\n"
      << "                             progress for S seconds (default 30)\n"
      << "  --poll-interval S          fleet: manifest poll interval in\n"
      << "                             seconds (default 0.2)\n"
      << "  --max-deals N              fleet: launch cap per scenario\n"
      << "                             (default 3)\n"
      << "  --resume                   skip scenarios already stored\n"
      << "  --dry-run                  print the scenario plan, run nothing\n"
      << "  --keep-going               record failures and continue\n"
      << "                             (default: fail fast)\n"
      << "  --report                   also write a self-contained HTML\n"
      << "                             report to <out>/report/index.html\n"
      << "  --trace FILE               record a Chrome trace-event JSON of\n"
      << "                             the run (load in chrome://tracing\n"
      << "                             or Perfetto); artefacts are\n"
      << "                             byte-identical with or without it\n"
      << "  --jobs N                   concurrent scenarios (N >= 0;\n"
      << "                             0 = all hardware threads; default 1)\n"
      << "  --retries N                retries per scenario after the first\n"
      << "                             attempt (default 0 = fail fast);\n"
      << "                             deterministic exponential backoff\n"
      << "  --scenario-timeout S       per-attempt deadline in seconds\n"
      << "                             (default 0 = none; cooperative)\n"
      << "  --quiet                    suppress per-scenario progress\n"
      << "  --list-workloads           print the workload registry and exit\n"
      << "  --list-platforms           print the platform catalogue and exit\n";
}

int parse_int(const char* argv0, const std::string& flag, const char* text) {
  return hmpt::cli::parse_int(flag, text, [argv0] { usage(argv0); });
}

double parse_double(const char* argv0, const std::string& flag,
                    const char* text) {
  return hmpt::cli::parse_double(flag, text, [argv0] { usage(argv0); });
}

/// This binary's own path — the default fleet worker binary.
std::string self_exe_path() {
  char buf[PATH_MAX];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return "";
  buf[n] = '\0';
  return std::string(buf);
}

}  // namespace

int main(int argc, char** argv) {
  std::string campaign_file;
  cli::MatrixFlags matrix_flags;  // applied after the campaign file
  campaign::CampaignOptions options;
  campaign::ShardSpec shard;  // default 1/1 = the whole campaign
  bool quiet = false;
  bool write_html_report = false;
  std::string trace_path;
  std::string plan_path;    // --plan: dispatcher-written scenario list
  std::string assign_path;  // --assign: fingerprint subset to run
  bool progress_manifest = false;
  int fleet_workers = 0;  // --fleet N; 0 = no fleet, run in-process
  fleet::FleetOptions fleet_options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage(argv[0]);
        std::exit(1);
      }
      return argv[++i];
    };
    if (const auto directive = cli::matrix_directive(arg); !directive.empty())
      matrix_flags.emplace_back(directive, next());
    else if (arg == "--out") options.output_dir = next();
    else if (arg == "--store-format") {
      try {
        options.store_format = campaign::store_format_from(next());
      } catch (const std::exception& e) {
        std::cerr << e.what() << '\n';
        usage(argv[0]);
        return 1;
      }
    }
    else if (arg == "--shard") {
      try {
        shard = campaign::parse_shard_spec(next());
      } catch (const std::exception& e) {
        std::cerr << e.what() << '\n';
        usage(argv[0]);
        return 1;
      }
    }
    else if (arg == "--plan") plan_path = next();
    else if (arg == "--assign") assign_path = next();
    else if (arg == "--progress-manifest") progress_manifest = true;
    else if (arg == "--fleet")
      fleet_workers = parse_int(argv[0], arg, next());
    else if (arg == "--worker-bin") fleet_options.worker_bin = next();
    else if (arg == "--exec-template") fleet_options.exec_template = next();
    else if (arg == "--sync-template") fleet_options.sync_template = next();
    else if (arg == "--straggler-after")
      fleet_options.straggler_after_s = parse_double(argv[0], arg, next());
    else if (arg == "--poll-interval")
      fleet_options.poll_interval_s = parse_double(argv[0], arg, next());
    else if (arg == "--max-deals")
      fleet_options.max_deals = parse_int(argv[0], arg, next());
    else if (arg == "--resume") options.resume = true;
    else if (arg == "--dry-run") options.dry_run = true;
    else if (arg == "--keep-going") options.keep_going = true;
    else if (arg == "--report") write_html_report = true;
    else if (arg == "--trace") trace_path = next();
    else if (arg == "--jobs")
      options.scenario_jobs = parse_int(argv[0], arg, next());
    else if (arg == "--retries")
      options.attempts = 1 + parse_int(argv[0], arg, next());
    else if (arg == "--scenario-timeout")
      options.scenario_timeout_s = parse_double(argv[0], arg, next());
    else if (arg == "--quiet") quiet = true;
    else if (arg == "--list-workloads") {
      std::cout << campaign::WorkloadRegistry::instance().list_text();
      return 0;
    }
    else if (arg == "--list-platforms") {
      std::cout << campaign::platform_catalog_text();
      return 0;
    }
    else if (arg == "--version") {
      cli::print_version("hmpt_campaign");
      return 0;
    }
    else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown option: " << arg << '\n';
      usage(argv[0]);
      return 1;
    } else if (campaign_file.empty()) {
      campaign_file = arg;
    } else {
      usage(argv[0]);
      return 1;
    }
  }
  if (options.scenario_jobs < 0) {
    std::cerr << "--jobs must be >= 0\n";
    usage(argv[0]);
    return 1;
  }
  if (options.attempts < 1 || options.scenario_timeout_s < 0.0) {
    std::cerr << "--retries and --scenario-timeout must be >= 0\n";
    usage(argv[0]);
    return 1;
  }
  if (fleet_workers < 0) {
    std::cerr << "--fleet must be >= 1\n";
    usage(argv[0]);
    return 1;
  }
  if (fleet_workers > 0 &&
      (!shard.is_whole() || !assign_path.empty() || progress_manifest)) {
    std::cerr << "--fleet does its own dealing; it cannot be combined with "
                 "--shard, --assign or --progress-manifest\n";
    usage(argv[0]);
    return 1;
  }
  if (fleet_workers == 0 &&
      (!fleet_options.worker_bin.empty() ||
       !fleet_options.exec_template.empty() ||
       !fleet_options.sync_template.empty())) {
    std::cerr << "--worker-bin/--exec-template/--sync-template need --fleet\n";
    usage(argv[0]);
    return 1;
  }

  // Declaring the campaign (file parse, axis validation, expansion) is
  // usage territory: errors exit 1 with the usage text, like bad flags.
  // Only failures while actually running scenarios exit 2.
  std::vector<campaign::Scenario> scenarios;
  try {
    if (!plan_path.empty()) {
      // A plan file *is* the campaign — mixing in matrix axes would
      // change the campaign fingerprint out from under the dispatcher
      // that wrote the plan.
      if (!campaign_file.empty() || !matrix_flags.empty())
        raise("--plan replaces the campaign file and matrix flags");
      scenarios = campaign::load_scenario_plan(plan_path);
    } else {
      // The campaign file provides the base matrix; flags append to its
      // axes, so "hmpt_campaign nightly.campaign --platform knl" widens
      // the declared campaign by one platform.
      scenarios = cli::build_matrix(campaign_file, matrix_flags).expand();
    }
  } catch (const std::exception& e) {
    std::cerr << e.what() << '\n';
    usage(argv[0]);
    return 1;
  }

  // The slice this process runs: the whole campaign (the default 1/1
  // shard keeps the scenario list in matrix order, so artefacts are
  // unchanged), a deterministic fingerprint-ordered partition, or — as a
  // fleet worker — exactly the dispatcher-assigned fingerprint set.
  std::vector<campaign::Scenario> slice;
  if (!assign_path.empty()) {
    try {
      std::map<std::string, const campaign::Scenario*> by_fp;
      for (const auto& scenario : scenarios)
        by_fp.emplace(scenario.fingerprint(), &scenario);
      const auto fps = fleet::load_assignment(assign_path);
      const std::set<std::string> want(fps.begin(), fps.end());
      for (const auto& fp : want) {  // set order = fingerprint order
        const auto it = by_fp.find(fp);
        if (it == by_fp.end())
          raise("assigned fingerprint is not in the campaign: " + fp);
        slice.push_back(*it->second);
      }
    } catch (const std::exception& e) {
      std::cerr << e.what() << '\n';
      usage(argv[0]);
      return 1;
    }
  } else {
    slice = shard.is_whole() ? scenarios
                             : campaign::shard_scenarios(scenarios, shard);
  }

  std::cout << "campaign: " << scenarios.size() << " scenarios";
  if (fleet_workers > 0)
    std::cout << ", fleet of " << fleet_workers << " workers";
  else if (!shard.is_whole() || !assign_path.empty())
    std::cout << " (fingerprint "
              << campaign::campaign_fingerprint(scenarios) << "), "
              << (assign_path.empty() ? "shard " + shard.to_string()
                                      : "assigned")
              << ": " << slice.size() << " scenarios";
  std::cout << "\n" << campaign::plan_table(slice).to_text();
  if (options.dry_run) {
    std::cout << "\ndry run: nothing executed\n";
    return 0;
  }
  std::cout << "\n";

  try {
    // Arm the recorder before any scenario runs; everything between here
    // and the stop below lands in the trace. Purely observational: the
    // artefacts written further down are byte-identical either way.
    if (!trace_path.empty()) obs::TraceRecorder::instance().start();
    campaign::CampaignResult result;
    fleet::FleetStats fleet_stats;
    // --progress-manifest: the manifest is rewritten atomically after
    // every scenario instead of once at the end, so a fleet dispatcher
    // can tail it and a kill at any instant leaves a valid manifest of
    // exactly the finished scenarios.
    std::optional<campaign::ManifestProgress> progress;
    if (fleet_workers > 0) {
      // This process becomes the dispatcher: the campaign runs in worker
      // child processes and is merged in-process into a 1/1 store.
      fleet_options.workers = fleet_workers;
      fleet_options.output_dir = options.output_dir;
      fleet_options.store_format = options.store_format;
      fleet_options.worker_jobs = options.scenario_jobs;
      fleet_options.attempts = options.attempts;
      fleet_options.scenario_timeout_s = options.scenario_timeout_s;
      fleet_options.keep_going = options.keep_going;
      if (fleet_options.worker_bin.empty())
        fleet_options.worker_bin = self_exe_path();
      if (fleet_options.worker_bin.empty())
        raise("cannot resolve this binary's path; pass --worker-bin");
      result = fleet::run_fleet(
          scenarios, fleet_options, &fleet_stats,
          quiet ? fleet::FleetLog{} : fleet::FleetLog{[](const std::string& m) {
            std::cout << m << "\n";
          }});
    } else {
      const campaign::CampaignRunner runner(options);
      if (progress_manifest)
        progress.emplace(scenarios, shard, options.output_dir);
      result = runner.run(
          slice, [&](std::size_t index, const campaign::ScenarioRun& run) {
            if (progress) progress->record(run);
            if (quiet) return;
            std::cout << "[" << index + 1 << "/" << slice.size() << "] "
                      << campaign::to_string(run.status) << " "
                      << run.scenario.label();
            if (run.status == campaign::ScenarioRun::Status::Executed ||
                run.status == campaign::ScenarioRun::Status::Cached)
              std::cout << " — " << cell(run.outcome.speedup(), 2) << "x";
            if (run.status == campaign::ScenarioRun::Status::Failed)
              std::cout << " — " << run.error;
            std::cout << "\n";
          });
    }

    // Every real run leaves a manifest so its store can be validated and
    // merged (an unsharded run is the 1/1 shard of its own campaign).
    // Under --progress-manifest the incremental writer already holds the
    // union of this and any earlier generation's entries — writing
    // make_manifest's snapshot instead would drop the earlier ones.
    if (!progress)
      campaign::make_manifest(scenarios, shard, result)
          .save(options.output_dir);

    const auto paths =
        campaign::write_artifacts(result, options.output_dir);
    std::cout << "\nranked scenarios:\n"
              << campaign::ranked_table(result).to_text();
    if (fleet_workers > 0)
      std::cout << "\nfleet of " << fleet_stats.workers << ": "
                << fleet_stats.launches << " launches, " << fleet_stats.steals
                << " steals, " << fleet_stats.worker_deaths
                << " worker deaths; merged "
                << fleet_stats.merge.outcomes_merged << " outcomes ("
                << fleet_stats.merge.overlapping << " overlapping, "
                << fleet_stats.merge.failed << " failed)\n";
    else
      std::cout << "\nexecuted " << result.executed << ", cached "
                << result.cached << ", failed " << result.failed << " of "
                << result.runs.size() << " scenarios in "
                << cell(result.seconds, 2) << " s\n";
    for (const auto& path : paths) std::cout << "wrote " << path << "\n";
    std::cout << "wrote "
              << campaign::ShardManifest::path_in(options.output_dir)
              << "\n";
    std::optional<report::TraceTimeline> timeline;
    if (!trace_path.empty()) {
      obs::TraceRecorder::instance().stop_and_write(trace_path);
      std::cout << "wrote " << trace_path << "\n";
      if (write_html_report)
        timeline = report::load_trace_timeline(trace_path);
    }
    if (write_html_report)
      std::cout << "wrote "
                << report::write_report(result, options.output_dir,
                                        timeline ? &*timeline : nullptr)
                << "\n";
    std::cout << "outcome store: " << options.output_dir
              << (options.store_format == campaign::StoreFormat::Packed
                      ? "/outcomes.log"
                      : "/outcomes/")
              << "\n";
    return result.ok() ? 0 : 2;
  } catch (const std::exception& e) {
    std::cerr << (fleet_workers > 0 ? "fleet" : "campaign")
              << " failed: " << e.what() << '\n';
    return 2;
  }
}
