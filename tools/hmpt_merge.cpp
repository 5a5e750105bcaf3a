// hmpt_merge — merge sharded campaign outcome stores into one campaign.
//
// The inverse of `hmpt_campaign --shard i/N`: takes the N shard store
// directories, validates their shard.manifest.json files against one
// another (same campaign fingerprint, shard count and scenario order;
// indices exactly 1..N; disjoint slices covering the campaign), unions
// the content-addressed outcome records into the output store — failing
// loudly when two stores hold different outcomes for the same
// fingerprint — and writes runs.csv / summary.json byte-for-byte
// identical to what an unsharded run of the same campaign writes:
//
//   hmpt_merge --out DIR SHARD_DIR [SHARD_DIR...]
//              [--store-format dir|packed] [--report [--trace FILE]]
//              [--quiet]
//
// Each shard store may be dir- or packed-format (auto-detected per
// directory, mixes welcome); --store-format picks the output layout
// independently, so a merge doubles as a lossless format conversion.
// The output gets a 1/1 shard.manifest.json, like every store
// hmpt_campaign writes, so any campaign store — unsharded, fleet-merged
// or merged here — merges again: "merge one store into a fresh
// directory" regenerates its runs.csv, summary.json and, with --report,
// its exact report/index.html, failures included.
//
// Exit codes: 0 success (even when shards recorded failed scenarios —
// they are faithfully reproduced in the merged summary), 1 bad usage,
// 2 merge failure (missing/mismatched manifests, incomplete coverage,
// conflicting outcomes).
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "campaign/aggregate.h"
#include "campaign/merge.h"
#include "report/report.h"
#include "version.h"

namespace {

void usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " --out DIR SHARD_DIR [SHARD_DIR...]\n"
      << "  --out DIR                  merged outcome store + artefacts\n"
      << "                             (required)\n"
      << "  --store-format dir|packed  merged store layout (default dir);\n"
      << "                             shards of either format merge into\n"
      << "                             either, losslessly\n"
      << "  --report                   also write report/index.html\n"
      << "  --trace FILE               with --report: a Chrome trace file\n"
      << "                             from `hmpt_campaign --trace`; adds\n"
      << "                             a per-job timeline section\n"
      << "  --quiet                    only print errors and the artefact\n"
      << "                             paths\n"
      << "\n"
      << "Each SHARD_DIR is the --out directory of one `hmpt_campaign\n"
      << "--shard i/N` run (it must contain shard.manifest.json). All N\n"
      << "shards of the campaign are required; the merged runs.csv and\n"
      << "summary.json are byte-identical to an unsharded run's. One\n"
      << "unsharded (or merged) store regenerates its artefacts.\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hmpt;

  std::string output_dir;
  std::string trace_path;
  std::vector<std::string> shard_dirs;
  campaign::StoreFormat output_format = campaign::StoreFormat::Dir;
  bool quiet = false;
  bool write_html_report = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out") {
      if (i + 1 >= argc) {
        usage(argv[0]);
        return 1;
      }
      output_dir = argv[++i];
    } else if (arg == "--store-format") {
      if (i + 1 >= argc) {
        usage(argv[0]);
        return 1;
      }
      try {
        output_format = campaign::store_format_from(argv[++i]);
      } catch (const std::exception& e) {
        std::cerr << e.what() << '\n';
        usage(argv[0]);
        return 1;
      }
    } else if (arg == "--trace") {
      if (i + 1 >= argc) {
        usage(argv[0]);
        return 1;
      }
      trace_path = argv[++i];
    } else if (arg == "--report") {
      write_html_report = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--version") {
      hmpt::cli::print_version("hmpt_merge");
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown option: " << arg << '\n';
      usage(argv[0]);
      return 1;
    } else {
      shard_dirs.push_back(arg);
    }
  }
  if (output_dir.empty() || shard_dirs.empty()) {
    usage(argv[0]);
    return 1;
  }
  if (!trace_path.empty() && !write_html_report) {
    std::cerr << "--trace only applies with --report\n";
    usage(argv[0]);
    return 1;
  }

  try {
    campaign::MergeStats stats;
    const auto result = campaign::merge_shards(shard_dirs, output_dir,
                                               &stats, output_format);
    const auto paths = campaign::write_artifacts(result, output_dir);
    campaign::make_manifest(stats.campaign, result).save(output_dir);

    if (!quiet) {
      std::cout << "campaign " << stats.campaign << ": merged "
                << stats.shards << " shard" << (stats.shards == 1 ? "" : "s")
                << ", " << stats.scenarios << " scenarios ("
                << stats.outcomes_merged << " outcome files copied, "
                << stats.failed << " recorded failures)\n";
      std::cout << "\nranked scenarios:\n"
                << campaign::ranked_table(result).to_text() << "\n";
    }
    for (const auto& path : paths) std::cout << "wrote " << path << "\n";
    std::cout << "wrote " << campaign::ShardManifest::path_in(output_dir)
              << "\n";
    if (write_html_report) {
      std::optional<report::TraceTimeline> timeline;
      if (!trace_path.empty())
        timeline = report::load_trace_timeline(trace_path);
      std::cout << "wrote "
                << report::write_report(result, output_dir,
                                        timeline ? &*timeline : nullptr)
                << "\n";
    }
    std::cout << "merged outcome store: " << output_dir
              << (output_format == campaign::StoreFormat::Packed
                      ? "/outcomes.log"
                      : "/outcomes/")
              << "\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "merge failed: " << e.what() << '\n';
    return 2;
  }
}
