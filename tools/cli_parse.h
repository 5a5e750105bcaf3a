// cli_parse.h — strict numeric flag parsing shared by the hmpt CLIs.
//
// All tools reject garbage ("--reps abc"), partial values ("--reps 3x"),
// and out-of-range or non-finite values ("--budget-gb inf") with exit 1
// after printing their usage text, instead of silently misconfiguring the
// run via atoi()-style truncation. The validation itself is
// common/parse.h — the same checked full-consumption parsing the campaign
// file and workload-parameter paths use — so the CLI and the library
// cannot drift apart on what counts as a number. `usage` is the tool's
// usage printer, invoked before exiting.
//
// The campaign tools' matrix flags are the campaign-file directives with
// "--" in front (campaign/scenario.h owns the grammar): each
// `--<directive> <value>` is recorded in command-line order and applied
// after the campaign file, so file axes come first and flag reps/top-k
// override the file's.
#pragma once

#include <functional>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "campaign/scenario.h"
#include "common/error.h"
#include "common/parse.h"

namespace hmpt::cli {

inline int parse_int(const std::string& flag, const char* text,
                     const std::function<void()>& usage) {
  if (const auto value = hmpt::parse_int_strict(text)) return *value;
  std::cerr << flag << ": not an integer: '" << text << "'\n";
  usage();
  std::exit(1);
}

inline double parse_double(const std::string& flag, const char* text,
                           const std::function<void()>& usage) {
  if (const auto value = hmpt::parse_double_strict(text)) return *value;
  std::cerr << flag << ": not a finite number: '" << text << "'\n";
  usage();
  std::exit(1);
}

/// Recorded matrix flags: (directive, value) in command-line order.
using MatrixFlags = std::vector<std::pair<std::string, std::string>>;

/// The directive a matrix flag names ("--reps" -> "reps"); empty when
/// `arg` is not a matrix flag.
inline std::string matrix_directive(const std::string& arg) {
  if (arg.rfind("--", 0) != 0) return "";
  const std::string directive = arg.substr(2);
  return campaign::ScenarioMatrix::is_directive(directive) ? directive : "";
}

/// The campaign file (if any) with the matrix flags applied on top.
/// Throws hmpt::Error naming the file or the flag on bad input.
inline campaign::ScenarioMatrix build_matrix(const std::string& campaign_file,
                                             const MatrixFlags& flags) {
  campaign::ScenarioMatrix matrix;
  if (!campaign_file.empty())
    matrix = campaign::ScenarioMatrix::load(campaign_file);
  for (const auto& [directive, value] : flags) {
    try {
      matrix.apply(directive, value);
    } catch (const std::exception& e) {
      raise("--" + std::string(e.what()));
    }
  }
  return matrix;
}

}  // namespace hmpt::cli
