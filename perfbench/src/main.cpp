// perfbench — end-to-end and per-layer benchmark of the campaign,
// outcome-store and daemon paths.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--work-dir DIR] [--trace-out FILE]
//
// --trace-out (the Chrome trace) is required with --trace 1.
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
// metrics (see bench.h). The last stdout line is one JSON object:
//   {"correct":...,"attempted":...,"failed":...,"metrics":{name:{value,unit}},
//    "controls":{...}}
// where "controls" is the load model and noise controls the run applied.
// Exit status: 0 when every correctness check passed, 1 when one failed,
// 2 on bad usage.
#include <malloc.h>
#include <sched.h>

#include <cerrno>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "bench.h"
#include "common/json.h"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR] [--trace-out FILE]\n";
  std::exit(2);
}

/// Pin the process, and so every thread it starts, to one CPU: the last
/// one it may use. The load is a closed loop, so at most one thread is
/// busy at a time; on one CPU, wakeups and migrations cost the same in
/// every run. Returns the number of CPUs the process may use afterwards.
int pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0)
    return CPU_COUNT(&allowed);
  int last = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
    if (CPU_ISSET(cpu, &allowed)) last = cpu;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(last, &one);
  if (::sched_setaffinity(0, sizeof(one), &one) != 0)
    return CPU_COUNT(&allowed);
  return 1;
}

double parse_number(const std::string& flag, const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE || value < 0)
    usage(flag + ": not a number >= 0: '" + text + "'");
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  std::string workload;
  bool traced = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = static_cast<std::uint64_t>(parse_number(flag, value));
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = parse_number(flag, value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      traced = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--trace-out") {
      options.trace_path = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (workload.empty() || !have_seed)
    usage("--workload and --seed are required");
  if (traced && options.trace_path.empty())
    usage("--trace 1 needs --trace-out");

  // Noise controls, before any thread starts: one CPU (above), and one
  // malloc arena, so peak RSS does not depend on which thread first
  // touched memory.
  const int cpus = pin_to_one_cpu();
  const int arenas = ::mallopt(M_ARENA_MAX, 1) == 1 ? 1 : 0;

  perfbench::RunReport report;
  hmpt::Json controls;
  try {
    options.workload = &perfbench::workload_def(workload);
    controls = perfbench::controls_json(*options.workload, cpus, arenas);
    std::filesystem::remove_all(options.work_dir);
    std::filesystem::create_directories(options.work_dir);
    report = perfbench::run_untraced(options);
    if (traced) {
      // The phase timings first, then the layer-by-layer run on a clean
      // scratch directory.
      std::filesystem::remove_all(options.work_dir);
      std::filesystem::create_directories(options.work_dir);
      report.absorb(perfbench::run_traced(options));
    }
  } catch (const std::exception& e) {
    report.check(false, std::string("run aborted: ") + e.what());
  }
  std::error_code ec;
  std::filesystem::remove_all(options.work_dir, ec);

  for (const auto& error : report.errors())
    std::cout << "CHECK FAILED: " << error << "\n";
  const double error_rate =
      report.attempted() == 0
          ? 1.0
          : static_cast<double>(report.failed()) /
                static_cast<double>(report.attempted());
  std::cout << "workload " << workload << ", seed " << options.seed
            << (traced ? ", traced" : "") << ": " << report.attempted()
            << " operations and checks, " << report.failed()
            << " failed (error_rate " << error_rate << ")\n";

  // An end-to-end metric must never read 0, so the error rate is gated
  // as its complement.
  if (!traced) report.metric("success_ratio", 1.0 - error_rate, "ratio");

  hmpt::JsonObject metrics;
  for (const auto& m : traced ? report.layer_metrics() : report.metrics()) {
    std::cout << "  " << m.name << " = " << m.value << " " << m.unit << "\n";
    hmpt::JsonObject entry;
    entry["value"] = hmpt::Json(m.value);
    entry["unit"] = hmpt::Json(m.unit);
    metrics[m.name] = hmpt::Json(std::move(entry));
  }
  hmpt::JsonObject doc;
  doc["correct"] = hmpt::Json(report.correct());
  doc["attempted"] = hmpt::Json(std::max<std::uint64_t>(report.attempted(), 1));
  doc["failed"] = hmpt::Json(report.failed());
  doc["metrics"] = hmpt::Json(std::move(metrics));
  doc["controls"] = std::move(controls);  // run.py checks and strips it
  std::cout << hmpt::Json(std::move(doc)).dump(-1) << std::endl;
  return report.correct() ? 0 : 1;
}
