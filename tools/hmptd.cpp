// hmptd — the tuning-as-a-service daemon.
//
// Serves the NDJSON protocol (docs/SERVICE.md) over a Unix-domain socket
// (--socket PATH, the default transport) or loopback TCP (--port N; port
// 0 lets the kernel pick and prints the choice), executing submitted
// scenarios on a bounded worker pool and persisting every outcome in the
// same content-addressed store hmpt_campaign writes — a scenario tuned
// through the daemon is byte-identical on disk to the batch run, and a
// resubmit is answered from the store without re-execution.
//
//   hmptd (--socket PATH | --port N) [--host ADDR] [--workers N]
//         [--store DIR] [--max-in-flight N] [--max-queue N]
//         [--latency-classes N] [--retries N]
//         [--job-timeout S] [--journal PATH] [--fault-spec SPEC]
//         [--trace FILE] [--metrics-file FILE] [--metrics-interval S]
//         [--quiet]
//
// Fault tolerance: --retries/--job-timeout set the default failure model
// (per-job submit fields override), --journal makes acked submits
// crash-safe (replayed on restart; see docs/SERVICE.md "Failure model"),
// and --fault-spec wraps the provider in deterministic fault injection
// for chaos testing (see service/fault.h for the grammar).
//
// Runs in the foreground until a `shutdown` request or SIGINT/SIGTERM;
// both paths drain in-flight work before exiting. Exit codes: 0 clean
// shutdown, 1 bad usage, 2 runtime failure (e.g. the bind failed).
#include <csignal>
#include <iostream>
#include <memory>
#include <string>

#include "cli_parse.h"
#include "obs/trace.h"
#include "service/daemon.h"
#include "service/fault.h"
#include "version.h"

namespace {

using namespace hmpt;

void usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " (--socket PATH | --port N) [options]\n"
      << "  --socket PATH       listen on a Unix-domain socket\n"
      << "  --port N            listen on loopback TCP (0 = kernel-picked)\n"
      << "  --host ADDR         TCP bind address (default 127.0.0.1)\n"
      << "  --workers N         scheduler worker pool size (default 1)\n"
      << "  --store DIR         outcome store + artefact directory\n"
      << "                      (default hmptd-out)\n"
      << "  --max-in-flight N   per-client incomplete-job cap (default 256)\n"
      << "  --max-queue N       global queued-job capacity (default 4096)\n"
      << "  --latency-classes N latency-store class-map bound (default 256;\n"
      << "                      least-recently-recorded class evicted past\n"
      << "                      it, falling back to the overall tracker)\n"
      << "  --retries N         retries per job after the first attempt\n"
      << "                      (default 0 = fail fast)\n"
      << "  --job-timeout S     per-attempt deadline in seconds\n"
      << "                      (default 0 = none)\n"
      << "  --journal PATH      crash-safe job journal: fsync every submit\n"
      << "                      before its ack, replay unfinished jobs on\n"
      << "                      startup\n"
      << "  --fault-spec SPEC   deterministic fault injection, e.g.\n"
      << "                      seed=7,fail=0.3:2,timeout=0.2:1 (testing)\n"
      << "  --trace FILE        record a Chrome trace-event file of the\n"
      << "                      daemon's spans (written at shutdown; load\n"
      << "                      in Perfetto or chrome://tracing)\n"
      << "  --metrics-file FILE write the stats snapshot as one JSON line\n"
      << "                      periodically and at shutdown (atomic\n"
      << "                      rename; same fields as the stats verb)\n"
      << "  --metrics-interval S  snapshot period in seconds (default 5)\n"
      << "  --quiet             suppress startup/shutdown messages\n"
      << "  --version           print the tool version and exit\n";
}

// Signal handlers may only touch lock-free state; the main loop polls
// this flag and routes it into Daemon::request_shutdown.
volatile std::sig_atomic_t g_signal = 0;
void on_signal(int) { g_signal = 1; }

}  // namespace

int main(int argc, char** argv) {
  service::DaemonOptions options;
  bool port_set = false;
  bool quiet = false;
  int retries = 0;
  double job_timeout_s = 0.0;
  std::string fault_spec_text;
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
    const auto parse = [&](const char* text) {
      return cli::parse_int(arg, text, [&] { usage(argv[0]); });
    };
    if (arg == "--socket") options.endpoint.unix_path = next();
    else if (arg == "--port") {
      options.endpoint.port = parse(next());
      port_set = true;
    }
    else if (arg == "--host") options.endpoint.host = next();
    else if (arg == "--workers") options.workers = parse(next());
    else if (arg == "--store") options.store_dir = next();
    else if (arg == "--max-in-flight")
      options.max_in_flight = parse(next());
    else if (arg == "--max-queue") {
      const int queue = parse(next());
      if (queue < 1) {
        std::cerr << "--max-queue must be >= 1\n";
        usage(argv[0]);
        return 1;
      }
      options.max_queue = static_cast<std::size_t>(queue);
    }
    else if (arg == "--latency-classes") {
      const int classes = parse(next());
      if (classes < 1) {
        std::cerr << "--latency-classes must be >= 1\n";
        usage(argv[0]);
        return 1;
      }
      options.latency_classes = static_cast<std::size_t>(classes);
    }
    else if (arg == "--retries") retries = parse(next());
    else if (arg == "--job-timeout")
      job_timeout_s =
          cli::parse_double(arg, next(), [&] { usage(argv[0]); });
    else if (arg == "--journal") options.journal_path = next();
    else if (arg == "--fault-spec") fault_spec_text = next();
    else if (arg == "--trace") trace_path = next();
    else if (arg == "--metrics-file") options.metrics_path = next();
    else if (arg == "--metrics-interval")
      options.metrics_interval_s =
          cli::parse_double(arg, next(), [&] { usage(argv[0]); });
    else if (arg == "--quiet") quiet = true;
    else if (arg == "--version") {
      cli::print_version("hmptd");
      return 0;
    }
    else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::cerr << "unknown option: " << arg << '\n';
      usage(argv[0]);
      return 1;
    }
  }
  if (options.endpoint.is_unix() == port_set) {
    std::cerr << (port_set ? "--socket and --port are mutually exclusive\n"
                           : "one of --socket or --port is required\n");
    usage(argv[0]);
    return 1;
  }
  if (options.workers < 1 || options.max_in_flight < 1 ||
      (port_set && (options.endpoint.port < 0 ||
                    options.endpoint.port > 65535))) {
    std::cerr << "--workers/--max-in-flight must be >= 1"
                 " and --port in [0, 65535]\n";
    usage(argv[0]);
    return 1;
  }
  if (retries < 0 || job_timeout_s < 0.0) {
    std::cerr << "--retries and --job-timeout must be >= 0\n";
    usage(argv[0]);
    return 1;
  }
  if (options.metrics_interval_s <= 0.0) {
    std::cerr << "--metrics-interval must be > 0\n";
    usage(argv[0]);
    return 1;
  }
  options.retry.max_attempts = 1 + retries;
  options.retry.attempt_deadline_s = job_timeout_s;

  try {
    // Arm before the daemon spins up so startup (journal replay, worker
    // launch) is captured too. Tracing never alters protocol responses
    // or store bytes — it only records timestamps on the side.
    if (!trace_path.empty()) obs::TraceRecorder::instance().start();

    // The fault injector wraps the same simulator provider the daemon
    // would own; everything downstream (scheduler, store, protocol) is
    // oblivious to it.
    std::unique_ptr<service::SimulatorProvider> simulator;
    std::unique_ptr<service::FaultInjectingProvider> faulty;
    if (!fault_spec_text.empty()) {
      const auto spec = service::FaultSpec::parse(fault_spec_text);
      simulator = std::make_unique<service::SimulatorProvider>();
      faulty = std::make_unique<service::FaultInjectingProvider>(*simulator,
                                                                 spec);
    }
    service::Daemon daemon(options, faulty.get());
    daemon.start();
    if (!quiet) {
      std::cout << "hmptd " << cli::kVersion << " listening on "
                << daemon.endpoint().to_string() << " ("
                << options.workers << " worker"
                << (options.workers == 1 ? "" : "s") << ", store "
                << options.store_dir << ")" << std::endl;
      if (!options.journal_path.empty())
        std::cout << "hmptd: journal " << options.journal_path << " ("
                  << daemon.replayed_jobs() << " job"
                  << (daemon.replayed_jobs() == 1 ? "" : "s")
                  << " replayed)" << std::endl;
      if (faulty != nullptr)
        std::cout << "hmptd: fault injection armed ("
                  << service::FaultSpec::parse(fault_spec_text).canonical()
                  << ")" << std::endl;
    }

    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
    // Serve until a shutdown request (wait_for returns true) or a
    // signal; either way the daemon drains before the process exits.
    while (!daemon.wait_for(200)) {
      if (g_signal != 0) daemon.request_shutdown();
    }
    if (!trace_path.empty()) {
      obs::TraceRecorder::instance().stop_and_write(trace_path);
      if (!quiet) std::cout << "hmptd: wrote " << trace_path << "\n";
    }
    if (!quiet) std::cout << "hmptd: drained, shut down\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "hmptd: " << e.what() << '\n';
    return 2;
  }
}
