// hmpt_submit — the hmptd client: submit scenarios, stream completions,
// collect batch-identical artefacts.
//
// Speaks the NDJSON protocol (docs/SERVICE.md) to a running hmptd over
// its Unix-domain socket or loopback TCP port. Scenarios come from a
// campaign file and/or the same matrix flags hmpt_campaign takes; the
// client expands the matrix locally (so it knows every fingerprint and
// the matrix order) and submits each scenario individually, backing off
// on `busy` admission rejections by waiting for one of its own
// outstanding jobs.
//
//   hmpt_submit (--socket PATH | --port N) [--host ADDR]
//               [<campaign-file>] [--workload NAME[:k=v,...]]...
//               [--platform NAME]... [--strategy NAME]... [--tiers K]...
//               [--budget-gb N]... [--tier-budget-gb T:N]... [--reps N]
//               [--top-k N] [--priority N] [--deadline S] [--attempts N]
//               [--watch] [--wait] [--out DIR]
//               [--status | --stats | --ping | --drain | --shutdown]
//               [--quiet]
//
// --watch subscribes (on a second connection, before submitting, so no
// completion can slip past) and prints each terminal event as it lands.
// --wait blocks until every submitted scenario is terminal and writes
// runs.csv / summary.json / status.json under --out; because the daemon
// executes the same code path and persists through the same store as
// hmpt_campaign, the deterministic artefacts are byte-identical to a
// batch run of the same campaign. --status/--stats/--ping query the
// daemon; --drain/--shutdown are sent after any submission completes.
//
// Exit codes: 0 success, 1 bad usage, 2 failure (unreachable daemon,
// failed scenario, error response).
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "campaign/aggregate.h"
#include "campaign/scenario.h"
#include "cli_parse.h"
#include "common/error.h"
#include "common/retry.h"
#include "common/table.h"
#include "core/outcome_io.h"
#include "service/protocol.h"
#include "service/socket.h"
#include "version.h"

namespace {

using namespace hmpt;

void usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0
      << " (--socket PATH | --port N) [<campaign-file>] [options]\n"
      << "  --socket PATH / --port N / --host ADDR\n"
      << "                             how to reach hmptd\n"
      << "  --workload NAME[:k=v,...]  add a workload (repeatable)\n"
      << "  --platform NAME            add a platform (repeatable; default\n"
      << "                             xeon-max)\n"
      << "  --strategy NAME            add a strategy (repeatable; default\n"
      << "                             exhaustive)\n"
      << "  --tiers K / --budget-gb N / --tier-budget-gb T:N\n"
      << "                             matrix axes (repeatable)\n"
      << "  --reps N / --top-k N       measurement knobs\n"
      << "  --priority N               dispatch priority (higher first)\n"
      << "  --deadline S               per-job total wall-clock budget in\n"
      << "                             seconds (daemon default otherwise)\n"
      << "  --attempts N               per-job attempt budget (>= 1;\n"
      << "                             daemon default otherwise)\n"
      << "  --watch                    stream completion events\n"
      << "  --wait                     block for every result and write\n"
      << "                             campaign artefacts under --out\n"
      << "  --out DIR                  artefact directory for --wait\n"
      << "                             (default submit-out)\n"
      << "  --status / --stats / --ping\n"
      << "                             query the daemon and print the reply\n"
      << "  --drain                    ask the daemon to finish all work\n"
      << "  --shutdown                 drain, then stop the daemon\n"
      << "  --quiet                    suppress per-scenario progress\n"
      << "  --version                  print the tool version and exit\n";
}

/// One NDJSON connection: serialised request/response (this connection
/// never watches, so every line read is the response to the last send).
class Client {
 public:
  explicit Client(const service::Endpoint& endpoint)
      : socket_(service::connect_to(endpoint)), reader_(socket_.fd()) {}

  service::ServerMessage call(const service::Request& request) {
    HMPT_REQUIRE(socket_.send_all(request.to_line()),
                 "daemon connection lost");
    return read_message();
  }

  service::ServerMessage read_message() {
    std::string line;
    const auto status = reader_.next(line);
    HMPT_REQUIRE(status == service::LineReader::Status::Line,
                 "daemon closed the connection");
    return service::parse_server_message(line);
  }

  bool send_line(const std::string& line) {
    return socket_.send_all(line);
  }

 private:
  service::Socket socket_;
  service::LineReader reader_;
};

}  // namespace

int main(int argc, char** argv) {
  service::Endpoint endpoint;
  bool port_set = false;
  std::string campaign_file;
  cli::MatrixFlags matrix_flags;  // applied after the campaign file
  int priority = 0;
  double deadline_s = -1.0;
  int attempts = 0;
  bool watch = false;
  bool wait = false;
  bool do_status = false, do_stats = false, do_ping = false;
  bool do_drain = false, do_shutdown = false;
  bool quiet = false;
  std::string out_dir = "submit-out";

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
    const auto parse_dbl = [&](const char* text) {
      return cli::parse_double(arg, text, [&] { usage(argv[0]); });
    };
    if (arg == "--socket") endpoint.unix_path = next();
    else if (arg == "--port") {
      endpoint.port = parse(next());
      port_set = true;
    }
    else if (arg == "--host") endpoint.host = next();
    else if (const auto directive = cli::matrix_directive(arg);
             !directive.empty())
      matrix_flags.emplace_back(directive, next());
    else if (arg == "--priority") priority = parse(next());
    else if (arg == "--deadline") deadline_s = parse_dbl(next());
    else if (arg == "--attempts") attempts = parse(next());
    else if (arg == "--watch") watch = true;
    else if (arg == "--wait") wait = true;
    else if (arg == "--out") out_dir = next();
    else if (arg == "--status") do_status = true;
    else if (arg == "--stats") do_stats = true;
    else if (arg == "--ping") do_ping = true;
    else if (arg == "--drain") do_drain = true;
    else if (arg == "--shutdown") do_shutdown = true;
    else if (arg == "--quiet") quiet = true;
    else if (arg == "--version") {
      cli::print_version("hmpt_submit");
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
  if (endpoint.is_unix() == port_set) {
    std::cerr << (port_set ? "--socket and --port are mutually exclusive\n"
                           : "one of --socket or --port is required\n");
    usage(argv[0]);
    return 1;
  }
  if ((deadline_s != -1.0 && deadline_s <= 0.0) ||
      (attempts != 0 && attempts < 1)) {
    std::cerr << "--deadline must be > 0 and --attempts >= 1\n";
    usage(argv[0]);
    return 1;
  }

  // Expand the matrix locally, exactly as hmpt_campaign does: the client
  // then knows every fingerprint and the matrix order, which is what
  // makes --wait's artefacts byte-identical to the batch run's. No
  // workloads is no submission (a pure query/lifecycle call).
  std::vector<campaign::Scenario> scenarios;
  try {
    const auto matrix = cli::build_matrix(campaign_file, matrix_flags);
    if (!matrix.workloads.empty()) scenarios = matrix.expand();
  } catch (const std::exception& e) {
    std::cerr << e.what() << '\n';
    usage(argv[0]);
    return 1;
  }
  if (scenarios.empty() && !do_status && !do_stats && !do_ping &&
      !do_drain && !do_shutdown && !watch) {
    std::cerr << "nothing to do: no scenarios and no query/lifecycle op\n";
    usage(argv[0]);
    return 1;
  }

  try {
    Client client(endpoint);

    // Subscribe before submitting (dedicated connection) so no
    // completion event can race past the subscription.
    std::optional<Client> watcher;
    if (watch) {
      watcher.emplace(endpoint);
      service::Request subscribe;
      subscribe.op = service::Op::Watch;
      const auto ack = watcher->call(subscribe);
      HMPT_REQUIRE(ack.ok, "watch rejected: " + ack.error);
    }

    // Busy backoff when there is nothing of our own to absorb: capped
    // exponential with deterministic jitter (common/retry) — the same
    // schedule on every run, never a fixed-interval hammer.
    RetryPolicy busy_backoff;
    busy_backoff.max_attempts = 8;
    busy_backoff.initial_backoff_s = 0.05;
    busy_backoff.max_backoff_s = 2.0;

    std::vector<std::string> fingerprints;
    std::size_t waited = 0;  // busy-backoff: next own job to wait on
    for (const auto& scenario : scenarios) {
      fingerprints.push_back(scenario.fingerprint());
      int busy_attempts = 0;
      for (;;) {
        service::Request request;
        request.op = service::Op::Submit;
        request.scenario = scenario;
        request.priority = priority;
        request.deadline_s = deadline_s;
        request.attempts = attempts;
        const auto reply = client.call(request);
        if (reply.ok) {
          if (!quiet) {
            const auto& jobs = reply.body.at("jobs").as_array();
            std::cout << "submitted " << scenario.label() << " ["
                      << fingerprints.back() << "] "
                      << jobs.at(0).string_or("state", "?") << "\n";
          }
          break;
        }
        if (reply.error.rfind("busy", 0) == 0) {
          if (waited < fingerprints.size() - 1) {
            // Admission-limited: absorb one of our own outstanding jobs,
            // then resubmit (fingerprints make resubmission idempotent).
            service::Request absorb;
            absorb.op = service::Op::Result;
            absorb.fingerprint = fingerprints[waited++];
            absorb.wait = true;
            client.call(absorb);
            continue;
          }
          if (++busy_attempts < busy_backoff.max_attempts) {
            // Other clients hold the daemon's budget: back off and
            // resubmit. The jitter stream is the fingerprint, so
            // concurrent submitters spread out instead of re-colliding.
            std::this_thread::sleep_for(std::chrono::duration<double>(
                busy_backoff.backoff_s(busy_attempts,
                                       stream_of(fingerprints.back()))));
            continue;
          }
        }
        raise("submit rejected: " + reply.error +
              (busy_attempts > 0
                   ? " (gave up after " + std::to_string(busy_attempts) +
                         " backoff retries)"
                   : ""));
      }
    }

    // Stream events until every submitted scenario is terminal.
    if (watch && !fingerprints.empty()) {
      std::size_t remaining = 0;
      std::vector<std::string> pending = fingerprints;
      std::sort(pending.begin(), pending.end());
      pending.erase(std::unique(pending.begin(), pending.end()),
                    pending.end());
      remaining = pending.size();
      while (remaining > 0) {
        service::ServerMessage event;
        try {
          event = watcher->read_message();
        } catch (const std::exception& e) {
          // The daemon died (or dropped us) mid-stream: fail with the
          // outstanding count instead of waiting forever on a dead pipe.
          raise(std::string(e.what()) + " while watching (" +
                std::to_string(remaining) +
                " completion(s) outstanding); if hmptd ran with --journal,"
                " restart it and the jobs resume");
        }
        if (!event.is_event || event.event != "job") continue;
        const auto fp = event.body.string_or("fingerprint", "");
        const auto hit =
            std::lower_bound(pending.begin(), pending.end(), fp);
        if (hit == pending.end() || *hit != fp) continue;
        pending.erase(hit);
        --remaining;
        std::cout << "event " << event.body.string_or("state", "?") << " "
                  << event.body.string_or("label", "") << " [" << fp
                  << "]";
        if (const auto* speedup =
                event.body.as_object().find("speedup"))
          std::cout << " — " << cell(speedup->as_number(), 2) << "x";
        if (const auto* error = event.body.as_object().find("error"))
          std::cout << " — " << error->as_string();
        std::cout << "\n";
      }
    }

    int exit_code = 0;
    if (wait && !scenarios.empty()) {
      // Collect every result in matrix order and rebuild the campaign
      // artefacts; runs.csv and summary.json come out byte-identical to
      // `hmpt_campaign` on the same campaign because the daemon executed
      // and stored through the same code paths.
      campaign::CampaignResult result;
      for (std::size_t i = 0; i < scenarios.size(); ++i) {
        campaign::ScenarioRun run;
        run.scenario = scenarios[i];
        run.fingerprint = fingerprints[i];
        service::Request request;
        request.op = service::Op::Result;
        request.fingerprint = fingerprints[i];
        request.wait = true;
        service::ServerMessage reply;
        try {
          reply = client.call(request);
        } catch (const std::exception& e) {
          // A dead daemon mid---wait is a hard, explained failure — not
          // an eternal block and not a bare broken-pipe message.
          raise(std::string(e.what()) + " while waiting for result " +
                fingerprints[i] + " (" +
                std::to_string(scenarios.size() - i) + " of " +
                std::to_string(scenarios.size()) +
                " results outstanding); if hmptd ran with --journal,"
                " restart it and rerun this command to resume");
        }
        if (reply.ok) {
          const auto state = reply.body.string_or("state", "done");
          run.status = state == "cached"
                           ? campaign::ScenarioRun::Status::Cached
                           : campaign::ScenarioRun::Status::Executed;
          run.outcome = tuner::outcome_from_json(reply.body.at("outcome"),
                                                 tuner::Rows::Skip);
          (run.status == campaign::ScenarioRun::Status::Cached
               ? result.cached
               : result.executed)++;
        } else {
          run.status = campaign::ScenarioRun::Status::Failed;
          run.error = reply.error;
          ++result.failed;
        }
        if (!quiet) {
          std::cout << "[" << i + 1 << "/" << scenarios.size() << "] "
                    << campaign::to_string(run.status) << " "
                    << run.scenario.label();
          if (run.status != campaign::ScenarioRun::Status::Failed)
            std::cout << " — " << cell(run.outcome.speedup(), 2) << "x";
          else
            std::cout << " — " << run.error;
          std::cout << "\n";
        }
        result.runs.push_back(std::move(run));
      }
      const auto paths = campaign::write_artifacts(result, out_dir);
      std::cout << "\nexecuted " << result.executed << ", cached "
                << result.cached << ", failed " << result.failed << " of "
                << result.runs.size() << " scenarios\n";
      for (const auto& path : paths) std::cout << "wrote " << path << "\n";
      if (!result.ok()) exit_code = 2;
    }

    const auto query = [&](service::Op op) {
      service::Request request;
      request.op = op;
      const auto reply = client.call(request);
      HMPT_REQUIRE(reply.ok, std::string(service::to_string(op)) +
                                 " failed: " + reply.error);
      std::cout << reply.body.dump(2) << "\n";
    };
    if (do_ping) query(service::Op::Ping);
    if (do_status) query(service::Op::Status);
    if (do_stats) query(service::Op::Stats);
    if (do_drain) {
      service::Request request;
      request.op = service::Op::Drain;
      const auto reply = client.call(request);
      HMPT_REQUIRE(reply.ok, "drain failed: " + reply.error);
      if (!quiet) std::cout << "drained\n";
    }
    if (do_shutdown) {
      service::Request request;
      request.op = service::Op::Shutdown;
      const auto reply = client.call(request);
      HMPT_REQUIRE(reply.ok, "shutdown failed: " + reply.error);
      if (!quiet) std::cout << "daemon shutting down\n";
    }
    return exit_code;
  } catch (const std::exception& e) {
    std::cerr << "hmpt_submit: " << e.what() << '\n';
    return 2;
  }
}
