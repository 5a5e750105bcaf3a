// daemon_client.h — an in-process hmptd reached over its Unix socket.
//
// The daemon runs with one worker. One client drives it closed loop on
// two connections: `submit` carries requests and their responses, and
// `watch` is subscribed to completion events. So at most two connections
// and four busy threads exist: accept, two connection handlers, the
// worker (the benchmark thread waits while they run).
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "campaign/scenario.h"
#include "common/json.h"
#include "service/daemon.h"
#include "service/socket.h"

namespace perfbench {

class DaemonClient {
 public:
  static constexpr int kWorkers = 1;
  static constexpr int kConnections = 2;  ///< submit + watch

  /// Start a daemon on `socket_path` backed by a dir store at
  /// `store_dir`, connect both client connections and subscribe `watch`.
  DaemonClient(const std::string& socket_path, const std::string& store_dir);
  /// Shut the daemon down and join its threads.
  ~DaemonClient();
  DaemonClient(const DaemonClient&) = delete;
  DaemonClient& operator=(const DaemonClient&) = delete;

  /// Submit one scenario and wait for its terminal watch event. Returns
  /// the submit-to-event time in ms, or nullopt when the job was not
  /// freshly queued or did not finish "done".
  std::optional<double> run_job(const hmpt::campaign::Scenario& scenario);

  /// Submit a scenario the store already holds; true when the daemon
  /// answered it "cached" without queueing.
  bool resubmit_cached(const hmpt::campaign::Scenario& scenario);

  /// One `result` round trip: send the request, read the whole response
  /// line. `ms` receives the round-trip time.
  std::string result_line(const std::string& fingerprint, double* ms);

  /// The `stats` response body.
  hmpt::Json stats();

 private:
  std::string request(const std::string& line);
  std::string read_line(hmpt::service::LineReader& reader);

  std::unique_ptr<hmpt::service::Daemon> daemon_;
  hmpt::service::Socket submit_;
  hmpt::service::Socket watch_;
  std::unique_ptr<hmpt::service::LineReader> submit_reader_;
  std::unique_ptr<hmpt::service::LineReader> watch_reader_;
};

}  // namespace perfbench
