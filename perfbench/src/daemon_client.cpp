#include "daemon_client.h"

#include "common/error.h"
#include "service/protocol.h"
#include "support.h"

namespace perfbench {

using hmpt::Json;
using hmpt::service::LineReader;
using hmpt::service::Op;
using hmpt::service::Request;

namespace {

/// The first job entry of a submit acknowledgement.
const Json& first_job(const hmpt::service::ServerMessage& ack) {
  const auto& jobs = ack.body.at("jobs").as_array();
  HMPT_REQUIRE(jobs.size() == 1, "submit ack must carry one job");
  return jobs.front();
}

}  // namespace

DaemonClient::DaemonClient(const std::string& socket_path,
                           const std::string& store_dir) {
  hmpt::service::ignore_sigpipe();
  hmpt::service::DaemonOptions options;
  options.endpoint.unix_path = socket_path;
  options.store_dir = store_dir;
  options.workers = kWorkers;
  options.measure_jobs = 1;
  daemon_ = std::make_unique<hmpt::service::Daemon>(options);
  daemon_->start();

  submit_ = hmpt::service::connect_to(options.endpoint);
  watch_ = hmpt::service::connect_to(options.endpoint);
  submit_reader_ = std::make_unique<LineReader>(submit_.fd());
  watch_reader_ = std::make_unique<LineReader>(watch_.fd());

  Request watch;
  watch.op = Op::Watch;
  HMPT_REQUIRE(watch_.send_all(watch.to_line()), "cannot send watch");
  const auto ack =
      hmpt::service::parse_server_message(read_line(*watch_reader_));
  HMPT_REQUIRE(ack.ok && ack.op == "watch", "watch refused: " + ack.error);
}

DaemonClient::~DaemonClient() {
  submit_.shutdown_both();
  watch_.shutdown_both();
  daemon_->request_shutdown();
  daemon_->wait_for(-1);
}

std::string DaemonClient::read_line(LineReader& reader) {
  std::string line;
  const auto status = reader.next(line);
  HMPT_REQUIRE(status == LineReader::Status::Line,
               "daemon connection closed or sent an oversized line");
  return line;
}

std::string DaemonClient::request(const std::string& line) {
  HMPT_REQUIRE(submit_.send_all(line), "cannot send to the daemon");
  return read_line(*submit_reader_);
}

std::optional<double> DaemonClient::run_job(
    const hmpt::campaign::Scenario& scenario) {
  Request submit;
  submit.op = Op::Submit;
  submit.scenario = scenario;
  const std::string fingerprint = scenario.fingerprint();

  const auto start = Clock::now();
  const auto ack = hmpt::service::parse_server_message(request(submit.to_line()));
  if (!ack.ok) return std::nullopt;
  const std::string state = first_job(ack).at("state").as_string();
  if (state != "queued" && state != "running") return std::nullopt;
  for (;;) {
    const auto event =
        hmpt::service::parse_server_message(read_line(*watch_reader_));
    if (!event.is_event || event.event != "job" ||
        event.body.at("fingerprint").as_string() != fingerprint)
      continue;
    const double ms = ms_since(start);
    if (event.body.at("state").as_string() != "done") return std::nullopt;
    return ms;
  }
}

bool DaemonClient::resubmit_cached(const hmpt::campaign::Scenario& scenario) {
  Request submit;
  submit.op = Op::Submit;
  submit.scenario = scenario;
  const auto ack =
      hmpt::service::parse_server_message(request(submit.to_line()));
  return ack.ok && first_job(ack).at("state").as_string() == "cached";
}

std::string DaemonClient::result_line(const std::string& fingerprint,
                                      double* ms) {
  Request result;
  result.op = Op::Result;
  result.fingerprint = fingerprint;
  const std::string line = result.to_line();
  const auto start = Clock::now();
  std::string response = request(line);
  *ms = ms_since(start);
  return response;
}

Json DaemonClient::stats() {
  Request stats;
  stats.op = Op::Stats;
  const auto response =
      hmpt::service::parse_server_message(request(stats.to_line()));
  HMPT_REQUIRE(response.ok, "stats refused: " + response.error);
  return response.body;
}

}  // namespace perfbench
