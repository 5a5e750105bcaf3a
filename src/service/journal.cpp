#include "service/journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <utility>

#include "common/error.h"
#include "common/json.h"

namespace hmpt::service {

namespace {

/// EINTR-safe full write of `text` to `fd`.
bool write_all(int fd, const std::string& text) {
  std::size_t written = 0;
  while (written < text.size()) {
    const ssize_t n =
        ::write(fd, text.data() + written, text.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    written += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

JobJournal::JobJournal(std::string path) : path_(std::move(path)) {
  HMPT_REQUIRE(!path_.empty(), "journal path must not be empty");
  do {
    fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  } while (fd_ < 0 && errno == EINTR);
  if (fd_ < 0)
    raise("cannot open journal '" + path_ +
          "': " + std::strerror(errno));
}

JobJournal::~JobJournal() {
  if (fd_ >= 0) ::close(fd_);
}

void JobJournal::append_synced(const std::string& line) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!write_all(fd_, line))
    raise("journal append failed for '" + path_ +
          "': " + std::strerror(errno));
  // The fsync is the durability point: an acked submit survives kill -9.
  int rc;
  do {
    rc = ::fsync(fd_);
  } while (rc < 0 && errno == EINTR);
  if (rc < 0)
    raise("journal fsync failed for '" + path_ +
          "': " + std::strerror(errno));
}

void JobJournal::record_submit(const campaign::Scenario& scenario,
                               int priority, const JobLimits& limits) {
  JsonObject obj;
  obj["kind"] = Json("submit");
  obj["fingerprint"] = Json(scenario.fingerprint());
  if (priority != 0) obj["priority"] = Json(priority);
  if (limits.deadline_s >= 0.0) obj["deadline_s"] = Json(limits.deadline_s);
  if (limits.max_attempts > 0) obj["attempts"] = Json(limits.max_attempts);
  obj["scenario"] = scenario.to_json();
  append_synced(Json(std::move(obj)).dump(-1) + "\n");
}

void JobJournal::record_terminal(const std::string& fingerprint,
                                 JobState state) {
  JsonObject obj;
  obj["kind"] = Json("terminal");
  obj["fingerprint"] = Json(fingerprint);
  obj["state"] = Json(std::string(to_string(state)));
  append_synced(Json(std::move(obj)).dump(-1) + "\n");
}

JobJournal::Replay JobJournal::replay(const std::string& path) {
  Replay replay;
  std::ifstream in(path);
  if (!in.is_open()) return replay;  // first run: nothing to replay

  struct Entry {
    std::size_t submits = 0;
    std::size_t terminals = 0;
    std::size_t order = 0;  ///< first-submission order
    ReplayJob job;
  };
  std::map<std::string, Entry> by_fingerprint;
  std::size_t next_order = 0;

  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    Json doc;
    try {
      doc = Json::parse(line);
    } catch (const std::exception&) {
      // A torn tail from a crash mid-append, or stray corruption: the
      // record was never acked (the ack follows the fsync), so skipping
      // is the correct recovery.
      ++replay.skipped;
      continue;
    }
    if (doc.kind() != Json::Kind::Object) {
      ++replay.skipped;
      continue;
    }
    const JsonObject& obj = doc.as_object();
    const Json* kind = obj.find("kind");
    const Json* fingerprint = obj.find("fingerprint");
    if (kind == nullptr || kind->kind() != Json::Kind::String ||
        fingerprint == nullptr ||
        fingerprint->kind() != Json::Kind::String) {
      ++replay.skipped;
      continue;
    }

    if (kind->as_string() == "submit") {
      const Json* scenario = obj.find("scenario");
      if (scenario == nullptr) {
        ++replay.skipped;
        continue;
      }
      ReplayJob job;
      try {
        job.scenario = campaign::Scenario::from_json(*scenario);
        if (const Json* priority = obj.find("priority");
            priority != nullptr && priority->kind() == Json::Kind::Number)
          job.priority = priority->as_int();
        if (const Json* attempts = obj.find("attempts");
            attempts != nullptr && attempts->kind() == Json::Kind::Number)
          job.limits.max_attempts = attempts->as_int();
      } catch (const std::exception&) {
        ++replay.skipped;
        continue;
      }
      if (const Json* deadline = obj.find("deadline_s");
          deadline != nullptr && deadline->kind() == Json::Kind::Number)
        job.limits.deadline_s = deadline->as_number();
      auto [it, inserted] =
          by_fingerprint.try_emplace(fingerprint->as_string());
      if (inserted) {
        it->second.order = next_order++;
        it->second.job = std::move(job);
      }
      ++it->second.submits;
      ++replay.records;
    } else if (kind->as_string() == "terminal") {
      auto [it, inserted] =
          by_fingerprint.try_emplace(fingerprint->as_string());
      if (inserted) it->second.order = next_order++;
      ++it->second.terminals;
      ++replay.records;
    } else {
      ++replay.skipped;
    }
  }

  // Pending = more submits than terminals, in first-submission order.
  std::vector<const Entry*> pending;
  for (const auto& [fingerprint, entry] : by_fingerprint) {
    (void)fingerprint;
    if (entry.submits > entry.terminals)
      pending.push_back(&entry);
    else
      replay.settled += entry.submits;
  }
  std::sort(pending.begin(), pending.end(),
            [](const Entry* a, const Entry* b) { return a->order < b->order; });
  for (const Entry* entry : pending) replay.pending.push_back(entry->job);
  return replay;
}

}  // namespace hmpt::service
