#include "fleet/fleet.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <thread>

#include "campaign/aggregate.h"
#include "common/error.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace fs = std::filesystem;

namespace hmpt::fleet {

namespace {

using Clock = std::chrono::steady_clock;
using campaign::Scenario;

/// POSIX single-quote escaping: safe for any byte sequence.
std::string shell_quote(const std::string& text) {
  std::string out = "'";
  for (char c : text) {
    if (c == '\'')
      out += "'\\''";
    else
      out += c;
  }
  out += "'";
  return out;
}

std::string replace_all(std::string text, const std::string& what,
                        const std::string& with) {
  std::size_t pos = 0;
  while ((pos = text.find(what, pos)) != std::string::npos) {
    text.replace(pos, what.size(), with);
    pos += with.size();
  }
  return text;
}

std::string format_seconds(double s) {
  std::ostringstream os;
  os << s;
  return os.str();
}

/// One shard worker slot: a store directory that survives across child
/// generations, plus the child currently running on it (if any).
struct Worker {
  int index = 1;            ///< 1-based shard index (stable for the run)
  std::string dir;          ///< <output_dir>/shard-<index>
  pid_t pid = -1;           ///< running child, or -1
  int generation = 0;       ///< launches on this slot so far
  std::string log_path;     ///< stdout/stderr of the current generation
  /// Fingerprints this worker currently owns (initial deal, then replaced
  /// by the stolen set when the slot is re-used as a thief).
  std::set<std::string> assigned;
  /// Manifest entries observed at the last poll; growth = progress.
  std::size_t observed = 0;
  Clock::time_point last_progress = Clock::now();
};

/// The worker command line (argv after the binary). The child is a plain
/// `hmpt_campaign` run: plan + assignment pin the exact scenario set,
/// --resume makes relaunches on a used store free, --progress-manifest
/// makes its shard.manifest.json tailable and SIGKILL-consistent.
std::vector<std::string> worker_args(const FleetOptions& options,
                                     const Worker& worker,
                                     const std::string& plan_path,
                                     const std::string& assign_path) {
  std::vector<std::string> args = {
      "--plan",
      plan_path,
      "--assign",
      assign_path,
      "--shard",
      std::to_string(worker.index) + "/" + std::to_string(options.workers),
      "--out",
      worker.dir,
      "--store-format",
      campaign::to_string(options.store_format),
      "--resume",
      "--progress-manifest",
      "--quiet",
      "--jobs",
      std::to_string(options.worker_jobs),
      "--measure-jobs",
      std::to_string(options.measure_jobs),
  };
  if (options.keep_going) args.push_back("--keep-going");
  if (options.attempts > 1) {
    args.push_back("--retries");
    args.push_back(std::to_string(options.attempts - 1));
  }
  if (options.scenario_timeout_s > 0.0) {
    args.push_back("--scenario-timeout");
    args.push_back(format_seconds(options.scenario_timeout_s));
  }
  return args;
}

/// Fork the worker in its own process group (so SIGKILL to the group
/// reaches a SIGSTOPped worker and any grandchildren a launch template
/// spawned) with stdout/stderr appended to its per-generation log file.
pid_t spawn_worker(const FleetOptions& options, int index,
                   const std::vector<std::string>& args,
                   const std::string& log_path) {
  const pid_t pid = ::fork();
  if (pid < 0) raise("fleet: fork failed");
  if (pid == 0) {
    ::setpgid(0, 0);
    const int fd =
        ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd >= 0) {
      ::dup2(fd, STDOUT_FILENO);
      ::dup2(fd, STDERR_FILENO);
      if (fd > STDERR_FILENO) ::close(fd);
    }
    if (options.exec_template.empty()) {
      std::vector<char*> argv;
      argv.push_back(const_cast<char*>(options.worker_bin.c_str()));
      for (const auto& arg : args)
        argv.push_back(const_cast<char*>(arg.c_str()));
      argv.push_back(nullptr);
      ::execv(options.worker_bin.c_str(), argv.data());
    } else {
      std::string cmd = shell_quote(options.worker_bin);
      for (const auto& arg : args) {
        cmd += ' ';
        cmd += shell_quote(arg);
      }
      std::string rendered = replace_all(options.exec_template, "{cmd}", cmd);
      rendered = replace_all(rendered, "{index}", std::to_string(index));
      ::execl("/bin/sh", "sh", "-c", rendered.c_str(),
              static_cast<char*>(nullptr));
    }
    ::_exit(127);  // exec failed; reads as a worker death upstream
  }
  // Parent-side setpgid too: closes the race where the child is killed
  // before its own setpgid ran. EACCES after exec just means the child
  // already did it.
  ::setpgid(pid, pid);
  return pid;
}

}  // namespace

ManifestTail tail_manifest(const std::string& store_dir, int retries,
                           double retry_sleep_s) {
  const std::string path = campaign::ShardManifest::path_in(store_dir);
  ManifestTail tail;
  for (int attempt = 0;; ++attempt) {
    std::error_code ec;
    if (!fs::exists(path, ec)) {
      tail.state = ManifestTail::State::Missing;
    } else {
      try {
        tail.manifest = campaign::ShardManifest::load(store_dir);
        tail.state = ManifestTail::State::Ok;
        return tail;
      } catch (const std::exception&) {
        // A torn read (mid-rewrite on a remote store, a half-synced
        // file) — transient until proven otherwise.
        tail.state = ManifestTail::State::Damaged;
      }
    }
    if (attempt >= retries) return tail;
    std::this_thread::sleep_for(std::chrono::duration<double>(retry_sleep_s));
  }
}

void save_assignment(const std::string& path,
                     const std::vector<std::string>& fingerprints) {
  const fs::path target(path);
  std::error_code ec;
  if (target.has_parent_path()) fs::create_directories(target.parent_path(), ec);
  campaign::publish_file(path, [&](std::ostream& os) {
    for (const auto& fp : fingerprints) os << fp << "\n";
  });
}

std::vector<std::string> load_assignment(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is.good()) raise("cannot read assignment file: " + path);
  std::vector<std::string> fingerprints;
  std::string line;
  while (std::getline(is, line)) {
    while (!line.empty() &&
           (line.back() == '\r' || line.back() == ' ' || line.back() == '\t'))
      line.pop_back();
    const std::size_t start = line.find_first_not_of(" \t");
    if (start == std::string::npos || line[start] == '#') continue;
    fingerprints.push_back(line.substr(start));
  }
  return fingerprints;
}

campaign::CampaignResult run_fleet(const std::vector<Scenario>& scenarios,
                                   const FleetOptions& options,
                                   FleetStats* stats, const FleetLog& log) {
  HMPT_REQUIRE(options.workers >= 1, "fleet needs at least one worker");
  HMPT_REQUIRE(!options.worker_bin.empty(), "fleet worker binary not set");
  HMPT_REQUIRE(!scenarios.empty(), "fleet campaign is empty");
  HMPT_REQUIRE(options.max_deals >= 1, "fleet deal cap must be >= 1");
  HMPT_REQUIRE(options.poll_interval_s > 0.0,
               "fleet poll interval must be positive");

  obs::TraceSpan span("fleet", "dispatch");
  static obs::Counter& launches_metric =
      obs::metrics().counter("fleet.launches");
  static obs::Counter& steals_metric = obs::metrics().counter("fleet.steals");
  static obs::Counter& deaths_metric =
      obs::metrics().counter("fleet.worker_deaths");

  const auto say = [&log](const std::string& msg) {
    if (log) log(msg);
  };

  const std::string fleet_dir = options.output_dir + "/fleet";
  fs::create_directories(fleet_dir);
  const std::string plan_path = fleet_dir + "/plan.json";
  campaign::save_scenario_plan(plan_path, scenarios);

  // The deal is over fingerprints, mirroring shard_scenarios: sorted by
  // fingerprint, rank r to worker (r mod N) + 1 — a fleet with no steals
  // produces exactly the partition `hmpt_campaign --shard` would.
  std::map<std::string, const Scenario*> by_fp;
  for (const auto& scenario : scenarios) {
    const auto [it, fresh] = by_fp.emplace(scenario.fingerprint(), &scenario);
    HMPT_REQUIRE(fresh,
                 "duplicate scenario fingerprint in campaign: " + it->first);
  }
  const std::string campaign_fp = campaign::campaign_fingerprint(scenarios);
  span.arg("campaign", campaign_fp);
  span.arg_number("workers", static_cast<std::uint64_t>(options.workers));
  span.arg_number("scenarios", static_cast<std::uint64_t>(by_fp.size()));

  std::vector<Worker> workers(static_cast<std::size_t>(options.workers));
  for (int i = 0; i < options.workers; ++i) {
    Worker& worker = workers[static_cast<std::size_t>(i)];
    worker.index = i + 1;
    worker.dir = options.output_dir + "/shard-" + std::to_string(worker.index);
    fs::create_directories(worker.dir);
    // Pre-write the (empty) manifest so a worker SIGKILLed before its
    // first save — or never launched at all — still merges cleanly.
    campaign::ManifestProgress seed(scenarios,
                                    campaign::ShardSpec{worker.index,
                                                        options.workers},
                                    worker.dir);
  }
  {
    std::size_t rank = 0;
    for (const auto& [fp, scenario] : by_fp) {
      (void)scenario;
      workers[rank % workers.size()].assigned.insert(fp);
      ++rank;
    }
  }

  std::map<std::string, int> deals;  ///< fingerprint → times dealt
  std::set<std::string> done;        ///< fingerprints with a terminal record
  int launches = 0;
  int steals = 0;
  int deaths = 0;

  const auto launch = [&](Worker& worker) {
    ++worker.generation;
    const std::string tag = std::to_string(worker.index) + "-g" +
                            std::to_string(worker.generation);
    const std::string assign_path = fleet_dir + "/assign-" + tag + ".txt";
    std::vector<std::string> fps(worker.assigned.begin(),
                                 worker.assigned.end());
    save_assignment(assign_path, fps);
    worker.log_path = fleet_dir + "/worker-" + tag + ".log";
    worker.pid = spawn_worker(
        options, worker.index,
        worker_args(options, worker, plan_path, assign_path), worker.log_path);
    worker.last_progress = Clock::now();
    ++launches;
    launches_metric.add(1);
    obs::trace_instant(
        "fleet", "launch",
        {obs::TraceArg::number("worker",
                               static_cast<std::uint64_t>(worker.index)),
         obs::TraceArg::number("generation",
                               static_cast<std::uint64_t>(worker.generation)),
         obs::TraceArg::number("scenarios",
                               static_cast<std::uint64_t>(fps.size()))});
    say("fleet: worker " + std::to_string(worker.index) + " gen " +
        std::to_string(worker.generation) + " started (pid " +
        std::to_string(worker.pid) + ", " + std::to_string(fps.size()) +
        " scenario(s))");
  };

  const auto kill_all = [&workers]() {
    for (Worker& worker : workers) {
      if (worker.pid <= 0) continue;
      ::kill(-worker.pid, SIGKILL);  // the group: template shells, STOPped
      ::kill(worker.pid, SIGKILL);
      int status = 0;
      ::waitpid(worker.pid, &status, 0);
      worker.pid = -1;
    }
  };

  const auto outstanding_of = [&done](const Worker& worker) {
    std::vector<std::string> out;
    for (const auto& fp : worker.assigned)
      if (!done.count(fp)) out.push_back(fp);
    return out;
  };

  for (Worker& worker : workers) {
    if (worker.assigned.empty()) continue;  // more workers than scenarios
    for (const auto& fp : worker.assigned) ++deals[fp];
    launch(worker);
  }

  try {
    while (true) {
      // 1. Reap exited children. The death rule: a signal or an exit
      // status >= 126 (shell-laundered kills, exec failures) is a worker
      // death — steal-eligible, the fleet carries on. A plain nonzero
      // exit is the worker *reporting* failure: fatal under fail-fast;
      // under --keep-going a recorded scenario failure (exit 2) is a
      // terminal result, anything else is treated as a death.
      for (Worker& worker : workers) {
        if (worker.pid <= 0) continue;
        int status = 0;
        if (::waitpid(worker.pid, &status, WNOHANG) != worker.pid) continue;
        worker.pid = -1;
        int code = 0;
        bool death = false;
        if (WIFSIGNALED(status)) {
          code = 128 + WTERMSIG(status);
          death = true;
        } else if (WIFEXITED(status)) {
          code = WEXITSTATUS(status);
          if (code == 0 || (code == 2 && options.keep_going)) {
            death = false;
          } else if (code >= 126 || options.keep_going) {
            death = true;
          } else {
            raise("fleet: worker " + std::to_string(worker.index) +
                  " failed with exit status " + std::to_string(code) +
                  " (log: " + worker.log_path + ")");
          }
        }
        if (death) {
          ++deaths;
          deaths_metric.add(1);
          obs::trace_instant(
              "fleet", "worker-death",
              {obs::TraceArg::number("worker",
                                     static_cast<std::uint64_t>(worker.index)),
               obs::TraceArg::number("status",
                                     static_cast<std::uint64_t>(code))});
          say("fleet: worker " + std::to_string(worker.index) +
              " died (status " + std::to_string(code) + ")");
        }
      }

      // 2. Tail manifests. Damaged/missing reads are "no news", never
      // failures; only parsed entries advance the done set, and entry
      // growth is the worker's heartbeat.
      for (Worker& worker : workers) {
        const ManifestTail tail = tail_manifest(worker.dir);
        if (tail.state != ManifestTail::State::Ok) continue;
        if (tail.manifest.campaign != campaign_fp) continue;  // stale store
        if (tail.manifest.entries.size() > worker.observed) {
          worker.observed = tail.manifest.entries.size();
          worker.last_progress = Clock::now();
        }
        for (const auto& entry : tail.manifest.entries)
          done.insert(entry.fingerprint);
      }

      if (done.size() >= by_fp.size()) break;  // done ⊆ campaign always

      // 3. Steal scheduling. A fingerprint is in flight while some live,
      // non-straggling worker owns it; everything else outstanding on a
      // dead or straggling victim is stealable, up to the per-fingerprint
      // deal cap. Idle workers (no child, nothing outstanding) are the
      // thieves.
      const auto now = Clock::now();
      const auto idle_seconds = [&now](const Worker& worker) {
        return std::chrono::duration<double>(now - worker.last_progress)
            .count();
      };
      std::set<std::string> in_flight;
      for (const Worker& worker : workers) {
        if (worker.pid <= 0) continue;
        if (idle_seconds(worker) >= options.straggler_after_s) continue;
        for (const auto& fp : worker.assigned)
          if (!done.count(fp)) in_flight.insert(fp);
      }
      std::vector<Worker*> thieves;
      for (Worker& worker : workers)
        if (worker.pid <= 0 && outstanding_of(worker).empty())
          thieves.push_back(&worker);
      std::vector<Worker*> victims;
      std::set<std::string> stealable;
      for (Worker& worker : workers) {
        const auto out = outstanding_of(worker);
        if (out.empty()) continue;
        const bool dead = worker.pid <= 0;
        if (!dead && idle_seconds(worker) < options.straggler_after_s)
          continue;
        victims.push_back(&worker);
        for (const auto& fp : out) {
          if (in_flight.count(fp)) continue;
          if (deals[fp] >= options.max_deals) continue;
          stealable.insert(fp);
        }
      }

      bool launched = false;
      if (!stealable.empty() && !thieves.empty()) {
        // Deal the stolen set round-robin over the idle workers
        // (fingerprint order over index order — deterministic given the
        // same observation sequence).
        std::map<Worker*, std::vector<std::string>> share;
        std::size_t t = 0;
        for (const auto& fp : stealable) {
          share[thieves[t % thieves.size()]].push_back(fp);
          ++t;
        }
        for (auto& [thief, fps] : share) {
          thief->assigned.clear();
          for (const auto& fp : fps) {
            thief->assigned.insert(fp);
            ++deals[fp];
          }
          steals += static_cast<int>(fps.size());
          steals_metric.add(fps.size());
          obs::trace_instant(
              "fleet", "steal",
              {obs::TraceArg::number(
                   "thief", static_cast<std::uint64_t>(thief->index)),
               obs::TraceArg::number("scenarios",
                                     static_cast<std::uint64_t>(fps.size()))});
          say("fleet: re-dealing " + std::to_string(fps.size()) +
              " scenario(s) to worker " + std::to_string(thief->index));
          launch(*thief);
        }
        // The victims get a fresh grace period: their outstanding work is
        // now in flight on the thieves, so don't churn re-deals until the
        // thieves themselves stall.
        for (Worker* victim : victims) victim->last_progress = now;
      } else if (!stealable.empty()) {
        // Work to re-deal but nobody idle: if every worker is dead the
        // victims relaunch on their own stores (--resume makes finished
        // work free); otherwise wait for a worker to drain and go idle.
        bool any_running = false;
        for (const Worker& worker : workers)
          if (worker.pid > 0) any_running = true;
        if (!any_running) {
          std::set<std::string> remaining = stealable;
          for (Worker* victim : victims) {
            std::vector<std::string> mine;
            for (const auto& fp : victim->assigned)
              if (remaining.count(fp)) mine.push_back(fp);
            if (mine.empty()) continue;
            victim->assigned.clear();
            for (const auto& fp : mine) {
              victim->assigned.insert(fp);
              remaining.erase(fp);
              ++deals[fp];
            }
            say("fleet: relaunching worker " +
                std::to_string(victim->index) + " on its own store");
            launch(*victim);
            launched = true;
          }
        }
      }
      for (const Worker& worker : workers)
        if (worker.pid > 0) launched = true;

      if (!launched) {
        std::size_t undealable = 0;
        for (const auto& [fp, count] : deals)
          if (!done.count(fp) && count >= options.max_deals) ++undealable;
        raise("fleet: stalled with " +
              std::to_string(by_fp.size() - done.size()) +
              " scenario(s) unfinished (" + std::to_string(undealable) +
              " exhausted the deal cap of " +
              std::to_string(options.max_deals) + ")");
      }

      std::this_thread::sleep_for(
          std::chrono::duration<double>(options.poll_interval_s));
    }
  } catch (...) {
    kill_all();
    throw;
  }

  // Every scenario has a terminal record somewhere. Surviving children
  // are stragglers whose work was completed elsewhere — stop them; both
  // store formats tolerate a kill mid-write (atomic publish / torn-tail
  // recovery), and the merge byte-verifies every duplicate anyway.
  kill_all();

  if (!options.sync_template.empty()) {
    obs::TraceSpan sync_span("fleet", "sync");
    for (const Worker& worker : workers) {
      std::string cmd =
          replace_all(options.sync_template, "{dir}", shell_quote(worker.dir));
      cmd = replace_all(cmd, "{index}", std::to_string(worker.index));
      const int rc = std::system(cmd.c_str());
      HMPT_REQUIRE(rc == 0, "fleet: sync command failed for worker " +
                                std::to_string(worker.index) + ": " + cmd);
    }
  }

  campaign::MergeStats merge_stats;
  campaign::CampaignResult result;
  {
    obs::TraceSpan merge_span("fleet", "merge");
    std::vector<std::string> shard_dirs;
    for (const Worker& worker : workers) shard_dirs.push_back(worker.dir);
    result = campaign::merge_shards(shard_dirs, options.output_dir,
                                    &merge_stats, options.store_format);
  }

  if (stats) {
    stats->campaign = campaign_fp;
    stats->scenarios = static_cast<int>(by_fp.size());
    stats->workers = options.workers;
    stats->launches = launches;
    stats->steals = steals;
    stats->worker_deaths = deaths;
    stats->merge = merge_stats;
  }
  span.arg_number("launches", static_cast<std::uint64_t>(launches));
  span.arg_number("steals", static_cast<std::uint64_t>(steals));
  span.arg_number("worker_deaths", static_cast<std::uint64_t>(deaths));
  say("fleet: complete — " + std::to_string(by_fp.size()) + " scenario(s), " +
      std::to_string(launches) + " launch(es), " + std::to_string(steals) +
      " steal(s), " + std::to_string(deaths) + " death(s)");
  return result;
}

}  // namespace hmpt::fleet
