// support.h — measurement helpers shared by the perfbench phases: a
// steady clock, sample sets with percentiles, the process's peak RSS,
// the fsync counter the binary interposes, and small file utilities.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// A bag of timing (or size) samples.
class Samples {
 public:
  void add(double v) { values_.push_back(v); }
  std::size_t size() const { return values_.size(); }
  double sum() const;
  /// Linear-interpolated percentile, p in [0, 100]; 0 when empty.
  double percentile(double p) const;
  const std::vector<double>& values() const { return values_; }

 private:
  std::vector<double> values_;
};

/// fsync(2) + fdatasync(2) calls the whole process has made so far,
/// counted by the interposers in fsync_count.cpp.
std::uint64_t fsync_calls();
/// Wall time, in ms, all threads have spent in those calls.
double fsync_wait_ms();

/// Times a window of wall clock minus the time spent in fsync within it:
/// the shared disk's flush latency swings threefold within a minute, and
/// no code change controls it.
class WorkTimer {
 public:
  WorkTimer() : start_(Clock::now()), wait_start_(fsync_wait_ms()) {}
  double wall_ms() const { return ms_since(start_); }
  double fsync_ms() const { return fsync_wait_ms() - wait_start_; }
  double work_ms() const { return wall_ms() - fsync_ms(); }
  double work_s() const { return work_ms() / 1e3; }

 private:
  Clock::time_point start_;
  double wait_start_;
};

/// CPU time (user + system) all threads of this process have used so far,
/// in seconds. Unlike wall time it does not grow while the process waits
/// for the disk or for a CPU that another tenant holds.
double process_cpu_s();

/// Times the process CPU time used within a window.
class CpuTimer {
 public:
  CpuTimer() : start_(process_cpu_s()) {}
  double seconds() const { return process_cpu_s() - start_; }

 private:
  double start_;
};

/// Write back everything cached for the filesystem that holds `dir`
/// (syncfs(2)); throws hmpt::Error when it cannot.
void flush_filesystem(const std::string& dir);

/// VmHWM of this process in MiB (peak resident set).
double peak_rss_mb();

/// Apparent size in bytes of every regular file under `dir`.
std::uint64_t tree_bytes(const std::string& dir);

/// Whole-file read; throws hmpt::Error when unreadable.
std::string slurp(const std::string& path);

}  // namespace perfbench
