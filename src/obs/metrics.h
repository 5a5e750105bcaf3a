// metrics.h — a process-wide registry of named counters/gauges/histograms.
//
// The daemon's `stats` verb, hmptd's --metrics-file snapshots and the
// instrumented subsystems (scheduler, thread pool, CachedTraceTimer)
// all meet here: code increments cheap atomics unconditionally, readers
// pull a consistent JSON snapshot on demand. Recording is zero-cost in
// the sense that matters — a relaxed fetch_add with no lock, no
// allocation and no syscall — whether or not anything ever reads the
// registry, so instrumentation never needs a "metrics enabled" switch
// the way tracing does.
//
// Like the trace recorder, metrics live strictly outside the
// content-addressed artefact set: nothing here may influence tuner
// results, and runs.csv/summary.json/outcome stores are byte-identical
// with or without readers.
//
// Metric names are dotted paths ("scenario.retries", "timer.hits");
// lookups are mutex-guarded and return references stable for the
// process life, so hot paths resolve a metric once and hold the
// reference:
//
//   static obs::Counter& hits = obs::metrics().counter("timer.hits");
//   hits.add(n);
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/json.h"
#include "common/stats.h"

namespace hmpt::obs {

/// Monotonic event count (relaxed atomics; wraps only after 2^64).
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// A last-writer-wins instantaneous value (queue depth, worker count).
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

/// A streaming distribution: count/mean/min/max plus P² p50/p95/p99 in
/// O(1) memory (common/stats QuantileTracker under a mutex — histogram
/// observation is rarer than counter increments, so a lock is fine).
class Histogram {
 public:
  void observe(double v);
  ConcurrentQuantileTracker::Snapshot snapshot() const;
  void reset();

 private:
  mutable std::mutex mutex_;
  QuantileTracker tracker_;
};

class MetricsRegistry {
 public:
  /// The process-wide registry (leaky singleton, like the recorder).
  static MetricsRegistry& instance();

  /// Get-or-create by name. References are stable for the process life
  /// (values live behind unique_ptr), so callers may cache them.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// A consistent point-in-time view, name-sorted so snapshots of the
  /// same state are byte-identical:
  ///   {"counters":{...},"gauges":{...},"histograms":{name:{count,...}}}
  /// Histograms with zero samples report only {"count":0} — no
  /// misleading zero quantiles.
  Json snapshot() const;

  /// Zero every metric (tests). References stay valid.
  void reset();

 private:
  MetricsRegistry() = default;

  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Shorthand for MetricsRegistry::instance().
inline MetricsRegistry& metrics() { return MetricsRegistry::instance(); }

/// Render a latency/histogram snapshot as stats-style JSON fields:
/// always "count"; mean/p50/p95/p99 only when count > 0, so an empty
/// distribution never prints misleading zeros. `suffix` is appended to
/// the value keys ("_s" for seconds fields, matching the daemon wire
/// shape).
JsonObject snapshot_to_json(const ConcurrentQuantileTracker::Snapshot& snap,
                            const std::string& suffix = "");

}  // namespace hmpt::obs
