// thread_pool.h — a small fixed-size worker pool for independent tasks.
//
// The tuner's concurrency is across scenarios: a campaign runs its
// scenarios through parallel_for (--jobs), and the daemon scheduler runs
// one long-lived worker loop per lane. Each task is independent, so all
// the pool needs is one atomic counter its workers claim indices from —
// no work stealing. The pool threads persist across parallel regions; a
// region blocks its caller until every index has run and rethrows the
// first task exception.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace hmpt {

class ThreadPool {
 public:
  /// Spawn `threads` workers; 0 means hardware_jobs(). Clamped to >= 1.
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Parallel lanes of a region: the worker threads plus the calling
  /// thread, which drains regions too.
  int size() const { return jobs_; }

  /// std::thread::hardware_concurrency(), but never 0.
  static int hardware_jobs();

  /// Run fn(i) for every i in [0, n); blocks until all indices finished.
  /// Indices are claimed dynamically (good load balance for uneven tasks).
  /// `fn` must be safe to call concurrently; the first exception any task
  /// throws is rethrown here after the region drains. Not reentrant: do not
  /// start a region from inside a task of the same pool.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  /// One parallel region: shared by the caller and all workers.
  struct Region {
    std::function<void(std::size_t)> fn;
    std::size_t count = 0;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
  };

  void worker_loop();
  void run_region(const std::shared_ptr<Region>& region);
  /// Claim-and-run loop shared by workers and the caller; returns when no
  /// index is left to claim.
  void drain(Region& region);

  int jobs_ = 1;
  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable wake_;   ///< workers wait for a new region
  std::condition_variable idle_;   ///< caller waits for region completion
  std::shared_ptr<Region> region_; ///< current region (null when idle)
  std::uint64_t generation_ = 0;   ///< bumped per region so workers run once
  std::exception_ptr error_;       ///< first task exception of the region
  bool stop_ = false;
};

/// Convenience: run fn(i) over [0, n) with `jobs` workers (0 = hardware),
/// serially in the calling thread when jobs <= 1 or n < 2.
void parallel_for(int jobs, std::size_t n,
                  const std::function<void(std::size_t)>& fn);

}  // namespace hmpt
