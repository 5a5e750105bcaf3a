// thread_pool.h — run independent tasks on a few threads.
//
// The tuner's concurrency is across scenarios: a campaign runs its
// scenarios through parallel_for (--jobs), and the daemon scheduler runs
// one long-lived worker loop per lane. Each task is independent, so the
// lanes claim indices from one atomic counter — no work stealing. The
// calling thread is one of the lanes; the call returns once every index
// has run and rethrows the first task exception.
#pragma once

#include <cstddef>
#include <functional>

namespace hmpt {

/// std::thread::hardware_concurrency(), but never 0.
int hardware_jobs();

/// Run fn(i) for every i in [0, n) on min(jobs, n) lanes (jobs 0 means
/// hardware_jobs()): the caller plus threads named hmpt-worker-1, ...
/// Indices are claimed dynamically (good load balance for uneven tasks)
/// and `fn` must be safe to call concurrently. Every index runs even when
/// one throws; the first exception is rethrown after all lanes finish.
/// With one lane (jobs <= 1 or n < 2) it is a plain loop in the caller.
void parallel_for(int jobs, std::size_t n,
                  const std::function<void(std::size_t)>& fn);

}  // namespace hmpt
