#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_name.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hmpt {

int hardware_jobs() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

void parallel_for(int jobs, std::size_t n,
                  const std::function<void(std::size_t)>& fn) {
  const int resolved = jobs == 0 ? hardware_jobs() : std::max(jobs, 1);
  const std::size_t lanes = std::min(n, static_cast<std::size_t>(resolved));
  if (lanes <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr error;
  const auto drain = [&] {
    static obs::Counter& tasks = obs::metrics().counter("pool.tasks");
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      tasks.add();
      try {
        obs::TraceSpan span("pool", "task");
        span.arg_number("index", static_cast<std::uint64_t>(i));
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!error) error = std::current_exception();
      }
    }
  };
  std::vector<std::thread> workers;
  workers.reserve(lanes - 1);
  for (std::size_t lane = 1; lane < lanes; ++lane)
    workers.emplace_back([&drain, lane] {
      // Best-effort: lets traces, `top -H` and sanitizer reports
      // attribute work to a lane instead of an anonymous TID.
      set_current_thread_name("hmpt-worker-" + std::to_string(lane));
      drain();
    });
  drain();
  for (auto& worker : workers) worker.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace hmpt
