// Edge-case tests for parallel_for: empty and single-item ranges, lane
// naming, and exception propagation.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/thread_name.h"
#include "common/thread_pool.h"

namespace hmpt {
namespace {

TEST(ThreadPoolEdgeTest, EmptyRangeRunsNothingAndReturns) {
  std::atomic<int> calls{0};
  parallel_for(4, 0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
  parallel_for(0, 0, [&](std::size_t) { ++calls; });
  parallel_for(1, 0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
  // A later call is unaffected.
  parallel_for(4, 3, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 3);
}

TEST(ThreadPoolEdgeTest, SingleItemRunsExactlyOnceInTheCaller) {
  std::atomic<int> calls{0};
  std::size_t seen = 99;
  const auto caller = std::this_thread::get_id();
  std::thread::id ran_on;
  parallel_for(8, 1, [&](std::size_t i) {
    ++calls;
    seen = i;
    ran_on = std::this_thread::get_id();
  });
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(seen, 0u);
  EXPECT_EQ(ran_on, caller);
}

TEST(ThreadPoolEdgeTest, ParallelForPropagatesTheTaskException) {
  EXPECT_THROW(parallel_for(4, 64,
                            [&](std::size_t i) {
                              if (i == 13) raise("index 13 exploded");
                            }),
               Error);
  // Non-hmpt exceptions propagate too.
  EXPECT_THROW(parallel_for(4, 8,
                            [&](std::size_t i) {
                              if (i == 2) throw std::runtime_error("boom");
                            }),
               std::runtime_error);
}

TEST(ThreadPoolEdgeTest, SerialLaneHandlesEdgesInCallerThread) {
  // One lane runs everything inline, in order, with the same semantics.
  std::vector<std::size_t> order;
  parallel_for(1, 4, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3}));
  parallel_for(1, 0, [&](std::size_t) { order.push_back(99); });
  EXPECT_EQ(order.size(), 4u);
  EXPECT_THROW(parallel_for(1, 2, [&](std::size_t) { raise("serial boom"); }),
               Error);
}

TEST(ThreadPoolEdgeTest, LanesAreTheCallerAndNamedWorkers) {
  // min(jobs, n) lanes: the caller plus hmpt-worker-1 .. -(lanes-1). Each
  // task waits (up to a deadline) until every lane has claimed one, so no
  // lane can finish its task and take a second.
  const auto caller = std::this_thread::get_id();
  for (const int jobs : {2, 3, 16}) {
    const std::size_t n = 3;
    const std::size_t lanes = std::min<std::size_t>(jobs, n);
    std::mutex mutex;
    std::set<std::string> names;
    std::atomic<std::size_t> started{0};
    bool caller_ran = false;
    parallel_for(jobs, n, [&](std::size_t) {
      ++started;
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (started.load() < lanes &&
             std::chrono::steady_clock::now() < deadline)
        std::this_thread::yield();
      std::lock_guard<std::mutex> lock(mutex);
      if (std::this_thread::get_id() == caller)
        caller_ran = true;
      else
        names.insert(current_thread_name());
    });
    EXPECT_TRUE(caller_ran) << jobs;
    std::set<std::string> expected;
    for (std::size_t w = 1; w < lanes; ++w)
      expected.insert("hmpt-worker-" + std::to_string(w));
    EXPECT_EQ(names, expected) << jobs;
  }
}

}  // namespace
}  // namespace hmpt
