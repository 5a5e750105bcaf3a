// Edge-case tests for the ThreadPool primitive: empty and single-item
// ranges, and exception propagation out of parallel_for.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "common/error.h"
#include "common/thread_pool.h"

namespace hmpt {
namespace {

TEST(ThreadPoolEdgeTest, EmptyRangeRunsNothingAndReturns) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
  // The pool stays usable afterwards.
  pool.parallel_for(3, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 3);

  // The free helper tolerates empty ranges at any job count too.
  parallel_for(0, 0, [&](std::size_t) { ++calls; });
  parallel_for(4, 0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 3);
}

TEST(ThreadPoolEdgeTest, SingleItemRunsExactlyOnce) {
  ThreadPool pool(8);
  std::atomic<int> calls{0};
  std::size_t seen = 99;
  pool.parallel_for(1, [&](std::size_t i) {
    ++calls;
    seen = i;
  });
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(seen, 0u);
}

TEST(ThreadPoolEdgeTest, ParallelForPropagatesTheTaskException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(64,
                        [&](std::size_t i) {
                          if (i == 13) raise("index 13 exploded");
                        }),
      Error);
  // Non-hmpt exceptions propagate too.
  EXPECT_THROW(pool.parallel_for(8,
                                 [&](std::size_t i) {
                                   if (i == 2)
                                     throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  // A drained region leaves the pool healthy.
  std::atomic<int> calls{0};
  pool.parallel_for(16, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 16);
}

TEST(ThreadPoolEdgeTest, SerialPoolHandlesEdgesInCallerThread) {
  // A one-lane pool must run everything inline with the same semantics.
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1);
  std::vector<std::size_t> order;
  pool.parallel_for(4, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3}));
  pool.parallel_for(0, [&](std::size_t) { order.push_back(99); });
  EXPECT_EQ(order.size(), 4u);
  EXPECT_THROW(
      pool.parallel_for(2, [&](std::size_t) { raise("serial boom"); }),
      Error);
}

}  // namespace
}  // namespace hmpt
