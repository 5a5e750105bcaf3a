// retry_test.cpp — the failure model in common/retry.h: deterministic
// backoff, cancellation tokens and their parent/child links, the attempt
// loop's classification rules.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/retry.h"

namespace {

using namespace hmpt;

// ------------------------------------------------------------ RetryPolicy

TEST(RetryPolicyTest, ValidatesSettings) {
  RetryPolicy policy;
  EXPECT_NO_THROW(policy.validate());
  policy.max_attempts = 0;
  EXPECT_THROW(policy.validate(), Error);
  policy.max_attempts = 1;
  policy.jitter = 1.0;
  EXPECT_THROW(policy.validate(), Error);
  policy.jitter = 0.25;
  policy.backoff_multiplier = 0.5;
  EXPECT_THROW(policy.validate(), Error);
  policy.backoff_multiplier = 2.0;
  policy.attempt_deadline_s = -1.0;
  EXPECT_THROW(policy.validate(), Error);
}

TEST(RetryPolicyTest, BackoffIsDeterministicPerSeedAndStream) {
  RetryPolicy policy;
  policy.initial_backoff_s = 0.1;
  policy.seed = 42;
  // Same (seed, stream, attempt) → identical backoff, every time.
  for (int attempt = 1; attempt <= 5; ++attempt)
    EXPECT_DOUBLE_EQ(policy.backoff_s(attempt, 7),
                     policy.backoff_s(attempt, 7));
  // Different streams de-synchronise (jitter draws differ).
  bool any_different = false;
  for (int attempt = 1; attempt <= 5; ++attempt)
    if (policy.backoff_s(attempt, 1) != policy.backoff_s(attempt, 2))
      any_different = true;
  EXPECT_TRUE(any_different);
}

TEST(RetryPolicyTest, BackoffGrowsExponentiallyAndCaps) {
  RetryPolicy policy;
  policy.initial_backoff_s = 0.1;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_s = 0.5;
  policy.jitter = 0.0;  // isolate the exponential base
  EXPECT_DOUBLE_EQ(policy.backoff_s(1), 0.1);
  EXPECT_DOUBLE_EQ(policy.backoff_s(2), 0.2);
  EXPECT_DOUBLE_EQ(policy.backoff_s(3), 0.4);
  EXPECT_DOUBLE_EQ(policy.backoff_s(4), 0.5);  // capped
  EXPECT_DOUBLE_EQ(policy.backoff_s(10), 0.5);
}

TEST(RetryPolicyTest, JitterStaysWithinFraction) {
  RetryPolicy policy;
  policy.initial_backoff_s = 0.1;
  policy.backoff_multiplier = 1.0;
  policy.jitter = 0.25;
  policy.max_backoff_s = 1.0;
  for (std::uint64_t stream = 0; stream < 50; ++stream) {
    const double backoff = policy.backoff_s(1, stream);
    EXPECT_GE(backoff, 0.075);
    EXPECT_LE(backoff, 0.125);
  }
}

TEST(RetryPolicyTest, NoBackoffWhenInitialIsZero) {
  RetryPolicy policy;
  policy.initial_backoff_s = 0.0;
  EXPECT_DOUBLE_EQ(policy.backoff_s(1), 0.0);
  EXPECT_DOUBLE_EQ(policy.backoff_s(5), 0.0);
}

// --------------------------------------------------------- classification

TEST(RetryClassificationTest, TerminalPrefixesNeverRetry) {
  EXPECT_TRUE(is_terminal_error("terminal: unsupported platform"));
  EXPECT_TRUE(is_terminal_error("wrapped: terminal: inner"));
  EXPECT_TRUE(is_terminal_error("canceled: the job was canceled"));
  EXPECT_TRUE(is_terminal_error(
      "conflicting outcome for fingerprint abc"));
  EXPECT_FALSE(is_terminal_error("timeout: the attempt deadline expired"));
  EXPECT_FALSE(is_terminal_error("injected transient fault"));
  EXPECT_FALSE(is_terminal_error(""));
}

TEST(RetryClassificationTest, FormatAttemptsReadsAsOneLine) {
  std::vector<AttemptRecord> attempts = {{1, "boom", 0.1},
                                         {2, "boom again", 0.25}};
  const std::string text = format_attempts(attempts);
  EXPECT_NE(text.find("attempt 1: boom"), std::string::npos);
  EXPECT_NE(text.find("attempt 2: boom again"), std::string::npos);
  EXPECT_NE(text.find("; "), std::string::npos);
}

// ------------------------------------------------------------ CancelToken

TEST(CancelTokenTest, CancelWakesSleepersAndTripsCheck) {
  CancelToken token;
  EXPECT_FALSE(token.canceled());
  EXPECT_NO_THROW(token.check());

  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    token.cancel();
  });
  const auto start = std::chrono::steady_clock::now();
  // Would be a 10-second nap without the cancel.
  EXPECT_FALSE(token.sleep_for(10.0));
  const auto waited = std::chrono::steady_clock::now() - start;
  EXPECT_LT(waited, std::chrono::seconds(5));
  canceller.join();

  EXPECT_TRUE(token.canceled());
  try {
    token.check();
    FAIL() << "check() must throw after cancel()";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("canceled:"), std::string::npos);
  }
}

TEST(CancelTokenTest, DeadlineExpiresAndEarliestWins) {
  CancelToken token;
  EXPECT_FALSE(token.expired());
  EXPECT_TRUE(std::isinf(token.remaining_s()));

  token.set_deadline_after(60.0);
  token.set_deadline_after(0.01);   // tightens
  token.set_deadline_after(120.0);  // never loosens
  EXPECT_LE(token.remaining_s(), 0.011);

  // sleep_for wakes at the deadline, reporting an interrupted sleep.
  EXPECT_FALSE(token.sleep_for(10.0));
  EXPECT_TRUE(token.expired());
  try {
    token.check();
    FAIL() << "check() must throw past the deadline";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("timeout:"), std::string::npos);
  }
}

TEST(CancelTokenTest, CopiesShareState) {
  CancelToken token;
  CancelToken copy = token;
  copy.cancel();
  EXPECT_TRUE(token.canceled());
}

TEST(CancelTokenTest, ParentCancelReachesChildrenButNotBack) {
  CancelToken parent;
  const CancelToken child = parent.child();
  const CancelToken grandchild = child.child();
  CancelToken sibling = parent.child();
  sibling.cancel();
  EXPECT_FALSE(parent.canceled());  // a child's cancel does not reach back
  EXPECT_FALSE(child.canceled());
  parent.cancel();
  EXPECT_TRUE(child.canceled());
  EXPECT_TRUE(grandchild.canceled());
  // A child of a canceled token is born canceled.
  EXPECT_TRUE(parent.child().canceled());
}

TEST(CancelTokenTest, ChildKeepsItsOwnDeadline) {
  CancelToken parent;
  CancelToken child = parent.child();
  child.set_deadline_after(-1.0);
  EXPECT_TRUE(child.expired());
  EXPECT_FALSE(parent.expired());
}

// -------------------------------------------------------- run_with_retries

TEST(AttemptTest, FirstTrySuccessHasNoFailureRecords) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  int value = 0;
  const auto result =
      run_with_retries(policy, 0, [&](const CancelToken&) { value = 41 + 1; });
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(value, 42);
  EXPECT_TRUE(result.failures.empty());
  EXPECT_EQ(result.attempts(), 1);
}

TEST(AttemptTest, TransientFailuresRetryUntilSuccess) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.initial_backoff_s = 0.0;  // keep the test fast
  int calls = 0;
  const auto result = run_with_retries(policy, 0, [&](const CancelToken&) {
    if (++calls < 3) raise("transient wobble");
  });
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(result.failures.size(), 2u);
  EXPECT_EQ(result.attempts(), 3);
  EXPECT_EQ(result.failures[0].attempt, 1);
  EXPECT_NE(result.failures[0].error.find("transient wobble"),
            std::string::npos);
}

TEST(AttemptTest, BudgetExhaustionReportsFullHistory) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_s = 0.0;
  int calls = 0;
  const auto result = run_with_retries(policy, 0, [&](const CancelToken&) {
    ++calls;
    raise("always failing");
  });
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(result.failures.size(), 3u);
  EXPECT_EQ(result.attempts(), 3);
}

TEST(AttemptTest, TerminalErrorStopsImmediately) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.initial_backoff_s = 0.0;
  int calls = 0;
  const auto result = run_with_retries(policy, 0, [&](const CancelToken&) {
    ++calls;
    raise("terminal: unsupported configuration");
  });
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(calls, 1);
  ASSERT_EQ(result.failures.size(), 1u);
  EXPECT_NE(result.failures[0].error.find("terminal:"), std::string::npos);
}

TEST(AttemptTest, AttemptDeadlineArmsTheToken) {
  RetryPolicy policy;
  policy.max_attempts = 2;
  policy.initial_backoff_s = 0.0;
  policy.attempt_deadline_s = 0.02;
  int calls = 0;
  const auto result =
      run_with_retries(policy, 0, [&](const CancelToken& token) {
        ++calls;
        // A cooperative provider parks on the token and notices expiry.
        token.sleep_for(10.0);
        token.check();
      });
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(calls, 2);  // the timeout is transient: it retried once
  for (const auto& record : result.failures)
    EXPECT_NE(record.error.find("timeout:"), std::string::npos);
}

TEST(AttemptTest, TotalDeadlineStopsTheLoop) {
  RetryPolicy policy;
  policy.max_attempts = 100;
  policy.initial_backoff_s = 0.05;
  policy.jitter = 0.0;
  policy.total_deadline_s = 0.15;
  std::atomic<int> calls{0};
  const auto start = std::chrono::steady_clock::now();
  const auto result = run_with_retries(policy, 0, [&](const CancelToken&) {
    ++calls;
    raise("transient");
  });
  const auto waited = std::chrono::steady_clock::now() - start;
  EXPECT_FALSE(result.ok);
  EXPECT_LT(calls.load(), 100);
  EXPECT_LT(waited, std::chrono::seconds(5));
}

TEST(AttemptTest, ParentCancelInterruptsBackoffAndLoop) {
  RetryPolicy policy;
  policy.max_attempts = 100;
  policy.initial_backoff_s = 5.0;  // the cancel must cut this short
  CancelToken parent;
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    parent.cancel();
  });
  const auto start = std::chrono::steady_clock::now();
  const auto result = run_with_retries(
      policy, 0, [&](const CancelToken&) { raise("transient"); }, &parent);
  const auto waited = std::chrono::steady_clock::now() - start;
  canceller.join();
  EXPECT_FALSE(result.ok);
  EXPECT_LT(waited, std::chrono::seconds(4));
  ASSERT_FALSE(result.failures.empty());
  EXPECT_NE(result.failures.back().error.find("canceled:"),
            std::string::npos);
}

TEST(AttemptTest, ParentCancelReachesTheRunningAttempt) {
  // The attempt is parked on its own token, not in a backoff: the cancel
  // must reach that token, not wait for the attempt to finish.
  RetryPolicy policy;
  policy.max_attempts = 3;
  CancelToken parent;
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    parent.cancel();
  });
  const auto start = std::chrono::steady_clock::now();
  const auto result = run_with_retries(
      policy, 0,
      [&](const CancelToken& token) {
        token.sleep_for(2.0);
        token.check();
      },
      &parent);
  const auto waited = std::chrono::steady_clock::now() - start;
  canceller.join();
  EXPECT_FALSE(result.ok);
  EXPECT_LT(waited, std::chrono::seconds(1));
  ASSERT_EQ(result.failures.size(), 1u);  // canceled: is terminal
  EXPECT_EQ(result.failures.back().error.rfind("canceled:", 0), 0u)
      << result.failures.back().error;
}

TEST(AttemptTest, StreamOfIsStable) {
  EXPECT_EQ(stream_of("abc"), stream_of("abc"));
  EXPECT_NE(stream_of("abc"), stream_of("abd"));
  // FNV-1a 64 of the empty string — pins the construction.
  EXPECT_EQ(stream_of(""), 1469598103934665603ULL);
}

}  // namespace
