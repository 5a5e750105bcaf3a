#include "common/retry.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/rng.h"

namespace hmpt {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

void RetryPolicy::validate() const {
  HMPT_REQUIRE(max_attempts >= 1, "retry policy needs >= 1 attempt");
  HMPT_REQUIRE(initial_backoff_s >= 0.0 && max_backoff_s >= 0.0 &&
                   attempt_deadline_s >= 0.0 && total_deadline_s >= 0.0,
               "retry policy times must be >= 0");
  HMPT_REQUIRE(backoff_multiplier >= 1.0,
               "backoff multiplier must be >= 1");
  HMPT_REQUIRE(jitter >= 0.0 && jitter < 1.0, "jitter must be in [0, 1)");
}

double RetryPolicy::backoff_s(int attempt, std::uint64_t stream) const {
  if (attempt < 1 || initial_backoff_s <= 0.0) return 0.0;
  double base = initial_backoff_s *
                std::pow(backoff_multiplier, static_cast<double>(attempt - 1));
  base = std::min(base, max_backoff_s);
  if (jitter > 0.0) {
    // One uniform draw, a pure function of (seed, stream, attempt):
    // factor in [1 - jitter, 1 + jitter).
    Rng rng(mix_seed(seed, stream, static_cast<std::uint64_t>(attempt)));
    base *= 1.0 + jitter * (2.0 * rng.next_double() - 1.0);
  }
  return std::min(base, max_backoff_s);
}

std::string format_attempts(const std::vector<AttemptRecord>& attempts) {
  std::ostringstream os;
  for (std::size_t i = 0; i < attempts.size(); ++i) {
    if (i > 0) os << "; ";
    os << "attempt " << attempts[i].attempt << ": " << attempts[i].error;
    os << " (" << std::fixed;
    os.precision(2);
    os << attempts[i].seconds << "s)";
  }
  return os.str();
}

bool is_terminal_error(const std::string& what) {
  return what.find("terminal:") != std::string::npos ||
         what.find("canceled:") != std::string::npos ||
         what.find("conflicting outcome") != std::string::npos;
}

// ------------------------------------------------------------ CancelToken

struct CancelToken::State {
  mutable std::mutex mutex;
  mutable std::condition_variable cv;
  bool canceled = false;
  bool has_deadline = false;
  Clock::time_point deadline{};
  /// Tokens derived by child(); a cancel reaches the ones still alive.
  std::vector<std::weak_ptr<State>> children;
};

CancelToken::CancelToken() : state_(std::make_shared<State>()) {}

CancelToken::CancelToken(std::shared_ptr<State> state)
    : state_(std::move(state)) {}

void CancelToken::set_deadline_after(double seconds) {
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  std::lock_guard<std::mutex> lock(state_->mutex);
  if (!state_->has_deadline || deadline < state_->deadline) {
    state_->has_deadline = true;
    state_->deadline = deadline;
  }
  state_->cv.notify_all();
}

void CancelToken::cancel() {
  std::vector<std::weak_ptr<State>> children;
  {
    std::lock_guard<std::mutex> lock(state_->mutex);
    state_->canceled = true;
    children.swap(state_->children);
  }
  state_->cv.notify_all();
  // Outside our lock, so locks never nest.
  for (const auto& weak : children)
    if (auto child = weak.lock()) CancelToken(std::move(child)).cancel();
}

CancelToken CancelToken::child() const {
  CancelToken child;
  std::lock_guard<std::mutex> lock(state_->mutex);
  if (state_->canceled) {
    child.state_->canceled = true;  // not yet shared: no lock needed
  } else {
    // Drop retired children: a long-lived parent holds only live ones.
    std::erase_if(state_->children,
                  [](const std::weak_ptr<State>& weak) {
                    return weak.expired();
                  });
    state_->children.push_back(child.state_);
  }
  return child;
}

bool CancelToken::canceled() const {
  std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->canceled;
}

bool CancelToken::expired() const {
  std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->has_deadline && Clock::now() >= state_->deadline;
}

double CancelToken::remaining_s() const {
  std::lock_guard<std::mutex> lock(state_->mutex);
  if (!state_->has_deadline)
    return std::numeric_limits<double>::infinity();
  return std::chrono::duration<double>(state_->deadline - Clock::now())
      .count();
}

void CancelToken::check() const {
  std::lock_guard<std::mutex> lock(state_->mutex);
  if (state_->canceled) raise("canceled: the job was canceled");
  if (state_->has_deadline && Clock::now() >= state_->deadline)
    raise("timeout: the attempt deadline expired");
}

bool CancelToken::sleep_for(double seconds) const {
  const auto until =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  std::unique_lock<std::mutex> lock(state_->mutex);
  for (;;) {
    if (state_->canceled) return false;
    if (state_->has_deadline && Clock::now() >= state_->deadline)
      return false;
    const auto now = Clock::now();
    if (now >= until) return true;
    // Wake at the earliest of: requested sleep end, the deadline (so an
    // armed deadline interrupts the sleep), or a cancel notification.
    auto wake = until;
    if (state_->has_deadline && state_->deadline < wake)
      wake = state_->deadline;
    state_->cv.wait_until(lock, wake);
  }
}

// ------------------------------------------------------------ retry loop

RetryResult run_with_retries(
    const RetryPolicy& policy, std::uint64_t stream,
    const std::function<void(const CancelToken&)>& body,
    const CancelToken* parent) {
  policy.validate();
  RetryResult result;
  const auto start = Clock::now();
  const auto remaining_total = [&]() -> double {
    if (policy.total_deadline_s <= 0.0)
      return std::numeric_limits<double>::infinity();
    return policy.total_deadline_s - seconds_since(start);
  };

  for (int attempt = 1; attempt <= policy.max_attempts; ++attempt) {
    if (parent != nullptr && parent->canceled()) {
      result.failures.push_back(
          {attempt, "canceled: the job was canceled", 0.0});
      return result;
    }
    const double budget = remaining_total();
    if (budget <= 0.0) {
      result.failures.push_back(
          {attempt, "timeout: total retry budget exhausted", 0.0});
      return result;
    }

    // A child of the parent, so a cancel reaches the attempt in flight.
    CancelToken token = parent != nullptr ? parent->child() : CancelToken();
    if (policy.attempt_deadline_s > 0.0)
      token.set_deadline_after(policy.attempt_deadline_s);
    if (std::isfinite(budget)) token.set_deadline_after(budget);

    const auto attempt_start = Clock::now();
    try {
      body(token);
      result.ok = true;
      return result;
    } catch (const std::exception& e) {
      result.failures.push_back(
          {attempt, e.what(), seconds_since(attempt_start)});
      if (is_terminal_error(e.what())) return result;
    } catch (...) {
      result.failures.push_back(
          {attempt, "unknown error", seconds_since(attempt_start)});
    }

    if (attempt == policy.max_attempts) return result;
    const double pause =
        std::min(policy.backoff_s(attempt, stream), remaining_total());
    if (pause > 0.0) {
      // Sleep on the parent when there is one so a stop/cancel wakes the
      // backoff immediately; a plain token never wakes early.
      const CancelToken idle;
      const CancelToken& sleeper = parent != nullptr ? *parent : idle;
      if (!sleeper.sleep_for(pause)) {
        result.failures.push_back(
            {attempt + 1, "canceled: the job was canceled", 0.0});
        return result;
      }
    }
  }
  return result;
}

std::uint64_t stream_of(const std::string& text) {
  // FNV-1a 64-bit, the same construction the scenario fingerprint uses.
  std::uint64_t hash = 1469598103934665603ULL;
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
  return hash;
}

}  // namespace hmpt
