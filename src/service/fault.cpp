#include "service/fault.h"

#include <cstdlib>
#include <sstream>
#include <utility>

#include "common/error.h"
#include "common/retry.h"
#include "common/rng.h"

namespace hmpt::service {

namespace {

double parse_probability(const std::string& token,
                         const std::string& text) {
  double value = 0.0;
  try {
    std::size_t used = 0;
    value = std::stod(text, &used);
    HMPT_REQUIRE(used == text.size(), "trailing characters");
  } catch (const std::exception&) {
    raise("fault spec: bad probability in '" + token + "'");
  }
  HMPT_REQUIRE(value >= 0.0 && value <= 1.0,
               "fault spec: probability must be in [0, 1] in '" + token +
                   "'");
  return value;
}

/// Split "P:N" (the N part optional, defaulting to `fallback`).
std::pair<std::string, std::string> split_colon(const std::string& text,
                                                const std::string& fallback) {
  const auto colon = text.find(':');
  if (colon == std::string::npos) return {text, fallback};
  return {text.substr(0, colon), text.substr(colon + 1)};
}

}  // namespace

bool FaultSpec::any() const {
  return fail_p > 0.0 || timeout_p > 0.0 || slow_p > 0.0 ||
         corrupt_p > 0.0 || crash_after >= 0;
}

FaultSpec FaultSpec::parse(const std::string& text) {
  FaultSpec spec;
  std::istringstream stream(text);
  std::string token;
  while (std::getline(stream, token, ',')) {
    if (token.empty()) continue;
    const auto eq = token.find('=');
    if (eq == std::string::npos)
      raise("fault spec: expected key=value, got '" + token + "'");
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    try {
      if (key == "seed") {
        spec.seed = std::stoull(value);
      } else if (key == "fail") {
        const auto [p, n] = split_colon(value, "1");
        spec.fail_p = parse_probability(token, p);
        spec.fail_attempts = std::stoi(n);
        HMPT_REQUIRE(spec.fail_attempts >= 1,
                     "fault spec: fail attempt count must be >= 1");
      } else if (key == "timeout") {
        const auto [p, n] = split_colon(value, "1");
        spec.timeout_p = parse_probability(token, p);
        spec.timeout_attempts = std::stoi(n);
        HMPT_REQUIRE(spec.timeout_attempts >= 1,
                     "fault spec: timeout attempt count must be >= 1");
      } else if (key == "slow") {
        const auto [p, s] = split_colon(value, "0.05");
        spec.slow_p = parse_probability(token, p);
        spec.slow_s = std::stod(s);
        HMPT_REQUIRE(spec.slow_s > 0.0,
                     "fault spec: slow seconds must be > 0");
      } else if (key == "corrupt") {
        spec.corrupt_p = parse_probability(token, value);
      } else if (key == "crash-after") {
        spec.crash_after = std::stol(value);
        HMPT_REQUIRE(spec.crash_after >= 0,
                     "fault spec: crash-after must be >= 0");
      } else {
        raise("fault spec: unknown key '" + key + "'");
      }
    } catch (const Error&) {
      throw;
    } catch (const std::exception&) {
      raise("fault spec: bad value in '" + token + "'");
    }
  }
  return spec;
}

std::string FaultSpec::canonical() const {
  std::ostringstream os;
  os << "seed=" << seed;
  if (fail_p > 0.0) os << ",fail=" << fail_p << ":" << fail_attempts;
  if (timeout_p > 0.0)
    os << ",timeout=" << timeout_p << ":" << timeout_attempts;
  if (slow_p > 0.0) os << ",slow=" << slow_p << ":" << slow_s;
  if (corrupt_p > 0.0) os << ",corrupt=" << corrupt_p;
  if (crash_after >= 0) os << ",crash-after=" << crash_after;
  return os.str();
}

FaultInjectingProvider::FaultInjectingProvider(ExecutionProvider& inner,
                                               FaultSpec spec)
    : inner_(inner), spec_(std::move(spec)) {}

bool FaultInjectingProvider::afflicts(const std::string& fingerprint,
                                      Kind kind) const {
  double probability = 0.0;
  switch (kind) {
    case Kind::Fail: probability = spec_.fail_p; break;
    case Kind::Timeout: probability = spec_.timeout_p; break;
    case Kind::Slow: probability = spec_.slow_p; break;
    case Kind::Corrupt: probability = spec_.corrupt_p; break;
  }
  if (probability <= 0.0) return false;
  // One uniform draw per (seed, fingerprint, kind): the affliction is a
  // stable property of the fingerprint under this spec, not of the
  // attempt — retries are what recover from it.
  Rng rng(mix_seed(spec_.seed, stream_of(fingerprint),
                   static_cast<std::uint64_t>(kind) + 1));
  return rng.next_double() < probability;
}

tuner::TuningOutcome FaultInjectingProvider::run(
    const campaign::Scenario& scenario, const CancelToken& token) {
  const std::string fingerprint = scenario.fingerprint();
  int attempt = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    attempt = ++attempts_[fingerprint];
  }
  if (spec_.crash_after >= 0 &&
      executions_.fetch_add(1, std::memory_order_relaxed) >=
          spec_.crash_after) {
    // The crash fault is a real crash: no unwinding, no destructors —
    // exactly what kill -9 recovery (journal + store) must absorb.
    std::abort();
  }

  if (afflicts(fingerprint, Kind::Timeout) &&
      attempt <= spec_.timeout_attempts) {
    // Hang cooperatively: park on the token until the attempt deadline
    // or a cancel, then report it. A job with no deadline hangs until
    // scheduler teardown — that is the point of the fault.
    while (token.sleep_for(3600.0)) {
    }
    token.check();  // throws the "timeout:"/"canceled:" error
    raise("timeout: injected hang interrupted");  // unreachable guard
  }
  if (afflicts(fingerprint, Kind::Fail) && attempt <= spec_.fail_attempts)
    raise("injected transient fault (attempt " + std::to_string(attempt) +
          " of " + fingerprint + ")");
  if (afflicts(fingerprint, Kind::Slow)) {
    if (!token.sleep_for(spec_.slow_s)) token.check();
  }

  auto outcome = inner_.run(scenario, token);
  if (afflicts(fingerprint, Kind::Corrupt)) {
    // A deterministic perturbation: byte-different from the honest
    // outcome, so a clean run of the same fingerprint trips the store's
    // conflicting-outcome detection.
    outcome.chosen_time += 1.0;
  }
  return outcome;
}

}  // namespace hmpt::service
