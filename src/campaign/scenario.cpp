#include "campaign/scenario.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <string_view>

#include "campaign/platforms.h"
#include "common/error.h"
#include "common/file_io.h"
#include "common/parse.h"
#include "core/strategy.h"

namespace hmpt::campaign {

namespace {

constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ull;

/// FNV-1a 64-bit over `text`, continuing from `hash` (the offset basis
/// starts a fresh hash), so a long text can be hashed piece by piece.
std::uint64_t fnv1a(std::string_view text,
                    std::uint64_t hash = kFnvOffsetBasis) {
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

/// A 64-bit hash as the 16 hex digits every fingerprint is spelled in.
std::string hex_digest(std::uint64_t hash) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(hash));
  return buf;
}

/// A "recorded" workload is really the *contents* of its profile file, so
/// the content address must cover them: hashing only the path would let
/// --resume serve stale outcomes after the profile is re-recorded. A
/// missing/unreadable file gets a stable marker — such a scenario fails at
/// execute time anyway, it just must not crash planning. Fingerprints are
/// recomputed per use (dedup, store paths, every aggregate table), so the
/// digest is cached per path and re-read only when mtime/size change.
std::string profile_digest(const WorkloadParams& params) {
  const auto it = params.find("path");
  if (it == params.end()) return "no-path";
  const std::string& path = it->second;

  namespace fs = std::filesystem;
  std::error_code ec;
  const auto mtime = fs::last_write_time(path, ec);
  const auto size = ec ? 0 : fs::file_size(path, ec);
  if (ec) return "unreadable";

  struct Cached {
    fs::file_time_type mtime;
    std::uintmax_t size = 0;
    std::string digest;
  };
  static std::mutex mutex;
  static std::map<std::string, Cached> cache;
  {
    std::lock_guard<std::mutex> lock(mutex);
    const auto hit = cache.find(path);
    if (hit != cache.end() && hit->second.mtime == mtime &&
        hit->second.size == size)
      return hit->second.digest;
  }

  std::ifstream is(path, std::ios::binary);
  if (!is.good()) return "unreadable";
  std::stringstream buffer;
  buffer << is.rdbuf();
  const std::string digest = hex_digest(fnv1a(buffer.str()));
  std::lock_guard<std::mutex> lock(mutex);
  cache[path] = {mtime, size, digest};
  return digest;
}

/// Render a double compactly but losslessly for canonical()/labels.
std::string number_text(double value) {
  char buf[40];
  if (std::fabs(value) < 9e15 &&
      value == static_cast<double>(static_cast<long long>(value))) {
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(value));
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", value);
  }
  return buf;
}

// Checked full-consumption parsing (common/parse.h): partial values
// ("2x"), overflow ("1e999") and non-finite spellings ("inf", "nan") all
// produce one structured error — a bad campaign must never crash or
// silently misconfigure.
int directive_int(const std::string& text) {
  const auto v = parse_int_strict(text);
  if (!v) raise("not an integer: '" + text + "'");
  return *v;
}

double directive_double(const std::string& text) {
  const auto v = parse_double_strict(text);
  if (!v) raise("not a finite number: '" + text + "'");
  return *v;
}

/// The campaign grammar: each directive and what its value does to the
/// matrix. Repeatable axes append; reps and top-k overwrite.
using Directive = void (*)(ScenarioMatrix&, const std::string&);
const std::map<std::string, Directive>& directives() {
  static const std::map<std::string, Directive> table = {
      {"workload",
       [](ScenarioMatrix& m, const std::string& v) {
         m.workloads.push_back(parse_workload_spec(v));
       }},
      {"platform",
       [](ScenarioMatrix& m, const std::string& v) {
         m.platforms.push_back(v);
       }},
      {"strategy",
       [](ScenarioMatrix& m, const std::string& v) {
         m.strategies.push_back(v);
       }},
      {"tiers",
       [](ScenarioMatrix& m, const std::string& v) {
         m.tiers.push_back(directive_int(v));
       }},
      {"budget-gb",
       [](ScenarioMatrix& m, const std::string& v) {
         m.budgets_gb.push_back(directive_double(v));
       }},
      {"tier-budget-gb",
       [](ScenarioMatrix& m, const std::string& v) {
         const auto colon = v.find(':');
         if (colon == std::string::npos)
           raise("expects tier:gb (e.g. 2:64), got '" + v + "'");
         m.tier_budgets_gb.emplace_back(directive_int(v.substr(0, colon)),
                                        directive_double(v.substr(colon + 1)));
       }},
      {"reps",
       [](ScenarioMatrix& m, const std::string& v) {
         m.repetitions = directive_int(v);
       }},
      {"top-k",
       [](ScenarioMatrix& m, const std::string& v) {
         m.top_k = directive_int(v);
       }},
  };
  return table;
}

}  // namespace

// ---------------------------------------------------------------- Scenario

std::string Scenario::label() const {
  std::string out = workload.to_string() + "/" + platform + "/" + strategy;
  if (tiers != 0) out += "/tiers=" + std::to_string(tiers);
  if (budget_gb > 0.0) out += "/budget=" + number_text(budget_gb) + "GB";
  for (const auto& [tier, gb] : tier_budgets_gb)
    out += "/t" + std::to_string(tier) + "=" + number_text(gb) + "GB";
  return out;
}

std::string Scenario::canonical() const {
  std::string out = "v" + std::to_string(kFingerprintVersion);
  out += "|workload=" + workload.to_string();
  if (workload.name == "recorded")
    out += "|profile_digest=" + profile_digest(workload.params);
  out += "|platform=" + platform;
  out += "|strategy=" + strategy;
  out += "|tiers=" + std::to_string(tiers);
  out += "|budget_gb=" + number_text(budget_gb);
  auto budgets = tier_budgets_gb;
  std::sort(budgets.begin(), budgets.end());
  for (const auto& [tier, gb] : budgets)
    out += "|tier_budget_gb=" + std::to_string(tier) + ":" + number_text(gb);
  out += "|reps=" + std::to_string(repetitions);
  out += "|top_k=" + std::to_string(top_k);
  return out;
}

std::string Scenario::fingerprint() const {
  // FNV-1a 64-bit over the canonical text: stable across platforms and
  // builds (no std::hash, whose value is implementation-defined).
  return hex_digest(fnv1a(canonical()));
}

void Scenario::validate() const {
  if (tiers != 0 && tiers < 2)
    raise("tiers must be 0 (platform native) or >= 2");
  if (!(std::isfinite(budget_gb) && budget_gb >= 0.0))
    raise("budget-gb must be >= 0");
  for (const auto& [tier, gb] : tier_budgets_gb)
    if (tier < 1 || !(std::isfinite(gb) && gb >= 0.0))
      raise("tier-budget-gb needs tier >= 1 and budget >= 0");
  if (repetitions < 1) raise("reps must be >= 1");
  if (top_k < 1) raise("top-k must be >= 1");
}

Json Scenario::to_json() const {
  JsonObject o;
  o["workload"] = Json(workload.to_string());
  o["platform"] = Json(platform);
  o["strategy"] = Json(strategy);
  o["tiers"] = Json(tiers);
  o["budget_gb"] = Json(budget_gb);
  if (!tier_budgets_gb.empty()) {
    JsonArray budgets;
    for (const auto& [tier, gb] : tier_budgets_gb) {
      JsonObject b;
      b["tier"] = Json(tier);
      b["gb"] = Json(gb);
      budgets.push_back(Json(std::move(b)));
    }
    o["tier_budgets_gb"] = Json(std::move(budgets));
  }
  o["repetitions"] = Json(repetitions);
  o["top_k"] = Json(top_k);
  return Json(std::move(o));
}

Scenario Scenario::from_json(const Json& json) {
  Scenario s;
  s.workload = parse_workload_spec(json.at("workload").as_string());
  s.platform = json.at("platform").as_string();
  s.strategy = json.at("strategy").as_string();
  s.tiers = json.at("tiers").as_int();
  s.budget_gb = json.at("budget_gb").as_number();
  if (const Json* budgets = json.as_object().find("tier_budgets_gb")) {
    for (const Json& b : budgets->as_array())
      s.tier_budgets_gb.emplace_back(
          b.at("tier").as_int(),
          b.at("gb").as_number());
  }
  s.repetitions = json.at("repetitions").as_int();
  s.top_k = json.at("top_k").as_int();
  s.validate();
  return s;
}

// ------------------------------------------------------ campaign / shards

CampaignHasher::CampaignHasher()
    : hash_(fnv1a("campaign-v" + std::to_string(kFingerprintVersion))) {}

void CampaignHasher::add(std::string_view scenario_fingerprint) {
  hash_ = fnv1a(scenario_fingerprint, fnv1a("|", hash_));
}

std::string CampaignHasher::digest() const { return hex_digest(hash_); }

std::string campaign_fingerprint(const std::vector<Scenario>& scenarios) {
  CampaignHasher hasher;
  for (const auto& s : scenarios) hasher.add(s.fingerprint());
  return hasher.digest();
}

std::string ShardSpec::to_string() const {
  return std::to_string(index) + "/" + std::to_string(count);
}

ShardSpec parse_shard_spec(const std::string& text) {
  const auto slash = text.find('/');
  HMPT_REQUIRE(slash != std::string::npos,
               "shard spec must be i/N (e.g. 2/3), got '" + text + "'");
  // Checked full-consumption parsing (common/parse.h): a malformed spec
  // produces one structured error, never an uncaught std::stoi throw.
  const auto as_int = [&](const std::string& part) {
    const auto v = parse_int_strict(part);
    if (!v)
      raise("shard spec must be i/N (e.g. 2/3), got '" + text + "'");
    return *v;
  };
  ShardSpec shard;
  shard.index = as_int(text.substr(0, slash));
  shard.count = as_int(text.substr(slash + 1));
  HMPT_REQUIRE(shard.count >= 1 && shard.index >= 1 &&
                   shard.index <= shard.count,
               "shard spec needs 1 <= i <= N, got '" + text + "'");
  return shard;
}

void save_scenario_plan(const std::string& path,
                        const std::vector<Scenario>& scenarios) {
  JsonObject o;
  o["format_version"] = Json(kFingerprintVersion);
  JsonArray list;
  for (const auto& s : scenarios) list.push_back(s.to_json());
  o["scenarios"] = Json(std::move(list));
  const std::string bytes = Json(std::move(o)).dump();
  publish_file(path, [&](std::ostream& os) { os << bytes; });
}

std::vector<Scenario> load_scenario_plan(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is.good()) raise("cannot read scenario plan " + path);
  std::stringstream buffer;
  buffer << is.rdbuf();
  try {
    const Json doc = Json::parse(buffer.str());
    HMPT_REQUIRE(doc.at("format_version").as_int() ==
                     kFingerprintVersion,
                 "plan format version mismatch");
    std::vector<Scenario> scenarios;
    for (const Json& s : doc.at("scenarios").as_array())
      scenarios.push_back(Scenario::from_json(s));
    return scenarios;
  } catch (const std::exception& e) {
    raise("corrupt scenario plan " + path + ": " + e.what());
  }
}

std::vector<Scenario> shard_scenarios(const std::vector<Scenario>& scenarios,
                                      const ShardSpec& shard) {
  HMPT_REQUIRE(shard.count >= 1 && shard.index >= 1 &&
                   shard.index <= shard.count,
               "shard needs 1 <= index <= count");
  // Order by fingerprint — a content address, so every process computes
  // the same order whatever the declaration spelled — then deal ranks
  // round-robin: rank r goes to shard (r mod count) + 1.
  std::vector<std::size_t> order(scenarios.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::vector<std::string> fingerprints(scenarios.size());
  for (std::size_t i = 0; i < scenarios.size(); ++i)
    fingerprints[i] = scenarios[i].fingerprint();
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) {
              return fingerprints[a] < fingerprints[b];
            });

  std::vector<Scenario> out;
  for (std::size_t rank = static_cast<std::size_t>(shard.index - 1);
       rank < order.size(); rank += static_cast<std::size_t>(shard.count))
    out.push_back(scenarios[order[rank]]);
  return out;
}

// ---------------------------------------------------------- ScenarioMatrix

std::vector<Scenario> ScenarioMatrix::expand() const {
  HMPT_REQUIRE(!workloads.empty(), "campaign declares no workloads");

  // Empty axes take their defaults, so every front end (CLI flags,
  // campaign files, daemon submissions) shares one notion of "unset".
  const std::vector<std::string> platform_axis =
      platforms.empty() ? std::vector<std::string>{"xeon-max"} : platforms;
  const std::vector<std::string> strategy_axis =
      strategies.empty() ? std::vector<std::string>{"exhaustive"}
                         : strategies;
  const std::vector<int> tier_axis = tiers.empty() ? std::vector<int>{0}
                                                   : tiers;
  const std::vector<double> budget_axis =
      budgets_gb.empty() ? std::vector<double>{0.0} : budgets_gb;

  const auto& registry = WorkloadRegistry::instance();
  for (const auto& spec : workloads) {
    if (!registry.contains(spec.name)) {
      std::string known;
      for (const auto& n : registry.names())
        known += (known.empty() ? "" : ", ") + n;
      raise("unknown workload: '" + spec.name + "' (known: " + known + ")");
    }
  }
  for (const auto& strategy : strategy_axis) {
    if (!tuner::StrategyRegistry::instance().contains(strategy))
      raise("unknown strategy: '" + strategy + "'");
  }
  auto sorted_tier_budgets = tier_budgets_gb;
  std::sort(sorted_tier_budgets.begin(), sorted_tier_budgets.end());

  std::vector<Scenario> out;
  std::set<std::string> seen;
  for (const auto& spec : workloads) {
    for (const auto& platform : platform_axis) {
      const std::string canonical = canonical_platform(platform);
      for (const auto& strategy : strategy_axis) {
        for (const int tier_count : tier_axis) {
          for (const double budget : budget_axis) {
            Scenario s;
            s.workload = spec;
            s.platform = canonical;
            s.strategy = strategy;
            s.tiers = tier_count;
            s.budget_gb = budget;
            s.tier_budgets_gb = sorted_tier_budgets;
            s.repetitions = repetitions;
            s.top_k = top_k;
            s.validate();
            if (seen.insert(s.fingerprint()).second)
              out.push_back(std::move(s));
          }
        }
      }
    }
  }
  return out;
}

void ScenarioMatrix::apply(const std::string& directive,
                           const std::string& value) {
  const auto it = directives().find(directive);
  if (it == directives().end())
    raise("unknown directive '" + directive + "'");
  try {
    it->second(*this, value);
  } catch (const std::exception& e) {
    raise(directive + ": " + e.what());
  }
}

bool ScenarioMatrix::is_directive(const std::string& name) {
  return directives().count(name) != 0;
}

ScenarioMatrix ScenarioMatrix::parse(std::istream& is) {
  ScenarioMatrix matrix;
  std::string line;
  int line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    // '#' starts a comment only at line start or after whitespace, so
    // values that contain one (e.g. recorded:path=/data/run#3.profile)
    // survive.
    for (std::size_t i = 0; i < line.size(); ++i) {
      if (line[i] != '#') continue;
      if (i == 0 || line[i - 1] == ' ' || line[i - 1] == '\t') {
        line = line.substr(0, i);
        break;
      }
    }
    std::istringstream tokens(line);
    std::string directive;
    if (!(tokens >> directive)) continue;  // blank/comment line

    std::string value;
    if (!(tokens >> value))
      raise("campaign file line " + std::to_string(line_no) + ": '" +
            directive + "' needs a value");
    std::string extra;
    if (tokens >> extra)
      raise("campaign file line " + std::to_string(line_no) +
            ": trailing text after '" + value + "'");

    try {
      matrix.apply(directive, value);
    } catch (const std::exception& e) {
      raise("campaign file line " + std::to_string(line_no) + ": " +
            e.what());
    }
  }
  return matrix;
}

ScenarioMatrix ScenarioMatrix::parse(const std::string& text) {
  std::istringstream is(text);
  return parse(is);
}

ScenarioMatrix ScenarioMatrix::load(const std::string& path) {
  std::ifstream is(path);
  if (!is.good()) raise("cannot read campaign file: " + path);
  return parse(is);
}

}  // namespace hmpt::campaign
