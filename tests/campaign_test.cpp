// Tests for the campaign engine: workload registry, scenario matrix +
// fingerprints, outcome JSON round trips, the on-disk outcome store in
// both layouts (one-file-per-outcome dir and packed append-only log,
// including torn-tail crash recovery), the resumable CampaignRunner and
// the static HTML report.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <atomic>
#include <climits>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <optional>
#include <regex>
#include <set>
#include <sstream>
#include <thread>
#include <utility>

#include "campaign/aggregate.h"
#include "campaign/campaign.h"
#include "campaign/merge.h"
#include "campaign/platforms.h"
#include "core/outcome_io.h"
#include "core/session.h"
#include "common/file_io.h"
#include "common/retry.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "report/report.h"
#include "service/provider.h"
#include "service/scheduler.h"
#include "simmem/config.h"
#include "simmem/simulator.h"
#include "topo/machine.h"
#include "workloads/app_models.h"
#include "workloads/trace_io.h"

namespace hmpt::campaign {
namespace {

namespace fs = std::filesystem;

/// Outcomes compare equal iff their (lossless) serialisations agree.
std::string json_of(const tuner::TuningOutcome& outcome) {
  return tuner::outcome_to_json(outcome).dump(-1);
}

/// The bytes an artefact writer streams for `result`.
std::string text_of(void (*writer)(std::ostream&, const CampaignResult&),
                    const CampaignResult& result) {
  std::ostringstream os;
  writer(os, result);
  return os.str();
}

/// The report document for `result`, as write_report() writes it.
std::string html_of(const CampaignResult& result) {
  std::ostringstream os;
  report::write_report_html(os, result);
  return os.str();
}

/// A fresh store directory per test, removed on scope exit.
class StoreDir {
 public:
  explicit StoreDir(const std::string& name)
      : path_((fs::temp_directory_path() / name).string()) {
    fs::remove_all(path_);
  }
  ~StoreDir() { fs::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// ---------------------------------------------------------- workload specs

TEST(WorkloadSpecTest, ParsesAndCanonicalises) {
  const auto bare = parse_workload_spec("mg");
  EXPECT_EQ(bare.name, "mg");
  EXPECT_TRUE(bare.params.empty());
  EXPECT_EQ(bare.to_string(), "mg");

  // Parameter order does not matter: to_string() sorts keys, so both
  // spellings fingerprint (and dedup) identically.
  const auto a = parse_workload_spec("stream:iterations=4,array_gb=2");
  const auto b = parse_workload_spec("stream:array_gb=2,iterations=4");
  EXPECT_EQ(a.to_string(), "stream:array_gb=2,iterations=4");
  EXPECT_EQ(a.to_string(), b.to_string());
}

TEST(WorkloadSpecTest, RejectsMalformedSpecs) {
  EXPECT_THROW(parse_workload_spec(""), Error);
  EXPECT_THROW(parse_workload_spec(":a=1"), Error);
  EXPECT_THROW(parse_workload_spec("stream:array_gb"), Error);
  EXPECT_THROW(parse_workload_spec("stream:=2"), Error);
  EXPECT_THROW(parse_workload_spec("stream:a=1,a=2"), Error);
}

// -------------------------------------------------------------- registry

TEST(WorkloadRegistryTest, KnowsTheBuiltIns) {
  const auto names = WorkloadRegistry::instance().names();
  for (const char* expected :
       {"mg", "bt", "lu", "sp", "ua", "is", "kwave", "stream",
        "pointer-chase", "random-sum", "recorded"})
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
}

TEST(WorkloadRegistryTest, ConstructsParameterisedWorkloads) {
  auto sim = sim::MachineSimulator::paper_platform();
  const auto stream = WorkloadRegistry::instance().create(
      "stream", sim, {{"array_gb", "2"}, {"iterations", "4"}});
  ASSERT_NE(stream.workload, nullptr);
  EXPECT_EQ(stream.workload->num_groups(), 3);
  EXPECT_DOUBLE_EQ(stream.workload->total_bytes(), 3 * 2.0 * GB);

  // Paper app models carry their calibrated execution context.
  const auto mg = WorkloadRegistry::instance().create("mg", sim);
  EXPECT_TRUE(mg.context.has_value());
  EXPECT_EQ(mg.workload->name(), "NPB: Multi-Grid");
}

TEST(WorkloadRegistryTest, RejectsUnknownNamesAndParameters) {
  auto sim = sim::MachineSimulator::paper_platform();
  auto& registry = WorkloadRegistry::instance();
  EXPECT_THROW(registry.create("frobnicate", sim), Error);
  EXPECT_THROW(registry.create("stream", sim, {{"arraygb", "2"}}), Error);
  EXPECT_THROW(registry.create("stream", sim, {{"array_gb", "abc"}}), Error);
  EXPECT_THROW(registry.create("mg", sim, {{"scale", "-1"}}), Error);
  EXPECT_THROW(registry.create("recorded", sim), Error);  // needs path
}

TEST(WorkloadRegistryTest, RecordedWorkloadReplaysAProfileByName) {
  auto sim = sim::MachineSimulator::paper_platform();
  const auto app = workloads::make_mg_model(sim);
  const std::string path =
      (fs::temp_directory_path() / "hmpt_registry_replay.profile").string();
  workloads::save_workload(path, *app.workload);

  const auto replayed = WorkloadRegistry::instance().create(
      "recorded", sim, {{"path", path}});
  ASSERT_NE(replayed.workload, nullptr);
  // The replay is lossless: re-serialising the replayed workload
  // reproduces the profile text byte-for-byte.
  EXPECT_EQ(workloads::serialize_workload(*replayed.workload),
            workloads::serialize_workload(*app.workload));

  // And tuning the replayed workload gives the same outcome as tuning
  // the profile parsed in-process (same groups, same trace, same noise
  // streams; profile names are sanitised, so compare recorded to
  // recorded, not to the pre-sanitisation model).
  const auto tune = [&](const workloads::Workload& w) {
    auto simulator = sim::MachineSimulator::paper_platform();
    return tuner::Session::on(simulator)
        .workload(w)
        .strategy("estimator")
        .run();
  };
  const auto parsed = workloads::parse_workload(
      workloads::serialize_workload(*app.workload));
  EXPECT_EQ(json_of(tune(*replayed.workload)), json_of(tune(parsed)));
  std::remove(path.c_str());
}

// ------------------------------------------------------------- platforms

TEST(PlatformTest, CanonicalisesAliases) {
  EXPECT_EQ(canonical_platform("spr"), "xeon-max");
  EXPECT_EQ(canonical_platform("xeon-max"), "xeon-max");
  EXPECT_EQ(canonical_platform("spr1"), "xeon-max-1s");
  EXPECT_TRUE(is_platform("spr-cxl"));
  EXPECT_FALSE(is_platform("frobnicate"));
  EXPECT_THROW(canonical_platform("frobnicate"), Error);
  EXPECT_EQ(make_platform("spr-cxl").machine().num_memory_tiers(), 3);
}

// ----------------------------------------------------------- fingerprints

TEST(ScenarioTest, FingerprintIsStableAndContentAddressed) {
  Scenario s;
  s.workload = parse_workload_spec("mg");
  s.platform = "xeon-max";
  s.strategy = "exhaustive";

  const std::string base = s.fingerprint();
  EXPECT_EQ(base.size(), 16u);
  EXPECT_EQ(base, s.fingerprint());  // deterministic

  // Every semantic field invalidates the fingerprint...
  for (const auto& mutate : std::vector<std::function<void(Scenario&)>>{
           [](Scenario& x) { x.workload = parse_workload_spec("mg:scale=2"); },
           [](Scenario& x) { x.platform = "spr-cxl"; },
           [](Scenario& x) { x.strategy = "online"; },
           [](Scenario& x) { x.tiers = 2; },
           [](Scenario& x) { x.budget_gb = 16.0; },
           [](Scenario& x) { x.tier_budgets_gb = {{1, 32.0}}; },
           [](Scenario& x) { x.repetitions = 5; },
           [](Scenario& x) { x.top_k = 7; }}) {
    Scenario changed = s;
    mutate(changed);
    EXPECT_NE(changed.fingerprint(), base) << changed.canonical();
  }

  // ...and tier-budget declaration order does not (canonical() sorts).
  Scenario two_budgets = s;
  two_budgets.tier_budgets_gb = {{2, 64.0}, {1, 32.0}};
  Scenario sorted = s;
  sorted.tier_budgets_gb = {{1, 32.0}, {2, 64.0}};
  EXPECT_EQ(two_budgets.fingerprint(), sorted.fingerprint());
}

TEST(ScenarioTest, RecordedProfileContentsAreFingerprinted) {
  // A recorded workload is the *contents* of its profile: re-recording
  // the file must invalidate the cached scenario even though the path
  // (and so the spec text) is unchanged.
  const std::string path =
      (fs::temp_directory_path() / "hmpt_fp_profile.profile").string();
  Scenario s;
  s.workload = parse_workload_spec("recorded:path=" + path);
  s.platform = "xeon-max";
  s.strategy = "estimator";

  auto sim = sim::MachineSimulator::paper_platform();
  workloads::save_workload(path, *workloads::make_mg_model(sim).workload);
  const std::string fp_mg = s.fingerprint();
  EXPECT_EQ(fp_mg, s.fingerprint());  // stable while the file is stable

  workloads::save_workload(path, *workloads::make_bt_model(sim).workload);
  EXPECT_NE(s.fingerprint(), fp_mg);  // contents changed -> cache miss

  std::remove(path.c_str());
  const std::string fp_missing = s.fingerprint();  // planning never throws
  EXPECT_NE(fp_missing, fp_mg);
  EXPECT_EQ(fp_missing, s.fingerprint());
}

TEST(ScenarioTest, JsonRoundTrips) {
  Scenario s;
  s.workload = parse_workload_spec("stream:array_gb=2");
  s.platform = "spr-cxl";
  s.strategy = "estimator";
  s.tiers = 3;
  s.budget_gb = 16.0;
  s.tier_budgets_gb = {{2, 64.0}};
  s.repetitions = 2;
  s.top_k = 5;
  const Scenario back = Scenario::from_json(s.to_json());
  EXPECT_EQ(back.canonical(), s.canonical());
  EXPECT_EQ(back.fingerprint(), s.fingerprint());
}

// ----------------------------------------------------------------- matrix

TEST(ScenarioMatrixTest, ExpandsTheCrossProductAndDedups) {
  ScenarioMatrix matrix;
  matrix.workloads = {parse_workload_spec("mg"),
                      parse_workload_spec("kwave")};
  // "spr" is an alias of "xeon-max": the duplicate platform must fold.
  matrix.platforms = {"xeon-max", "spr", "spr-cxl"};
  matrix.strategies = {"exhaustive", "online"};
  const auto scenarios = matrix.expand();
  EXPECT_EQ(scenarios.size(), 2u * 2u * 2u);
  for (const auto& s : scenarios)
    EXPECT_TRUE(s.platform == "xeon-max" || s.platform == "spr-cxl");

  // Unset platform/strategy axes default to xeon-max/exhaustive, with the
  // same fingerprints as spelling the defaults out.
  ScenarioMatrix unset;
  unset.workloads = matrix.workloads;
  ScenarioMatrix spelled = unset;
  spelled.platforms = {"xeon-max"};
  spelled.strategies = {"exhaustive"};
  const auto defaulted = unset.expand();
  const auto explicit_axes = spelled.expand();
  ASSERT_EQ(defaulted.size(), 2u);
  ASSERT_EQ(explicit_axes.size(), defaulted.size());
  for (std::size_t i = 0; i < defaulted.size(); ++i)
    EXPECT_EQ(defaulted[i].fingerprint(), explicit_axes[i].fingerprint());
}

TEST(ScenarioMatrixTest, ValidatesEveryAxis) {
  ScenarioMatrix matrix;
  matrix.workloads = {parse_workload_spec("mg")};
  matrix.platforms = {"xeon-max"};
  matrix.strategies = {"exhaustive"};
  EXPECT_EQ(matrix.expand().size(), 1u);  // the valid baseline

  auto broken = matrix;
  broken.workloads = {parse_workload_spec("frobnicate")};
  EXPECT_THROW(broken.expand(), Error);
  broken = matrix;
  broken.platforms = {"frobnicate"};
  EXPECT_THROW(broken.expand(), Error);
  broken = matrix;
  broken.strategies = {"frobnicate"};
  EXPECT_THROW(broken.expand(), Error);
  broken = matrix;
  broken.tiers = {1};
  EXPECT_THROW(broken.expand(), Error);
  broken = matrix;
  broken.budgets_gb = {-1.0};
  EXPECT_THROW(broken.expand(), Error);
  broken = matrix;
  broken.repetitions = 0;
  EXPECT_THROW(broken.expand(), Error);
  broken = matrix;
  broken.workloads.clear();
  EXPECT_THROW(broken.expand(), Error);
}

TEST(ScenarioMatrixTest, ParsesTheCampaignFileFormat) {
  const auto matrix = ScenarioMatrix::parse(
      "# nightly sweep\n"
      "workload mg\n"
      "workload stream:array_gb=2,iterations=4   # small STREAM\n"
      "platform xeon-max\n"
      "platform spr-cxl\n"
      "strategy exhaustive\n"
      "strategy estimator\n"
      "\n"
      "tiers 0\n"
      "budget-gb 0\n"
      "budget-gb 16\n"
      "tier-budget-gb 2:64\n"
      "reps 2\n"
      "top-k 4\n");
  EXPECT_EQ(matrix.workloads.size(), 2u);
  EXPECT_EQ(matrix.platforms.size(), 2u);
  EXPECT_EQ(matrix.strategies.size(), 2u);
  EXPECT_EQ(matrix.budgets_gb.size(), 2u);
  ASSERT_EQ(matrix.tier_budgets_gb.size(), 1u);
  EXPECT_EQ(matrix.tier_budgets_gb[0].first, 2);
  EXPECT_EQ(matrix.repetitions, 2);
  EXPECT_EQ(matrix.top_k, 4);
  EXPECT_EQ(matrix.expand().size(), 2u * 2u * 2u * 2u);

  // '#' only comments at line start or after whitespace: a '#' inside a
  // value (e.g. a profile path) is data.
  const auto hashed = ScenarioMatrix::parse(
      "workload recorded:path=/data/run#3.profile  # re-recorded\n");
  ASSERT_EQ(hashed.workloads.size(), 1u);
  EXPECT_EQ(hashed.workloads[0].params.at("path"), "/data/run#3.profile");

  // parse() is apply() per line: the same directives applied one by one
  // build the same matrix.
  ScenarioMatrix applied;
  for (const auto& [directive, value] :
       std::vector<std::pair<std::string, std::string>>{
           {"workload", "mg"},
           {"workload", "stream:array_gb=2,iterations=4"},
           {"platform", "xeon-max"},
           {"platform", "spr-cxl"},
           {"strategy", "exhaustive"},
           {"strategy", "estimator"},
           {"tiers", "0"},
           {"budget-gb", "0"},
           {"budget-gb", "16"},
           {"tier-budget-gb", "2:64"},
           {"reps", "2"},
           {"top-k", "4"}}) {
    EXPECT_TRUE(ScenarioMatrix::is_directive(directive));
    applied.apply(directive, value);
  }
  EXPECT_EQ(campaign_fingerprint(applied.expand()),
            campaign_fingerprint(matrix.expand()));
  EXPECT_FALSE(ScenarioMatrix::is_directive("frobnicate"));
  EXPECT_THROW(applied.apply("frobnicate", "mg"), Error);

  EXPECT_THROW(ScenarioMatrix::parse("frobnicate mg\n"), Error);
  EXPECT_THROW(ScenarioMatrix::parse("workload\n"), Error);
  EXPECT_THROW(ScenarioMatrix::parse("reps two\n"), Error);
  EXPECT_THROW(ScenarioMatrix::parse("workload mg extra\n"), Error);
  EXPECT_THROW(ScenarioMatrix::load("/nonexistent/file.campaign"), Error);
}

/// The Error text a callable raises; empty when it does not throw.
std::string error_text_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(ScenarioMatrixTest, MalformedNumbersFailWithLineNumberedErrors) {
  // Partial consumption, overflow and non-finite spellings each used to
  // slip through the std::stoi/std::stod family (or crash it); all must
  // now raise one structured error naming the line and the bad token.
  const auto tiers = error_text_of([] {
    ScenarioMatrix::parse("workload mg\ntiers 2x\n");
  });
  EXPECT_NE(tiers.find("line 2"), std::string::npos) << tiers;
  EXPECT_NE(tiers.find("tiers: not an integer: '2x'"), std::string::npos)
      << tiers;

  const auto budget = error_text_of([] {
    ScenarioMatrix::parse("budget-gb inf\n");
  });
  EXPECT_NE(budget.find("line 1"), std::string::npos) << budget;
  EXPECT_NE(budget.find("not a finite number: 'inf'"), std::string::npos)
      << budget;

  EXPECT_NE(error_text_of([] { ScenarioMatrix::parse("budget-gb nan\n"); })
                .find("not a finite number"),
            std::string::npos);
  EXPECT_NE(error_text_of([] { ScenarioMatrix::parse("budget-gb 1e999\n"); })
                .find("not a finite number"),
            std::string::npos);
  EXPECT_NE(error_text_of([] {
              ScenarioMatrix::parse("reps 99999999999999999999\n");
            }).find("not an integer"),
            std::string::npos);
  EXPECT_NE(error_text_of([] { ScenarioMatrix::parse("top-k 3.5\n"); })
                .find("not an integer"),
            std::string::npos);
  EXPECT_NE(error_text_of([] {
              ScenarioMatrix::parse("tier-budget-gb 2:4x\n");
            }).find("not a finite number"),
            std::string::npos);
}

TEST(WorkloadRegistryTest, MalformedParametersNameTheOffendingKey) {
  auto sim = sim::MachineSimulator::paper_platform();
  auto& registry = WorkloadRegistry::instance();

  // strtod used to accept "2x" (partial consumption) and "inf"/"nan"
  // (non-finite array sizes); now every spelling fails with an error
  // naming the parameter so a campaign author can find the typo.
  const auto partial = error_text_of([&] {
    registry.create("stream", sim, {{"array_gb", "2x"}});
  });
  EXPECT_NE(partial.find("'array_gb'"), std::string::npos) << partial;
  EXPECT_NE(partial.find("not a finite number: '2x'"), std::string::npos)
      << partial;

  for (const char* bad : {"inf", "-inf", "nan", "1e999", ""})
    EXPECT_NE(error_text_of([&] {
                registry.create("stream", sim, {{"array_gb", bad}});
              }).find("not a finite number"),
              std::string::npos)
        << bad;

  const auto fractional = error_text_of([&] {
    registry.create("stream", sim, {{"iterations", "3.5"}});
  });
  EXPECT_NE(fractional.find("'iterations'"), std::string::npos) << fractional;
  EXPECT_NE(fractional.find("not an integer: '3.5'"), std::string::npos)
      << fractional;
}

// ---------------------------------------------------- outcome round trips

/// Bit-for-bit double equality (-0 and 0 differ; the codec is lossless).
bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void expect_same_configs(const std::vector<tuner::ConfigResult>& a,
                         const std::vector<tuner::ConfigResult>& b,
                         const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].mask, b[i].mask) << what << " row " << i;
    EXPECT_TRUE(same_bits(a[i].mean_time, b[i].mean_time)) << what << i;
    EXPECT_TRUE(same_bits(a[i].stddev_time, b[i].stddev_time)) << what << i;
  }
}

/// Bit-for-bit equality of two weight lists.
bool same_weights(const std::vector<double>& x, const std::vector<double>& y) {
  return x.size() == y.size() &&
         std::equal(x.begin(), x.end(), y.begin(), same_bits);
}

/// Bit-for-bit equality of the four values derived from a headline.
void expect_same_derived_headline(const tuner::TuningOutcome& a,
                                  const tuner::TuningOutcome& b,
                                  const std::string& what) {
  EXPECT_EQ(a.chosen_placement().pools(), b.chosen_placement().pools())
      << what;
  EXPECT_TRUE(same_bits(a.speedup(), b.speedup())) << what;
  EXPECT_TRUE(same_bits(a.hbm_bytes(), b.hbm_bytes())) << what;
  EXPECT_TRUE(same_bits(a.hbm_usage(), b.hbm_usage())) << what;
}

/// Field-by-field equality of the headlines and weights (everything but
/// the row lists), bit for bit.
void expect_same_headline(const tuner::TuningOutcome& a,
                          const tuner::TuningOutcome& b,
                          const std::string& what) {
  EXPECT_EQ(a.strategy, b.strategy) << what;
  EXPECT_EQ(a.workload, b.workload) << what;
  EXPECT_EQ(a.num_groups, b.num_groups) << what;
  EXPECT_EQ(a.num_tiers, b.num_tiers) << what;
  EXPECT_EQ(a.chosen_mask, b.chosen_mask) << what;
  EXPECT_TRUE(same_bits(a.chosen_time, b.chosen_time)) << what;
  EXPECT_TRUE(same_bits(a.baseline_time, b.baseline_time)) << what;
  expect_same_derived_headline(a, b, what);
  EXPECT_EQ(a.configs_measured, b.configs_measured) << what;
  EXPECT_EQ(a.measurements, b.measurements) << what;
  EXPECT_TRUE(same_weights(a.weights.footprint_bytes,
                           b.weights.footprint_bytes)) << what;
  EXPECT_TRUE(same_bits(a.weights.footprint_total, b.weights.footprint_total))
      << what;
  EXPECT_TRUE(same_weights(a.weights.traffic_bytes, b.weights.traffic_bytes))
      << what;
  EXPECT_TRUE(same_bits(a.weights.traffic_total, b.weights.traffic_total))
      << what;
}

/// Field-by-field outcome equality that does not go through the codec
/// under test.
void expect_same_outcome(const tuner::TuningOutcome& a,
                         const tuner::TuningOutcome& b,
                         const std::string& what) {
  expect_same_headline(a, b, what);
  ASSERT_EQ(a.trajectory.size(), b.trajectory.size()) << what;
  for (std::size_t i = 0; i < a.trajectory.size(); ++i) {
    const auto& x = a.trajectory[i];
    const auto& y = b.trajectory[i];
    EXPECT_EQ(x.index, y.index) << what << " step " << i;
    EXPECT_EQ(x.mask, y.mask) << what << " step " << i;
    EXPECT_TRUE(same_bits(x.observed_time, y.observed_time)) << what << i;
    EXPECT_EQ(x.accepted, y.accepted) << what << " step " << i;
  }
  expect_same_configs(a.table, b.table, what + " table");
  ASSERT_EQ(a.sweep.has_value(), b.sweep.has_value()) << what;
  if (a.sweep.has_value()) {
    EXPECT_TRUE(same_bits(a.sweep->baseline_time, b.sweep->baseline_time));
    EXPECT_EQ(a.sweep->num_groups, b.sweep->num_groups) << what;
    EXPECT_EQ(a.sweep->num_tiers, b.sweep->num_tiers) << what;
    expect_same_configs(a.sweep->configs, b.sweep->configs, what + " sweep");
  }
}

TEST(OutcomeIoTest, OutcomeJsonRoundTripsForEveryStrategy) {
  // Two- and three-tier platforms, with measurement noise so repetitions
  // differ and no derived value is accidentally constant.
  struct Platform {
    const char* name;
    sim::MachineSimulator (*make)();
  };
  const Platform platforms[] = {
      {"2-tier",
       [] {
         return sim::MachineSimulator(topo::xeon_max_9468_duo_flat_snc4(),
                                      sim::default_spr_hbm_calibration(),
                                      sim::NoiseModel{0.05, 7});
       }},
      {"3-tier", [] {
         return sim::MachineSimulator(topo::cxl_tiered_xeon_max(),
                                      sim::cxl_tiered_calibration(),
                                      sim::NoiseModel{0.05, 11});
       }}};
  for (const auto& platform : platforms) {
    for (const std::string strategy : {"exhaustive", "online", "estimator"}) {
      auto simulator = platform.make();
      const auto app = workloads::make_mg_model(simulator);
      const auto outcome = tuner::Session::on(simulator)
                               .workload(app.workload)
                               .context(app.context)
                               .strategy(strategy)
                               .repetitions(2)
                               .run();
      const std::string what = std::string(platform.name) + " " + strategy;
      const Json encoded = tuner::outcome_to_json(outcome);
      for (const int indent : {-1, 2}) {
        const auto back =
            tuner::outcome_from_json(Json::parse(encoded.dump(indent)));
        expect_same_outcome(back, outcome, what);
        // The parsed outcome is a working TuningOutcome, not just a blob:
        // the human-readable report regenerates identically.
        EXPECT_EQ(back.to_text(), outcome.to_text()) << what;
      }
      EXPECT_EQ(outcome.sweep.has_value(), strategy == "exhaustive");

      // Every trajectory is stored as columns, and a full sweep's is empty
      // (the sweep is its record). A full sweep stores no mask column.
      const JsonObject& trajectory = encoded.at("trajectory").as_object();
      EXPECT_TRUE(trajectory.contains("mask")) << what;
      EXPECT_EQ(outcome.trajectory.empty(), outcome.sweep.has_value())
          << what;
      // Every built-in trajectory counts up by one, so it stores its first
      // index (an empty one stores 1). Only the online search, which
      // re-observes masks under noise, stores its step times; the others'
      // are their rows' mean times.
      ASSERT_TRUE(trajectory.contains("index")) << what;
      EXPECT_EQ(trajectory.find("index")->dump(-1),
                strategy == "online" ? "2" : "1")
          << what;
      EXPECT_EQ(trajectory.contains("observed_time"), strategy == "online")
          << what;
      // No row list stores a derived column: every strategy's record
      // carries the weights once instead.
      std::vector<const JsonObject*> rows = {&trajectory,
                                             &encoded.at("table").as_object()};
      if (outcome.sweep.has_value()) {
        rows.push_back(&encoded.at("sweep").at("configs").as_object());
        EXPECT_FALSE(rows.back()->contains("mask")) << what;
      }
      for (const JsonObject* columns : rows)
        for (const char* derived :
             {"speedup", "hbm_usage", "hbm_density", "groups_in_hbm"})
          EXPECT_FALSE(columns->contains(derived)) << what << " " << derived;
      for (const char* weights : {"footprint_bytes", "footprint_total",
                                  "traffic_bytes", "traffic_total"})
        EXPECT_TRUE(encoded.as_object().contains(weights))
            << what << " " << weights;
    }
  }
}

TEST(OutcomeIoTest, SweepWithItsOwnTrajectoryOrderStoresColumns) {
  // A registered strategy may return a full sweep together with a
  // trajectory of its own: here, the exhaustive sweep re-walked in mask
  // order. Such a trajectory is stored as columns beside the sweep and
  // decodes exactly.
  sim::MachineSimulator simulator(topo::cxl_tiered_xeon_max(),
                                  sim::cxl_tiered_calibration(),
                                  sim::NoiseModel{0.05, 11});
  const auto app = workloads::make_mg_model(simulator);
  auto outcome = tuner::Session::on(simulator)
                     .workload(app.workload)
                     .context(app.context)
                     .strategy("exhaustive")
                     .repetitions(2)
                     .run();
  ASSERT_TRUE(outcome.sweep.has_value());
  ASSERT_TRUE(outcome.trajectory.empty());
  outcome.strategy = "test-mask-order";
  for (const auto& c : outcome.sweep->configs)
    outcome.trajectory.push_back(
        {static_cast<int>(c.mask) + 1, c.mask, c.mean_time, c.mask == 4});
  const Json encoded = tuner::outcome_to_json(outcome);
  EXPECT_EQ(encoded.at("trajectory").at("mask").as_array().size(), 27u);
  for (const int indent : {-1, 2}) {
    const Json doc = Json::parse(encoded.dump(indent));
    const auto kept = tuner::outcome_from_json(doc, tuner::Rows::Keep);
    expect_same_outcome(kept, outcome, "mask-order trajectory");
    EXPECT_EQ(tuner::outcome_to_json(kept).dump(indent),
              encoded.dump(indent));
    const auto skipped = tuner::outcome_from_json(doc, tuner::Rows::Skip);
    expect_same_headline(skipped, kept, "mask-order trajectory, skipped");
    EXPECT_TRUE(skipped.trajectory.empty());
    EXPECT_FALSE(skipped.sweep.has_value());
  }
}

TEST(OutcomeIoTest, HeadlineValuesAreDerivedAlikeInBothDecodeModes) {
  // A record stores no value its headline derives: the speedup, the HBM
  // bytes and usage and the chosen placement are functions of the chosen
  // mask and time, the baseline and the weights. For every built-in
  // strategy on two and three tiers, both decode modes derive them bit for
  // bit as the in-memory outcome does.
  const std::pair<const char*, sim::MachineSimulator (*)()> platforms[] = {
      {"2-tier", &sim::MachineSimulator::paper_platform},
      {"3-tier", &sim::MachineSimulator::cxl_tiered_platform}};
  for (const auto& [platform, make] : platforms) {
    auto simulator = make();
    const auto app = workloads::make_mg_model(simulator);
    for (const char* strategy : {"exhaustive", "online", "estimator"}) {
      const auto outcome = tuner::Session::on(simulator)
                               .workload(app.workload)
                               .context(app.context)
                               .strategy(strategy)
                               .budget_gb(20.0)
                               .run();
      const std::string what = std::string(platform) + " " + strategy;
      const Json encoded = tuner::outcome_to_json(outcome);
      for (const char* derived :
           {"speedup", "hbm_bytes", "hbm_usage", "chosen_placement"})
        EXPECT_FALSE(encoded.as_object().contains(derived))
            << what << " " << derived;
      const Json doc = Json::parse(encoded.dump(-1));
      for (const auto rows : {tuner::Rows::Keep, tuner::Rows::Skip})
        expect_same_derived_headline(tuner::outcome_from_json(doc, rows),
                                     outcome, what);
      // They equal the ConfigSpace values format version 6 stored.
      const tuner::ConfigSpace space(outcome.weights.footprint_bytes,
                                     outcome.num_tiers);
      EXPECT_TRUE(same_bits(outcome.speedup(),
                            outcome.baseline_time / outcome.chosen_time))
          << what;
      const double hbm_bytes =
          tuner::tier_sum(space.group_bytes(), outcome.chosen_mask,
                          outcome.num_tiers, topo::PoolKind::HBM);
      EXPECT_TRUE(same_bits(outcome.hbm_bytes(), hbm_bytes)) << what;
      EXPECT_TRUE(same_bits(outcome.hbm_usage(),
                            hbm_bytes / space.total_bytes()))
          << what;
      EXPECT_EQ(outcome.chosen_placement().pools(),
                space.placement(outcome.chosen_mask).pools())
          << what;
      EXPECT_LE(outcome.hbm_bytes(), 20.0 * GB) << what;
      EXPECT_GT(outcome.speedup(), 1.0) << what;
    }
  }
}

TEST(OutcomeIoTest, EveryStrategyReportsTheSameHbmFractionsForAMask) {
  // A configuration's HBM usage, HBM density and group count are
  // functions of its mask and its outcome's weights, so every strategy
  // that measured a mask reports the same three values for it, bit for
  // bit, in memory and decoded from its record. (Online tables used to
  // store a density of 0 for every configuration.)
  const std::pair<const char*, sim::MachineSimulator (*)()> platforms[] = {
      {"2-tier", &sim::MachineSimulator::paper_platform},
      {"3-tier", &sim::MachineSimulator::cxl_tiered_platform}};
  for (const auto& [platform, make] : platforms) {
    auto simulator = make();
    const auto app = workloads::make_mg_model(simulator);
    std::vector<tuner::TuningOutcome> outcomes;
    for (const char* strategy : {"exhaustive", "online", "estimator"}) {
      outcomes.push_back(tuner::Session::on(simulator)
                             .workload(app.workload)
                             .context(app.context)
                             .strategy(strategy)
                             .run());
      outcomes.push_back(tuner::outcome_from_json(Json::parse(
          tuner::outcome_to_json(outcomes.back()).dump(-1))));
    }
    // The masks every outcome measured.
    std::set<tuner::ConfigMask> common;
    for (const auto& c : outcomes.front().configs()) common.insert(c.mask);
    for (const auto& o : outcomes) {
      std::set<tuner::ConfigMask> measured;
      for (const auto& c : o.configs())
        if (common.count(c.mask) != 0) measured.insert(c.mask);
      common = std::move(measured);
    }
    int dense = 0;
    for (const tuner::ConfigMask mask : common) {
      const auto& reference = outcomes.front();
      const int tiers = reference.num_tiers;
      const double usage = tuner::hbm_usage_of(reference.weights, mask, tiers);
      const double density =
          tuner::hbm_density_of(reference.weights, mask, tiers);
      const int groups =
          tuner::groups_in_hbm_of(mask, reference.num_groups, tiers);
      dense += density > 0.0;
      for (std::size_t i = 1; i < outcomes.size(); ++i) {
        const auto& o = outcomes[i];
        const std::string what = std::string(platform) + " " + o.strategy +
                                 (i % 2 == 1 ? " decoded" : "") + " mask " +
                                 std::to_string(mask);
        EXPECT_TRUE(same_bits(tuner::hbm_usage_of(o.weights, mask, tiers),
                              usage))
            << what;
        EXPECT_TRUE(same_bits(tuner::hbm_density_of(o.weights, mask, tiers),
                              density))
            << what;
        EXPECT_EQ(tuner::groups_in_hbm_of(mask, o.num_groups, tiers), groups)
            << what;
      }
    }
    // Masks with HBM traffic are among them, so densities are compared.
    EXPECT_GT(dense, 0) << platform;
  }
}

TEST(OutcomeIoTest, ThreeTierSweepRecordFitsTheSizeGate) {
  // The record of a full 3^8 sweep (bt on spr-cxl, 6,561 configurations)
  // stores only its mean times and the outcome's weights (the simulator is
  // noise-free, so every stddev is +0.0 and left out), and stays within
  // the byte gate CI also checks on the hmpt_campaign output.
  Scenario s;
  s.workload = parse_workload_spec("bt");
  s.platform = "spr-cxl";
  s.strategy = "exhaustive";
  s.tiers = 3;
  const auto outcome = CampaignRunner::execute(s);
  ASSERT_TRUE(outcome.sweep.has_value());
  ASSERT_EQ(outcome.sweep->configs.size(), 6561u);
  const std::string payload = OutcomeStore::make_payload(s, outcome);
  EXPECT_LE(payload.size(), 75000u);
  const Json doc = Json::parse(payload);
  for (const char* weights : {"footprint_bytes", "footprint_total",
                              "traffic_bytes", "traffic_total"})
    EXPECT_TRUE(doc.at("outcome").as_object().contains(weights)) << weights;
  const JsonObject& configs =
      doc.at("outcome").at("sweep").at("configs").as_object();
  EXPECT_EQ(configs.size(), 1u);  // mean_time alone
  EXPECT_TRUE(configs.contains("mean_time"));
  expect_same_outcome(tuner::outcome_from_json(doc.at("outcome")), outcome,
                      "bt 3^8");
}

/// RFC 4648 base64 (padded) of `values` as little-endian binary64, built
/// bit by bit: an oracle independent of the codec under test.
std::string base64_le(const std::vector<double>& values) {
  static const char kAlphabet[] =
      "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
  std::vector<bool> bits;
  for (const double value : values) {
    std::uint64_t word = 0;
    std::memcpy(&word, &value, sizeof word);
    for (int byte = 0; byte < 8; ++byte)
      for (int bit = 7; bit >= 0; --bit)
        bits.push_back(((word >> (8 * byte + bit)) & 1) != 0);
  }
  while (bits.size() % 6 != 0) bits.push_back(false);
  std::string out;
  for (std::size_t i = 0; i < bits.size(); i += 6) {
    int sextet = 0;
    for (std::size_t j = 0; j < 6; ++j) sextet = sextet * 2 + bits[i + j];
    out += kAlphabet[sextet];
  }
  while (out.size() % 4 != 0) out += '=';
  return out;
}

/// A run of `strategy` on the three-tier platform; with `noise`, every
/// measurement draws its own noise.
tuner::TuningOutcome run_3tier(const std::string& strategy,
                               sim::NoiseModel noise = {}) {
  sim::MachineSimulator simulator(topo::cxl_tiered_xeon_max(),
                                  sim::cxl_tiered_calibration(), noise);
  const auto app = workloads::make_mg_model(simulator);
  return tuner::Session::on(simulator)
      .workload(app.workload)
      .context(app.context)
      .strategy(strategy)
      .run();
}

/// An online outcome on the three-tier platform: a columnar trajectory
/// and a measured table, no sweep.
tuner::TuningOutcome online_outcome() { return run_3tier("online"); }

/// An exhaustive outcome on the three-tier platform, two repetitions per
/// configuration: with `noise`, every row has a non-zero stddev; without,
/// every stddev is +0.0.
tuner::TuningOutcome sweep_3tier(sim::NoiseModel noise = {}) {
  sim::MachineSimulator simulator(topo::cxl_tiered_xeon_max(),
                                  sim::cxl_tiered_calibration(), noise);
  const auto app = workloads::make_mg_model(simulator);
  return tuner::Session::on(simulator)
      .workload(app.workload)
      .context(app.context)
      .repetitions(2)
      .run();
}

/// `outcome` with `rows` table rows and trajectory steps whose double
/// fields cycle through `values`, starting at a different value per field.
/// The baseline is 0, so every speedup is 1 and any finite time decodes.
/// Row i holds mask i + 1, so the table stores its masks, and step i
/// mask i, so step 0's time (of a mask with no row) is stored; the step
/// indices are odd, so they are stored as an array.
tuner::TuningOutcome with_rows(tuner::TuningOutcome outcome, std::size_t rows,
                               const std::vector<double>& values) {
  const auto at = [&](std::size_t i, std::size_t field) {
    return values[(i + field) % values.size()];
  };
  outcome.baseline_time = 0.0;
  outcome.table.assign(rows, {});
  outcome.trajectory.assign(rows, {});
  for (std::size_t i = 0; i < rows; ++i) {
    auto& row = outcome.table[i];
    row.mask = static_cast<tuner::ConfigMask>(i + 1);
    row.mean_time = at(i, 0);
    row.stddev_time = at(i, 1);
    auto& step = outcome.trajectory[i];
    step.index = static_cast<int>(2 * i + 1);
    step.mask = static_cast<tuner::ConfigMask>(i);
    step.observed_time = at(i, 2);
    step.accepted = i % 2 == 0;
  }
  return outcome;
}

TEST(OutcomeIoTest, BinaryColumnsRoundTripBitExactly) {
  // Double columns are base64 of little-endian binary64: one known
  // answer pins the byte order, then every padding remainder (0-3 rows)
  // and the edge values of the format round-trip bit for bit.
  using limits = std::numeric_limits<double>;
  {
    const auto one = with_rows(online_outcome(), 1, {1.0});
    EXPECT_EQ(tuner::outcome_to_json(one).at("table").at("mean_time")
                  .as_string(),
              "AAAAAAAA8D8=");
  }
  const std::vector<double> edges = {
      -0.0, 0.0, limits::denorm_min(), -limits::denorm_min(),
      std::nextafter(limits::min(), 0.0), limits::min(), -limits::min(),
      limits::max(), limits::lowest(), 1.0 / 3.0, -2.5, 1e300, 6.02214076e23};
  const auto base = online_outcome();
  for (const std::size_t rows : {0u, 1u, 2u, 3u, 4u, 13u}) {
    const auto outcome = with_rows(base, rows, edges);
    const std::string what = std::to_string(rows) + " rows";
    const Json encoded = tuner::outcome_to_json(outcome);
    std::vector<double> means, observed;
    for (const auto& row : outcome.table) means.push_back(row.mean_time);
    for (const auto& step : outcome.trajectory)
      observed.push_back(step.observed_time);
    const std::string& column =
        encoded.at("table").at("mean_time").as_string();
    EXPECT_EQ(column, base64_le(means)) << what;
    EXPECT_EQ(column.size(), 4 * ((8 * rows + 2) / 3)) << what;
    // An empty trajectory's times are all derivable from the rows, so
    // they are left out, and its index is the number 1.
    const Json& trajectory = encoded.at("trajectory");
    EXPECT_EQ(trajectory.as_object().contains("observed_time"), rows > 0)
        << what;
    if (rows > 0) {
      EXPECT_EQ(trajectory.at("observed_time").as_string(),
                base64_le(observed))
          << what;
    }
    // Integer and bool columns stay JSON numbers and bools.
    // (Row i holds mask i + 1, so only an empty table's masks are in row
    // order and left out.)
    EXPECT_EQ(encoded.at("table").as_object().contains("mask"), rows > 0)
        << what;
    if (rows > 0) {
      EXPECT_EQ(encoded.at("table").at("mask").as_array().size(), rows);
    }
    EXPECT_EQ(trajectory.at("index").kind() == Json::Kind::Array, rows > 1)
        << what;
    EXPECT_EQ(trajectory.at("accepted").as_array().size(), rows);
    const std::string text = encoded.dump(-1);
    EXPECT_EQ(Json::parse(text).dump(-1), text) << what;  // a fixed point
    expect_same_outcome(tuner::outcome_from_json(Json::parse(text)), outcome,
                        what);
  }
}

TEST(OutcomeIoTest, CompactPayloadMatchesTheGoldenFile) {
  // Format drift fails loudly: a small three-tier exhaustive record must
  // encode to exactly these bytes, and the bytes must decode back to the
  // same outcome. Regenerate only intentionally (HMPT_UPDATE_GOLDEN=1),
  // together with a kFingerprintVersion bump.
  Scenario s;
  s.workload = parse_workload_spec("mg");
  s.platform = "spr-cxl";
  s.strategy = "exhaustive";
  s.tiers = 3;
  s.repetitions = 2;
  const auto outcome = CampaignRunner::execute(s);
  const std::string payload = OutcomeStore::make_payload(s, outcome);
  const std::string path =
      std::string(HMPT_TEST_DATA_DIR) + "/mg_cxl_exhaustive.payload.json";
  if (std::getenv("HMPT_UPDATE_GOLDEN") != nullptr) {
    std::ofstream os(path, std::ios::binary);
    os << payload;
  }
  std::ifstream is(path, std::ios::binary);
  std::stringstream golden;
  golden << is.rdbuf();
  ASSERT_FALSE(golden.str().empty()) << "missing golden " << path;
  EXPECT_EQ(payload, golden.str())
      << "stored outcome bytes diverged from " << path;
  const Json doc = Json::parse(golden.str());
  EXPECT_EQ(doc.at("format_version").as_number(), kFingerprintVersion);
  expect_same_outcome(tuner::outcome_from_json(doc.at("outcome")), outcome,
                      "golden");
  EXPECT_EQ(payload.find('\n'), std::string::npos);  // compact, one line
}

// ----------------------------------------------- decoding without the rows

/// The doubles of a binary column: base64_le's inverse, bit by bit.
std::vector<double> doubles_of(const std::string& base64) {
  static const std::string kAlphabet =
      "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
  std::vector<bool> bits;
  for (const char c : base64) {
    if (c == '=') break;
    const auto sextet = kAlphabet.find(c);
    for (int bit = 5; bit >= 0; --bit) bits.push_back((sextet >> bit) & 1);
  }
  std::vector<double> values(bits.size() / 64);
  for (std::size_t v = 0; v < values.size(); ++v) {
    std::uint64_t word = 0;
    for (int byte = 0; byte < 8; ++byte)
      for (int bit = 0; bit < 8; ++bit)
        if (bits[64 * v + 8 * static_cast<std::size_t>(byte) +
                 static_cast<std::size_t>(7 - bit)])
          word |= std::uint64_t{1} << (8 * byte + bit);
    std::memcpy(&values[v], &word, sizeof word);
  }
  return values;
}

/// The key path of every field of an outcome document, depth first.
void field_paths(const Json& node, std::vector<std::string>& path,
                 std::vector<std::vector<std::string>>& out) {
  for (const auto& [key, value] : node.as_object()) {
    path.push_back(key);
    out.push_back(path);
    if (value.kind() == Json::Kind::Object) field_paths(value, path, out);
    path.pop_back();
  }
}

/// `node` with the field at path[depth...] replaced by `change(value)`,
/// or dropped when that is nullopt.
Json with_field(
    const Json& node, const std::vector<std::string>& path,
    std::size_t depth,
    const std::function<std::optional<Json>(const Json&)>& change) {
  JsonObject out;
  for (const auto& [key, value] : node.as_object()) {
    if (key != path[depth]) {
      out[key] = value;
    } else if (depth + 1 < path.size()) {
      out[key] = with_field(value, path, depth + 1, change);
    } else if (auto changed = change(value)) {
      out[key] = std::move(*changed);
    }
  }
  return Json(std::move(out));
}

/// A number a range check may refuse: out of range, fractional, past
/// the exact integers of a double, or not a number at all.
Json hostile_number(const Json& value, Rng& rng) {
  const double v = value.kind() == Json::Kind::Number ? value.as_number() : 0;
  const Json choices[] = {
      Json(-1.0),         Json(v + 1),  Json(v - 1),      Json(v + 0.5),
      Json(1e300),        Json(-1e300), Json(0.0),        Json(1e-320),
      Json(2147483648.0), Json(0x1p53 + 2), Json("7"),    Json(true)};
  return choices[rng.next_below(std::size(choices))];
}

/// A field-level mutation of `value`, described in `what`; nullopt drops
/// the field.
std::optional<Json> mutate_field(const Json& value, bool binary, Rng& rng,
                                 std::string& what) {
  if (rng.next_below(6) == 0) {
    what += "drop the key";
    return std::nullopt;
  }
  switch (value.kind()) {
    case Json::Kind::Number:
      what += "out-of-range number";
      return hostile_number(value, rng);
    case Json::Kind::String: {
      std::string text = value.as_string();
      if (!binary || text.empty()) {
        what += "rename";
        return Json(text + "x");
      }
      std::vector<double> values = doubles_of(text);
      switch (rng.next_below(5)) {
        case 0: {
          const std::string spellings =
              "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
              "0123456789+/=-_ \xC3";
          text[rng.next_below(text.size())] =
              spellings[rng.next_below(spellings.size())];
          what += "flip one base64 character";
          return Json(text);
        }
        case 1:
          if (!values.empty()) values.pop_back();
          what += "shorten the column by one value";
          return Json(base64_le(values));
        case 2:
          values.push_back(values.empty() ? 1.0 : values.front());
          what += "lengthen the column by one value";
          return Json(base64_le(values));
        case 3: {
          if (values.empty()) values.push_back(0.0);
          const double hostile[] = {std::numeric_limits<double>::infinity(),
                                    std::nan(""), -1.0, 0.0, -0.0, 1e-320,
                                    1.7e308};
          const double value = hostile[rng.next_below(std::size(hostile))];
          // One value, or (in a weight column) every value: 1.7e308 in
          // each of two weights overflows their sum, the bound every
          // row's HBM fraction is checked against.
          if (rng.next_below(2) == 0) {
            values[rng.next_below(values.size())] = value;
            what += "rewrite one value";
          } else {
            std::fill(values.begin(), values.end(), value);
            what += "rewrite every value";
          }
          return Json(base64_le(values));
        }
        default:
          text.pop_back();
          what += "drop the last character";
          return Json(text);
      }
    }
    case Json::Kind::Array: {
      JsonArray items = value.as_array();
      if (items.empty()) {
        what += "fill an empty column";
        return Json(JsonArray{hostile_number(Json(0.0), rng)});
      }
      const std::size_t i = rng.next_below(items.size());
      const std::size_t j = rng.next_below(items.size());
      switch (rng.next_below(5)) {
        case 0:
          items.pop_back();
          what += "shorten the column by one value";
          break;
        case 1:
          items.push_back(items.back());
          what += "lengthen the column by one value";
          break;
        case 2:
          std::swap(items[i], items[j]);
          what += "swap two values";
          break;
        case 3:
          items[i] = items[i > 0 ? i - 1 : items.size() - 1];
          what += "repeat a value";
          break;
        default:
          items[i] = hostile_number(items[i], rng);
          what += "one out-of-range value";
          break;
      }
      return Json(std::move(items));
    }
    case Json::Kind::Object: {
      // A row list gains a mask column: the row ids, two of them swapped.
      const Json* means = value.as_object().find("mean_time");
      if (means == nullptr || rng.next_below(2) == 0) break;
      const std::size_t rows = doubles_of(means->as_string()).size();
      JsonArray masks;
      for (std::size_t i = 0; i < rows; ++i)
        masks.push_back(Json(static_cast<std::uint64_t>(i)));
      if (rows > 0)
        std::swap(masks[rng.next_below(rows)], masks[rng.next_below(rows)]);
      JsonObject columns = value.as_object();
      columns["mask"] = Json(std::move(masks));
      what += "add a mask column";
      return Json(std::move(columns));
    }
    default:
      break;
  }
  what += "change the kind";
  return Json(1.0);
}

/// A byte-level mutation of a document's compact text: overwrite, insert
/// or delete one byte, mostly from the characters numbers, base64 and
/// JSON punctuation use. nullopt when the text no longer parses.
std::optional<Json> mutate_bytes(std::string text, Rng& rng,
                                 std::string& what) {
  const std::string bytes = "0123456789+-.eE=AZaz/\",:[]{} \xC3";
  const std::size_t at = rng.next_below(text.size());
  const char byte = bytes[rng.next_below(bytes.size())];
  switch (rng.next_below(3)) {
    case 0: text[at] = byte; what += "overwrite"; break;
    case 1: text.insert(at, 1, byte); what += "insert"; break;
    default: text.erase(at, 1); what += "delete"; break;
  }
  what += " byte " + std::to_string(at);
  try {
    return Json::parse(text);
  } catch (const Error&) {
    return std::nullopt;
  }
}

TEST(OutcomeIoTest, SkipRowsRejectsExactlyWhatFullDecodeRejects) {
  // The decoder has one rows switch. Rows::Skip must run every check
  // Rows::Keep runs: on thousands of damaged documents both modes throw
  // together, with the same error, and where both accept they decode
  // bit-identical headlines and weights. Inputs: the golden 3^3 record, a
  // fresh 3^8 record (empty trajectory, sweep rows only), online and
  // estimator records (columnar trajectory whose times and indices derive
  // from the table, table with masks, no sweep), a noisy online record
  // (stored step times), a noisy 3^3 record and hand-made rows (both
  // store stddev columns; the rows store step times and an index array).
  // Every record carries its weights once, so the weights are mutated on
  // the table-only records as on the sweeps. Each mutation draws from its
  // own counter-based stream, so a failure names a reproducible case.
  std::ifstream golden(
      std::string(HMPT_TEST_DATA_DIR) + "/mg_cxl_exhaustive.payload.json",
      std::ios::binary);
  std::stringstream golden_text;
  golden_text << golden.rdbuf();
  Scenario bt;
  bt.workload = parse_workload_spec("bt");
  bt.platform = "spr-cxl";
  bt.strategy = "exhaustive";
  bt.tiers = 3;
  const auto reparsed = [](const tuner::TuningOutcome& outcome) {
    return Json::parse(tuner::outcome_to_json(outcome).dump(-1));
  };
  Scenario estimator = bt;
  estimator.strategy = "estimator";
  const std::pair<std::string, Json> inputs[] = {
      {"golden 3^3", Json::parse(golden_text.str()).at("outcome")},
      {"bt 3^8", reparsed(CampaignRunner::execute(bt))},
      {"online", reparsed(online_outcome())},
      {"noisy online", reparsed(run_3tier("online", {0.05, 11}))},
      {"estimator", reparsed(CampaignRunner::execute(estimator))},
      {"noisy 3^3", reparsed(sweep_3tier({0.05, 11}))},
      {"hand-made rows",
       reparsed(with_rows(online_outcome(), 20, {0.5, -0.0, 3.0, 1e-310}))},
  };
  constexpr std::uint64_t kSeed = 0x5eed0f5c1f;
  constexpr std::uint64_t kMutations = 1000;
  int decoded = 0;
  for (std::size_t input = 0; input < std::size(inputs); ++input) {
    const auto& [name, original] = inputs[input];
    const std::string text = original.dump(-1);
    std::vector<std::vector<std::string>> paths;
    std::vector<std::string> path;
    field_paths(original, path, paths);
    int accepted = 0;
    int rejected = 0;
    int weights = 0;  // mutations of the weights
    for (std::uint64_t m = 0; m < kMutations; ++m) {
      Rng rng(mix_seed(kSeed, input, m));
      std::string what = name + " mutation " + std::to_string(m) + ": ";
      std::optional<Json> doc;
      if (m % 2 == 0) {
        const auto& field = paths[rng.next_below(paths.size())];
        for (const auto& key : field) what += key + ".";
        weights += field.size() == 1 &&
                   (field[0].starts_with("footprint_") ||
                    field[0].starts_with("traffic_"));
        const bool binary =
            field.back() != "strategy" && field.back() != "workload";
        doc = with_field(original, field, 0, [&](const Json& value) {
          return mutate_field(value, binary, rng, what);
        });
      } else {
        doc = mutate_bytes(text, rng, what);
      }
      if (!doc) continue;  // no longer JSON: not the decoder's input
      ++decoded;
      std::optional<tuner::TuningOutcome> kept;
      std::optional<tuner::TuningOutcome> skipped;
      std::string keep_error;
      std::string skip_error;
      try {
        kept = tuner::outcome_from_json(*doc, tuner::Rows::Keep);
      } catch (const std::exception& e) {
        keep_error = e.what();
      }
      try {
        skipped = tuner::outcome_from_json(*doc, tuner::Rows::Skip);
      } catch (const std::exception& e) {
        skip_error = e.what();
      }
      ASSERT_EQ(kept.has_value(), skipped.has_value())
          << what << " (keep: '" << keep_error << "', skip: '" << skip_error
          << "')";
      EXPECT_EQ(keep_error, skip_error) << what;
      if (!kept) {
        ++rejected;
        continue;
      }
      ++accepted;
      expect_same_headline(*kept, *skipped, what);
      EXPECT_TRUE(skipped->table.empty() && skipped->trajectory.empty() &&
                  !skipped->sweep.has_value())
          << what;
    }
    // Both outcomes occur, so neither check above is vacuous.
    EXPECT_GT(accepted, 20) << name;
    EXPECT_GT(rejected, 200) << name;
    EXPECT_GT(weights, 20) << name;
  }
  EXPECT_GE(decoded, 2500);
}

/// The stored row lists of an encoded outcome: its table and, when it
/// has one, its sweep.
std::vector<const JsonObject*> row_lists(const Json& encoded) {
  std::vector<const JsonObject*> lists = {&encoded.at("table").as_object()};
  if (const Json* sweep = encoded.as_object().find("sweep"))
    lists.push_back(&sweep->at("configs").as_object());
  return lists;
}

/// Every configuration row of `outcome`: its table, then its sweep.
std::vector<tuner::ConfigResult> all_rows(const tuner::TuningOutcome& outcome) {
  std::vector<tuner::ConfigResult> rows = outcome.table;
  if (outcome.sweep.has_value())
    rows.insert(rows.end(), outcome.sweep->configs.begin(),
                outcome.sweep->configs.end());
  return rows;
}

TEST(OutcomeIoTest, NoiseFreeRowListsStoreNoStddevColumn) {
  // Without a NoiseModel the simulator repeats itself exactly, so every
  // stddev is +0.0. A row list then stores no stddev column, and the
  // decoder restores +0.0 in every row, bit for bit.
  const std::pair<std::string, tuner::TuningOutcome> outcomes[] = {
      {"3-tier sweep", sweep_3tier()}, {"online", online_outcome()}};
  for (const auto& [what, outcome] : outcomes) {
    const auto rows = all_rows(outcome);
    ASSERT_GE(rows.size(), 8u) << what;
    for (const auto& row : rows)
      ASSERT_TRUE(same_bits(row.stddev_time, 0.0)) << what;
    const Json encoded = tuner::outcome_to_json(outcome);
    for (const JsonObject* columns : row_lists(encoded))
      EXPECT_FALSE(columns->contains("stddev_time")) << what;
    const Json doc = Json::parse(encoded.dump(-1));
    const auto kept = tuner::outcome_from_json(doc, tuner::Rows::Keep);
    expect_same_outcome(kept, outcome, what);
    for (const auto& row : all_rows(kept))
      EXPECT_TRUE(same_bits(row.stddev_time, 0.0)) << what;
    EXPECT_EQ(tuner::outcome_to_json(kept).dump(-1), encoded.dump(-1))
        << what;
    expect_same_headline(tuner::outcome_from_json(doc, tuner::Rows::Skip),
                         kept, what);
  }
}

TEST(OutcomeIoTest, NonZeroStddevsAreStoredBitExactly) {
  // A noisy run stores its stddevs exactly. So does a row list whose only
  // stddev other than +0.0 is -0.0: the rule compares bits, not values.
  auto signed_table = online_outcome();
  ASSERT_FALSE(signed_table.table.empty());
  signed_table.table.back().stddev_time = -0.0;
  auto signed_sweep = sweep_3tier();
  signed_sweep.sweep->configs[0].stddev_time = -0.0;
  const struct {
    std::string what;
    tuner::TuningOutcome outcome;
    std::vector<bool> stored;  ///< per row list: is a stddev column stored
  } cases[] = {
      {"noisy sweep", sweep_3tier({0.05, 11}), {false, true}},
      {"-0.0 in a table", signed_table, {true}},
      {"-0.0 in a sweep", signed_sweep, {false, true}},
  };
  for (const auto& c : cases) {
    const Json encoded = tuner::outcome_to_json(c.outcome);
    const auto lists = row_lists(encoded);
    ASSERT_EQ(lists.size(), c.stored.size()) << c.what;
    for (std::size_t i = 0; i < lists.size(); ++i)
      EXPECT_EQ(lists[i]->contains("stddev_time"), c.stored[i])
          << c.what << " row list " << i;
    const Json doc = Json::parse(encoded.dump(-1));
    const auto kept = tuner::outcome_from_json(doc, tuner::Rows::Keep);
    expect_same_outcome(kept, c.outcome, c.what);
    EXPECT_EQ(tuner::outcome_to_json(kept).dump(-1), encoded.dump(-1))
        << c.what;
    expect_same_headline(tuner::outcome_from_json(doc, tuner::Rows::Skip),
                         kept, c.what);
  }
  for (const auto& row : all_rows(cases[0].outcome))
    EXPECT_FALSE(same_bits(row.stddev_time, 0.0));
}

TEST(OutcomeIoTest, SweepRecordsStoreOnlyTheSweepRows) {
  // An exhaustive outcome keeps no trajectory: its sweep is the record of
  // the search, so the trajectory is stored as empty columns. The sweep
  // stores only its rows; its baseline and shape come from the outcome.
  const auto outcome = sweep_3tier();
  ASSERT_TRUE(outcome.sweep.has_value());
  EXPECT_TRUE(outcome.trajectory.empty());
  const Json encoded = tuner::outcome_to_json(outcome);
  EXPECT_EQ(encoded.at("trajectory").dump(-1),
            "{\"index\":1,\"mask\":[],\"accepted\":[]}");
  const JsonObject& sweep = encoded.at("sweep").as_object();
  EXPECT_EQ(sweep.size(), 1u);
  EXPECT_TRUE(sweep.contains("configs"));
  const Json doc = Json::parse(encoded.dump(-1));
  const auto kept = tuner::outcome_from_json(doc, tuner::Rows::Keep);
  expect_same_outcome(kept, outcome, "3^3 sweep");
  EXPECT_EQ(tuner::outcome_to_json(kept).dump(-1), encoded.dump(-1));

  // A format-6 trajectory of accepted steps is refused in both modes.
  const Json v6 = with_field(doc, {"trajectory"}, 0, [](const Json&) {
    return std::optional<Json>(Json::parse("{\"accepted_steps\":[1,2,5]}"));
  });
  std::string errors[2];
  for (const auto rows : {tuner::Rows::Keep, tuner::Rows::Skip}) {
    try {
      tuner::outcome_from_json(v6, rows);
      ADD_FAILURE() << "accepted a trajectory of accepted steps";
    } catch (const Error& e) {
      errors[rows == tuner::Rows::Skip] = e.what();
    }
  }
  EXPECT_EQ(errors[0], errors[1]);

  // The writer refuses a sweep the reader would not rebuild as it was.
  auto other_baseline = outcome;
  other_baseline.sweep->baseline_time += 1.0;
  auto other_tiers = outcome;
  other_tiers.sweep->num_tiers = 2;
  auto no_groups = outcome;
  no_groups.num_groups = 0;
  no_groups.sweep->num_groups = 0;
  no_groups.weights = {{}, 1.0, {}, 0.0};
  for (const auto* damaged : {&other_baseline, &other_tiers, &no_groups}) {
    try {
      tuner::outcome_to_json(*damaged);
      ADD_FAILURE() << "wrote a sweep the reader would not rebuild";
    } catch (const Error& e) {
      EXPECT_TRUE(std::string(e.what()).starts_with("outcome field 'sweep'"))
          << e.what();
    }
  }
}

TEST(OutcomeIoTest, TrajectoriesStoreTheirOrderAndVerdictsNotTheirRowsTimes) {
  // A step's time is left out when it has the bits of the mean time of its
  // mask's row: the estimator's step and row are one measurement, and a
  // noise-free online search averages identical observations. A noisy
  // online search re-observes masks, so its times stay stored, bit for
  // bit. An index that counts up by one is stored as its start. Either
  // way Rows::Keep restores every step exactly.
  auto near_int_max = online_outcome();
  const int steps = static_cast<int>(near_int_max.trajectory.size());
  for (int i = 0; i < steps; ++i)
    near_int_max.trajectory[static_cast<std::size_t>(i)].index =
        INT_MAX - steps + 1 + i;
  const struct {
    std::string what;
    tuner::TuningOutcome outcome;
    bool times_stored;
    std::string index;
  } cases[] = {
      {"noise-free online", online_outcome(), false, "2"},
      {"noise-free estimator", run_3tier("estimator"), false, "1"},
      {"noisy online", run_3tier("online", {0.05, 11}), true, "2"},
      {"noisy estimator", run_3tier("estimator", {0.05, 11}), false, "1"},
      {"indices up to INT_MAX", near_int_max, false,
       std::to_string(INT_MAX - steps + 1)},
  };
  for (const auto& c : cases) {
    ASSERT_GE(c.outcome.trajectory.size(), 8u) << c.what;
    const Json encoded = tuner::outcome_to_json(c.outcome);
    const JsonObject& trajectory = encoded.at("trajectory").as_object();
    EXPECT_EQ(trajectory.contains("observed_time"), c.times_stored)
        << c.what;
    EXPECT_EQ(trajectory.find("index")->dump(-1), c.index) << c.what;
    const Json doc = Json::parse(encoded.dump(-1));
    const auto kept = tuner::outcome_from_json(doc, tuner::Rows::Keep);
    expect_same_outcome(kept, c.outcome, c.what);
    EXPECT_EQ(tuner::outcome_to_json(kept).dump(-1), encoded.dump(-1))
        << c.what;
    expect_same_headline(tuner::outcome_from_json(doc, tuner::Rows::Skip),
                         kept, c.what);
  }
  // The noisy search's table averages re-observations: some step's time
  // is not its row's mean, which is why its column is stored.
  const auto& noisy = cases[2].outcome;
  int differ = 0;
  for (const auto& step : noisy.trajectory)
    for (const auto& row : noisy.table)
      differ += row.mask == step.mask &&
                !same_bits(row.mean_time, step.observed_time);
  EXPECT_GT(differ, 0);
}

TEST(OutcomeIoTest, StoredAllZeroStddevColumnIsRefused) {
  // One spelling per outcome: the writer leaves a stddev column of +0.0
  // values out, so the reader refuses one that is stored, in both modes
  // with one error text. An empty table's "" column is one of them.
  const Json sweep = tuner::outcome_to_json(sweep_3tier());
  const auto online = online_outcome();
  const auto with_zeros = [](const Json& doc,
                             const std::vector<std::string>& rows,
                             std::size_t count) {
    return with_field(doc, rows, 0, [&](const Json& columns) {
      JsonObject out = columns.as_object();
      out["stddev_time"] = Json(base64_le(std::vector<double>(count, 0.0)));
      return std::optional<Json>(Json(std::move(out)));
    });
  };
  const std::pair<std::string, Json> cases[] = {
      {"empty table", with_zeros(sweep, {"table"}, 0)},
      {"sweep", with_zeros(sweep, {"sweep", "configs"}, 27)},
      {"online table", with_zeros(tuner::outcome_to_json(online), {"table"},
                                  online.table.size())},
  };
  ASSERT_EQ(sweep.at("table").at("mean_time").as_string(), "");
  for (const auto& [what, doc] : cases) {
    for (const auto rows : {tuner::Rows::Keep, tuner::Rows::Skip}) {
      try {
        tuner::outcome_from_json(doc, rows);
        ADD_FAILURE() << what << ": accepted an all-+0.0 stddev column";
      } catch (const Error& e) {
        EXPECT_STREQ(e.what(), "outcome field 'stddev_time' is stored though "
                               "every value is +0.0")
            << what;
      }
    }
  }
}

/// `doc` with its weights `name` (one per group) and their total replaced.
Json with_weights(Json doc, const std::string& name,
                  const std::vector<double>& weights, double total) {
  const auto set = [&](const std::string& key, Json value) {
    doc = with_field(doc, {key}, 0, [&](const Json&) { return value; });
  };
  set(name + "_bytes", Json(base64_le(weights)));
  set(name + "_total", Json(total));
  return doc;
}

TEST(OutcomeIoTest, WeightsThatOverflowAnHbmFractionAreRejectedOncePerRecord) {
  // Every row's HBM fractions sum a subset of the record's weights, so the
  // weights are checked once per record, against the placement with every
  // group in HBM: 1e308 + 1e308 overflows, 1e308 + 0 does not, and a
  // denormal total makes any non-zero sum overflow. Table-only records
  // (online) carry weights as sweeps (the golden record) do, and both
  // modes reject a record with one error text.
  std::ifstream golden(
      std::string(HMPT_TEST_DATA_DIR) + "/mg_cxl_exhaustive.payload.json",
      std::ios::binary);
  std::stringstream golden_text;
  golden_text << golden.rdbuf();
  const std::pair<std::string, Json> records[] = {
      {"sweep", Json::parse(golden_text.str()).at("outcome")},
      {"online", Json::parse(tuner::outcome_to_json(online_outcome()).dump())},
  };
  const std::vector<double> big = {1e308, 1e308, 1.0};
  const std::vector<double> one_big = {1e308, 0.0, 1.0};
  const std::vector<double> ones = {1.0, 1.0, 1.0};
  const std::vector<double> zeros = {0.0, 0.0, 0.0};
  const struct {
    std::string name;  ///< "footprint" or "traffic"
    std::vector<double> accepted;
    std::vector<double> rejected;
    double total;
    std::string error;
  } cases[] = {
      {"footprint", one_big, big, 1.0,
       "outcome field 'footprint_bytes' gives a non-finite HBM usage"},
      {"traffic", one_big, big, 1.0,
       "outcome field 'traffic_bytes' gives a non-finite HBM density"},
      {"footprint", zeros, ones, 1e-320,
       "outcome field 'footprint_bytes' gives a non-finite HBM usage"},
  };
  for (const auto& [kind, record] : records) {
    ASSERT_EQ(record.at("num_groups").as_int(), 3) << kind;
    for (const auto& c : cases) {
      const std::string what =
          kind + " " + c.name + " total " + Json(c.total).dump(-1);
      const Json accepted = with_weights(record, c.name, c.accepted, c.total);
      const auto kept = tuner::outcome_from_json(accepted, tuner::Rows::Keep);
      expect_same_headline(
          kept, tuner::outcome_from_json(accepted, tuner::Rows::Skip), what);
      const Json rejected = with_weights(record, c.name, c.rejected, c.total);
      for (const auto rows : {tuner::Rows::Keep, tuner::Rows::Skip}) {
        try {
          tuner::outcome_from_json(rejected, rows);
          ADD_FAILURE() << what << ": accepted overflowing weights";
        } catch (const Error& e) {
          EXPECT_EQ(e.what(), c.error) << what;
        }
      }
      // The writer refuses what the reader would.
      auto damaged = kept;
      (c.name == "footprint" ? damaged.weights.footprint_bytes
                             : damaged.weights.traffic_bytes) = c.rejected;
      try {
        tuner::outcome_to_json(damaged);
        ADD_FAILURE() << what << ": wrote overflowing weights";
      } catch (const Error& e) {
        EXPECT_EQ(e.what(), c.error) << what;
      }
    }
  }
}

// ------------------------------------------------------------------ store

TEST(OutcomeStoreTest, SavesLoadsAndInvalidates) {
  StoreDir dir("hmpt_store_test");
  const OutcomeStore store(dir.path());

  Scenario s;
  s.workload = parse_workload_spec("mg");
  s.platform = "xeon-max";
  s.strategy = "estimator";
  s.repetitions = 1;
  EXPECT_FALSE(store.contains(s));
  EXPECT_EQ(store.load(s), std::nullopt);

  const auto outcome = CampaignRunner::execute(s);
  store.save(s, outcome);
  EXPECT_TRUE(store.contains(s));
  const auto loaded = store.load(s);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(json_of(*loaded), json_of(outcome));

  // A different scenario misses even though one outcome is stored.
  Scenario other = s;
  other.repetitions = 2;
  EXPECT_FALSE(store.contains(other));

  // A corrupt file (truncation, interference) is quarantined to
  // <fingerprint>.json.corrupt and reads as a miss — the scenario
  // re-executes instead of the campaign aborting.
  {
    std::ofstream os(store.path_for(s));
    os << "{ not json";
  }
  EXPECT_EQ(store.load(s), std::nullopt);
  EXPECT_FALSE(store.contains(s));
  EXPECT_TRUE(std::filesystem::exists(store.path_for(s) + ".corrupt"));

  // The quarantined fingerprint is writable again: a clean save restores
  // it, and the quarantine file does not shadow the healthy one.
  store.save(s, outcome);
  const auto healed = store.load(s);
  ASSERT_TRUE(healed.has_value());
  EXPECT_EQ(json_of(*healed), json_of(outcome));
}

/// `text` with the value of the first `"key":` at or after `anchor`
/// replaced by `value` (for an array-valued key: its first element).
std::string with_value(std::string text, const std::string& anchor,
                       const std::string& key, const std::string& value) {
  const auto from = text.find(anchor);
  EXPECT_NE(from, std::string::npos) << anchor;
  if (from == std::string::npos) return text;
  auto at = text.find("\"" + key + "\":", from);
  EXPECT_NE(at, std::string::npos) << key;
  if (at == std::string::npos) return text;
  at += key.size() + 3;
  if (text[at] == '[') ++at;
  const auto end = text.find_first_of(",]}", at);
  text.replace(at, end - at, value);
  return text;
}

/// `text` with the first `from` replaced by `to`.
std::string with_text(std::string text, const std::string& from,
                      const std::string& to) {
  const auto at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  if (at != std::string::npos) text.replace(at, from.size(), to);
  return text;
}

struct HostileCase {
  std::string name;
  const Scenario* scenario;
  std::string payload;
};

/// `text` with the JSON value of the first `"key":` after `anchor` (a
/// string or an array) replaced by `value`.
std::string with_column(std::string text, const std::string& anchor,
                        const std::string& key, const std::string& value) {
  const auto from = text.find(anchor);
  auto at = text.find("\"" + key + "\":", from);
  EXPECT_NE(from, std::string::npos) << anchor;
  EXPECT_NE(at, std::string::npos) << key;
  if (from == std::string::npos || at == std::string::npos) return text;
  at += key.size() + 3;
  const auto end = text[at] == '"' ? text.find('"', at + 1) + 1
                                   : text.find(']', at) + 1;
  text.replace(at, end - at, value);
  return text;
}

/// Damaged binary columns, on a record of `scenario` (an online run) cut
/// to one table row and two trajectory steps, so both padding lengths
/// occur: 8 bytes end in "x=" and 16 bytes in "x==". The row is given a
/// non-zero stddev, so the record stores that column too.
std::vector<HostileCase> binary_column_cases(const Scenario& scenario) {
  auto outcome = CampaignRunner::execute(scenario);
  outcome.table.resize(1);
  outcome.table[0].stddev_time = 0.25;
  outcome.trajectory.resize(2);
  const std::string good = OutcomeStore::make_payload(scenario, outcome);
  const std::string table = "\"table\":";
  const std::string traj = "\"trajectory\":";
  const std::string one = base64_le({outcome.table[0].mean_time});
  const std::string two = base64_le({outcome.trajectory[0].observed_time,
                                     outcome.trajectory[1].observed_time});
  EXPECT_EQ(one.substr(11), "=") << one;
  EXPECT_EQ(two.substr(22), "==") << two;
  const std::string alphabet =
      "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
  /// `text` with character `i` replaced by `c`.
  const auto put = [](std::string text, std::size_t i, char c) {
    text[i] = c;
    return text;
  };
  /// `text` with the lowest bit of character `i`'s sextet set.
  const auto low_bit = [&](const std::string& text, std::size_t i) {
    return put(text, i, alphabet[alphabet.find(text[i]) | 1]);
  };
  const auto quoted = [](const std::string& text) {
    return "\"" + text + "\"";
  };
  const auto table_mean = [&](const std::string& value) {
    return with_column(good, table, "mean_time", value);
  };
  const auto observed = [&](const std::string& value) {
    return with_column(good, traj, "observed_time", value);
  };
  const auto table_stddev = [&](const std::string& value) {
    return with_column(good, table, "stddev_time", value);
  };
  std::uint64_t nan_bits = 0x7FF0000000000001;  // a signalling NaN
  double signalling_nan = 0.0;
  std::memcpy(&signalling_nan, &nan_bits, sizeof nan_bits);
  const double inf = std::numeric_limits<double>::infinity();
  const double time = outcome.trajectory[0].observed_time;
  std::vector<HostileCase> cases = {
      {"binary column one block long", &scenario,
       table_mean(quoted(one + "AAAA"))},
      {"binary column one block short", &scenario,
       table_mean(quoted(one.substr(4)))},
      {"binary column of two values for one row", &scenario,
       table_mean(quoted(two))},
      {"binary column with a URL-safe character", &scenario,
       table_mean(quoted(put(one, 0, '-')))},
      {"binary column with a space", &scenario,
       table_mean(quoted(put(one, 3, ' ')))},
      {"binary column with a non-ASCII byte", &scenario,
       table_mean(quoted(put(one, 2, '\xC3')))},
      {"binary column with an interior '='", &scenario,
       table_mean(quoted(put(one, 5, '=')))},
      {"binary column with a missing '='", &scenario,
       table_mean(quoted(put(one, 11, 'A')))},
      {"binary column with '=' one early", &scenario,
       observed(quoted(put(put(two, 21, '='), 23, 'A')))},
      {"binary column with set padding bits (x=)", &scenario,
       table_mean(quoted(low_bit(one, 10)))},
      {"binary column with set padding bits (x==)", &scenario,
       observed(quoted(low_bit(two, 21)))},
      {"binary column holding a quiet NaN", &scenario,
       table_mean(quoted(base64_le({std::nan("")})))},
      {"binary column holding a signalling NaN", &scenario,
       table_mean(quoted(base64_le({signalling_nan})))},
      {"binary column holding +inf", &scenario,
       observed(quoted(base64_le({time, inf})))},
      {"binary column holding -inf", &scenario,
       observed(quoted(base64_le({-inf, time})))},
      {"stddev column holding a quiet NaN", &scenario,
       table_stddev(quoted(base64_le({std::nan("")})))},
      {"stddev column one block short", &scenario,
       table_stddev(quoted(one.substr(4)))},
      {"stddev column of two values for one row", &scenario,
       table_stddev(quoted(base64_le({0.25, 0.25})))},
      {"stddev column holding only +0.0", &scenario,
       table_stddev(quoted(base64_le({0.0})))},
      {"v2-style array column", &scenario, table_mean("[1.5]")},
      {"v2-style array trajectory column", &scenario,
       observed("[" + Json(time).dump(-1) + "," + Json(time).dump(-1) + "]")},
  };
  // The unmutated record is fine, so the mutations are what fail.
  EXPECT_NO_THROW(tuner::outcome_from_json(Json::parse(good).at("outcome")));
  for (const auto& c : cases) EXPECT_NE(c.payload, good) << c.name;
  return cases;
}

/// Records whose weights, or whose rows' speedups, are out of range, on
/// the records of `sweep` (a 3-group exhaustive run) and `online` (whose
/// table is all its rows). Every record carries its weights at the top.
std::vector<HostileCase> derivation_cases(const Scenario& sweep,
                                          const Scenario& online) {
  const auto outcome = CampaignRunner::execute(sweep);
  const std::string good = OutcomeStore::make_payload(sweep, outcome);
  const std::string good_online =
      OutcomeStore::make_payload(online, CampaignRunner::execute(online));
  const std::string at = "\"outcome\":";
  const auto quoted = [](const std::vector<double>& values) {
    return "\"" + base64_le(values) + "\"";
  };
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> means;
  for (const auto& c : outcome.sweep->configs) means.push_back(c.mean_time);
  means[5] = 0.0;  // speedup = baseline / 0
  std::vector<HostileCase> cases = {
      {"footprint weights of the wrong length", &sweep,
       with_column(good, at, "footprint_bytes", quoted({1.0, 2.0}))},
      {"traffic weights of the wrong length", &online,
       with_column(good_online, at, "traffic_bytes",
                   quoted({1.0, 2.0, 3.0, 4.0}))},
      {"a non-finite footprint weight", &sweep,
       with_column(good, at, "footprint_bytes", quoted({1.0, inf, 1.0}))},
      {"a negative traffic weight", &online,
       with_column(good_online, at, "traffic_bytes", quoted({1.0, -1.0, 1.0}))},
      {"a negative traffic total", &sweep,
       with_value(good, at, "traffic_total", "-1")},
      {"a non-finite footprint total", &online,
       with_value(good_online, at, "footprint_total", "1e999")},
      {"zero footprint total", &sweep,
       with_value(good, at, "footprint_total", "0")},
      {"negative footprint total", &online,
       with_value(good_online, at, "footprint_total", "-5")},
      {"no footprint weights", &sweep,
       with_text(good, "\"footprint_bytes\":", "\"footprint_byte\":")},
      {"no traffic weights", &online,
       with_text(good_online, "\"traffic_bytes\":", "\"traffic_byte\":")},
      {"speedup of +inf", &sweep,
       with_column(good, "\"configs\":", "mean_time", quoted(means))},
      {"hbm_usage of +inf in a sweep record", &sweep,
       with_value(good, at, "footprint_total", "1e-320")},
      {"hbm_usage of +inf in a table-only record", &online,
       with_value(good_online, at, "footprint_total", "1e-320")},
  };
  EXPECT_NO_THROW(tuner::outcome_from_json(Json::parse(good).at("outcome")));
  for (const auto& c : cases) EXPECT_NE(c.payload, good) << c.name;
  return cases;
}

/// Records that break a trajectory derivation rule, on the records of
/// `sweep` (an empty trajectory) and `online` (a noise-free run: every
/// step time is its row's mean time, and the indices count up from 2).
std::vector<HostileCase> trajectory_cases(const Scenario& sweep,
                                          const Scenario& online) {
  const auto outcome = CampaignRunner::execute(online);
  const std::string good = OutcomeStore::make_payload(online, outcome);
  const std::string good_sweep =
      OutcomeStore::make_payload(sweep, CampaignRunner::execute(sweep));
  const std::string traj = "\"trajectory\":{";
  const std::string table = "\"table\":";
  const auto& steps = outcome.trajectory;
  EXPECT_EQ(steps.front().index, 2);
  const std::string start = "\"index\":2,";
  EXPECT_NE(good.find(traj + start), std::string::npos);
  EXPECT_EQ(good.find("observed_time"), std::string::npos);
  // A mask the search never measured, so it has no row.
  tuner::ConfigMask unmeasured = 0;
  while (std::any_of(outcome.table.begin(), outcome.table.end(),
                     [&](const tuner::ConfigResult& c) {
                       return c.mask == unmeasured;
                     }))
    ++unmeasured;
  std::vector<double> times;
  std::string counting;
  for (const auto& step : steps) {
    times.push_back(step.observed_time);
    counting += (counting.empty() ? "[" : ",") + std::to_string(step.index);
  }
  const auto past_int_max = static_cast<long long>(INT_MAX) -
                            static_cast<long long>(steps.size()) + 2;
  std::vector<HostileCase> cases = {
      {"left-out step time of a mask with no row", &online,
       with_value(good, traj, "mask", std::to_string(unmeasured))},
      {"table masks not increasing", &online,
       with_value(good, table, "mask",
                  std::to_string(outcome.table[1].mask))},
      {"stored step times equal to their rows' mean times", &online,
       with_text(good, traj + start,
                 traj + "\"observed_time\":\"" + base64_le(times) + "\"," +
                     start)},
      {"index array counting up by one", &online,
       with_text(good, traj + start, traj + "\"index\":" + counting + "],")},
      {"fractional index start", &online,
       with_value(good, traj, "index", "2.5")},
      {"index start whose run passes INT_MAX", &online,
       with_value(good, traj, "index", std::to_string(past_int_max))},
      {"index start far out of int range", &online,
       with_value(good, traj, "index", "1e300")},
      {"empty trajectory index other than 1", &sweep,
       with_value(good_sweep, traj, "index", "2")},
      {"empty trajectory index array", &sweep,
       with_text(good_sweep, traj + "\"index\":1,", traj + "\"index\":[],")},
  };
  EXPECT_NO_THROW(tuner::outcome_from_json(Json::parse(good).at("outcome")));
  for (const auto& c : cases) EXPECT_NE(c.payload, good) << c.name;
  return cases;
}

TEST(OutcomeStoreTest, OutOfRangeRecordsReadAsDamaged) {
  // Each record below is well-formed JSON carrying the right version and
  // fingerprint, but one decoded value is out of range. Every one must
  // read as a damaged record (a miss; dir stores quarantine it), never as
  // an outcome, a crash or undefined behaviour.
  Scenario sweep;
  sweep.workload = parse_workload_spec("mg");
  sweep.platform = "spr-cxl";
  sweep.strategy = "exhaustive";
  sweep.tiers = 3;  // 3 groups: 27 configurations
  sweep.repetitions = 1;
  Scenario online = sweep;
  online.strategy = "online";
  const std::string good_sweep =
      OutcomeStore::make_payload(sweep, CampaignRunner::execute(sweep));
  const std::string good_online =
      OutcomeStore::make_payload(online, CampaignRunner::execute(online));
  const std::string o = "\"outcome\":";
  const std::string cols = "\"configs\":";
  const std::string traj = "\"trajectory\":";
  const std::string table = "\"table\":";
  std::vector<HostileCase> cases = {
      {"num_tiers above kNumPoolKinds", &sweep,
       with_value(good_sweep, o, "num_tiers", "4")},
      {"num_tiers below two", &sweep,
       with_value(good_sweep, o, "num_tiers", "1")},
      {"num_groups far out of int range", &sweep,
       with_value(good_sweep, o, "num_groups", "1e300")},
      {"fractional num_groups", &sweep,
       with_value(good_sweep, o, "num_groups", "2.5")},
      {"chosen_mask negative", &sweep,
       with_value(good_sweep, o, "chosen_mask", "-1")},
      {"chosen_mask of k^n", &sweep,
       with_value(good_sweep, o, "chosen_mask", "27")},
      {"chosen_mask of k^n in a table-only record", &online,
       with_value(good_online, o, "chosen_mask", "27")},
      {"chosen_time of 0", &sweep,
       with_value(good_sweep, o, "chosen_time", "0")},
      {"non-finite baseline", &sweep,
       with_value(good_sweep, o, "baseline_time", "1e999")},
      {"sweep column shorter than the others", &sweep,
       with_text(good_sweep, cols + "{",
                 cols + "{\"stddev_time\":\"" +
                     base64_le(std::vector<double>(26, 0.5)) + "\",")},
      {"sweep stddev column of only +0.0", &sweep,
       with_text(good_sweep, cols + "{",
                 cols + "{\"stddev_time\":\"" +
                     base64_le(std::vector<double>(27, 0.0)) + "\",")},
      {"sweep on a zero-group outcome", &sweep,
       with_column(
           with_column(
               with_column(
                   with_value(with_value(good_sweep, o, "num_groups", "0"), o,
                              "chosen_mask", "0"),
                   o, "footprint_bytes", "\"\""),
               o, "traffic_bytes", "\"\""),
           cols, "mean_time", "\"\"")},
      {"format-6 trajectory of accepted steps", &sweep,
       with_text(good_sweep,
                 traj + "{\"index\":1,\"mask\":[],\"accepted\":[]}",
                 traj + "{\"accepted_steps\":[1,2,5]}")},
      {"trajectory mask beyond k^n", &online,
       with_value(good_online, traj, "mask", "27")},
      {"trajectory index negative", &online,
       with_value(good_online, traj, "index", "-3")},
      {"trajectory column missing an entry", &online,
       with_text(good_online, "\"accepted\":[true,", "\"accepted\":[")},
      {"table mask beyond k^n", &online,
       with_value(good_online, table, "mask", "27")},
      {"table mask huge", &online,
       with_value(good_online, table, "mask", "1e300")},
  };

  for (auto& c : binary_column_cases(online)) cases.push_back(std::move(c));
  for (auto& c : derivation_cases(sweep, online))
    cases.push_back(std::move(c));
  for (auto& c : trajectory_cases(sweep, online))
    cases.push_back(std::move(c));

  for (const auto format : {StoreFormat::Dir, StoreFormat::Packed}) {
    for (const auto& c : cases) {
      const std::string what =
          std::string(to_string(format)) + ": " + c.name;
      StoreDir dir("hmpt_store_hostile");
      const OutcomeStore store(dir.path(), format);
      const std::string fp = c.scenario->fingerprint();
      ASSERT_NE(c.payload, OutcomeStore::make_payload(
                               *c.scenario, CampaignRunner::execute(
                                                *c.scenario)))
          << what;
      store.save_payload(fp, c.payload);
      EXPECT_TRUE(store.load_all_payloads().empty()) << what;
      EXPECT_EQ(store.find_record(fp), std::nullopt) << what;
      if (format == StoreFormat::Dir) {
        // Bulk and find reads leave the damaged file where it is.
        EXPECT_FALSE(fs::exists(store.path_for(*c.scenario) + ".corrupt"))
            << what;
      }
      EXPECT_EQ(store.load_outcome_json(fp), std::nullopt) << what;
      EXPECT_EQ(store.load(*c.scenario), std::nullopt) << what;
      EXPECT_EQ(store.payload(fp), std::nullopt) << what;
      if (format == StoreFormat::Dir) {
        EXPECT_TRUE(fs::exists(store.path_for(*c.scenario) + ".corrupt"))
            << what;
      }
      // The damaged record does not block the honest one.
      store.save(*c.scenario, CampaignRunner::execute(*c.scenario));
      EXPECT_TRUE(store.load(*c.scenario).has_value()) << what;
    }
  }
  // The unmutated records are fine, so the mutations are what failed.
  StoreDir dir("hmpt_store_hostile_control");
  const OutcomeStore store(dir.path());
  store.save_payload(sweep.fingerprint(), good_sweep);
  store.save_payload(online.fingerprint(), good_online);
  EXPECT_EQ(store.load_all_payloads().size(), 2u);
}

TEST(OutcomeStoreTest, SaveQuarantinesDamagedExistingFile) {
  StoreDir dir("hmpt_store_damaged_save");
  const OutcomeStore store(dir.path());

  Scenario s;
  s.workload = parse_workload_spec("mg");
  s.platform = "xeon-max";
  s.strategy = "estimator";
  s.repetitions = 1;
  const auto outcome = CampaignRunner::execute(s);

  // A damaged file already sits at the fingerprint's path (e.g. a torn
  // external copy). save() must quarantine it and publish the honest
  // outcome instead of reporting a determinism conflict.
  std::filesystem::create_directories(
      std::filesystem::path(dir.path()) / "outcomes");
  {
    std::ofstream os(store.path_for(s));
    os << "truncated";
  }
  store.save(s, outcome);
  const auto loaded = store.load(s);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(json_of(*loaded), json_of(outcome));
  EXPECT_TRUE(std::filesystem::exists(store.path_for(s) + ".corrupt"));

  // A *well-formed* conflicting outcome is still a loud failure.
  auto conflicting = outcome;
  conflicting.chosen_time += 1.0;
  EXPECT_THROW(store.save(s, conflicting), Error);
}

TEST(OutcomeStoreTest, LoadsByFingerprintAlone) {
  StoreDir dir("hmpt_store_by_fp");
  const OutcomeStore store(dir.path());

  Scenario s;
  s.workload = parse_workload_spec("mg");
  s.platform = "xeon-max";
  s.strategy = "estimator";
  s.repetitions = 1;
  EXPECT_EQ(store.load_by_fingerprint(s.fingerprint()), std::nullopt);

  const auto outcome = CampaignRunner::execute(s);
  store.save(s, outcome);
  const auto loaded = store.load_by_fingerprint(s.fingerprint());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(json_of(*loaded), json_of(outcome));
}

TEST(OutcomeStoreTest, ConcurrentIdenticalSavesBothSucceed) {
  StoreDir dir("hmpt_store_race");
  const OutcomeStore store(dir.path());

  Scenario s;
  s.workload = parse_workload_spec("mg");
  s.platform = "xeon-max";
  s.strategy = "estimator";
  s.repetitions = 1;
  const auto outcome = CampaignRunner::execute(s);

  // Two writers racing the same fingerprint with the same bytes: the
  // loser of the atomic publish must notice the winner wrote identical
  // content and return silently (daemon workers + a concurrent batch run
  // share stores this way).
  std::vector<std::thread> writers;
  std::atomic<int> failures{0};
  for (int t = 0; t < 2; ++t)
    writers.emplace_back([&] {
      try {
        store.save(s, outcome);
      } catch (const Error&) {
        ++failures;
      }
    });
  for (auto& writer : writers) writer.join();
  EXPECT_EQ(failures.load(), 0);
  const auto loaded = store.load(s);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(json_of(*loaded), json_of(outcome));
}

TEST(OutcomeStoreTest, ConflictingSaveForSameFingerprintThrows) {
  StoreDir dir("hmpt_store_conflict");
  const OutcomeStore store(dir.path());

  Scenario s;
  s.workload = parse_workload_spec("mg");
  s.platform = "xeon-max";
  s.strategy = "estimator";
  s.repetitions = 1;
  const auto outcome = CampaignRunner::execute(s);
  store.save(s, outcome);

  // Same fingerprint, different bytes: a silent overwrite (or silent
  // drop) would poison the cache, so this must fail loudly.
  auto tampered = outcome;
  tampered.chosen_time += 1.0;
  EXPECT_THROW(store.save(s, tampered), Error);
  // The first write survives untouched.
  const auto loaded = store.load(s);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(json_of(*loaded), json_of(outcome));
}

// ------------------------------------------------------------ packed store

class PackedStoreTest : public ::testing::Test {
 protected:
  static Scenario scenario_with_reps(int reps) {
    Scenario s;
    s.workload = parse_workload_spec("mg");
    s.platform = "xeon-max";
    s.strategy = "estimator";
    s.repetitions = reps;
    return s;
  }
  static std::uintmax_t log_size(const std::string& dir) {
    return fs::file_size(fs::path(dir) / "outcomes.log");
  }
};

TEST_F(PackedStoreTest, SavesLoadsAndMatchesTheDirFormatRecordForRecord) {
  StoreDir dir("hmpt_packed_basic");
  StoreDir twin("hmpt_packed_basic_twin");
  const OutcomeStore packed(dir.path(), StoreFormat::Packed);
  const OutcomeStore plain(twin.path(), StoreFormat::Dir);
  EXPECT_EQ(packed.format(), StoreFormat::Packed);

  const auto s1 = scenario_with_reps(1);
  const auto s2 = scenario_with_reps(2);
  EXPECT_FALSE(packed.contains(s1));
  EXPECT_EQ(packed.load(s1), std::nullopt);

  const auto o1 = CampaignRunner::execute(s1);
  const auto o2 = CampaignRunner::execute(s2);
  for (const auto* store : {&packed, &plain}) {
    store->save(s1, o1);
    store->save(s2, o2);
  }
  EXPECT_TRUE(packed.contains(s1));
  EXPECT_TRUE(packed.contains(s2));
  const auto loaded = packed.load_by_fingerprint(s1.fingerprint());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(json_of(*loaded), json_of(o1));

  // The payload bytes — the merge/report currency — are format-
  // independent: both stores hold the identical record set.
  EXPECT_EQ(packed.load_all_payloads(), plain.load_all_payloads());
  ASSERT_EQ(packed.load_all_payloads().size(), 2u);

  // Identical re-save is a silent no-op: no appended record.
  const auto size_before = log_size(dir.path());
  packed.save(s1, o1);
  EXPECT_EQ(log_size(dir.path()), size_before);

  // Conflicting bytes for a stored fingerprint fail loudly, first write
  // wins.
  auto tampered = o1;
  tampered.chosen_time += 1.0;
  EXPECT_THROW(packed.save(s1, tampered), Error);
  EXPECT_EQ(json_of(*packed.load(s1)), json_of(o1));

  // path_for is a dir-format concept; the packed store refuses it.
  EXPECT_THROW(packed.path_for(s1), Error);
}

TEST_F(PackedStoreTest, DetectsFormatsAndRefusesAMismatchedOpen) {
  StoreDir dir("hmpt_packed_detect");
  // No store yet: nothing to detect, open_existing falls back to dir.
  EXPECT_EQ(detect_store_format(dir.path()), std::nullopt);
  EXPECT_EQ(OutcomeStore::open_existing(dir.path()).format(),
            StoreFormat::Dir);

  const auto s = scenario_with_reps(1);
  {
    const OutcomeStore packed(dir.path(), StoreFormat::Packed);
    packed.save(s, CampaignRunner::execute(s));
  }
  EXPECT_EQ(detect_store_format(dir.path()), StoreFormat::Packed);
  // open_existing picks the on-disk format; an explicit wrong format is
  // refused with a pointer at --store-format instead of a second store
  // silently growing next to the first.
  EXPECT_TRUE(OutcomeStore::open_existing(dir.path()).contains(s));
  EXPECT_THROW(OutcomeStore(dir.path(), StoreFormat::Dir), Error);

  StoreDir plain_dir("hmpt_dir_detect");
  {
    const OutcomeStore plain(plain_dir.path(), StoreFormat::Dir);
    plain.save(s, CampaignRunner::execute(s));
  }
  EXPECT_EQ(detect_store_format(plain_dir.path()), StoreFormat::Dir);
  EXPECT_TRUE(OutcomeStore::open_existing(plain_dir.path()).contains(s));
  EXPECT_THROW(OutcomeStore(plain_dir.path(), StoreFormat::Packed), Error);

  EXPECT_EQ(store_format_from("dir"), StoreFormat::Dir);
  EXPECT_EQ(store_format_from("packed"), StoreFormat::Packed);
  EXPECT_THROW(store_format_from("sqlite"), Error);
}

TEST_F(PackedStoreTest, TornTailIsSkippedOnLoadAndRepairedByReexecution) {
  StoreDir dir("hmpt_packed_torn");
  const auto s1 = scenario_with_reps(1);
  const auto s2 = scenario_with_reps(2);
  const auto o1 = CampaignRunner::execute(s1);
  const auto o2 = CampaignRunner::execute(s2);

  std::uintmax_t size_after_first = 0;
  {
    const OutcomeStore store(dir.path(), StoreFormat::Packed);
    store.save(s1, o1);
    size_after_first = log_size(dir.path());
    store.save(s2, o2);
  }

  // Crash mid-append: the second record's frame is half on disk. A
  // reader must keep every record before the tear and treat the torn
  // fingerprint as a miss — never abort, never trust garbage.
  fs::resize_file(fs::path(dir.path()) / "outcomes.log",
                  size_after_first + 17);
  {
    const OutcomeStore store = OutcomeStore::open_existing(dir.path());
    EXPECT_TRUE(store.contains(s1));
    EXPECT_FALSE(store.contains(s2));
    EXPECT_EQ(json_of(*store.load(s1)), json_of(o1));
    EXPECT_EQ(store.load(s2), std::nullopt);
    ASSERT_EQ(store.load_all_payloads().size(), 1u);

    // Re-execution (what --resume does for a missing fingerprint) repairs
    // the store: the torn bytes are truncated away and the record lands
    // whole.
    store.save(s2, o2);
    EXPECT_EQ(json_of(*store.load(s2)), json_of(o2));
  }
  // The repaired log parses cleanly from scratch, index or not.
  const OutcomeStore reread = OutcomeStore::open_existing(dir.path());
  EXPECT_EQ(reread.load_all_payloads().size(), 2u);
  EXPECT_EQ(json_of(*reread.load(s1)), json_of(o1));
}

TEST_F(PackedStoreTest, CorruptOrMissingIndexNeverChangesAnswers) {
  StoreDir dir("hmpt_packed_idx");
  const auto s1 = scenario_with_reps(1);
  const auto s2 = scenario_with_reps(2);
  const auto o1 = CampaignRunner::execute(s1);
  const auto o2 = CampaignRunner::execute(s2);
  {
    const OutcomeStore store(dir.path(), StoreFormat::Packed);
    store.save(s1, o1);
    store.save(s2, o2);
  }
  const auto idx = fs::path(dir.path()) / "outcomes.idx";
  ASSERT_TRUE(fs::exists(idx));

  // The index is a disposable cache; garbage in it must be ignored in
  // favour of a log scan.
  {
    std::ofstream os(idx, std::ios::binary);
    os << "zzzz not an index\n";
  }
  {
    const OutcomeStore store = OutcomeStore::open_existing(dir.path());
    EXPECT_EQ(json_of(*store.load(s1)), json_of(o1));
    EXPECT_EQ(json_of(*store.load(s2)), json_of(o2));
  }

  // An index pointing at the wrong offset is caught by per-record
  // verification and answered from a rescan, not by returning the wrong
  // scenario's bytes.
  {
    std::ofstream os(idx, std::ios::binary);
    os << s2.fingerprint() << " 0 10\n";
  }
  {
    const OutcomeStore store = OutcomeStore::open_existing(dir.path());
    EXPECT_EQ(json_of(*store.load(s2)), json_of(o2));
  }

  // Deleting it entirely is also fine; the next save writes a fresh one.
  fs::remove(idx);
  {
    const OutcomeStore store = OutcomeStore::open_existing(dir.path());
    EXPECT_EQ(store.load_all_payloads().size(), 2u);
    const auto s3 = scenario_with_reps(3);
    store.save(s3, CampaignRunner::execute(s3));
    EXPECT_TRUE(fs::exists(idx));
    EXPECT_EQ(store.load_all_payloads().size(), 3u);
  }
}

TEST_F(PackedStoreTest, DamagedRecordIsSupersededNotConflicting) {
  StoreDir dir("hmpt_packed_damaged");
  const auto s = scenario_with_reps(1);
  const auto o = CampaignRunner::execute(s);

  // A frame-intact record whose payload is garbage (the packed analogue
  // of the dir store's quarantined file): loads miss, and a clean save
  // appends the honest record instead of raising a determinism conflict.
  fs::create_directories(dir.path());
  {
    std::ofstream os(fs::path(dir.path()) / "outcomes.log",
                     std::ios::binary);
    os << "hmpt1 " << s.fingerprint() << " 9\nnot json!\n";
  }
  const OutcomeStore store = OutcomeStore::open_existing(dir.path());
  EXPECT_EQ(store.load(s), std::nullopt);
  EXPECT_TRUE(store.load_all_payloads().empty());

  store.save(s, o);
  EXPECT_EQ(json_of(*store.load(s)), json_of(o));
  ASSERT_EQ(store.load_all_payloads().size(), 1u);

  // A *well-formed* conflicting outcome is still a loud failure.
  auto conflicting = o;
  conflicting.chosen_time += 1.0;
  EXPECT_THROW(store.save(s, conflicting), Error);
}

TEST_F(PackedStoreTest, AppendsScanOneFramePerSaveNotTheWholeLog) {
  // Each save re-reads only the frame it wrote last (the log must still
  // end there) and whatever other writers appended since, so the bytes
  // scanned per save stay one frame however long the log grows. A
  // shrink falls back to the full rescan; first-write-wins spans writers.
  StoreDir dir("hmpt_packed_linear");
  const OutcomeStore store(dir.path(), StoreFormat::Packed);
  const std::string outcome =
      json_of(CampaignRunner::execute(scenario_with_reps(1)));
  const auto fingerprint = [](int i) {
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016x", i);
    return std::string(hex);
  };
  const auto payload = [&](int i, const std::string& scenario = "{}") {
    return "{\"format_version\":" + std::to_string(kFingerprintVersion) +
           ",\"fingerprint\":\"" + fingerprint(i) + "\",\"scenario\":" +
           scenario + ",\"outcome\":" + outcome + "}";
  };
  const std::uint64_t frame = std::string("hmpt1 ").size() + 16 + 1 +
                              std::to_string(payload(0).size()).size() + 1 +
                              payload(0).size() + 1;
  const obs::Counter& scanned =
      obs::metrics().counter("store.packed_save_scan_bytes");

  constexpr int kRecords = 2000;
  const std::uint64_t start = scanned.value();
  for (int i = 0; i < kRecords; ++i) {
    const std::uint64_t before = scanned.value();
    store.save_payload(fingerprint(i), payload(i));
    ASSERT_LE(scanned.value() - before, frame) << "save " << i;
  }
  EXPECT_LE(scanned.value() - start, kRecords * frame);
  EXPECT_EQ(log_size(dir.path()), kRecords * frame);

  // Another writer's append is picked up by the next save's scan.
  const OutcomeStore other(dir.path(), StoreFormat::Packed);
  other.save_payload(fingerprint(kRecords), payload(kRecords));
  std::uint64_t before = scanned.value();
  store.save_payload(fingerprint(kRecords + 1), payload(kRecords + 1));
  EXPECT_LE(scanned.value() - before, 2 * frame);
  EXPECT_THROW(store.save_payload(fingerprint(kRecords),
                                  payload(kRecords, "{\"x\":1}")),
               Error);
  store.save_payload(fingerprint(kRecords), payload(kRecords));  // no-op
  EXPECT_EQ(log_size(dir.path()), (kRecords + 2) * frame);

  // Cutting the last record off shrinks the log: the next save rescans
  // it whole and then appends.
  fs::resize_file(fs::path(dir.path()) / "outcomes.log",
                  (kRecords + 1) * frame);
  before = scanned.value();
  store.save_payload(fingerprint(kRecords + 2), payload(kRecords + 2));
  EXPECT_EQ(scanned.value() - before, (kRecords + 1) * frame);

  // A log of the same length whose frames moved (the first one rotated
  // to the end) no longer holds the cached tail where the cache says:
  // the next save rescans it whole.
  const auto log = fs::path(dir.path()) / "outcomes.log";
  std::string bytes;
  {
    std::ifstream is(log, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(is), {});
  }
  ASSERT_EQ(bytes.size(), (kRecords + 2) * frame);
  {
    std::ofstream os(log, std::ios::binary | std::ios::trunc);
    os << bytes.substr(frame) << bytes.substr(0, frame);
  }
  before = scanned.value();
  store.save_payload(fingerprint(kRecords + 3), payload(kRecords + 3));
  EXPECT_EQ(scanned.value() - before, (kRecords + 2) * frame);

  const auto all = OutcomeStore::open_existing(dir.path()).load_all_payloads();
  ASSERT_EQ(all.size(), static_cast<std::size_t>(kRecords + 3));
  EXPECT_EQ(all.front().second, payload(0));
  EXPECT_EQ(all.back().second, payload(kRecords + 3));
}

// ----------------------------------------------------------------- runner

class CampaignRunnerTest : public ::testing::Test {
 protected:
  /// The acceptance-criteria matrix: 3 workloads x {xeon-max, spr-cxl} x
  /// {exhaustive, estimator, online} = 18 scenarios.
  static std::vector<Scenario> scenarios() {
    ScenarioMatrix matrix;
    matrix.workloads = {
        parse_workload_spec("mg"),
        parse_workload_spec("stream:array_gb=1,iterations=2"),
        parse_workload_spec("pointer-chase:accesses=1e8,window_gb=1")};
    matrix.platforms = {"xeon-max", "spr-cxl"};
    matrix.strategies = {"exhaustive", "estimator", "online"};
    matrix.repetitions = 1;
    return matrix.expand();
  }
};

TEST_F(CampaignRunnerTest, DryRunPlansWithoutExecuting) {
  StoreDir dir("hmpt_campaign_dry");
  CampaignOptions options;
  options.output_dir = dir.path();
  options.dry_run = true;

  const auto scenario_list = scenarios();
  ASSERT_GE(scenario_list.size(), 12u);
  const auto result = CampaignRunner(options).run(scenario_list);
  EXPECT_EQ(result.planned, static_cast<int>(scenario_list.size()));
  EXPECT_EQ(result.executed, 0);
  EXPECT_TRUE(result.ok());
  // Nothing was stored — a dry run never even creates the directories —
  // and the dry-run plan is exactly the real plan.
  EXPECT_FALSE(fs::exists(fs::path(dir.path()) / "outcomes"));
  EXPECT_EQ(plan_table(scenario_list).to_text(),
            plan_table(scenarios()).to_text());
}

TEST_F(CampaignRunnerTest, ResumeSkipsEverythingAndReproducesArtifacts) {
  StoreDir dir("hmpt_campaign_resume");
  CampaignOptions options;
  options.output_dir = dir.path();
  options.scenario_jobs = 4;

  const auto scenario_list = scenarios();
  const auto cold = CampaignRunner(options).run(scenario_list);
  EXPECT_EQ(cold.executed, static_cast<int>(scenario_list.size()));
  EXPECT_EQ(cold.cached, 0);
  ASSERT_TRUE(cold.ok());

  const auto paths = write_artifacts(cold, options.output_dir);
  ASSERT_EQ(paths.size(), 3u);  // runs.csv, summary.json, status.json
  std::ifstream csv(paths[0]);
  std::stringstream cold_csv;
  cold_csv << csv.rdbuf();
  ASSERT_FALSE(cold_csv.str().empty());

  // Re-run with resume: zero executions, every outcome served from the
  // store, byte-identical runs.csv.
  options.resume = true;
  options.scenario_jobs = 1;  // different concurrency must not matter
  const auto warm = CampaignRunner(options).run(scenario_list);
  EXPECT_EQ(warm.executed, 0);
  EXPECT_EQ(warm.cached, static_cast<int>(scenario_list.size()));
  EXPECT_EQ(text_of(write_runs_csv, warm), cold_csv.str());
  for (std::size_t i = 0; i < scenario_list.size(); ++i)
    EXPECT_EQ(json_of(warm.runs[i].outcome), json_of(cold.runs[i].outcome));
}

TEST_F(CampaignRunnerTest, ConcurrencyDoesNotChangeResults) {
  StoreDir dir_serial("hmpt_campaign_serial");
  StoreDir dir_parallel("hmpt_campaign_parallel");
  const auto scenario_list = scenarios();

  CampaignOptions serial;
  serial.output_dir = dir_serial.path();
  serial.scenario_jobs = 1;
  CampaignOptions parallel;
  parallel.output_dir = dir_parallel.path();
  parallel.scenario_jobs = 0;  // all hardware threads

  const auto a = CampaignRunner(serial).run(scenario_list);
  const auto b = CampaignRunner(parallel).run(scenario_list);
  EXPECT_EQ(text_of(write_runs_csv, a), text_of(write_runs_csv, b));
  // The deterministic summary is byte-identical across concurrency; the
  // volatile execution log agrees on counts (but not wall times).
  EXPECT_EQ(text_of(write_summary_json, a), text_of(write_summary_json, b));
  EXPECT_EQ(
      Json::parse(text_of(write_status_json, a)).at("executed").as_number(),
      Json::parse(text_of(write_status_json, b)).at("executed").as_number());
}

TEST_F(CampaignRunnerTest, ErrorPolicyKeepGoingVsFailFast) {
  // "recorded" with a missing file passes matrix validation (the name is
  // registered) but throws when the factory runs — a realistic mid-
  // campaign failure.
  Scenario bad;
  bad.workload = parse_workload_spec("recorded:path=/nonexistent.profile");
  bad.platform = "xeon-max";
  bad.strategy = "estimator";
  bad.repetitions = 1;
  Scenario good;
  good.workload = parse_workload_spec("mg");
  good.platform = "xeon-max";
  good.strategy = "estimator";
  good.repetitions = 1;

  StoreDir dir("hmpt_campaign_errors");
  CampaignOptions options;
  options.output_dir = dir.path();
  options.keep_going = true;
  const auto result = CampaignRunner(options).run({bad, good});
  EXPECT_EQ(result.failed, 1);
  EXPECT_EQ(result.executed, 1);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.runs[0].status, ScenarioRun::Status::Failed);
  EXPECT_FALSE(result.runs[0].error.empty());
  EXPECT_EQ(result.runs[1].status, ScenarioRun::Status::Executed);
  // The failure is recorded in summary.json for post-mortems.
  const auto summary = Json::parse(text_of(write_summary_json, result));
  EXPECT_EQ(summary.at("failed").as_number(), 1.0);

  options.keep_going = false;
  EXPECT_THROW(CampaignRunner(options).run({bad, good}), Error);
}

TEST_F(CampaignRunnerTest, MeasureJobsIsPinnedToOne) {
  // Both spellings stay for perfbench, which sets 1; measurement is
  // serial, so any other count is refused instead of ignored.
  Scenario s;
  s.workload = parse_workload_spec("mg");
  s.platform = "xeon-max";
  s.strategy = "estimator";
  s.repetitions = 1;
  EXPECT_NO_THROW(CampaignRunner::execute(s, 1));
  EXPECT_THROW(CampaignRunner::execute(s, 2), Error);

  StoreDir dir("hmpt_campaign_measure_jobs");
  CampaignOptions options;
  options.output_dir = dir.path();
  options.measure_jobs = 2;
  EXPECT_THROW(CampaignRunner{options}, Error);
  options.measure_jobs = 0;
  EXPECT_THROW(CampaignRunner{options}, Error);
}

// --------------------------------------------------------------- executor

/// A quick scenario, and one that passes validation but fails every time
/// it runs: "recorded" with a missing profile throws a transient error
/// when the workload factory opens it.
Scenario quick_scenario() {
  Scenario s;
  s.workload = parse_workload_spec("mg");
  s.platform = "xeon-max";
  s.strategy = "estimator";
  s.repetitions = 1;
  return s;
}

Scenario failing_scenario() {
  Scenario s = quick_scenario();
  s.workload = parse_workload_spec("recorded:path=/nonexistent.profile");
  return s;
}

/// The failure text with every attempt's wall time, "(0.01s)", blanked:
/// the only part of it that may differ between two runs.
std::string without_timings(const std::string& error) {
  return std::regex_replace(error, std::regex(R"(\([0-9.]+s\))"), "(s)");
}

TEST(ScenarioExecutorTest, RetriesATransientFailureAndStoresOnce) {
  StoreDir dir("hmpt_executor_retry");
  const OutcomeStore store(dir.path());
  const Scenario scenario = quick_scenario();
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_s = 0.0;
  const std::uint64_t retries_before =
      obs::metrics().counter("scenario.retries").value();

  int calls = 0;
  const auto executed = execute_and_store(
      scenario, scenario.fingerprint(), store, policy,
      [&](const CancelToken&) {
        if (++calls == 1) raise("transient wobble");
        return CampaignRunner::execute(scenario);
      });
  ASSERT_TRUE(executed.ok()) << executed.error;
  EXPECT_EQ(executed.attempts, 2);
  EXPECT_EQ(executed.timeouts, 0);
  EXPECT_TRUE(executed.error.empty());
  EXPECT_EQ(obs::metrics().counter("scenario.retries").value() -
                retries_before,
            1u);
  const auto stored = store.load_all_payloads();
  ASSERT_EQ(stored.size(), 1u);
  EXPECT_EQ(stored.front().first, scenario.fingerprint());
  EXPECT_EQ(json_of(*store.load(scenario)), json_of(*executed.outcome));
}

TEST(ScenarioExecutorTest, AlwaysFailingBodyReportsHistoryAndStoresNothing) {
  StoreDir dir("hmpt_executor_fail");
  const OutcomeStore store(dir.path());
  const Scenario scenario = quick_scenario();
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_s = 0.0;

  const auto executed = execute_and_store(
      scenario, scenario.fingerprint(), store, policy,
      [&](const CancelToken&) -> tuner::TuningOutcome {
        raise("deliberate failure");
      });
  EXPECT_FALSE(executed.ok());
  EXPECT_EQ(executed.attempts, 3);
  EXPECT_EQ(executed.error.rfind("after 3 attempts: attempt 1: "
                                 "deliberate failure (",
                                 0),
            0u)
      << executed.error;
  EXPECT_NE(executed.error.find("; attempt 3: deliberate failure"),
            std::string::npos);
  EXPECT_FALSE(store.contains(scenario));
  EXPECT_TRUE(store.load_all_payloads().empty());

  // One attempt keeps the raw error, with no attempt framing.
  policy.max_attempts = 1;
  const auto once = execute_and_store(
      scenario, scenario.fingerprint(), store, policy,
      [&](const CancelToken&) -> tuner::TuningOutcome {
        raise("deliberate failure");
      });
  EXPECT_EQ(once.error, "deliberate failure");
  EXPECT_EQ(once.attempts, 1);
}

TEST(ScenarioExecutorTest, BatchAndDaemonReportTheSameFailure) {
  const Scenario scenario = failing_scenario();

  StoreDir batch_dir("hmpt_executor_batch");
  CampaignOptions options;
  options.output_dir = batch_dir.path();
  options.keep_going = true;
  options.attempts = 3;
  const auto batch = CampaignRunner(options).run({scenario});
  ASSERT_EQ(batch.failed, 1);
  const ScenarioRun& run = batch.runs.front();
  EXPECT_EQ(run.attempts, 3);
  EXPECT_EQ(run.error.rfind("after 3 attempts: attempt 1: ", 0), 0u)
      << run.error;

  StoreDir daemon_dir("hmpt_executor_daemon");
  service::SimulatorProvider provider;
  service::SchedulerOptions scheduler_options;
  scheduler_options.retry.max_attempts = 3;
  service::Scheduler scheduler(provider, OutcomeStore(daemon_dir.path()),
                               scheduler_options);
  scheduler.start();
  scheduler.submit(scheduler.new_client(), scenario);
  const auto job = scheduler.wait(scenario.fingerprint());
  ASSERT_TRUE(job.has_value());
  EXPECT_EQ(job->state, service::JobState::Failed);
  EXPECT_EQ(job->attempts, run.attempts);
  EXPECT_EQ(without_timings(job->error), without_timings(run.error));
}

TEST_F(CampaignRunnerTest, PackedStoreReproducesDirArtifactsAndResumes) {
  StoreDir dir_plain("hmpt_campaign_dirfmt");
  StoreDir dir_packed("hmpt_campaign_packedfmt");
  const auto scenario_list = scenarios();

  CampaignOptions plain;
  plain.output_dir = dir_plain.path();
  plain.scenario_jobs = 4;
  CampaignOptions packed = plain;
  packed.output_dir = dir_packed.path();
  packed.store_format = StoreFormat::Packed;

  // Same campaign, either store layout: the deterministic artefacts are
  // byte-identical — the format is an implementation detail of the store.
  const auto a = CampaignRunner(plain).run(scenario_list);
  const auto b = CampaignRunner(packed).run(scenario_list);
  EXPECT_EQ(text_of(write_runs_csv, a), text_of(write_runs_csv, b));
  EXPECT_EQ(text_of(write_summary_json, a), text_of(write_summary_json, b));
  EXPECT_TRUE(fs::exists(fs::path(dir_packed.path()) / "outcomes.log"));
  EXPECT_FALSE(fs::exists(fs::path(dir_packed.path()) / "outcomes"));

  // Resume against the packed store: zero executions, all served from
  // the log.
  packed.resume = true;
  const auto warm = CampaignRunner(packed).run(scenario_list);
  EXPECT_EQ(warm.executed, 0);
  EXPECT_EQ(warm.cached, static_cast<int>(scenario_list.size()));
  EXPECT_EQ(text_of(write_runs_csv, warm), text_of(write_runs_csv, a));
}

// ------------------------------------------------------------------ report

TEST_F(CampaignRunnerTest, HtmlReportIsSelfContainedAndStoreDerivable) {
  StoreDir dir("hmpt_campaign_report");
  CampaignOptions options;
  options.output_dir = dir.path();
  options.store_format = StoreFormat::Packed;
  options.scenario_jobs = 4;
  const auto scenario_list = scenarios();
  const auto result = CampaignRunner(options).run(scenario_list);
  ASSERT_TRUE(result.ok());

  const auto html = html_of(result);
  // One self-contained document: inline SVG charts and inline script,
  // nothing fetched from anywhere.
  EXPECT_NE(html.find("<svg"), std::string::npos);
  EXPECT_NE(html.find("<script>"), std::string::npos);
  EXPECT_EQ(html.find("src=\"http"), std::string::npos);
  EXPECT_EQ(html.find("href=\"http"), std::string::npos);
  EXPECT_EQ(html.find("@import"), std::string::npos);

  // The campaign fingerprint headline and one drill-down per run.
  EXPECT_NE(html.find(campaign_fingerprint(scenario_list)),
            std::string::npos);
  for (const auto& run : result.runs)
    EXPECT_NE(html.find("id=\"fp-" + run.scenario.fingerprint() + "\""),
              std::string::npos);

  // Rendering is deterministic, and write_report publishes exactly those
  // bytes at <out>/report/index.html.
  EXPECT_EQ(html_of(result), html);
  const auto path = report::write_report(result, dir.path());
  EXPECT_EQ(path,
            (fs::path(dir.path()) / "report" / "index.html").string());
  std::ifstream is(path, std::ios::binary);
  std::ostringstream written;
  written << is.rdbuf();
  EXPECT_EQ(written.str(), html);

  // The store and the manifest every campaign run leaves regenerate the
  // same document: a merge of the one store rebuilds the campaign order.
  make_manifest(scenario_list, {1, 1}, result).save(dir.path());
  StoreDir regen("hmpt_campaign_report_regen");
  EXPECT_EQ(html_of(merge_shards({dir.path()}, regen.path())), html);
}

// -------------------------------------------------------- artefact bytes

/// A hand-built headline over two groups of 1 and 3 GB.
tuner::TuningOutcome headline(int num_tiers, tuner::ConfigMask mask,
                              double baseline_time, double chosen_time,
                              int configs_measured) {
  tuner::TuningOutcome o;
  o.num_groups = 2;
  o.num_tiers = num_tiers;
  o.chosen_mask = mask;
  o.baseline_time = baseline_time;
  o.chosen_time = chosen_time;
  o.configs_measured = configs_measured;
  o.measurements = 3 * configs_measured;
  o.weights.footprint_bytes = {1e9, 3e9};
  o.weights.footprint_total = 4e9;
  return o;
}

ScenarioRun edge_run(const std::string& workload, const std::string& platform,
                     const std::string& strategy, ScenarioRun::Status status) {
  ScenarioRun run;
  run.scenario.workload = parse_workload_spec(workload);
  run.scenario.platform = platform;
  run.scenario.strategy = strategy;
  run.scenario.repetitions = 2;
  run.status = status;
  return run;
}

/// Every row kind the artefacts know, in one result: executed, cached
/// (one with per-tier budgets and a hand-built empty fingerprint), a
/// speedup tie, failures whose error text needs CSV, JSON and HTML
/// escaping, and a planned entry.
CampaignResult mixed_edge_result() {
  using Status = ScenarioRun::Status;
  CampaignResult result;
  ScenarioRun mg = edge_run("mg", "xeon-max", "estimator", Status::Executed);
  mg.scenario.budget_gb = 16.0;
  mg.outcome = headline(2, 1, 2.0, 1.6, 3);
  mg.fingerprint = mg.scenario.fingerprint();
  mg.seconds = 0.25;
  mg.attempts = 1;
  result.runs.push_back(mg);

  ScenarioRun bt = edge_run("bt", "spr-cxl", "exhaustive", Status::Cached);
  bt.scenario.tiers = 3;
  bt.scenario.tier_budgets_gb = {{1, 8.0}, {2, 64.5}};
  bt.outcome = headline(3, 7, 3.0, 1.5, 9);
  result.runs.push_back(bt);

  ScenarioRun failed =
      edge_run("kwave", "xeon-max", "online", Status::Failed);
  failed.fingerprint = failed.scenario.fingerprint();
  failed.error = "after 2 attempts: attempt 1: a, \"quoted\" <b> & c\n"
                 "line two\x01 end";
  failed.attempts = 2;
  result.runs.push_back(failed);

  ScenarioRun stream = edge_run("stream:array_gb=4,iterations=5", "xeon-max",
                                "exhaustive", Status::Executed);
  stream.outcome = headline(2, 2, 1.0, 0.8, 4);  // ties mg's 1.25x
  stream.fingerprint = stream.scenario.fingerprint();
  stream.seconds = 0.5;
  stream.attempts = 1;
  result.runs.push_back(stream);

  ScenarioRun planned = edge_run("sp", "knl", "estimator", Status::Planned);
  planned.fingerprint = planned.scenario.fingerprint();
  result.runs.push_back(planned);

  ScenarioRun timeout = edge_run("ua", "spr-cxl", "online", Status::Failed);
  timeout.error = "timeout: scenario exceeded 60s";
  result.runs.push_back(timeout);

  result.executed = 2;
  result.cached = 1;
  result.failed = 2;
  result.planned = 1;
  result.seconds = 1.5;
  return result;
}

/// A --dry-run result: every scenario planned, one with tier budgets.
CampaignResult dry_run_edge_result() {
  CampaignResult result;
  for (const char* workload : {"mg", "bt"}) {
    ScenarioRun run = edge_run(workload, "spr-cxl", "estimator",
                               ScenarioRun::Status::Planned);
    run.fingerprint = run.scenario.fingerprint();
    result.runs.push_back(run);
  }
  result.runs[1].scenario.tier_budgets_gb = {{2, 32.0}};
  result.runs[1].fingerprint = result.runs[1].scenario.fingerprint();
  result.planned = 2;
  result.seconds = 0.125;
  return result;
}

/// Three scenario spans on two lanes, one unlabelled and one without a
/// status.
report::TraceTimeline edge_timeline() {
  report::TraceTimeline timeline;
  report::TimelineSpan a;
  a.label = "mg/xeon-max/estimator";
  a.fingerprint = "0123456789abcdef";
  a.status = "executed";
  a.lane = "hmpt-worker-1";
  a.start_ms = 0.5;
  a.end_ms = 12.25;
  timeline.spans.push_back(a);
  report::TimelineSpan b = a;
  b.label.clear();
  b.status = "failed";
  b.lane = "hmpt-worker-2";
  b.start_ms = 1.0;
  b.end_ms = 30.0;
  timeline.spans.push_back(b);
  report::TimelineSpan c = a;
  c.status.clear();
  c.start_ms = 13.0;
  c.end_ms = 14.5;
  timeline.spans.push_back(c);
  return timeline;
}

TEST(ArtefactBytesTest, EdgeCasesMatchTheirGoldens) {
  // Each artefact's bytes for the edge cases a campaign can reach, against
  // tests/data/artefacts/<case>.<artefact> (HMPT_UPDATE_GOLDEN=1 rewrites
  // them; regenerate only for an intended format change). The hand-built
  // results hold fixed wall times, so status.json is pinned too.
  StoreDir dir("hmpt_artefact_goldens");
  const report::TraceTimeline timeline = edge_timeline();
  const auto check = [&](const std::string& tag, const CampaignResult& result,
                         const report::TraceTimeline* trace) {
    const std::string out = dir.path() + "/" + tag;
    write_artifacts(result, out);
    report::write_report(result, out, trace);
    for (const std::string name :
         {"runs.csv", "summary.json", "status.json", "report/index.html"}) {
      std::ifstream is(out + "/" + name, std::ios::binary);
      std::ostringstream written;
      written << is.rdbuf();
      const std::string golden_path =
          std::string(HMPT_TEST_DATA_DIR) + "/artefacts/" + tag + "." +
          fs::path(name).filename().string();
      if (std::getenv("HMPT_UPDATE_GOLDEN") != nullptr) {
        fs::create_directories(fs::path(golden_path).parent_path());
        std::ofstream os(golden_path, std::ios::binary);
        os << written.str();
      }
      std::ifstream gs(golden_path, std::ios::binary);
      ASSERT_TRUE(gs.good()) << "missing golden " << golden_path;
      std::ostringstream golden;
      golden << gs.rdbuf();
      EXPECT_EQ(written.str(), golden.str())
          << tag << " " << name << " diverged from " << golden_path;
    }
  };
  check("empty", CampaignResult{}, nullptr);
  check("dry_run", dry_run_edge_result(), nullptr);
  check("mixed", mixed_edge_result(), &timeline);
}

TEST(ArtefactBytesTest, AWriteThatFailsPartwayRaisesNamingThePath) {
  // A streamed artefact can fail after its first bytes reached the file;
  // each writer must raise rather than leave a truncated file looking
  // finished. /dev/full accepts the open and refuses every byte.
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  StoreDir dir("hmpt_artefact_full_disk");
  const CampaignResult result = mixed_edge_result();
  int index = 0;
  for (const std::string name :
       {"runs.csv", "summary.json", "status.json", "report/index.html"}) {
    const fs::path out = fs::path(dir.path()) / std::to_string(++index);
    fs::create_directories(out / "report");
    const fs::path full = out / name;
    fs::create_symlink("/dev/full", full);
    try {
      write_artifacts(result, out.string());
      report::write_report(result, out.string());
      ADD_FAILURE() << "writing " << name << " to a full disk succeeded";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(full.string()), std::string::npos)
          << e.what();
    }
  }
}

TEST(ArtefactBytesTest, AFailedPublishKeepsTheOldFileAndNoTemporary) {
  // publish_file (manifests, plans, assignments, metrics snapshots)
  // writes `<path>.tmp.<pid>` and renames it over `path`: whatever step
  // fails, the published bytes stay as they were and no temporary is
  // left behind.
  StoreDir dir("hmpt_publish_failure");
  fs::create_directories(dir.path());
  const std::string path = dir.path() + "/shard.manifest.json";
  const auto bytes_of = [](const std::string& file) {
    std::ifstream is(file, std::ios::binary);
    std::ostringstream bytes;
    bytes << is.rdbuf();
    return bytes.str();
  };
  const auto entries = [&] {
    std::set<std::string> names;
    for (const auto& entry : fs::directory_iterator(dir.path()))
      names.insert(entry.path().filename().string());
    return names;
  };
  publish_file(path, [](std::ostream& os) { os << "old"; });

  const std::function<void(std::ostream&)> failing_writers[] = {
      [](std::ostream& os) {  // a short write
        os << "torn";
        os.setstate(std::ios::badbit);
      },
      [](std::ostream& os) {  // a writer that throws partway
        os << "torn";
        raise("writer failed");
      },
  };
  for (const auto& writer : failing_writers) {
    EXPECT_THROW(publish_file(path, writer), Error);
    EXPECT_EQ(bytes_of(path), "old");
    EXPECT_EQ(entries(), std::set<std::string>{"shard.manifest.json"});
  }

  // A rename that fails (the target is a non-empty directory) cleans up
  // its temporary too.
  const std::string busy = dir.path() + "/busy";
  fs::create_directories(busy + "/inside");
  EXPECT_THROW(publish_file(busy, [](std::ostream& os) { os << "new"; }),
               Error);
  EXPECT_TRUE(fs::is_directory(busy + "/inside"));
  EXPECT_EQ(entries(), (std::set<std::string>{"busy", "shard.manifest.json"}));

  publish_file(path, [](std::ostream& os) { os << "new"; });
  EXPECT_EQ(bytes_of(path), "new");
}

}  // namespace
}  // namespace hmpt::campaign
