// Tests for the observability layer (src/obs): the Chrome trace-event
// recorder (concurrent span emission, JSON validity, per-lane timestamp
// monotonicity, B/E balance), the metrics registry (counters, gauges,
// histograms, empty-distribution snapshots), the report-side timeline
// loader, and the load-bearing inertness guarantee — a traced campaign
// produces byte-identical runs.csv/summary.json/outcome-store files to
// an untraced one.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "campaign/aggregate.h"
#include "campaign/campaign.h"
#include "common/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "report/report.h"

namespace hmpt::obs {
namespace {

namespace fs = std::filesystem;

/// A fresh directory per test, removed on scope exit (the campaign
/// tests' idiom).
class TempDir {
 public:
  explicit TempDir(const std::string& name)
      : path_((fs::temp_directory_path() / name).string()) {
    fs::remove_all(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string slurp(const fs::path& path) {
  std::ifstream is(path, std::ios::binary);
  std::stringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

/// Every regular file under `root`, keyed by its path relative to
/// `root`, mapped to its exact bytes.
std::map<std::string, std::string> file_bytes(const fs::path& root) {
  std::map<std::string, std::string> out;
  for (const auto& entry : fs::recursive_directory_iterator(root))
    if (entry.is_regular_file())
      out[fs::relative(entry.path(), root).string()] = slurp(entry.path());
  return out;
}

// ----------------------------------------------------------------- trace

TEST(TraceRecorderTest, DisarmedRecorderRecordsNothing) {
  auto& recorder = TraceRecorder::instance();
  ASSERT_FALSE(recorder.enabled());
  {
    TraceSpan span("test", "ignored");
    EXPECT_FALSE(span.armed());
    span.arg("key", "value");  // must be a no-op, not a crash
    trace_instant("test", "also-ignored");
    trace_counter("test", "depth", 3.0);
  }
  // Only the process_name metadata event may appear — nothing recorded.
  const auto doc = Json::parse(recorder.stop_and_render());
  for (const auto& event : doc.at("traceEvents").as_array())
    EXPECT_EQ(event.at("ph").as_string(), "M");
}

TEST(TraceRecorderTest, ConcurrentSpansRenderValidBalancedJson) {
  auto& recorder = TraceRecorder::instance();
  recorder.start();

  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        TraceSpan span("test", "work");
        span.arg_number("thread", static_cast<std::uint64_t>(t));
        span.arg_number("iter", static_cast<std::uint64_t>(i));
        trace_instant("test", "tick");
      }
    });
  }
  for (auto& thread : threads) thread.join();

  // The rendered document parses with the project's own JSON parser and
  // carries every emitted event.
  const auto doc = Json::parse(recorder.stop_and_render());
  const auto& events = doc.at("traceEvents").as_array();
  ASSERT_FALSE(events.empty());

  // Per (pid, tid) lane: timestamps never go backwards and B/E nest.
  std::map<std::pair<double, double>, double> last_ts;
  std::map<std::pair<double, double>, int> depth;
  int begins = 0, ends = 0;
  for (const auto& event : events) {
    const std::string ph = event.at("ph").as_string();
    if (ph == "M") continue;  // metadata carries no timestamp ordering
    const std::pair<double, double> lane{event.at("pid").as_number(),
                                         event.at("tid").as_number()};
    const double ts = event.at("ts").as_number();
    const auto it = last_ts.find(lane);
    if (it != last_ts.end()) {
      EXPECT_GE(ts, it->second);
    }
    last_ts[lane] = ts;
    if (ph == "B") {
      ++begins;
      ++depth[lane];
    } else if (ph == "E") {
      ++ends;
      EXPECT_GT(depth[lane]--, 0) << "E without a matching B";
    }
  }
  EXPECT_EQ(begins, kThreads * kSpansPerThread);
  EXPECT_EQ(begins, ends);
  for (const auto& [lane, open] : depth) EXPECT_EQ(open, 0);
}

TEST(TraceRecorderTest, UnclosedSpansAreSynthesisedClosed) {
  auto& recorder = TraceRecorder::instance();
  recorder.start();
  // Deliberately leak a span past the stop: render must still balance.
  auto* leaked = new TraceSpan("test", "leaked");
  const auto doc = Json::parse(recorder.stop_and_render());
  delete leaked;

  int begins = 0, ends = 0;
  for (const auto& event : doc.at("traceEvents").as_array()) {
    const std::string ph = event.at("ph").as_string();
    begins += ph == "B";
    ends += ph == "E";
  }
  EXPECT_EQ(begins, 1);
  EXPECT_EQ(ends, 1);
}

TEST(TraceRecorderTest, SpanArgsRideOnTheClosingEvent) {
  auto& recorder = TraceRecorder::instance();
  recorder.start();
  {
    TraceSpan span("campaign", "scenario");
    span.arg("fingerprint", "abc123");
    span.arg("status", "executed");
  }
  const auto doc = Json::parse(recorder.stop_and_render());
  bool saw_close = false;
  for (const auto& event : doc.at("traceEvents").as_array()) {
    if (event.at("ph").as_string() != "E") continue;
    saw_close = true;
    EXPECT_EQ(event.at("args").string_or("fingerprint", ""), "abc123");
    EXPECT_EQ(event.at("args").string_or("status", ""), "executed");
  }
  EXPECT_TRUE(saw_close);
}

// ----------------------------------------------------------- timeline

TEST(TraceTimelineTest, LoadsScenarioSpansFromATraceFile) {
  TempDir dir("hmpt_obs_timeline");
  fs::create_directories(dir.path());
  const std::string path = (fs::path(dir.path()) / "trace.json").string();

  auto& recorder = TraceRecorder::instance();
  recorder.start();
  {
    TraceSpan span("campaign", "scenario");
    span.arg("label", "mg/xeon-max/exhaustive");
    span.arg("fingerprint", "deadbeef");
    span.arg("status", "executed");
  }
  {
    TraceSpan other("strategy", "sweep");  // foreign cat: ignored
  }
  recorder.stop_and_write(path);

  const auto timeline = report::load_trace_timeline(path);
  ASSERT_EQ(timeline.spans.size(), 1u);
  const auto& span = timeline.spans[0];
  EXPECT_EQ(span.label, "mg/xeon-max/exhaustive");
  EXPECT_EQ(span.fingerprint, "deadbeef");
  EXPECT_EQ(span.status, "executed");
  EXPECT_GE(span.end_ms, span.start_ms);
  EXPECT_FALSE(span.lane.empty());
}

TEST(TraceTimelineTest, RejectsMissingAndMalformedFiles) {
  EXPECT_THROW(report::load_trace_timeline("/nonexistent/trace.json"),
               Error);
  TempDir dir("hmpt_obs_timeline_bad");
  fs::create_directories(dir.path());
  const std::string path = (fs::path(dir.path()) / "bad.json").string();
  std::ofstream(path) << "this is not json";
  EXPECT_THROW(report::load_trace_timeline(path), Error);
}

// ------------------------------------------------------------- metrics

TEST(MetricsTest, CountersGaugesAndHistogramsRoundTrip) {
  auto& registry = MetricsRegistry::instance();
  registry.reset();

  auto& counter = registry.counter("test.events");
  counter.add();
  counter.add(4);
  EXPECT_EQ(counter.value(), 5u);
  // Get-or-create returns the same instance.
  EXPECT_EQ(&registry.counter("test.events"), &counter);

  registry.gauge("test.depth").set(7.0);
  auto& histogram = registry.histogram("test.latency");
  for (int i = 1; i <= 100; ++i) histogram.observe(i);

  const auto snap = Json::parse(registry.snapshot().dump());
  EXPECT_EQ(snap.at("counters").number_or("test.events", 0), 5.0);
  EXPECT_EQ(snap.at("gauges").number_or("test.depth", 0), 7.0);
  const auto& latency = snap.at("histograms").at("test.latency");
  EXPECT_EQ(latency.number_or("count", 0), 100.0);
  EXPECT_GT(latency.number_or("p95", 0), latency.number_or("p50", 0));
  registry.reset();
}

TEST(MetricsTest, EmptyHistogramSnapshotsReportCountOnly) {
  auto& registry = MetricsRegistry::instance();
  registry.reset();
  registry.histogram("test.empty");  // registered, never observed

  const auto snap = Json::parse(registry.snapshot().dump());
  const auto& empty = snap.at("histograms").at("test.empty");
  EXPECT_EQ(empty.number_or("count", -1), 0.0);
  // No misleading zero quantiles on an empty distribution.
  EXPECT_FALSE(empty.as_object().contains("p50"));
  EXPECT_FALSE(empty.as_object().contains("p95"));
  EXPECT_FALSE(empty.as_object().contains("p99"));
  EXPECT_FALSE(empty.as_object().contains("mean"));
  registry.reset();
}

TEST(MetricsTest, SnapshotToJsonHonoursSuffixAndEmptiness) {
  ConcurrentQuantileTracker tracker;
  const auto empty = snapshot_to_json(tracker.snapshot(), "_s");
  EXPECT_TRUE(empty.contains("count"));
  EXPECT_FALSE(empty.contains("mean_s"));
  EXPECT_FALSE(empty.contains("p50_s"));

  for (int i = 1; i <= 50; ++i) tracker.add(i * 0.01);
  const auto filled = snapshot_to_json(tracker.snapshot(), "_s");
  EXPECT_EQ(filled.find("count")->as_number(), 50.0);
  EXPECT_TRUE(filled.contains("mean_s"));
  EXPECT_TRUE(filled.contains("p50_s"));
  EXPECT_TRUE(filled.contains("p95_s"));
  EXPECT_TRUE(filled.contains("p99_s"));
}

// ------------------------------------------------------------ inertness

TEST(TraceInertnessTest, TracedCampaignArtefactsAreByteIdentical) {
  // The load-bearing guarantee: arming the recorder must not perturb a
  // single byte of the content-addressed artefact set.
  campaign::ScenarioMatrix matrix;
  matrix.workloads = {
      campaign::parse_workload_spec("stream:array_gb=1,iterations=2"),
      campaign::parse_workload_spec("mg")};
  matrix.platforms = {"xeon-max"};
  matrix.strategies = {"estimator", "online"};
  matrix.repetitions = 1;
  const auto scenario_list = matrix.expand();

  const auto run = [&](const std::string& dir_name, bool traced) {
    TempDir dir(dir_name);
    campaign::CampaignOptions options;
    options.output_dir = dir.path();
    options.scenario_jobs = 2;
    if (traced) TraceRecorder::instance().start();
    const auto result = campaign::CampaignRunner(options).run(scenario_list);
    if (traced) {
      const auto doc =
          Json::parse(TraceRecorder::instance().stop_and_render());
      EXPECT_FALSE(doc.at("traceEvents").as_array().empty());
    }
    EXPECT_TRUE(result.ok());
    campaign::write_artifacts(result, options.output_dir);
    auto bytes = file_bytes(dir.path());
    // status.json carries wall-clock times — volatile by design, so it
    // sits outside the byte-identity contract.
    bytes.erase("status.json");
    return bytes;
  };

  const auto untraced = run("hmpt_obs_inert_off", false);
  const auto traced = run("hmpt_obs_inert_on", true);

  ASSERT_FALSE(untraced.empty());
  ASSERT_EQ(untraced.size(), traced.size());
  for (const auto& [name, bytes] : untraced) {
    const auto it = traced.find(name);
    ASSERT_NE(it, traced.end()) << name;
    EXPECT_EQ(bytes, it->second) << name << " differs under tracing";
  }
}

}  // namespace
}  // namespace hmpt::obs
