#include "report/report.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "campaign/aggregate.h"
#include "common/chart.h"
#include "common/error.h"
#include "common/file_io.h"
#include "common/table.h"
#include "common/units.h"
#include "core/report.h"

namespace hmpt::report {

namespace fs = std::filesystem;
using campaign::budget_text;
using campaign::CampaignResult;
using campaign::fingerprint_of;
using campaign::ScenarioRun;

namespace {

std::string html_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out += c;
    }
  }
  return out;
}

/// Top-scenarios speedup bars (at most `limit` rows so a fleet-scale
/// campaign keeps a readable chart; the table below holds everything).
void speedup_bar_svg(std::ostream& os,
                     const std::vector<const ScenarioRun*>& ranked,
                     std::size_t limit) {
  std::vector<BarItem> items;
  for (std::size_t i = 0; i < ranked.size() && i < limit; ++i)
    items.push_back(BarItem{ranked[i]->scenario.label(),
                            ranked[i]->outcome.speedup(), std::nullopt});
  render_bar_chart_svg(os, items, "Top scenarios by tuned speedup");
}

/// Speedup vs chosen-config HBM usage, one series per strategy — the
/// report twin of the paper's summary-view scatters.
void summary_scatter_svg(std::ostream& os,
                         const std::vector<const ScenarioRun*>& ranked) {
  std::map<std::string, ChartSeries> by_strategy;
  for (const ScenarioRun* run : ranked) {
    ChartSeries& series = by_strategy[run->scenario.strategy];
    series.name = run->scenario.strategy;
    series.x.push_back(run->outcome.hbm_usage() * 100.0);
    series.y.push_back(run->outcome.speedup());
  }
  std::vector<ChartSeries> series;
  for (auto& [name, s] : by_strategy) series.push_back(std::move(s));
  ChartOptions options;
  options.title = "Speedup vs chosen-config HBM usage";
  options.x_label = "HBM usage of the chosen placement (%)";
  options.y_label = "speedup";
  options.x_min = 0.0;
  options.hlines = {1.0};
  render_xy_chart_svg(os, series, options);
}

void append_kv_row(std::ostream& os, const std::string& key,
                   const std::string& value) {
  os << "<tr><th>" << html_escape(key) << "</th><td>" << html_escape(value)
     << "</td></tr>\n";
}

/// Span colour by terminal status, matching the palette the rest of the
/// report uses; unknown statuses fall back to the per-lane palette.
std::string status_color(const std::string& status) {
  if (status == "executed") return "#059669";
  if (status == "cached") return "#2563eb";
  if (status == "failed") return "#dc2626";
  if (status == "planned") return "#9ca3af";
  return "";
}

/// The per-job timeline section: one Gantt strip of scenario spans per
/// recording lane, coloured by how each scenario ended.
void timeline_section(std::ostream& os, const TraceTimeline& timeline) {
  std::vector<TimelineItem> items;
  items.reserve(timeline.spans.size());
  for (const auto& span : timeline.spans) {
    TimelineItem item;
    item.label = span.label.empty() ? span.fingerprint : span.label;
    if (!span.status.empty()) item.label += " [" + span.status + "]";
    item.lane = span.lane;
    item.start = span.start_ms;
    item.end = span.end_ms;
    item.color = status_color(span.status);
    items.push_back(std::move(item));
  }
  os << "<h2>Per-job timeline</h2>\n"
     << "<p class=\"meta\">Scenario execution windows from the run's "
        "trace, one row per worker lane; green executed, blue cached, "
        "red failed. Hover a bar for the scenario.</p>\n"
     << "<div class=\"charts\">\n";
  render_timeline_svg(os, items, "Scenario spans by worker lane", "ms");
  os << "</div>\n";
}

// Styling and behaviour are embedded so the document is one file. The
// script is plain DOM-API JavaScript: column sort on header click
// (numeric when both cells parse, lexicographic otherwise) and
// auto-opening the drill-down <details> a #fp-… link points at.
constexpr const char* kStyle = R"css(
body { font-family: sans-serif; margin: 2em auto; max-width: 72em;
       padding: 0 1em; color: #0f172a; }
h1 { font-size: 1.5em; } h2 { font-size: 1.2em; margin-top: 2em; }
.meta { color: #475569; }
table.sortable, table.failures { border-collapse: collapse; width: 100%;
       font-size: 0.9em; }
table.sortable th, table.failures th { cursor: pointer; text-align: left;
       border-bottom: 2px solid #94a3b8; padding: 0.3em 0.6em;
       white-space: nowrap; }
table.failures th { cursor: default; }
table.sortable td, table.failures td { border-bottom: 1px solid #e2e8f0;
       padding: 0.25em 0.6em; }
table.kv th { text-align: left; padding-right: 1em; color: #475569;
       font-weight: normal; }
details { margin: 0.4em 0; }
details > summary { cursor: pointer; }
details[open] { background: #f8fafc; padding: 0.4em;
       border: 1px solid #e2e8f0; border-radius: 4px; }
pre { background: #f1f5f9; padding: 0.6em; overflow-x: auto;
      font-size: 0.85em; }
code { font-family: monospace; }
.charts svg { max-width: 100%; height: auto; margin: 0.5em 0; }
)css";

constexpr const char* kScript = R"js(
document.querySelectorAll("table.sortable").forEach(function (table) {
  var headers = table.tHead.rows[0].cells;
  for (var i = 0; i < headers.length; i++) (function (idx, th) {
    th.addEventListener("click", function () {
      var body = table.tBodies[0];
      var rows = Array.prototype.slice.call(body.rows);
      var dir = th.dataset.dir === "asc" ? -1 : 1;
      for (var j = 0; j < headers.length; j++) delete headers[j].dataset.dir;
      th.dataset.dir = dir === 1 ? "asc" : "desc";
      rows.sort(function (a, b) {
        var x = a.cells[idx].textContent.trim();
        var y = b.cells[idx].textContent.trim();
        var nx = parseFloat(x), ny = parseFloat(y);
        if (!isNaN(nx) && !isNaN(ny)) return dir * (nx - ny);
        return dir * x.localeCompare(y);
      });
      rows.forEach(function (row) { body.appendChild(row); });
    });
  })(i, headers[i]);
});
function openTarget() {
  if (!location.hash) return;
  var target = document.getElementById(location.hash.slice(1));
  if (target && target.tagName === "DETAILS") target.open = true;
}
window.addEventListener("hashchange", openTarget);
openTarget();
)js";

}  // namespace

TraceTimeline load_trace_timeline(const std::string& trace_path) {
  std::ifstream is(trace_path, std::ios::binary);
  if (!is.good()) raise("cannot read trace file " + trace_path);
  std::ostringstream buffer;
  buffer << is.rdbuf();
  const Json doc = Json::parse(buffer.str());

  // Thread-name metadata first, so spans can carry human lane names.
  std::map<double, std::string> lane_names;  // tid -> name
  const JsonArray& events = doc.at("traceEvents").as_array();
  for (const Json& event : events) {
    if (event.string_or("ph", "") != "M") continue;
    if (event.string_or("name", "") != "thread_name") continue;
    if (const Json* args = event.as_object().find("args"))
      lane_names[event.number_or("tid", 0.0)] =
          args->string_or("name", "");
  }

  // One open-B stack per lane: per-lane events are contiguous and
  // timestamp-ordered in the recorder's output, so matching E events by
  // stack discipline recovers exactly the spans that ran.
  struct Open {
    double ts_us = 0.0;
  };
  std::map<double, std::vector<Open>> open_by_tid;
  TraceTimeline timeline;
  for (const Json& event : events) {
    const std::string ph = event.string_or("ph", "");
    if (event.string_or("cat", "") != "campaign" ||
        event.string_or("name", "") != "scenario")
      continue;
    const double tid = event.number_or("tid", 0.0);
    if (ph == "B") {
      open_by_tid[tid].push_back({event.number_or("ts", 0.0)});
    } else if (ph == "E") {
      auto& stack = open_by_tid[tid];
      if (stack.empty()) continue;  // orphan close: ignore
      TimelineSpan span;
      span.start_ms = stack.back().ts_us / 1000.0;
      span.end_ms = event.number_or("ts", 0.0) / 1000.0;
      stack.pop_back();
      if (const Json* args = event.as_object().find("args")) {
        span.label = args->string_or("label", "");
        span.fingerprint = args->string_or("fingerprint", "");
        span.status = args->string_or("status", "");
      }
      const auto named = lane_names.find(tid);
      span.lane = (named != lane_names.end() && !named->second.empty())
                      ? named->second
                      : "tid " + std::to_string(static_cast<int>(tid));
      timeline.spans.push_back(std::move(span));
    }
  }
  return timeline;
}

void write_report_html(std::ostream& os, const CampaignResult& result,
                       const TraceTimeline* timeline) {
  const std::vector<const ScenarioRun*> ranked = campaign::ranked_runs(result);
  const std::string campaign_fp = campaign::campaign_fingerprint(result);

  os << "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n"
     << "<meta charset=\"utf-8\">\n"
     << "<meta name=\"viewport\" content=\"width=device-width, "
        "initial-scale=1\">\n"
     << "<title>hmpt campaign report</title>\n"
     << "<style>" << kStyle << "</style>\n</head>\n<body>\n";

  // ------------------------------------------------------------ headline
  os << "<h1>hmpt campaign report</h1>\n";
  os << "<p class=\"meta\">campaign <code>" << html_escape(campaign_fp)
     << "</code> &middot; " << result.runs.size() << " scenario"
     << (result.runs.size() == 1 ? "" : "s") << " &middot; "
     << ranked.size() << " with outcome &middot; " << result.failed
     << " failed";
  if (!ranked.empty())
    os << " &middot; best speedup " << cell(ranked[0]->outcome.speedup(), 2)
       << "x (<code>" << html_escape(fingerprint_of(*ranked[0]))
       << "</code>)";
  os << "</p>\n";

  // -------------------------------------------------------------- charts
  if (!ranked.empty()) {
    os << "<div class=\"charts\">\n";
    speedup_bar_svg(os, ranked, 12);
    os << "\n";
    summary_scatter_svg(os, ranked);
    os << "</div>\n";
  }

  // ------------------------------------------------------------ timeline
  // Only when the caller ran with --trace and the trace recorded spans;
  // reports without a trace render the exact pre-timeline document.
  if (timeline != nullptr && !timeline->spans.empty())
    timeline_section(os, *timeline);

  // -------------------------------------------------- ranked (sortable)
  os << "<h2>Ranked scenarios</h2>\n"
     << "<p class=\"meta\">Click a column header to sort; the fingerprint "
        "links to the scenario drill-down.</p>\n"
     << "<table class=\"sortable\">\n<thead><tr>"
     << "<th>rank</th><th>scenario</th><th>workload</th><th>platform</th>"
     << "<th>strategy</th><th>tiers</th><th>budget_gb</th><th>speedup</th>"
     << "<th>chosen config</th><th>HBM usage</th><th>configs</th>"
     << "<th>fingerprint</th></tr></thead>\n<tbody>\n";
  int rank = 0;
  for (const ScenarioRun* run : ranked) {
    const auto& s = run->scenario;
    const auto& o = run->outcome;
    const std::string fp = fingerprint_of(*run);
    os << "<tr><td>" << ++rank << "</td><td>" << html_escape(s.label())
       << "</td><td>" << html_escape(s.workload.to_string()) << "</td><td>"
       << html_escape(s.platform) << "</td><td>" << html_escape(s.strategy)
       << "</td><td>" << s.tiers << "</td><td>"
       << html_escape(budget_text(s)) << "</td><td>" << cell(o.speedup(), 2)
       << "x</td><td><code>"
       << html_escape(
              tuner::mask_label(o.chosen_mask, o.num_groups, o.num_tiers))
       << "</code></td><td>" << html_escape(format_percent(o.hbm_usage()))
       << "</td><td>" << o.configs_measured << "</td><td><a href=\"#fp-"
       << html_escape(fp) << "\"><code>" << html_escape(fp)
       << "</code></a></td></tr>\n";
  }
  os << "</tbody>\n</table>\n";

  // ------------------------------------------------------------ failures
  if (result.failed > 0) {
    os << "<h2>Failures</h2>\n<table class=\"failures\">\n"
       << "<thead><tr><th>scenario</th><th>fingerprint</th><th>error</th>"
       << "</tr></thead>\n<tbody>\n";
    for (const auto& run : result.runs) {
      if (run.status != ScenarioRun::Status::Failed) continue;
      os << "<tr><td>" << html_escape(run.scenario.label())
         << "</td><td><code>" << html_escape(fingerprint_of(run))
         << "</code></td><td>" << html_escape(run.error) << "</td></tr>\n";
    }
    os << "</tbody>\n</table>\n";
  }

  // ----------------------------------------------------------- drill-down
  os << "<h2>Scenario drill-down</h2>\n";
  for (const ScenarioRun* run : ranked) {
    const auto& s = run->scenario;
    const auto& o = run->outcome;
    const std::string fp = fingerprint_of(*run);
    os << "<details id=\"fp-" << html_escape(fp) << "\"><summary><code>"
       << html_escape(fp) << "</code> &mdash; " << html_escape(s.label())
       << " &mdash; " << cell(o.speedup(), 2) << "x</summary>\n"
       << "<table class=\"kv\">\n";
    append_kv_row(os, "workload", s.workload.to_string());
    append_kv_row(os, "platform", s.platform);
    append_kv_row(os, "strategy", s.strategy);
    append_kv_row(os, "tiers", std::to_string(o.num_tiers));
    append_kv_row(os, "budget_gb", budget_text(s));
    append_kv_row(os, "repetitions", std::to_string(s.repetitions));
    append_kv_row(os, "chosen config",
                  tuner::mask_label(o.chosen_mask, o.num_groups,
                                    o.num_tiers));
    append_kv_row(os, "baseline time (s)", cell(o.baseline_time, 6));
    append_kv_row(os, "chosen time (s)", cell(o.chosen_time, 6));
    append_kv_row(os, "speedup", cell(o.speedup(), 4));
    append_kv_row(os, "HBM usage", format_percent(o.hbm_usage()));
    append_kv_row(os, "configs measured",
                  std::to_string(o.configs_measured));
    append_kv_row(os, "measurements", std::to_string(o.measurements));
    os << "</table>\n<pre>" << html_escape(s.to_json().dump())
       << "</pre>\n</details>\n";
  }

  os << "<script>" << kScript << "</script>\n</body>\n</html>\n";
}

std::string write_report(const CampaignResult& result,
                         const std::string& output_dir,
                         const TraceTimeline* timeline) {
  const fs::path dir = fs::path(output_dir) / "report";
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec)
    raise("cannot create report dir " + dir.string() + ": " + ec.message());
  const std::string path = (dir / "index.html").string();
  write_file(path, [&](std::ostream& os) {
    write_report_html(os, result, timeline);
  });
  return path;
}

}  // namespace hmpt::report
