// report.h — static HTML campaign reports.
//
// Renders a finished CampaignResult into one self-contained
// `report/index.html`: no external assets, stylesheets, fonts or script
// files — the document works from a file:// URL, an artifact download,
// or an air-gapped machine. It holds
//   * the campaign headline (fingerprint, scenario/failure counts, best
//     speedup),
//   * inline-SVG charts built from the common/chart series types (a
//     top-scenarios speedup bar chart and a speedup-vs-HBM-usage scatter
//     with one series per strategy),
//   * the ranked scenario table (best speedup first, the same ordering
//     as the terminal ranking), sortable by any column with a few lines
//     of vanilla JS,
//   * a per-scenario drill-down keyed by fingerprint (each table row
//     links to `#fp-<fingerprint>`) with the outcome numbers and the
//     full scenario document,
//   * a failure table when the campaign recorded failures.
//
// Like runs.csv/summary.json the report is derived deterministically
// from the outcomes alone — identical bytes whether the campaign ran
// cold, resumed, or was merged from shards.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "campaign/campaign.h"

namespace hmpt::report {

/// One scenario's execution window, lifted from a Chrome trace-event
/// file (obs/trace.h): the "campaign"/"scenario" span, with the label,
/// fingerprint and terminal status its closing event carries.
struct TimelineSpan {
  std::string label;        ///< scenario label (workload/platform/...)
  std::string fingerprint;
  std::string status;       ///< "executed"/"cached"/"failed"/"planned"/""
  std::string lane;         ///< recording thread's name, or "tid N"
  double start_ms = 0.0;    ///< since trace arm time
  double end_ms = 0.0;
};

/// Per-scenario spans recovered from one trace file, in lane order then
/// start order (the order the trace stores them).
struct TraceTimeline {
  std::vector<TimelineSpan> spans;
};

/// Parse a --trace output file and extract the per-scenario timeline.
/// Unbalanced or foreign events are ignored; an unreadable or malformed
/// file throws hmpt::Error. An armed-but-idle trace yields no spans.
TraceTimeline load_trace_timeline(const std::string& trace_path);

/// Write the full report document to `os`, streaming one run at a time.
/// A non-null `timeline` adds a per-job timeline section (span bars per
/// worker lane); null renders the exact document earlier revisions
/// produced, so untraced reports stay byte-stable.
void write_report_html(std::ostream& os,
                       const campaign::CampaignResult& result,
                       const TraceTimeline* timeline = nullptr);

/// Write `<output_dir>/report/index.html` (directories created as
/// needed); returns the path written. Throws hmpt::Error naming the path
/// when any byte fails to reach the file.
std::string write_report(const campaign::CampaignResult& result,
                         const std::string& output_dir,
                         const TraceTimeline* timeline = nullptr);

}  // namespace hmpt::report
