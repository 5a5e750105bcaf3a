// chart.h — ASCII renderings of the paper's figure types.
//
// The bench harnesses print each figure both as CSV (for external plotting)
// and as an ASCII chart so the paper's shapes are visible straight from the
// terminal: scatter plots for the "summary views" (Figs. 7b, 9-15), line
// series for bandwidth/latency sweeps (Figs. 2-5), bars for the detailed
// view (Fig. 7a).
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

namespace hmpt {

/// One plotted series: points plus the glyph used to draw them.
struct ChartSeries {
  std::string name;
  char glyph = '*';
  std::vector<double> x;
  std::vector<double> y;
};

/// Configuration for an ASCII XY chart.
struct ChartOptions {
  int width = 72;    // plot area columns
  int height = 20;   // plot area rows
  std::string x_label;
  std::string y_label;
  std::string title;
  /// Optional horizontal reference lines (e.g. max and 90 %-of-max speedup).
  std::vector<double> hlines;
  /// Force axis ranges; auto-fit when unset.
  std::optional<double> x_min, x_max, y_min, y_max;
};

/// Render scatter/line series into a monospace grid with axes and legend.
std::string render_xy_chart(const std::vector<ChartSeries>& series,
                            const ChartOptions& options);

/// Render a labelled horizontal bar chart (used for Fig. 7a's grouped bars).
/// Each item may carry a secondary value drawn as a second bar underneath.
struct BarItem {
  std::string label;
  double value = 0.0;
  std::optional<double> secondary;  // e.g. linear-estimate speedup
};
std::string render_bar_chart(const std::vector<BarItem>& items,
                             const std::string& title, int width = 60,
                             double baseline = 0.0);

// Inline-SVG twins of the two renderers above, consuming the same series
// types so every figure the benches print has an HTML-embeddable form
// (campaign reports use these). Each writes one self-contained <svg>
// element to `os` — no external assets, stylesheets or scripts — and is
// deterministic for identical inputs, so report artefacts stay
// byte-comparable across runs.

/// Render scatter/line series as an <svg> element with axes, ticks,
/// reference hlines and a legend. `options.width`/`height` are
/// interpreted as the ASCII grid size and scaled to pixels.
void render_xy_chart_svg(std::ostream& os,
                         const std::vector<ChartSeries>& series,
                         const ChartOptions& options);

/// Render a labelled horizontal bar chart as an <svg> element; bars grow
/// rightwards from `baseline` (secondary values draw as hollow bars).
void render_bar_chart_svg(std::ostream& os, const std::vector<BarItem>& items,
                          const std::string& title, double baseline = 0.0);

/// One span bar on a timeline: [start, end) on a shared time axis (any
/// unit — the caller labels it), drawn in the row of its `lane`.
struct TimelineItem {
  std::string label;  ///< bar caption (drawn beside the bar)
  std::string lane;   ///< row grouping, e.g. a thread name
  double start = 0.0;
  double end = 0.0;
  std::string color;  ///< CSS fill; empty = palette by lane
};

/// Render timeline items as an <svg> Gantt-style strip: one row per lane
/// (first-appearance order), bars positioned proportionally on a shared
/// axis from 0 to the latest end, axis ticks in the caller's time unit
/// (`unit` is the tick suffix, e.g. "ms"). Deterministic for identical
/// inputs, like the other SVG renderers.
void render_timeline_svg(std::ostream& os,
                         const std::vector<TimelineItem>& items,
                         const std::string& title,
                         const std::string& unit = "ms");

}  // namespace hmpt
