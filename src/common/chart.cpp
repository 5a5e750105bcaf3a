#include "common/chart.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>

#include "common/error.h"

namespace hmpt {

namespace {

struct Range {
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  void include(double v) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  bool valid() const { return lo <= hi; }
  void pad_if_degenerate() {
    if (!valid()) {
      lo = 0.0;
      hi = 1.0;
    } else if (lo == hi) {
      lo -= 0.5;
      hi += 0.5;
    }
  }
};

std::string format_tick(double v) {
  char buf[32];
  if (std::fabs(v) >= 1000.0 || (std::fabs(v) > 0 && std::fabs(v) < 0.01)) {
    std::snprintf(buf, sizeof(buf), "%.2e", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f", v);
  }
  return buf;
}

}  // namespace

std::string render_xy_chart(const std::vector<ChartSeries>& series,
                            const ChartOptions& options) {
  const int w = std::max(16, options.width);
  const int h = std::max(6, options.height);

  Range xr, yr;
  for (const auto& s : series) {
    HMPT_REQUIRE(s.x.size() == s.y.size(), "series x/y size mismatch");
    for (double v : s.x) xr.include(v);
    for (double v : s.y) yr.include(v);
  }
  for (double v : options.hlines) yr.include(v);
  if (options.x_min) xr.lo = *options.x_min;
  if (options.x_max) xr.hi = *options.x_max;
  if (options.y_min) yr.lo = *options.y_min;
  if (options.y_max) yr.hi = *options.y_max;
  xr.pad_if_degenerate();
  yr.pad_if_degenerate();

  std::vector<std::string> grid(static_cast<std::size_t>(h),
                                std::string(static_cast<std::size_t>(w), ' '));

  auto to_col = [&](double x) {
    double t = (x - xr.lo) / (xr.hi - xr.lo);
    int c = static_cast<int>(std::lround(t * (w - 1)));
    return std::clamp(c, 0, w - 1);
  };
  auto to_row = [&](double y) {
    double t = (y - yr.lo) / (yr.hi - yr.lo);
    int r = static_cast<int>(std::lround(t * (h - 1)));
    return std::clamp(h - 1 - r, 0, h - 1);
  };

  for (double hl : options.hlines) {
    int r = to_row(hl);
    for (int c = 0; c < w; ++c)
      grid[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)] = '-';
  }
  for (const auto& s : series) {
    for (std::size_t i = 0; i < s.x.size(); ++i) {
      grid[static_cast<std::size_t>(to_row(s.y[i]))]
          [static_cast<std::size_t>(to_col(s.x[i]))] = s.glyph;
    }
  }

  std::ostringstream os;
  if (!options.title.empty()) os << options.title << '\n';
  const std::string ytick_hi = format_tick(yr.hi);
  const std::string ytick_lo = format_tick(yr.lo);
  const std::size_t margin =
      std::max(ytick_hi.size(), ytick_lo.size()) + 1;

  for (int r = 0; r < h; ++r) {
    std::string prefix(margin, ' ');
    if (r == 0)
      prefix = ytick_hi + std::string(margin - ytick_hi.size(), ' ');
    else if (r == h - 1)
      prefix = ytick_lo + std::string(margin - ytick_lo.size(), ' ');
    os << prefix << '|' << grid[static_cast<std::size_t>(r)] << '\n';
  }
  os << std::string(margin, ' ') << '+' << std::string(static_cast<std::size_t>(w), '-')
     << '\n';
  os << std::string(margin + 1, ' ') << format_tick(xr.lo);
  const std::string xhi = format_tick(xr.hi);
  int gap = w - static_cast<int>(format_tick(xr.lo).size()) -
            static_cast<int>(xhi.size());
  os << std::string(static_cast<std::size_t>(std::max(1, gap)), ' ') << xhi
     << '\n';
  if (!options.x_label.empty() || !options.y_label.empty()) {
    os << std::string(margin + 1, ' ') << options.x_label;
    if (!options.y_label.empty()) os << "   (y: " << options.y_label << ")";
    os << '\n';
  }
  for (const auto& s : series)
    os << "  " << s.glyph << " = " << s.name << '\n';
  return os.str();
}

namespace {

/// Fixed-precision SVG coordinate/value spelling — snprintf, never
/// locale-dependent streams, so identical inputs give identical bytes.
std::string svg_num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

std::string xml_escape(const std::string& text) {
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

/// A small colour-blind-friendly palette, cycled per series/bar.
const char* svg_color(std::size_t index) {
  static const char* kPalette[] = {"#2563eb", "#dc2626", "#059669",
                                   "#d97706", "#7c3aed", "#0891b2"};
  return kPalette[index % (sizeof(kPalette) / sizeof(kPalette[0]))];
}

std::string svg_text(double x, double y, const std::string& anchor,
                     const std::string& text, const char* extra = "") {
  return "<text x=\"" + svg_num(x) + "\" y=\"" + svg_num(y) +
         "\" text-anchor=\"" + anchor + "\"" + extra + ">" +
         xml_escape(text) + "</text>\n";
}

}  // namespace

void render_xy_chart_svg(std::ostream& os,
                         const std::vector<ChartSeries>& series,
                         const ChartOptions& options) {
  // The ASCII grid size scaled to pixels, with fixed margins for ticks,
  // title and labels.
  const double plot_w = std::max(16, options.width) * 8.0;
  const double plot_h = std::max(6, options.height) * 14.0;
  const double left = 64.0, top = 28.0, right = 16.0, bottom = 48.0;
  const double width = left + plot_w + right;
  const double height = top + plot_h + bottom;

  Range xr, yr;
  for (const auto& s : series) {
    HMPT_REQUIRE(s.x.size() == s.y.size(), "series x/y size mismatch");
    for (double v : s.x) xr.include(v);
    for (double v : s.y) yr.include(v);
  }
  for (double v : options.hlines) yr.include(v);
  if (options.x_min) xr.lo = *options.x_min;
  if (options.x_max) xr.hi = *options.x_max;
  if (options.y_min) yr.lo = *options.y_min;
  if (options.y_max) yr.hi = *options.y_max;
  xr.pad_if_degenerate();
  yr.pad_if_degenerate();

  const auto to_x = [&](double x) {
    return left + (x - xr.lo) / (xr.hi - xr.lo) * plot_w;
  };
  const auto to_y = [&](double y) {
    return top + plot_h - (y - yr.lo) / (yr.hi - yr.lo) * plot_h;
  };

  os << "<svg xmlns=\"http://www.w3.org/2000/svg\" viewBox=\"0 0 "
     << svg_num(width) << " " << svg_num(height) << "\" width=\""
     << svg_num(width) << "\" height=\"" << svg_num(height)
     << "\" font-family=\"sans-serif\" font-size=\"11\">\n";
  if (!options.title.empty())
    os << svg_text(left + plot_w / 2.0, 16.0, "middle", options.title,
                   " font-size=\"13\" font-weight=\"bold\"");

  // Plot frame and four y gridline ticks.
  os << "<rect x=\"" << svg_num(left) << "\" y=\"" << svg_num(top)
     << "\" width=\"" << svg_num(plot_w) << "\" height=\"" << svg_num(plot_h)
     << "\" fill=\"none\" stroke=\"#94a3b8\"/>\n";
  for (int tick = 0; tick <= 4; ++tick) {
    const double value = yr.lo + (yr.hi - yr.lo) * tick / 4.0;
    const double y = to_y(value);
    if (tick != 0 && tick != 4)
      os << "<line x1=\"" << svg_num(left) << "\" y1=\"" << svg_num(y)
         << "\" x2=\"" << svg_num(left + plot_w) << "\" y2=\"" << svg_num(y)
         << "\" stroke=\"#e2e8f0\"/>\n";
    os << svg_text(left - 6.0, y + 4.0, "end", format_tick(value));
  }
  os << svg_text(left, top + plot_h + 16.0, "start", format_tick(xr.lo));
  os << svg_text(left + plot_w, top + plot_h + 16.0, "end",
                 format_tick(xr.hi));
  if (!options.x_label.empty())
    os << svg_text(left + plot_w / 2.0, top + plot_h + 34.0, "middle",
                   options.x_label);
  if (!options.y_label.empty())
    os << "<text x=\"14\" y=\"" << svg_num(top + plot_h / 2.0)
       << "\" text-anchor=\"middle\" transform=\"rotate(-90 14 "
       << svg_num(top + plot_h / 2.0) << ")\">"
       << xml_escape(options.y_label) << "</text>\n";

  for (const double hline : options.hlines) {
    const double y = to_y(hline);
    os << "<line x1=\"" << svg_num(left) << "\" y1=\"" << svg_num(y)
       << "\" x2=\"" << svg_num(left + plot_w) << "\" y2=\"" << svg_num(y)
       << "\" stroke=\"#64748b\" stroke-dasharray=\"4 3\"/>\n";
  }

  for (std::size_t i = 0; i < series.size(); ++i) {
    const auto& s = series[i];
    const char* color = svg_color(i);
    if (s.x.size() > 1) {
      os << "<polyline fill=\"none\" stroke=\"" << color
         << "\" stroke-width=\"1.5\" points=\"";
      for (std::size_t p = 0; p < s.x.size(); ++p) {
        if (p != 0) os << ' ';
        os << svg_num(to_x(s.x[p])) << ',' << svg_num(to_y(s.y[p]));
      }
      os << "\"/>\n";
    }
    for (std::size_t p = 0; p < s.x.size(); ++p)
      os << "<circle cx=\"" << svg_num(to_x(s.x[p])) << "\" cy=\""
         << svg_num(to_y(s.y[p])) << "\" r=\"2.5\" fill=\"" << color
         << "\"/>\n";
    // Legend row, top-right inside the frame.
    const double ly = top + 14.0 + 14.0 * static_cast<double>(i);
    os << "<circle cx=\"" << svg_num(left + plot_w - 120.0) << "\" cy=\""
       << svg_num(ly - 4.0) << "\" r=\"3\" fill=\"" << color << "\"/>\n";
    os << svg_text(left + plot_w - 112.0, ly, "start", s.name);
  }
  os << "</svg>\n";
}

std::string render_bar_chart(const std::vector<BarItem>& items,
                             const std::string& title, int width,
                             double baseline) {
  double max_v = baseline;
  std::size_t label_w = 0;
  for (const auto& it : items) {
    max_v = std::max(max_v, it.value);
    if (it.secondary) max_v = std::max(max_v, *it.secondary);
    label_w = std::max(label_w, it.label.size());
  }
  if (max_v <= baseline) max_v = baseline + 1.0;

  auto bar_len = [&](double v) {
    double t = (v - baseline) / (max_v - baseline);
    return static_cast<int>(std::lround(std::clamp(t, 0.0, 1.0) * width));
  };

  std::ostringstream os;
  if (!title.empty()) os << title << '\n';
  for (const auto& it : items) {
    os << it.label << std::string(label_w - it.label.size(), ' ') << " |"
       << std::string(static_cast<std::size_t>(bar_len(it.value)), '#') << ' '
       << format_tick(it.value) << '\n';
    if (it.secondary) {
      os << std::string(label_w, ' ') << " |"
         << std::string(static_cast<std::size_t>(bar_len(*it.secondary)), '~')
         << ' ' << format_tick(*it.secondary) << " (est)" << '\n';
    }
  }
  return os.str();
}

void render_bar_chart_svg(std::ostream& os, const std::vector<BarItem>& items,
                          const std::string& title, double baseline) {
  double max_v = baseline;
  for (const auto& item : items) {
    max_v = std::max(max_v, item.value);
    if (item.secondary) max_v = std::max(max_v, *item.secondary);
  }
  if (max_v <= baseline) max_v = baseline + 1.0;

  const double label_w = 180.0, bar_area = 420.0, value_w = 70.0;
  const double row_h = 18.0, top = title.empty() ? 8.0 : 28.0;
  double height = top + 8.0;
  for (const auto& item : items)
    height += row_h * (item.secondary ? 2.0 : 1.0);
  const double width = label_w + bar_area + value_w;

  const auto bar_len = [&](double v) {
    const double t = (v - baseline) / (max_v - baseline);
    return std::clamp(t, 0.0, 1.0) * bar_area;
  };

  os << "<svg xmlns=\"http://www.w3.org/2000/svg\" viewBox=\"0 0 "
     << svg_num(width) << " " << svg_num(height) << "\" width=\""
     << svg_num(width) << "\" height=\"" << svg_num(height)
     << "\" font-family=\"sans-serif\" font-size=\"11\">\n";
  if (!title.empty())
    os << svg_text(width / 2.0, 16.0, "middle", title,
                   " font-size=\"13\" font-weight=\"bold\"");

  double y = top;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const auto& item = items[i];
    const char* color = svg_color(i);
    os << svg_text(label_w - 6.0, y + 13.0, "end", item.label);
    os << "<rect x=\"" << svg_num(label_w) << "\" y=\"" << svg_num(y + 3.0)
       << "\" width=\"" << svg_num(bar_len(item.value))
       << "\" height=\"12\" fill=\"" << color << "\"/>\n";
    os << svg_text(label_w + bar_len(item.value) + 6.0, y + 13.0, "start",
                   format_tick(item.value));
    y += row_h;
    if (item.secondary) {
      os << "<rect x=\"" << svg_num(label_w) << "\" y=\""
         << svg_num(y + 3.0) << "\" width=\""
         << svg_num(bar_len(*item.secondary))
         << "\" height=\"12\" fill=\"none\" stroke=\"" << color << "\"/>\n";
      os << svg_text(label_w + bar_len(*item.secondary) + 6.0, y + 13.0,
                     "start", format_tick(*item.secondary) + " (est)");
      y += row_h;
    }
  }
  os << "</svg>\n";
}

void render_timeline_svg(std::ostream& os,
                         const std::vector<TimelineItem>& items,
                         const std::string& title, const std::string& unit) {
  // Lanes in first-appearance order; the axis runs from 0 to the latest
  // end so concurrent bars line up across lanes.
  std::vector<std::string> lanes;
  const auto lane_of = [&](const std::string& lane) {
    for (std::size_t i = 0; i < lanes.size(); ++i)
      if (lanes[i] == lane) return i;
    lanes.push_back(lane);
    return lanes.size() - 1;
  };
  double max_t = 0.0;
  std::vector<std::size_t> rows;
  rows.reserve(items.size());
  for (const auto& item : items) {
    rows.push_back(lane_of(item.lane));
    max_t = std::max(max_t, item.end);
  }
  if (max_t <= 0.0) max_t = 1.0;

  const double label_w = 140.0, bar_area = 560.0;
  const double row_h = 22.0, top = title.empty() ? 8.0 : 28.0;
  const double height = top + row_h * static_cast<double>(lanes.size()) +
                        24.0;  // axis labels
  const double width = label_w + bar_area + 12.0;
  const auto to_x = [&](double t) {
    return label_w + std::clamp(t / max_t, 0.0, 1.0) * bar_area;
  };

  os << "<svg xmlns=\"http://www.w3.org/2000/svg\" viewBox=\"0 0 "
     << svg_num(width) << " " << svg_num(height) << "\" width=\""
     << svg_num(width) << "\" height=\"" << svg_num(height)
     << "\" font-family=\"sans-serif\" font-size=\"11\">\n";
  if (!title.empty())
    os << svg_text(width / 2.0, 16.0, "middle", title,
                   " font-size=\"13\" font-weight=\"bold\"");

  // Lane labels and separators.
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    const double y = top + row_h * static_cast<double>(i);
    os << svg_text(label_w - 6.0, y + 15.0, "end", lanes[i]);
    os << "<line x1=\"" << svg_num(label_w) << "\" y1=\"" << svg_num(y)
       << "\" x2=\"" << svg_num(label_w + bar_area) << "\" y2=\""
       << svg_num(y) << "\" stroke=\"#e5e7eb\"/>\n";
  }
  const double axis_y = top + row_h * static_cast<double>(lanes.size());
  os << "<line x1=\"" << svg_num(label_w) << "\" y1=\"" << svg_num(axis_y)
     << "\" x2=\"" << svg_num(label_w + bar_area) << "\" y2=\""
     << svg_num(axis_y) << "\" stroke=\"#9ca3af\"/>\n";
  for (int tick = 0; tick <= 4; ++tick) {
    const double t = max_t * tick / 4.0;
    os << svg_text(to_x(t), axis_y + 16.0, tick == 0 ? "start" : "end",
                   format_tick(t) + " " + unit);
  }

  for (std::size_t i = 0; i < items.size(); ++i) {
    const auto& item = items[i];
    const double y = top + row_h * static_cast<double>(rows[i]) + 4.0;
    const double x0 = to_x(item.start);
    // A sub-pixel span still draws a visible sliver.
    const double w = std::max(to_x(item.end) - x0, 1.0);
    const std::string fill =
        item.color.empty() ? svg_color(rows[i]) : item.color;
    os << "<rect x=\"" << svg_num(x0) << "\" y=\"" << svg_num(y)
       << "\" width=\"" << svg_num(w) << "\" height=\"14\" fill=\"" << fill
       << "\" fill-opacity=\"0.85\"><title>" << xml_escape(item.label)
       << "</title></rect>\n";
  }
  os << "</svg>\n";
}

}  // namespace hmpt
