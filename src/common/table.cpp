#include "common/table.h"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <sstream>

#include "common/error.h"

namespace hmpt {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  HMPT_REQUIRE(!headers_.empty(), "table needs at least one column");
}

void Table::add_row(std::vector<std::string> cells) {
  HMPT_REQUIRE(cells.size() == headers_.size(),
               "row arity does not match header");
  rows_.push_back(std::move(cells));
}

void Table::add_row_values(const std::vector<double>& values, int precision) {
  std::vector<std::string> cells;
  cells.reserve(values.size());
  for (double v : values) cells.push_back(cell(v, precision));
  add_row(std::move(cells));
}

const std::vector<std::string>& Table::row(std::size_t i) const {
  HMPT_REQUIRE(i < rows_.size(), "row index out of range");
  return rows_[i];
}

namespace {

std::string csv_escape(const std::string& s) {
  bool needs_quote =
      s.find_first_of(",\"\n") != std::string::npos;
  if (!needs_quote) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

}  // namespace

std::string Table::to_csv() const {
  std::ostringstream os;
  write_csv(os);
  return os.str();
}

void Table::write_csv(std::ostream& os) const {
  write_csv_row(os, headers_);
  for (const auto& row : rows_) write_csv_row(os, row);
}

void write_csv_row(std::ostream& os, const std::vector<std::string>& cells) {
  for (std::size_t c = 0; c < cells.size(); ++c) {
    if (c) os << ',';
    os << csv_escape(cells[c]);
  }
  os << '\n';
}

std::string Table::to_text() const {
  std::ostringstream os;
  write_text(os);
  return os.str();
}

void Table::write_text(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c)
    widths[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());

  auto emit_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << (c ? "  " : "");
      os << cells[c];
      os << std::string(widths[c] - cells[c].size(), ' ');
    }
    os << '\n';
  };
  emit_row(headers_);
  std::size_t total = 0;
  for (std::size_t c = 0; c < widths.size(); ++c)
    total += widths[c] + (c ? 2 : 0);
  os << std::string(total, '-') << '\n';
  for (const auto& row : rows_) emit_row(row);
}

std::string cell(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

}  // namespace hmpt
