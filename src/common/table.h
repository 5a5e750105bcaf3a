// table.h — tabular output for bench harnesses and reports.
//
// Every figure/table harness emits (a) a CSV block that can be redirected to
// a file and plotted, and (b) an aligned text rendering for the terminal.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace hmpt {

/// Column-oriented table with string cells; knows how to render itself as
/// CSV or as an aligned ASCII table.
class Table {
 public:
  /// An empty table (no columns); add_row() on it always throws. Exists so
  /// report structs can default-construct before being filled in.
  Table() = default;
  explicit Table(std::vector<std::string> headers);

  std::size_t num_columns() const { return headers_.size(); }
  std::size_t num_rows() const { return rows_.size(); }

  /// Append a row; must match the header arity.
  void add_row(std::vector<std::string> cells);

  /// Convenience: formats doubles with the given precision.
  void add_row_values(const std::vector<double>& values, int precision = 4);

  const std::vector<std::string>& headers() const { return headers_; }
  const std::vector<std::string>& row(std::size_t i) const;

  /// RFC-4180-ish CSV (quotes cells containing commas/quotes/newlines).
  std::string to_csv() const;

  /// Aligned monospace rendering with a header rule.
  std::string to_text() const;

  void write_csv(std::ostream& os) const;
  void write_text(std::ostream& os) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Write one CSV line, quoting cells as Table::to_csv() does — for
/// writers that stream rows instead of holding a Table.
void write_csv_row(std::ostream& os, const std::vector<std::string>& cells);

/// Format a double with fixed precision (helper for table cells).
std::string cell(double value, int precision = 4);

}  // namespace hmpt
