#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

/// \file table.hpp
/// Aligned console tables — the experiment harness's output format. Every
/// bench binary prints one or more of these; EXPERIMENTS.md quotes them
/// verbatim, so formatting stability matters (fixed column order, explicit
/// alignment, no locale dependence).

namespace cobra::io {

/// Column alignment within a table.
enum class Align { Left, Right };

class Table {
 public:
  /// Creates a table with the given column headers, all right-aligned by
  /// default (numeric tables dominate).
  explicit Table(std::vector<std::string> headers);

  /// Override alignment for one column.
  void set_align(std::size_t column, Align align);

  /// Append a row; must have exactly as many cells as there are headers.
  void add_row(std::vector<std::string> cells);

  /// Number formatting helpers used pervasively by the benches.
  static std::string fmt(double value, int precision = 2);
  static std::string fmt_int(long long value);
  static std::string fmt_sci(double value, int precision = 2);

  /// Render with a header rule, e.g.
  ///   n      cover   ratio
  ///   ----   -----   -----
  ///   128      412    1.02
  [[nodiscard]] std::string render() const;

  /// Stream the plain rendering.
  friend std::ostream& operator<<(std::ostream& os, const Table& table);

 private:
  std::vector<std::string> headers_;
  std::vector<Align> aligns_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace cobra::io
