#include "io/table.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace cobra::io {

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers)), aligns_(headers_.size(), Align::Right) {
  if (headers_.empty()) throw std::invalid_argument("Table: needs >= 1 column");
}

void Table::set_align(std::size_t column, Align align) {
  aligns_.at(column) = align;
}

void Table::add_row(std::vector<std::string> cells) {
  if (cells.size() != headers_.size()) {
    throw std::invalid_argument("Table: row width mismatch");
  }
  rows_.push_back(std::move(cells));
}

std::string Table::fmt(double value, int precision) {
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(precision);
  out << value;
  return out.str();
}

std::string Table::fmt_int(long long value) { return std::to_string(value); }

std::string Table::fmt_sci(double value, int precision) {
  std::ostringstream out;
  out.setf(std::ios::scientific);
  out.precision(precision);
  out << value;
  return out.str();
}

namespace {

std::string pad(const std::string& text, std::size_t width, Align align) {
  if (text.size() >= width) return text;
  const std::string fill(width - text.size(), ' ');
  return align == Align::Right ? fill + text : text + fill;
}

}  // namespace

std::string Table::render() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
    for (const auto& row : rows_) widths[c] = std::max(widths[c], row[c].size());
  }

  std::ostringstream out;
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    if (c > 0) out << "   ";
    out << pad(headers_[c], widths[c], aligns_[c]);
  }
  out << "\n";
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    if (c > 0) out << "   ";
    out << std::string(widths[c], '-');
  }
  out << "\n";
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      if (c > 0) out << "   ";
      out << pad(row[c], widths[c], aligns_[c]);
    }
    out << "\n";
  }
  return out.str();
}

std::ostream& operator<<(std::ostream& os, const Table& table) {
  return os << table.render();
}

}  // namespace cobra::io
