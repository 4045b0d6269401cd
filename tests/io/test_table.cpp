#include "io/table.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

namespace cobra::io {
namespace {

TEST(Table, RendersAlignedColumns) {
  Table t({"n", "cover"});
  t.add_row({"8", "12"});
  t.add_row({"128", "412"});
  const std::string out = t.render();
  EXPECT_NE(out.find("  n   cover"), std::string::npos);
  EXPECT_NE(out.find("---   -----"), std::string::npos);
  EXPECT_NE(out.find("  8      12"), std::string::npos);
  EXPECT_NE(out.find("128     412"), std::string::npos);
}

TEST(Table, LeftAlignment) {
  Table t({"name", "value"});
  t.set_align(0, Align::Left);
  t.add_row({"ab", "1"});
  t.add_row({"abcd", "2"});
  const std::string out = t.render();
  // pad("ab", 4, Left) + "   " + pad("1", 5, Right) = "ab" + 9 spaces + "1"
  EXPECT_NE(out.find("ab         1"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), std::invalid_argument);
  EXPECT_THROW(t.add_row({"1", "2", "3"}), std::invalid_argument);
}

TEST(Table, EmptyHeaderThrows) {
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(Table, FmtFixedPoint) {
  EXPECT_EQ(Table::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Table::fmt(3.14159, 4), "3.1416");
  EXPECT_EQ(Table::fmt(-1.5, 1), "-1.5");
  EXPECT_EQ(Table::fmt(2.0, 0), "2");
}

TEST(Table, FmtInt) {
  EXPECT_EQ(Table::fmt_int(0), "0");
  EXPECT_EQ(Table::fmt_int(-42), "-42");
  EXPECT_EQ(Table::fmt_int(1234567890123LL), "1234567890123");
}

TEST(Table, FmtSci) {
  const std::string s = Table::fmt_sci(12345.678, 2);
  EXPECT_NE(s.find("1.23e"), std::string::npos);
}

TEST(Table, StreamOperator) {
  Table t({"h"});
  t.add_row({"v"});
  std::ostringstream os;
  os << t;
  EXPECT_EQ(os.str(), t.render());
}

}  // namespace
}  // namespace cobra::io
