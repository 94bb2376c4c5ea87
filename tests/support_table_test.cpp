#include "src/support/table.h"

#include <gtest/gtest.h>

#include "src/support/assert.h"
#include "src/support/format.h"

namespace dynbcast {
namespace {

TEST(TextTableTest, RendersAlignedColumns) {
  TextTable t({"n", "bound"});
  t.row().add(std::uint64_t{8}).add("19");
  t.row().add(std::uint64_t{1024}).add("2472");
  const std::string out = t.render();
  EXPECT_NE(out.find("n"), std::string::npos);
  EXPECT_NE(out.find("1,024"), std::string::npos);
  EXPECT_NE(out.find("2472"), std::string::npos);
  // Header separator present.
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(TextTableTest, MarkdownHasPipes) {
  TextTable t({"a", "b"});
  t.row().add(std::uint64_t{1}).add(std::uint64_t{2});
  const std::string md = t.renderMarkdown();
  EXPECT_EQ(md.substr(0, 1), "|");
  EXPECT_NE(md.find("| a |"), std::string::npos);
}

TEST(TextTableTest, CsvEscapesSpecials) {
  TextTable t({"name", "value"});
  t.row().add("with,comma").add("with\"quote");
  const std::string csv = t.renderCsv();
  EXPECT_NE(csv.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"with\"\"quote\""), std::string::npos);
}

TEST(TextTableTest, AddBeforeRowThrows) {
  TextTable t({"x"});
  EXPECT_THROW(t.add("oops"), AssertionError);
}

TEST(TextTableTest, TooManyCellsThrows) {
  TextTable t({"only"});
  t.row().add("fine");
  EXPECT_THROW(t.add("extra"), AssertionError);
}

TEST(TextTableTest, DoubleFormatting) {
  TextTable t({"r"});
  t.row().add(2.41421356, 3);
  EXPECT_NE(t.render().find("2.414"), std::string::npos);
}

TEST(TextTableTest, RowCountTracksRows) {
  TextTable t({"x"});
  EXPECT_EQ(t.rowCount(), 0u);
  t.row().add(std::uint64_t{1});
  t.row().add(std::uint64_t{2});
  EXPECT_EQ(t.rowCount(), 2u);
}

TEST(FormatTest, FmtDoubleDigits) {
  EXPECT_EQ(fmtDouble(1.5, 2), "1.50");
  EXPECT_EQ(fmtDouble(2.41421, 3), "2.414");
  EXPECT_EQ(fmtDouble(-0.5, 1), "-0.5");
}

TEST(FormatTest, FmtCountSeparators) {
  EXPECT_EQ(fmtCount(0), "0");
  EXPECT_EQ(fmtCount(999), "999");
  EXPECT_EQ(fmtCount(1000), "1,000");
  EXPECT_EQ(fmtCount(1234567), "1,234,567");
  EXPECT_EQ(fmtCount(1000000000ull), "1,000,000,000");
}

TEST(FormatTest, JoinConcatenatesWithSeparator) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"solo"}, ","), "solo");
}

TEST(FormatTest, Padding) {
  EXPECT_EQ(padLeft("7", 3), "  7");
  EXPECT_EQ(padRight("ab", 4), "ab  ");
  EXPECT_EQ(padLeft("long", 2), "long");
}

}  // namespace
}  // namespace dynbcast
