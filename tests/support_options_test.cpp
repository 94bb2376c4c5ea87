#include "src/support/options.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

namespace dynbcast {
namespace {

Options parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Options(static_cast<int>(argv.size()), argv.data());
}

TEST(OptionsTest, KeyEqualsValue) {
  const Options o = parse({"--n=32"});
  EXPECT_EQ(o.getInt("n", 0), 32);
}

TEST(OptionsTest, KeySpaceValue) {
  const Options o = parse({"--seed", "99"});
  EXPECT_EQ(o.getUInt("seed", 0), 99u);
}

TEST(OptionsTest, BareFlag) {
  const Options o = parse({"--verbose"});
  EXPECT_TRUE(o.has("verbose"));
  EXPECT_TRUE(o.getBool("verbose", false));
}

TEST(OptionsTest, MissingUsesFallback) {
  const Options o = parse({});
  EXPECT_EQ(o.getInt("n", 7), 7);
  EXPECT_EQ(o.getString("mode", "fast"), "fast");
  EXPECT_DOUBLE_EQ(o.getDouble("p", 0.5), 0.5);
  EXPECT_FALSE(o.has("n"));
}

TEST(OptionsTest, BoolSpellings) {
  EXPECT_TRUE(parse({"--x=true"}).getBool("x", false));
  EXPECT_TRUE(parse({"--x=1"}).getBool("x", false));
  EXPECT_FALSE(parse({"--x=false"}).getBool("x", true));
  EXPECT_FALSE(parse({"--x=0"}).getBool("x", true));
  EXPECT_THROW(static_cast<void>(parse({"--x=maybe"}).getBool("x", true)),
               std::invalid_argument);
}

TEST(OptionsTest, PositionalCollected) {
  const Options o = parse({"file1", "--n=3", "file2"});
  ASSERT_EQ(o.positional().size(), 2u);
  EXPECT_EQ(o.positional()[0], "file1");
  EXPECT_EQ(o.positional()[1], "file2");
}

TEST(OptionsTest, ProgramNameKept) {
  const Options o = parse({});
  EXPECT_EQ(o.programName(), "prog");
}

TEST(OptionsTest, UIntRequiresDigits) {
  EXPECT_EQ(parse({"--n=18446744073709551615"}).getUInt("n", 0),
            18446744073709551615ull);
  for (const char* bad : {"--n=-1", "--n=+3", "--n= 3", "--n=3x",
                          "--n=18446744073709551616"}) {
    try {
      (void)parse({bad}).getUInt("n", 0);
      ADD_FAILURE() << bad << " parsed";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("--n expects an unsigned integer"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(OptionsTest, RequireKnownRejectsUnreadFlagsWithASuggestion) {
  const Options o = parse({"--sizes=4", "--seeeds=8"});
  EXPECT_NO_THROW(o.requireKnown({"sizes", "seeeds"}));
  try {
    o.requireKnown({"sizes", "seeds"});
    FAIL() << "--seeeds accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()),
              "unknown option '--seeeds'; did you mean '--seeds'?");
  }
  EXPECT_THROW(parse({"--verbose"}).requireKnown({}), std::invalid_argument);
  EXPECT_NO_THROW(parse({"file"}).requireKnown({}));
}

TEST(ParseSizeListTest, CommaList) {
  const auto v = parseSizeList("8,16,32");
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], 8u);
  EXPECT_EQ(v[2], 32u);
}

TEST(ParseSizeListTest, GeometricRange) {
  const auto v = parseSizeList("8:64:2");
  ASSERT_EQ(v.size(), 4u);
  EXPECT_EQ(v[0], 8u);
  EXPECT_EQ(v[3], 64u);
}

TEST(ParseSizeListTest, RangeDefaultStep) {
  const auto v = parseSizeList("4:16");
  ASSERT_EQ(v.size(), 3u);  // 4, 8, 16
}

TEST(ParseSizeListTest, SingleValue) {
  const auto v = parseSizeList("42");
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0], 42u);
}

TEST(ParseSizeListTest, EmptyGivesEmpty) {
  EXPECT_TRUE(parseSizeList("").empty());
}

TEST(ParseSizeListTest, BadStepThrows) {
  EXPECT_THROW(parseSizeList("4:16:1"), std::invalid_argument);
}

TEST(ParseSizeListTest, RangeFromZeroThrows) {
  // v *= step never leaves 0, so these used to grow without end.
  EXPECT_THROW(parseSizeList("0:8"), std::invalid_argument);
  EXPECT_THROW(parseSizeList("0:8:2"), std::invalid_argument);
  EXPECT_THROW(parseSizeList("0:0"), std::invalid_argument);
  // A listed 0 parses; validateScenario rejects it with its own message.
  EXPECT_EQ(parseSizeList("0,4"), (std::vector<std::size_t>{0, 4}));
}

TEST(ParseSizeListTest, RangeStopsBeforeOverflow) {
  const auto v = parseSizeList("1:18446744073709551615");
  ASSERT_EQ(v.size(), 64u);
  EXPECT_EQ(v.front(), 1u);
  EXPECT_EQ(v.back(), std::size_t{1} << 63);
  const auto tens = parseSizeList("1:18446744073709551615:10");
  ASSERT_EQ(tens.size(), 20u);
  EXPECT_EQ(tens.back(), 10000000000000000000ull);
}

TEST(ParseSizeListTest, TokensMustBeDigits) {
  for (const char* bad : {"-1", "4,,8", ",4", "4,-8", "4: 8", "4:8:", "a:8",
                          "4:8:2:3", "99999999999999999999"}) {
    try {
      (void)parseSizeList(bad);
      ADD_FAILURE() << "'" << bad << "' parsed";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("sizes entry expects an unsigned "
                                           "integer, got '"),
                std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace dynbcast
