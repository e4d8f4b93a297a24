#include "common/string_util.h"

#include <gtest/gtest.h>

namespace atune {
namespace {

TEST(StringUtilTest, StrFormatBasics) {
  EXPECT_EQ(StrFormat("x=%d y=%.1f s=%s", 3, 2.5, "hi"), "x=3 y=2.5 s=hi");
  EXPECT_EQ(StrFormat("%s", ""), "");
}

TEST(StringUtilTest, SplitKeepsEmptyTokens) {
  EXPECT_EQ(Split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("solo", ','), (std::vector<std::string>{"solo"}));
}

TEST(StringUtilTest, JoinRoundTripsSplit) {
  std::vector<std::string> parts = {"a", "bb", "ccc"};
  EXPECT_EQ(Join(parts, ","), "a,bb,ccc");
  EXPECT_EQ(Split(Join(parts, ","), ','), parts);
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  hello\t\n"), "hello");
  EXPECT_EQ(Trim("nowhitespace"), "nowhitespace");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("buffer_pool_mb", "buffer"));
  EXPECT_FALSE(StartsWith("buf", "buffer"));
}

TEST(StringUtilTest, DoubleToStringCompacts) {
  EXPECT_EQ(DoubleToString(64.0), "64");
  EXPECT_EQ(DoubleToString(0.75), "0.75");
  EXPECT_EQ(DoubleToString(-3.0), "-3");
}

TEST(StringUtilTest, StrFormatGrowsPastInternalBuffer) {
  // Seed-era gap: nothing exercised the second vsnprintf pass for results
  // longer than the stack buffer.
  std::string big(1000, 'x');
  std::string out = StrFormat("[%s]", big.c_str());
  ASSERT_EQ(out.size(), big.size() + 2);
  EXPECT_EQ(out.front(), '[');
  EXPECT_EQ(out.back(), ']');
  EXPECT_EQ(out.substr(1, big.size()), big);
}

TEST(StringUtilTest, SplitDelimiterAtEnds) {
  EXPECT_EQ(Split(",a,", ','), (std::vector<std::string>{"", "a", ""}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(StringUtilTest, TrimEmptyAndInterior) {
  EXPECT_EQ(Trim(""), "");
  // Interior whitespace survives; only the edges are stripped.
  EXPECT_EQ(Trim("  a b  "), "a b");
  EXPECT_EQ(Trim("\r\na\r\n"), "a");
}

TEST(StringUtilTest, StartsEndsWithEmptyAffixes) {
  EXPECT_TRUE(StartsWith("anything", ""));
  EXPECT_TRUE(StartsWith("", ""));
  EXPECT_FALSE(StartsWith("", "x"));
  // An exact match counts as a prefix.
  EXPECT_TRUE(StartsWith("exact", "exact"));
}

TEST(StringUtilTest, DoubleToStringEdgeValues) {
  EXPECT_EQ(DoubleToString(0.0), "0");
  EXPECT_EQ(DoubleToString(-0.75), "-0.75");
  // Max 6 significant decimals, trailing zeros trimmed.
  EXPECT_EQ(DoubleToString(0.1), "0.1");
  EXPECT_EQ(DoubleToString(1.0 / 3.0), "0.333333");
}

TEST(StringUtilTest, ParseNumberTakesWholeUnsignedStrings) {
  uint64_t v = 7;
  EXPECT_TRUE(ParseNumber("0", &v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(ParseNumber("18446744073709551615", &v));
  EXPECT_EQ(v, 18446744073709551615ULL);
  for (const char* bad : {"", "abc", "12abc", "-1", "+1", " 1", "1 ",
                          "18446744073709551616", "1e3", "0x10"}) {
    v = 7;
    EXPECT_FALSE(ParseNumber(bad, &v)) << "'" << bad << "'";
    EXPECT_EQ(v, 7u) << "'" << bad << "'";
  }
}

TEST(StringUtilTest, ParseNumberTakesWholeFiniteDoubles) {
  double v = 7.0;
  EXPECT_TRUE(ParseNumber("0.15", &v));
  EXPECT_EQ(v, 0.15);
  EXPECT_TRUE(ParseNumber("-2.5e3", &v));
  EXPECT_EQ(v, -2500.0);
  EXPECT_TRUE(ParseNumber("1", &v));
  EXPECT_EQ(v, 1.0);
  for (const char* bad : {"", "abc", "0.5x", " 1", "1 ", "nan", "inf",
                          "-inf", "1e999"}) {
    v = 7.0;
    EXPECT_FALSE(ParseNumber(bad, &v)) << "'" << bad << "'";
    EXPECT_EQ(v, 7.0) << "'" << bad << "'";
  }
}

}  // namespace
}  // namespace atune
