#include "base/strings.h"

#include <cstddef>
#include <cstdint>

#include "gtest/gtest.h"

namespace ordlog {
namespace {

TEST(StringsTest, StrCat) {
  EXPECT_EQ(StrCat(), "");
  EXPECT_EQ(StrCat("a", 1, "-", 2.5), "a1-2.5");
  EXPECT_EQ(StrCat("x", std::string("y")), "xy");
}

TEST(StringsTest, StrJoin) {
  EXPECT_EQ(StrJoin(std::vector<int>{1, 2, 3}, ", "), "1, 2, 3");
  EXPECT_EQ(StrJoin(std::vector<int>{}, ", "), "");
  EXPECT_EQ(StrJoin(std::vector<std::string>{"solo"}, "|"), "solo");
}

TEST(StringsTest, StrJoinWithFormatter) {
  const std::vector<int> values = {1, 2};
  const std::string joined =
      StrJoin(values, "+", [](std::ostringstream& os, int v) { os << v * 10; });
  EXPECT_EQ(joined, "10+20");
}

TEST(StringsTest, StrSplit) {
  EXPECT_EQ(StrSplit("a,b,c", ','),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(StrSplit("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(StrSplit("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(StrSplit("no-delim", ','),
            (std::vector<std::string>{"no-delim"}));
}

TEST(StringsTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  hi \t\n"), "hi");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace(" \t "), "");
  EXPECT_EQ(StripWhitespace("middle space"), "middle space");
}

TEST(StringsTest, StartsWith) {
  EXPECT_TRUE(StartsWith("component c", "component"));
  EXPECT_FALSE(StartsWith("comp", "component"));
  EXPECT_TRUE(StartsWith("anything", ""));
}

TEST(StringsTest, ParseNumberIsStrict) {
  EXPECT_EQ(ParseNumber<int>("8080"), 8080);
  EXPECT_EQ(ParseNumber<int64_t>("-12"), -12);
  EXPECT_EQ(ParseNumber<size_t>("4"), 4u);
  EXPECT_EQ(ParseNumber<double>("0.25"), 0.25);
  // The whole text must be one number that fits the type.
  EXPECT_FALSE(ParseNumber<int>("").has_value());
  EXPECT_FALSE(ParseNumber<int>("abc").has_value());
  EXPECT_FALSE(ParseNumber<int>("80x").has_value());
  EXPECT_FALSE(ParseNumber<int>(" 80").has_value());
  EXPECT_FALSE(ParseNumber<int>("+80").has_value());
  EXPECT_FALSE(ParseNumber<size_t>("-1").has_value());
  EXPECT_FALSE(ParseNumber<int64_t>("99999999999999999999").has_value());
  EXPECT_FALSE(ParseNumber<double>("foo").has_value());
}

}  // namespace
}  // namespace ordlog
