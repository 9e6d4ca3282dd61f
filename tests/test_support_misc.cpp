// Unit tests for strings, CLI flags, tables, check macros and the stopwatch.
#include <gtest/gtest.h>

#include "support/check.hpp"
#include "support/cli.hpp"
#include "support/stopwatch.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"

namespace df::support {
namespace {

TEST(Strings, SplitPreservesEmptyFields) {
  const auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4U);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, TrimBothEnds) {
  EXPECT_EQ(trim("  hello \t\n"), "hello");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(Strings, PrefixSuffix) {
  EXPECT_TRUE(starts_with("deltaflow", "delta"));
  EXPECT_FALSE(starts_with("de", "delta"));
  EXPECT_TRUE(ends_with("deltaflow", "flow"));
  EXPECT_FALSE(ends_with("ow", "flow"));
}

TEST(Strings, ParseIntStrict) {
  EXPECT_EQ(parse_int("42"), 42);
  EXPECT_EQ(parse_int("-7"), -7);
  EXPECT_FALSE(parse_int("42x").has_value());
  EXPECT_FALSE(parse_int("").has_value());
  EXPECT_FALSE(parse_int("4.2").has_value());
}

TEST(Strings, ParseUintRejectsNegative) {
  EXPECT_EQ(parse_uint("42"), 42U);
  EXPECT_FALSE(parse_uint("-1").has_value());
}

TEST(Strings, ParseDoubleStrict) {
  EXPECT_DOUBLE_EQ(*parse_double("3.5"), 3.5);
  EXPECT_DOUBLE_EQ(*parse_double("-1e3"), -1000.0);
  EXPECT_FALSE(parse_double("3.5kg").has_value());
}

TEST(Strings, ParseBoolForms) {
  EXPECT_EQ(parse_bool("true"), true);
  EXPECT_EQ(parse_bool("FALSE"), false);
  EXPECT_EQ(parse_bool("1"), true);
  EXPECT_EQ(parse_bool(" no "), false);
  EXPECT_FALSE(parse_bool("maybe").has_value());
}

TEST(Strings, JoinAndLower) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(to_lower("DeltaFlow"), "deltaflow");
}

TEST(Cli, ParsesAllForms) {
  const char* argv[] = {"prog", "--alpha=3", "--gamma", "positional"};
  CliFlags flags(4, argv);
  EXPECT_EQ(flags.get("alpha", std::int64_t{0}), 3);
  EXPECT_TRUE(flags.get("gamma", false));  // bare flag -> boolean true
  ASSERT_EQ(flags.positional().size(), 1U);
  EXPECT_EQ(flags.positional()[0], "positional");
}

TEST(Cli, DefaultsAndTypes) {
  const char* argv[] = {"prog", "--rate=0.25", "--name=run1"};
  CliFlags flags(3, argv);
  EXPECT_DOUBLE_EQ(flags.get("rate", 0.0), 0.25);
  EXPECT_EQ(flags.get("name", std::string("x")), "run1");
  EXPECT_EQ(flags.get("missing", std::uint64_t{9}), 9U);
  EXPECT_FALSE(flags.has("missing"));
}

TEST(Cli, UnusedFlagsAreReported) {
  const char* argv[] = {"prog", "--used=1", "--typo=2"};
  CliFlags flags(3, argv);
  (void)flags.get("used", std::int64_t{0});
  const auto unused = flags.unused();
  ASSERT_EQ(unused.size(), 1U);
  EXPECT_EQ(unused[0], "typo");
}

TEST(Cli, RejectUnusedExitsTwoNamingEveryUnreadFlag) {
  const char* argv[] = {"prog", "--used=1", "--shards=4", "--dispatch=steal"};
  CliFlags flags(4, argv);
  (void)flags.get("used", std::int64_t{0});
  EXPECT_EXIT(flags.reject_unused(), ::testing::ExitedWithCode(2),
              "unknown flag --dispatch\nunknown flag --shards");
}

TEST(Cli, RejectUnusedReturnsWhenEveryFlagWasRead) {
  const char* argv[] = {"prog", "--used=1", "positional"};
  CliFlags flags(3, argv);
  (void)flags.get("used", std::int64_t{0});
  flags.reject_unused();
  SUCCEED();
}

TEST(Cli, BadTypeThrows) {
  const char* argv[] = {"prog", "--n=abc"};
  CliFlags flags(2, argv);
  EXPECT_THROW(flags.get("n", std::int64_t{0}), check_error);
}

TEST(Table, RendersAlignedColumns) {
  Table table({"name", "value"});
  table.add_row({"alpha", "1"});
  table.add_row({"bb", "22.5"});
  const std::string text = table.render();
  EXPECT_NE(text.find("| name"), std::string::npos);
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("22.5"), std::string::npos);
  EXPECT_EQ(table.row_count(), 2U);
}

TEST(Table, RowWidthIsChecked) {
  Table table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), check_error);
}

TEST(Table, NumFormatting) {
  EXPECT_EQ(Table::num(1.5, 3), "1.5");
  EXPECT_EQ(Table::num(2.0, 3), "2");
  EXPECT_EQ(Table::num(0.126, 2), "0.13");
  // 0.125 is exactly representable; iostreams round it half-to-even.
  EXPECT_EQ(Table::num(0.125, 2), "0.12");
  EXPECT_EQ(Table::num(std::uint64_t{42}), "42");
  EXPECT_EQ(Table::num(std::int64_t{-42}), "-42");
}

TEST(Check, ThrowsWithMessage) {
  try {
    DF_CHECK(false, "context ", 42);
    FAIL() << "DF_CHECK did not throw";
  } catch (const check_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("context 42"), std::string::npos);
    EXPECT_NE(what.find("false"), std::string::npos);
  }
}

TEST(Check, PassesSilently) {
  DF_CHECK(1 + 1 == 2);
  SUCCEED();
}

TEST(Stopwatch, MeasuresElapsedTime) {
  Stopwatch sw;
  const std::uint64_t spun = spin_for_ns(2'000'000);  // 2 ms
  EXPECT_NE(spun, 0U);
  EXPECT_GE(sw.elapsed_ns(), 2'000'000U);
  EXPECT_GT(sw.elapsed_ms(), 1.9);
  sw.restart();
  EXPECT_LT(sw.elapsed_ms(), 2.0);
}

}  // namespace
}  // namespace df::support
