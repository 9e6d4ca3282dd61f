// Unit tests for strings, CLI flags, tables, check macros and the stopwatch.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "support/check.hpp"
#include "support/cli.hpp"
#include "support/stopwatch.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"

namespace df::support {
namespace {

TEST(Strings, TrimBothEnds) {
  EXPECT_EQ(trim("  hello \t\n"), "hello");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("x"), "x");
  EXPECT_EQ(trim("\v\f x y\r"), "x y");
}

TEST(Strings, PrefixSuffix) {
  EXPECT_TRUE(starts_with("deltaflow", "delta"));
  EXPECT_FALSE(starts_with("de", "delta"));
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
  // strtoull skips leading whitespace before it negates, so a sign there
  // is rejected too instead of wrapping to a huge count.
  EXPECT_FALSE(parse_uint(" -1").has_value());
  EXPECT_FALSE(parse_uint("\t-2").has_value());
  EXPECT_FALSE(parse_uint(" -0").has_value());
  EXPECT_EQ(parse_uint(" 7"), 7U);
  EXPECT_EQ(parse_uint("+5"), 5U);
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
  EXPECT_EQ(parse_bool("YeS"), true);
  EXPECT_EQ(parse_bool("\tTrUe\r\n"), true);
  EXPECT_FALSE(parse_bool("maybe").has_value());
  EXPECT_FALSE(parse_bool("").has_value());
  EXPECT_FALSE(parse_bool("tru").has_value());
  EXPECT_FALSE(parse_bool("truex").has_value());
  EXPECT_FALSE(parse_bool("01").has_value());
}

// The number grammar of support/strings.hpp, one spelling per row. The
// rows marked "changed" read differently under the strtoll/strtoull/strtod
// grammar it replaced; every other row reads as it did there.
TEST(Strings, NumberGrammarTable) {
  using std::nullopt;
  const std::string nul_int("4\0" "2", 3);
  const std::string nul_double("1\0" ".5", 4);
  const std::optional<std::int64_t> kInt64Max =
      std::numeric_limits<std::int64_t>::max();
  const std::optional<std::int64_t> kInt64Min =
      std::numeric_limits<std::int64_t>::min();

  const std::vector<std::pair<std::string, std::optional<std::int64_t>>>
      ints = {
          {"42", 42},
          {"-7", -7},
          {"+5", 5},
          {"-0", 0},
          {"007", 7},
          {" 7", 7},
          {"\t\n\v\f\r 7", 7},
          {"9223372036854775807", kInt64Max},
          {"-9223372036854775808", kInt64Min},
          {"", nullopt},
          {"   ", nullopt},
          {"+", nullopt},
          {"-", nullopt},
          {"7 ", nullopt},
          {"42x", nullopt},
          {"4.2", nullopt},
          {"1e3", nullopt},
          {"0x10", nullopt},
          {"+-5", nullopt},
          {"++5", nullopt},
          {"--5", nullopt},
          {"+ 5", nullopt},
          {"- 5", nullopt},
          {nul_int, nullopt},
          {"9223372036854775808", nullopt},
          {"-9223372036854775809", nullopt},
          {"1234567890123456789012345", nullopt},
      };
  for (const auto& [text, want] : ints) {
    EXPECT_EQ(parse_int(text), want) << "parse_int('" << text << "')";
  }

  const std::vector<std::pair<std::string, std::optional<std::uint64_t>>>
      uints = {
          {"42", 42U},
          {"+5", 5U},
          {" 7", 7U},
          {"18446744073709551615",
           std::numeric_limits<std::uint64_t>::max()},
          {"", nullopt},
          {"7 ", nullopt},
          {"-1", nullopt},
          {"-0", nullopt},
          {" -0", nullopt},
          {"\t-2", nullopt},
          {"+-1", nullopt},
          {"0x10", nullopt},
          {"18446744073709551616", nullopt},
          {"1234567890123456789012345", nullopt},
      };
  for (const auto& [text, want] : uints) {
    EXPECT_EQ(parse_uint(text), want) << "parse_uint('" << text << "')";
  }

  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::pair<std::string, std::optional<double>>> doubles = {
      {"3.5", 3.5},
      {"-1e3", -1000.0},
      {"+2.5", 2.5},
      {" 1.5", 1.5},
      {".5", 0.5},
      {"5.", 5.0},
      {"-0", -0.0},
      {"1E+5", 1e5},
      {"1234567890123456789012345", 1234567890123456789012345.0},
      {"1.7976931348623157e308", std::numeric_limits<double>::max()},
      {"2.2250738585072014e-308", std::numeric_limits<double>::min()},
      {"inf", inf},
      {"+inf", inf},
      {"-Infinity", -inf},
      {"INF", inf},
      {"nan", nan},
      {"NaN", nan},
      {"-nan", -nan},
      {"", nullopt},
      {" ", nullopt},
      {"1.5 ", nullopt},
      {"3.5kg", nullopt},
      {"1e", nullopt},
      {"1e+", nullopt},
      {"infinit", nullopt},
      {"+-1", nullopt},
      {nul_double, nullopt},
      {"1e400", nullopt},
      {"-1e400", nullopt},
      {"1e-400", nullopt},
      {"1e-324", nullopt},
      // changed: hex floats no longer parse (strtod read 8, 16 and -8).
      {"0x1p3", nullopt},
      {"0x10", nullopt},
      {"-0x1p3", nullopt},
      // changed: subnormals parse (strtod rejected them with ERANGE).
      {"1e-310", 1e-310},
      {"9.9999999999999694e-311", 9.9999999999999694e-311},
      {"4.9e-324", std::numeric_limits<double>::denorm_min()},
      // changed: a NaN's payload is dropped (strtod kept 123).
      {"nan(123)", nan},
  };
  for (const auto& [text, want] : doubles) {
    const std::optional<double> got = parse_double(text);
    ASSERT_EQ(got.has_value(), want.has_value()) << "parse_double('" << text
                                                 << "')";
    if (got.has_value()) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(*got),
                std::bit_cast<std::uint64_t>(*want))
          << "parse_double('" << text << "') read " << *got;
    }
  }
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
