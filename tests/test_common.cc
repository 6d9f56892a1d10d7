#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <sstream>

#include "common/env.h"
#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/table_printer.h"

namespace orpheus {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("version 7");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.ToString(), "NotFound: version 7");
}

TEST(StatusTest, AllConstructorsProduceTheirCode) {
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::ConstraintViolation("x").IsConstraintViolation());
  EXPECT_EQ(Status::Corruption("x").code(), StatusCode::kCorruption);
  EXPECT_EQ(Status::NotSupported("x").code(), StatusCode::kNotSupported);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  auto fails = []() -> Status {
    ORPHEUS_RETURN_NOT_OK(Status::NotFound("inner"));
    return Status::OK();
  };
  EXPECT_TRUE(fails().IsNotFound());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::InvalidArgument("bad"));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST(ResultTest, MoveValueOut) {
  Result<std::string> r(std::string("hello"));
  std::string v = r.MoveValueOrDie();
  EXPECT_EQ(v, "hello");
}

TEST(RandomTest, Deterministic) {
  Xorshift a(123);
  Xorshift b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, UniformWithinBounds) {
  Xorshift rng(5);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.Uniform(17);
    EXPECT_LT(v, 17u);
  }
}

TEST(RandomTest, UniformRangeInclusive) {
  Xorshift rng(5);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    int64_t v = rng.UniformRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RandomTest, NextDoubleInUnitInterval) {
  Xorshift rng(9);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, SampleWithoutReplacementDistinct) {
  Xorshift rng(11);
  auto sample = rng.SampleWithoutReplacement(100, 30);
  std::set<uint64_t> uniq(sample.begin(), sample.end());
  EXPECT_EQ(sample.size(), 30u);
  EXPECT_EQ(uniq.size(), 30u);
  for (uint64_t v : sample) EXPECT_LT(v, 100u);
}

TEST(RandomTest, SampleClampedToPopulation) {
  Xorshift rng(11);
  auto sample = rng.SampleWithoutReplacement(5, 10);
  EXPECT_EQ(sample.size(), 5u);
}

TEST(StringUtilTest, Split) {
  auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(StringUtilTest, SplitSingle) {
  auto parts = Split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  x y \t\n"), "x y");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringUtilTest, StartsWith) {
  EXPECT_TRUE(StartsWith("checkout -v 1", "checkout"));
  EXPECT_FALSE(StartsWith("co", "checkout"));
}

TEST(StringUtilTest, ToLower) {
  EXPECT_EQ(ToLower("SELECT Vid"), "select vid");
}

TEST(StringUtilTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512.00 B");
  EXPECT_EQ(HumanBytes(2048), "2.00 KB");
  EXPECT_EQ(HumanBytes(3ull << 30), "3.00 GB");
}

TEST(StringUtilTest, HumanSeconds) {
  EXPECT_EQ(HumanSeconds(0.0000005), "0.5 us");
  EXPECT_EQ(HumanSeconds(0.053), "53.0 ms");
  EXPECT_EQ(HumanSeconds(2.5), "2.50 s");
  EXPECT_EQ(HumanSeconds(180.0), "3.0 min");
}

TEST(StringUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 1.239), "1.24");
}

TEST(ParseIntStrictTest, AcceptsOnlyCleanIntegers) {
  EXPECT_EQ(ParseIntStrict("0"), 0);
  EXPECT_EQ(ParseIntStrict("-3"), -3);
  EXPECT_EQ(ParseIntStrict("+8"), 8);
  EXPECT_EQ(ParseIntStrict("9223372036854775807"), INT64_MAX);
  EXPECT_FALSE(ParseIntStrict("").has_value());
  EXPECT_FALSE(ParseIntStrict("8abc").has_value());
  EXPECT_FALSE(ParseIntStrict(" 8").has_value());
  EXPECT_FALSE(ParseIntStrict("8 ").has_value());
  EXPECT_FALSE(ParseIntStrict("1.5").has_value());
  EXPECT_FALSE(ParseIntStrict("+").has_value());
  EXPECT_FALSE(ParseIntStrict("0x10").has_value());
  // Overflow is a failure, not a clamp (atoi/strtoll behavior).
  EXPECT_FALSE(ParseIntStrict("9223372036854775808").has_value());
}

TEST(ParseDoubleStrictTest, AcceptsOnlyCleanFiniteNumbers) {
  EXPECT_EQ(ParseDoubleStrict("2"), 2.0);
  EXPECT_EQ(ParseDoubleStrict("+1.5"), 1.5);
  EXPECT_EQ(ParseDoubleStrict("-0.25"), -0.25);
  EXPECT_EQ(ParseDoubleStrict("1e3"), 1000.0);
  EXPECT_FALSE(ParseDoubleStrict("").has_value());
  EXPECT_FALSE(ParseDoubleStrict("3x").has_value());
  EXPECT_FALSE(ParseDoubleStrict(" 3").has_value());
  EXPECT_FALSE(ParseDoubleStrict("1,5").has_value());
  EXPECT_FALSE(ParseDoubleStrict("nan").has_value());
  EXPECT_FALSE(ParseDoubleStrict("inf").has_value());
  EXPECT_FALSE(ParseDoubleStrict("-infinity").has_value());
  // Out of double range is a failure, not a clamp to infinity.
  EXPECT_FALSE(ParseDoubleStrict("1e400").has_value());
}

TEST(ParseEnvIntTest, FallsBackOnGarbageAndRange) {
  // Regression: ORPHEUS_THREADS="8abc" used to atoi() to 8 silently; any
  // malformed value now falls back to the default (with one warning).
  setenv("ORPHEUS_TEST_INT", "8abc", 1);
  EXPECT_EQ(ParseEnvInt("ORPHEUS_TEST_INT", 4, 1, 4096), 4);
  setenv("ORPHEUS_TEST_INT", "-3", 1);
  EXPECT_EQ(ParseEnvInt("ORPHEUS_TEST_INT", 4, 1, 4096), 4);
  setenv("ORPHEUS_TEST_INT", "", 1);
  EXPECT_EQ(ParseEnvInt("ORPHEUS_TEST_INT", 4, 1, 4096), 4);
  setenv("ORPHEUS_TEST_INT", "99999", 1);
  EXPECT_EQ(ParseEnvInt("ORPHEUS_TEST_INT", 4, 1, 4096), 4);
  setenv("ORPHEUS_TEST_INT", "16", 1);
  EXPECT_EQ(ParseEnvInt("ORPHEUS_TEST_INT", 4, 1, 4096), 16);
  unsetenv("ORPHEUS_TEST_INT");
  EXPECT_EQ(ParseEnvInt("ORPHEUS_TEST_INT", 4, 1, 4096), 4);
}

TEST(ParseEnvBoolTest, AcceptsCommonSpellings) {
  for (const char* on : {"1", "true", "TRUE", "yes", "on", "On"}) {
    setenv("ORPHEUS_TEST_BOOL", on, 1);
    EXPECT_TRUE(ParseEnvBool("ORPHEUS_TEST_BOOL", false)) << on;
  }
  for (const char* off : {"0", "false", "no", "OFF"}) {
    setenv("ORPHEUS_TEST_BOOL", off, 1);
    EXPECT_FALSE(ParseEnvBool("ORPHEUS_TEST_BOOL", true)) << off;
  }
  setenv("ORPHEUS_TEST_BOOL", "maybe", 1);
  EXPECT_TRUE(ParseEnvBool("ORPHEUS_TEST_BOOL", true));
  EXPECT_FALSE(ParseEnvBool("ORPHEUS_TEST_BOOL", false));
  unsetenv("ORPHEUS_TEST_BOOL");
  EXPECT_TRUE(ParseEnvBool("ORPHEUS_TEST_BOOL", true));
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter tp({"name", "value"});
  tp.AddRow({"a", "1"});
  tp.AddRow({"longer", "22"});
  std::ostringstream os;
  tp.Print(os);
  std::string out = os.str();
  EXPECT_NE(out.find("| name   | value |"), std::string::npos);
  EXPECT_NE(out.find("| longer | 22    |"), std::string::npos);
}

}  // namespace
}  // namespace orpheus
