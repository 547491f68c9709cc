// Regression tests for the bench flag parser: Flags::get/get_int used bare
// std::stod/std::stoll, so `--users 1e2x` silently parsed as 100 and
// `--users abc` died with an uncaught std::invalid_argument. Malformed
// values are now a usage error (exit 2) naming the offending flag.
#include "../../bench/bench_common.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace cdnsim::bench {
namespace {

/// Builds a Flags from `--key value` strings (argv[0] is synthesized).
Flags make_flags(std::vector<std::string> args) {
  std::vector<char*> argv;
  static std::string program = "bench";
  argv.push_back(program.data());
  for (std::string& a : args) argv.push_back(a.data());
  return Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(FlagsTest, ParseNumberRejectsGarbageAndAcceptsWholeTokens) {
  double d = 0;
  EXPECT_TRUE(parse_number("1.5", d));
  EXPECT_EQ(d, 1.5);
  EXPECT_FALSE(parse_number("", d));
  EXPECT_FALSE(parse_number("abc", d));
  EXPECT_FALSE(parse_number("1.5x", d));  // trailing garbage
  std::int64_t i = 0;
  EXPECT_TRUE(parse_number("42", i));
  EXPECT_EQ(i, 42);
  EXPECT_FALSE(parse_number("42.5", i));
  EXPECT_FALSE(parse_number("0x10", i));
}

TEST(FlagsTest, WellFormedValuesParse) {
  const Flags f = make_flags({"--users", "12", "--heartbeat", "2.5",
                              "--lanes", "auto"});
  EXPECT_EQ(f.get_int("users", 0), 12);
  EXPECT_EQ(f.get("heartbeat", 0.0), 2.5);
  EXPECT_EQ(f.lanes(1), core::CatalogRunConfig::kAutoLanes);
  EXPECT_EQ(make_flags({"--lanes", "4"}).lanes(1), 4);
  // Absent keys fall back.
  EXPECT_EQ(f.get_int("days", 15), 15);
  EXPECT_EQ(f.get("rate", 0.25), 0.25);
}

TEST(FlagsDeathTest, GetExitsTwoNamingTheMalformedFlag) {
  const Flags f = make_flags({"--heartbeat", "soon"});
  EXPECT_EXIT(f.get("heartbeat", 0.0), ::testing::ExitedWithCode(2),
              "--heartbeat expects a number, got 'soon'");
}

TEST(FlagsDeathTest, GetRejectsTrailingGarbage) {
  // The silent-truncation case: stod would have returned 100.
  const Flags f = make_flags({"--users", "1e2x"});
  EXPECT_EXIT(f.get("users", 0.0), ::testing::ExitedWithCode(2),
              "--users expects a number, got '1e2x'");
}

TEST(FlagsDeathTest, GetIntExitsTwoNamingTheMalformedFlag) {
  const Flags f = make_flags({"--jobs", "4x"});
  EXPECT_EXIT(f.get_int("jobs", 1), ::testing::ExitedWithCode(2),
              "--jobs expects an integer, got '4x'");
}

TEST(FlagsDeathTest, GetIntRejectsFractions) {
  const Flags f = make_flags({"--objects", "2.5"});
  EXPECT_EXIT(f.get_int("objects", 1), ::testing::ExitedWithCode(2),
              "--objects expects an integer");
}

TEST(FlagsDeathTest, LanesStillRejectsZeroAndGarbage) {
  EXPECT_EXIT(make_flags({"--lanes", "0"}).lanes(1),
              ::testing::ExitedWithCode(2),
              "--lanes expects 'auto' or an integer >= 1");
  EXPECT_EXIT(make_flags({"--lanes", "-2"}).lanes(1),
              ::testing::ExitedWithCode(2), "--lanes expects");
  EXPECT_EXIT(make_flags({"--lanes", "4q"}).lanes(1),
              ::testing::ExitedWithCode(2), "--lanes expects");
}

}  // namespace
}  // namespace cdnsim::bench
