// Strict number parsing (sim/parse.h) and the env::U64 knob reader that
// uses it: anything but a whole decimal number is rejected or falls back.
#include "sim/parse.h"

#include <gtest/gtest.h>

#include <climits>
#include <cstdint>
#include <cstdlib>
#include <string>

#include "sim/env.h"

namespace dlpsim {
namespace {

TEST(ParseU64, AcceptsDecimalDigitsOnly) {
  struct Case {
    std::string text;
    bool ok;
    std::uint64_t value;
  };
  const Case cases[] = {
      {"0", true, 0},
      {"7", true, 7},
      {"0042", true, 42},
      {"18446744073709551615", true, UINT64_MAX},
      {"", false, 0},
      {"-1", false, 0},
      {"-0", false, 0},
      {"+1", false, 0},
      {" 1", false, 0},
      {"1 ", false, 0},
      {"1\n", false, 0},
      {"12abc", false, 0},
      {"abc", false, 0},
      {"0x10", false, 0},
      {"1.5", false, 0},
      {"1e3", false, 0},
      {std::string("1\0", 2), false, 0},
      {"18446744073709551616", false, 0},
  };
  for (const Case& c : cases) {
    std::uint64_t v = 99;
    EXPECT_EQ(ParseU64(c.text, &v), c.ok) << '"' << c.text << '"';
    // A rejected value leaves the output untouched.
    EXPECT_EQ(v, c.ok ? c.value : 99u) << '"' << c.text << '"';
  }
}

TEST(ParseU64, UnsignedRejectsValuesAboveTheTargetType) {
  std::uint32_t u32 = 5;
  EXPECT_TRUE(ParseUnsigned("4294967295", &u32));
  EXPECT_EQ(u32, UINT32_MAX);
  EXPECT_FALSE(ParseUnsigned("4294967296", &u32));
  EXPECT_EQ(u32, UINT32_MAX);

  int i = 5;
  EXPECT_TRUE(ParseUnsigned("2147483647", &i));
  EXPECT_EQ(i, INT_MAX);
  EXPECT_FALSE(ParseUnsigned("2147483648", &i));
  EXPECT_FALSE(ParseUnsigned("-1", &i));
  EXPECT_EQ(i, INT_MAX);
}

TEST(ParsePositiveDouble, AcceptsWholeFinitePositiveNumbersOnly) {
  struct Case {
    std::string text;
    bool ok;
    double value;
  };
  const Case cases[] = {
      {"5", true, 5.0},
      {"0.05", true, 0.05},
      {".5", true, 0.5},
      {"1e-3", true, 1e-3},
      {"75", true, 75.0},
      {"", false, 0},
      {"0", false, 0},
      {"-1", false, 0},
      {"+1", false, 0},
      {" 1", false, 0},
      {"1 ", false, 0},
      {"5%", false, 0},
      {"0.1x", false, 0},
      {"inf", false, 0},
      {"nan", false, 0},
      {"1e999", false, 0},
      {"0x1p-3", false, 0},
      {"x", false, 0},
  };
  for (const Case& c : cases) {
    double v = 99.0;
    EXPECT_EQ(ParsePositiveDouble(c.text, &v), c.ok) << '"' << c.text << '"';
    // A rejected value leaves the output untouched.
    EXPECT_EQ(v, c.ok ? c.value : 99.0) << '"' << c.text << '"';
  }
}

TEST(EnvU64, MalformedValuesFallBack) {
  const char* name = "DLPSIM_SERVER_WORKERS";
  const char* saved = std::getenv(name);
  const std::string restore = saved != nullptr ? saved : "";

  ::unsetenv(name);
  EXPECT_EQ(env::U64(name, 4), 4u);
  ::setenv(name, "12", 1);
  EXPECT_EQ(env::U64(name, 4), 12u);
  for (const char* bad : {"-1", "12abc", "0", "", " 12"}) {
    ::setenv(name, bad, 1);
    EXPECT_EQ(env::U64(name, 4), 4u) << '"' << bad << '"';
  }

  if (saved != nullptr) {
    ::setenv(name, restore.c_str(), 1);
  } else {
    ::unsetenv(name);
  }
}

}  // namespace
}  // namespace dlpsim
