// Tests for the strict numeric parsers shared by progxe_cli and
// progxe_server (common/parse_number.h).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "common/parse_number.h"

namespace progxe {
namespace {

TEST(ParseNumber, AcceptsWholeTokens) {
  uint64_t u = 0;
  EXPECT_TRUE(ParseU64("18446744073709551615", &u));
  EXPECT_EQ(u, UINT64_MAX);
  int64_t i64 = 0;
  EXPECT_TRUE(ParseI64("-9000000000", &i64));
  EXPECT_EQ(i64, -9000000000LL);
  int i32 = 0;
  EXPECT_TRUE(ParseI32("-42", &i32));
  EXPECT_EQ(i32, -42);
  double d = 0.0;
  EXPECT_TRUE(ParseF64("0.001", &d));
  EXPECT_EQ(d, 0.001);
  EXPECT_TRUE(ParseF64("-2.5e-3", &d));
  EXPECT_EQ(d, -2.5e-3);
}

TEST(ParseNumber, RejectsTrailingGarbageAndEmptyTokens) {
  int i32 = 7;
  EXPECT_FALSE(ParseI32("4x", &i32));
  EXPECT_FALSE(ParseI32("", &i32));
  EXPECT_FALSE(ParseI32(" 4", &i32));
  EXPECT_FALSE(ParseI32("4 ", &i32));
  EXPECT_EQ(i32, 7) << "a rejected token must leave the output untouched";
  double d = 1.0;
  EXPECT_FALSE(ParseF64("0.5s", &d));
  EXPECT_FALSE(ParseF64("", &d));
  EXPECT_EQ(d, 1.0);
}

TEST(ParseNumber, RejectsOutOfRangeValues) {
  int i32 = 0;
  EXPECT_FALSE(ParseI32("2147483648", &i32));
  EXPECT_FALSE(ParseI32("-2147483649", &i32));
  EXPECT_TRUE(ParseI32("2147483647", &i32));
  uint64_t u = 0;
  EXPECT_FALSE(ParseU64("18446744073709551616", &u));
  EXPECT_FALSE(ParseU64("-1", &u)) << "no wrap-around for unsigned targets";
  double d = 0.0;
  EXPECT_FALSE(ParseF64("1e999", &d));
  EXPECT_FALSE(ParseF64("inf", &d));
  EXPECT_FALSE(ParseF64("nan", &d));
}

}  // namespace
}  // namespace progxe
