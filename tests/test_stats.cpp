#include <gtest/gtest.h>

#include "base/stats.hpp"

using namespace psi::stats;

TEST(Stats, PctHandlesZeroDenominator)
{
    EXPECT_DOUBLE_EQ(pct(5, 0), 0.0);
    EXPECT_DOUBLE_EQ(pct(1, 4), 25.0);
    EXPECT_DOUBLE_EQ(pct(0, 4), 0.0);
}

TEST(Stats, Ratio)
{
    EXPECT_DOUBLE_EQ(ratio(1, 2), 0.5);
    EXPECT_DOUBLE_EQ(ratio(7, 0), 0.0);
}

TEST(Stats, FixedFormatting)
{
    EXPECT_EQ(fixed(3.14159, 2), "3.14");
    EXPECT_EQ(fixed(3.0, 1), "3.0");
    EXPECT_EQ(fixed(-0.05, 1), "-0.1");
}
