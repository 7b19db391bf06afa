#include <gtest/gtest.h>

#include <iomanip>
#include <sstream>

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

TEST(Stats, FixedMatchesStreamFormatting)
{
    // Values whose text is longer than any stack buffer, rounding
    // ties, and the non-finite ones, against std::fixed.
    const double values[] = {0.0,    -0.0,   0.125,  2.5,   1e-9,
                             123456789.987654321,     1e22,  -1e300,
                             1.0 / 0.0, -1.0 / 0.0, 0.0 / 0.0};
    for (double v : values) {
        for (int prec : {0, 1, 3, 9, 40}) {
            std::ostringstream os;
            os << std::fixed << std::setprecision(prec) << v;
            EXPECT_EQ(fixed(v, prec), os.str()) << v << " " << prec;
        }
    }
}
