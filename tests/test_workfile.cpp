#include <gtest/gtest.h>

#include "micro/work_file.hpp"

using namespace psi;
using namespace psi::micro;

TEST(WorkFile, ReadWriteRoundTrip)
{
    WorkFile wf;
    wf.write(0x25, {Tag::Int, 99});
    EXPECT_EQ(wf.read(0x25).data, 99u);
    EXPECT_EQ(wf.read(0x26).tag, Tag::Undef);
}

TEST(WorkFile, LayoutRegionsDisjoint)
{
    EXPECT_LT(kWfArgBase + 16, kWfFrameBuf0 + 0u);
    EXPECT_EQ(kWfFrameBuf0 + kWfFrameBufWords, kWfFrameBuf1 + 0u);
    EXPECT_EQ(kWfFrameBuf1 + kWfFrameBufWords, kWfTrailBuf + 0u);
    EXPECT_LE(kWfConstBase + kWfConstWords, kWfWords + 0u);
}

TEST(WorkFileDeathTest, OutOfRangePanics)
{
    WorkFile wf;
    EXPECT_DEATH(wf.read(kWfWords), "WF address");
}
