#include <gtest/gtest.h>

#include <vector>

#include "mem/cache.hpp"

using namespace psi;

namespace {

CacheConfig
smallCache(std::uint32_t words, std::uint32_t ways = 2)
{
    CacheConfig c = CacheConfig::psi();
    c.capacityWords = words;
    c.ways = ways;
    return c;
}

} // namespace

TEST(Cache, FirstReadMissesSecondHits)
{
    Cache c(CacheConfig::psi());
    std::uint64_t t0 = c.access(CacheCmd::Read, Area::Heap, 100);
    EXPECT_GT(t0, 0u);  // miss pays the block read-in
    std::uint64_t t1 = c.access(CacheCmd::Read, Area::Heap, 100);
    EXPECT_EQ(t1, 0u);  // hit is free beyond the step
    EXPECT_EQ(c.stats().totalHits(), 1u);
    EXPECT_EQ(c.stats().totalAccesses(), 2u);
}

TEST(Cache, BlockGranularity)
{
    Cache c(CacheConfig::psi());
    c.access(CacheCmd::Read, Area::Heap, 8);   // block 2: words 8-11
    EXPECT_EQ(c.access(CacheCmd::Read, Area::Heap, 11), 0u);
    EXPECT_GT(c.access(CacheCmd::Read, Area::Heap, 12), 0u);
}

TEST(Cache, WriteAllocatesWithReadIn)
{
    Cache c(CacheConfig::psi());
    std::uint64_t t = c.access(CacheCmd::Write, Area::Global, 40);
    EXPECT_EQ(t, CacheConfig::psi().missReadNs);
    EXPECT_EQ(c.stats().readIns, 1u);
    // Subsequent read hits.
    EXPECT_EQ(c.access(CacheCmd::Read, Area::Global, 40), 0u);
}

TEST(Cache, WriteStackSkipsReadIn)
{
    Cache c(CacheConfig::psi());
    std::uint64_t t = c.access(CacheCmd::WriteStack, Area::Local, 40);
    EXPECT_EQ(t, 0u);  // allocation without block transfer
    EXPECT_EQ(c.stats().readIns, 0u);
    EXPECT_EQ(c.stats().stackAllocs, 1u);
    // The allocated line is resident.
    EXPECT_EQ(c.access(CacheCmd::Read, Area::Local, 41), 0u);
}

TEST(Cache, DirtyEvictionPaysWriteBack)
{
    // 8-word, 1-way cache: 2 sets of one 4-word block.
    Cache c(smallCache(8, 1));
    c.access(CacheCmd::WriteStack, Area::Local, 0);   // set 0, dirty
    std::uint64_t t = c.access(CacheCmd::Read, Area::Local, 8);
    // Evicts the dirty block: write-back plus read-in.
    EXPECT_EQ(t, CacheConfig::psi().writeBackNs +
                     CacheConfig::psi().missReadNs);
    EXPECT_EQ(c.stats().writeBacks, 1u);
}

TEST(Cache, CleanEvictionFree)
{
    Cache c(smallCache(8, 1));
    c.access(CacheCmd::Read, Area::Heap, 0);
    std::uint64_t t = c.access(CacheCmd::Read, Area::Heap, 8);
    EXPECT_EQ(t, CacheConfig::psi().missReadNs);
    EXPECT_EQ(c.stats().writeBacks, 0u);
}

TEST(Cache, LruVictimSelection)
{
    // One set, two ways (8 words, 2 ways, 4-word blocks).
    Cache c(smallCache(8, 2));
    c.access(CacheCmd::Read, Area::Heap, 0);    // block A
    c.access(CacheCmd::Read, Area::Heap, 8);    // block B
    c.access(CacheCmd::Read, Area::Heap, 0);    // touch A (B is LRU)
    c.access(CacheCmd::Read, Area::Heap, 16);   // evicts B
    EXPECT_EQ(c.access(CacheCmd::Read, Area::Heap, 0), 0u);   // A hit
    EXPECT_GT(c.access(CacheCmd::Read, Area::Heap, 8), 0u);   // B gone
}

TEST(Cache, TwoWaysAvoidConflict)
{
    // Addresses 0 and 8192 map to the same set of the PSI cache.
    Cache two(CacheConfig::psi());
    two.access(CacheCmd::Read, Area::Heap, 0);
    two.access(CacheCmd::Read, Area::Heap, 4096 * 2);
    EXPECT_EQ(two.access(CacheCmd::Read, Area::Heap, 0), 0u);

    CacheConfig direct = CacheConfig::psi();
    direct.ways = 1;
    Cache one(direct);
    one.access(CacheCmd::Read, Area::Heap, 0);
    one.access(CacheCmd::Read, Area::Heap, 8192);
    EXPECT_GT(one.access(CacheCmd::Read, Area::Heap, 0), 0u);
}

TEST(Cache, StoreThroughWritesCostAndDontAllocate)
{
    CacheConfig cfg = CacheConfig::psi();
    cfg.storeIn = false;
    Cache c(cfg);
    std::uint64_t t = c.access(CacheCmd::Write, Area::Global, 0);
    EXPECT_EQ(t, cfg.throughWriteNs);
    EXPECT_EQ(c.stats().throughWrites, 1u);
    // Write miss did not allocate: the read still misses.
    EXPECT_GT(c.access(CacheCmd::Read, Area::Global, 0), 0u);
}

TEST(Cache, StoreThroughNeverWritesBack)
{
    CacheConfig cfg = smallCache(8, 1);
    cfg.storeIn = false;
    Cache c(cfg);
    for (std::uint32_t a = 0; a < 64; a += 4) {
        c.access(CacheCmd::Read, Area::Heap, a);
        c.access(CacheCmd::Write, Area::Heap, a);
    }
    EXPECT_EQ(c.stats().writeBacks, 0u);
}

TEST(Cache, DisabledCacheChargesEveryAccess)
{
    CacheConfig cfg = CacheConfig::psi();
    cfg.enabled = false;
    Cache c(cfg);
    EXPECT_EQ(c.access(CacheCmd::Read, Area::Heap, 0), cfg.noCacheNs);
    EXPECT_EQ(c.access(CacheCmd::Read, Area::Heap, 0), cfg.noCacheNs);
}

TEST(Cache, PerAreaStats)
{
    Cache c(CacheConfig::psi());
    c.access(CacheCmd::Read, Area::Heap, 0);
    c.access(CacheCmd::Read, Area::Heap, 0);
    c.access(CacheCmd::WriteStack, Area::Trail, 0);
    EXPECT_EQ(c.stats().areaAccesses(Area::Heap), 2u);
    EXPECT_EQ(c.stats().areaAccesses(Area::Trail), 1u);
    EXPECT_EQ(c.stats().areaAccesses(Area::Local), 0u);
    EXPECT_DOUBLE_EQ(c.stats().areaHitPct(Area::Heap), 50.0);
    EXPECT_DOUBLE_EQ(c.stats().areaHitPct(Area::Local), 100.0);
}

TEST(Cache, CmdAccessCounts)
{
    Cache c(CacheConfig::psi());
    c.access(CacheCmd::Read, Area::Heap, 0);
    c.access(CacheCmd::Write, Area::Heap, 0);
    c.access(CacheCmd::WriteStack, Area::Heap, 4);
    EXPECT_EQ(c.stats().cmdAccesses(CacheCmd::Read), 1u);
    EXPECT_EQ(c.stats().cmdAccesses(CacheCmd::Write), 1u);
    EXPECT_EQ(c.stats().cmdAccesses(CacheCmd::WriteStack), 1u);
}

TEST(Cache, ResetClearsEverything)
{
    Cache c(CacheConfig::psi());
    c.access(CacheCmd::Read, Area::Heap, 0);
    c.reset();
    EXPECT_EQ(c.stats().totalAccesses(), 0u);
    EXPECT_GT(c.access(CacheCmd::Read, Area::Heap, 0), 0u);
}

TEST(Cache, GeometryNumSets)
{
    EXPECT_EQ(CacheConfig::psi().numIndexSets(), 1024u);
    EXPECT_EQ(smallCache(8, 2).numIndexSets(), 1u);
    EXPECT_EQ(smallCache(4096, 1).numIndexSets(), 1024u);
}

TEST(Cache, ShiftIndexingMatchesDivision)
{
    // A direct-mapped cache hits exactly when the set was last filled
    // with the same tag, so its hits show which set each address
    // indexes.  The reference computes block, set and tag by division.
    for (std::uint32_t words : {8u, 4096u}) {
        CacheConfig cfg = smallCache(words, 1);
        Cache c(cfg);
        const std::uint32_t sets = cfg.numIndexSets();
        std::vector<std::int64_t> resident(sets, -1);
        std::uint32_t addr = 0, x = 12345, hits = 0;
        for (int i = 0; i < 20000; ++i) {
            x = x * 1103515245u + 12345u;
            // Mostly near the last address, sometimes far away.
            addr = (x >> 28) < 12 ? addr + ((x >> 16) & 31)
                                  : (x >> 8) & 0xfffffu;
            std::uint32_t block = addr / cfg.blockWords;
            std::uint32_t set = block % sets;
            std::int64_t tag = block / sets;
            bool hit = resident[set] == tag;
            resident[set] = tag;
            hits += hit;
            ASSERT_EQ(c.access(CacheCmd::Read, Area::Heap, addr),
                      hit ? 0u : cfg.missReadNs)
                << words << " words, access " << i << " at " << addr;
        }
        EXPECT_EQ(c.stats().totalHits(), hits);
        EXPECT_GT(hits, 0u);
        EXPECT_LT(hits, 20000u);
    }
}

/** Property: hit ratio is non-decreasing with capacity on a looping
 *  access pattern. */
class CacheCapacitySweep
    : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(CacheCapacitySweep, HitRatioImprovesWithCapacity)
{
    auto run = [](std::uint32_t cap) {
        Cache c(smallCache(cap));
        // Cyclic sweep over 1024 words, three rounds.
        for (int round = 0; round < 3; ++round) {
            for (std::uint32_t a = 0; a < 1024; ++a)
                c.access(CacheCmd::Read, Area::Heap, a);
        }
        return c.stats().totalHitPct();
    };
    std::uint32_t cap = GetParam();
    EXPECT_LE(run(cap / 2), run(cap) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Capacities, CacheCapacitySweep,
                         ::testing::Values(16u, 32u, 64u, 128u, 256u,
                                           512u, 1024u, 2048u, 4096u,
                                           8192u));
