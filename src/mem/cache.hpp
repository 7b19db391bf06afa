/**
 * @file
 * The PSI cache model.
 *
 * PSI specification (paper §2.2): 8K words, two-set (2-way)
 * set-associative, store-in (write-back), 4-word blocks, 200 ns hit /
 * 800 ns miss, 800 ns block transfer, and a dedicated Write-Stack
 * command that suppresses block read-in on a write miss (used for
 * continuous pushes to a stack top).
 *
 * The model is tag-only: data lives in MainMemory (there is a single
 * master, so contents never diverge); the cache tracks residency,
 * dirtiness and LRU state, counts events per area and per command,
 * and returns the extra time each access costs beyond the 200 ns
 * microinstruction step that covers a hit.
 *
 * Capacity, associativity and write policy are parameters so the
 * PMMS tool can re-run traces through alternative designs
 * (Figure 1, the 1-set-vs-2-set and store-in-vs-store-through
 * comparisons).
 */

#ifndef PSI_MEM_CACHE_HPP
#define PSI_MEM_CACHE_HPP

#include <array>
#include <cstdint>
#include <vector>

#include "mem/area.hpp"

namespace psi {

/** Memory commands a microinstruction can issue. */
enum class CacheCmd : std::uint8_t
{
    Read = 0,
    Write = 1,
    WriteStack = 2,
};

constexpr int kNumCacheCmds = 3;

const char *cacheCmdName(CacheCmd c);

/** Cache geometry, policy and timing parameters. */
struct CacheConfig
{
    std::uint32_t capacityWords = 8192;  ///< total data capacity
    std::uint32_t ways = 2;              ///< associativity ("sets" in
                                         ///< the paper's terminology)
    std::uint32_t blockWords = 4;        ///< words per block (a power
                                         ///< of two)
    bool storeIn = true;                 ///< write-back vs store-through
    bool enabled = true;                 ///< false models "no cache"

    // --- timing (extra ns beyond the 200 ns step of a hit) -----------
    std::uint32_t missReadNs = 600;      ///< block read-in on a miss
    std::uint32_t writeBackNs = 800;     ///< dirty block eviction
    std::uint32_t throughWriteNs = 200;  ///< store-through write
                                         ///< (buffered main-memory write)
    std::uint32_t noCacheNs = 600;       ///< every access, cache disabled

    /** Number of index sets implied by the geometry. */
    std::uint32_t
    numIndexSets() const
    {
        std::uint32_t s = capacityWords / (blockWords * ways);
        return s == 0 ? 1 : s;
    }

    /** PSI production configuration. */
    static CacheConfig psi() { return CacheConfig{}; }
};

/** Event counts kept by the cache, per area and per command. */
struct CacheStats
{
    /** accesses[area][cmd] — every command issued. */
    std::array<std::array<std::uint64_t, kNumCacheCmds>, kNumAreas>
        accesses{};
    /** hits[area][cmd] — line present (or write-stack allocation). */
    std::array<std::array<std::uint64_t, kNumCacheCmds>, kNumAreas>
        hits{};
    std::uint64_t readIns = 0;          ///< block fetches from memory
    std::uint64_t writeBacks = 0;       ///< dirty blocks written back
    std::uint64_t stackAllocs = 0;      ///< write-stack no-fetch allocs
    std::uint64_t throughWrites = 0;    ///< store-through memory writes

    std::uint64_t areaAccesses(Area a) const;
    std::uint64_t areaHits(Area a) const;
    std::uint64_t totalAccesses() const;
    std::uint64_t totalHits() const;
    std::uint64_t cmdAccesses(CacheCmd c) const;

    /** Hit ratio (%) for one area; 100 when the area was untouched. */
    double areaHitPct(Area a) const;
    double totalHitPct() const;
};

/** Set-associative, write-back/write-through cache with LRU. */
class Cache
{
  public:
    explicit Cache(const CacheConfig &config);

    /**
     * Perform one access.  The block, set and tag come from shifts
     * and a mask (block size and set count are powers of two).  A
     * hit that needs no memory transfer is handled inline; the rest
     * goes to miss().
     *
     * @param cmd   Read, Write or WriteStack.
     * @param area  logical area (for the per-area statistics).
     * @param paddr physical word address.
     * @return extra nanoseconds beyond the hit-time step.
     */
    std::uint64_t
    access(CacheCmd cmd, Area area, std::uint32_t paddr)
    {
        int a = static_cast<int>(area);
        int c = static_cast<int>(cmd);
        ++_stats.accesses[a][c];

        if (!_config.enabled)
            return _config.noCacheNs;

        std::uint32_t block = paddr >> _blockShift;
        std::uint32_t set = block & _setMask;
        std::uint32_t tag = block >> _setShift;
        int way = lookup(set, tag);
        if (way >= 0 && (_config.storeIn || cmd == CacheCmd::Read)) {
            ++_stats.hits[a][c];
            Line &l = line(set, way);
            l.dirty |= cmd != CacheCmd::Read;
            l.lastUse = ++_clock;
            return 0;
        }
        return miss(cmd, a, set, tag, way);
    }

    const CacheStats &stats() const { return _stats; }
    const CacheConfig &config() const { return _config; }

    /** Drop all residency state and statistics. */
    void reset();

    /**
     * Replace geometry / policy / timing and reset.  Lets a
     * long-lived engine serve jobs with per-job cache configurations
     * without reconstructing the whole memory system.
     */
    void reconfigure(const CacheConfig &config);

  private:
    struct Line
    {
        bool valid = false;
        bool dirty = false;
        std::uint32_t tag = 0;
        std::uint64_t lastUse = 0;  ///< LRU timestamp
    };

    /** @return way index of the hit, or -1. */
    int
    lookup(std::uint32_t set, std::uint32_t tag) const
    {
        for (std::uint32_t w = 0; w < _config.ways; ++w) {
            const Line &l = line(set, static_cast<int>(w));
            if (l.valid && l.tag == tag)
                return static_cast<int>(w);
        }
        return -1;
    }

    /**
     * access() for a miss, or for a store-through write (hit or
     * not); @p way is lookup()'s answer.
     */
    std::uint64_t miss(CacheCmd cmd, int a, std::uint32_t set,
                       std::uint32_t tag, int way);

    /** Choose a victim way in @p set (invalid first, then LRU). */
    int victimWay(std::uint32_t set) const;

    /**
     * Install @p tag into @p set, evicting as needed.
     * @return extra ns charged for a dirty write-back.
     */
    std::uint64_t install(std::uint32_t set, std::uint32_t tag,
                          bool dirty, bool fetch);

    Line &line(std::uint32_t set, int way)
    {
        return _lines[set * _config.ways + way];
    }

    const Line &line(std::uint32_t set, int way) const
    {
        return _lines[set * _config.ways + way];
    }

    CacheConfig _config;
    std::uint32_t _numSets = 1;
    std::uint32_t _blockShift = 0;  ///< log2(blockWords)
    std::uint32_t _setShift = 0;    ///< log2(_numSets)
    std::uint32_t _setMask = 0;     ///< _numSets - 1
    std::vector<Line> _lines;
    std::uint64_t _clock = 0;
    CacheStats _stats;
};

} // namespace psi

#endif // PSI_MEM_CACHE_HPP
