#include "mem/cache.hpp"

#include <bit>

#include "base/logging.hpp"

namespace psi {

const char *
cacheCmdName(CacheCmd c)
{
    switch (c) {
      case CacheCmd::Read: return "read";
      case CacheCmd::Write: return "write";
      case CacheCmd::WriteStack: return "write-stack";
    }
    return "?";
}

std::uint64_t
CacheStats::areaAccesses(Area a) const
{
    std::uint64_t sum = 0;
    for (auto v : accesses[static_cast<int>(a)])
        sum += v;
    return sum;
}

std::uint64_t
CacheStats::areaHits(Area a) const
{
    std::uint64_t sum = 0;
    for (auto v : hits[static_cast<int>(a)])
        sum += v;
    return sum;
}

std::uint64_t
CacheStats::totalAccesses() const
{
    std::uint64_t sum = 0;
    for (int a = 0; a < kNumAreas; ++a)
        sum += areaAccesses(static_cast<Area>(a));
    return sum;
}

std::uint64_t
CacheStats::totalHits() const
{
    std::uint64_t sum = 0;
    for (int a = 0; a < kNumAreas; ++a)
        sum += areaHits(static_cast<Area>(a));
    return sum;
}

std::uint64_t
CacheStats::cmdAccesses(CacheCmd c) const
{
    std::uint64_t sum = 0;
    for (int a = 0; a < kNumAreas; ++a)
        sum += accesses[a][static_cast<int>(c)];
    return sum;
}

double
CacheStats::areaHitPct(Area a) const
{
    std::uint64_t acc = areaAccesses(a);
    if (acc == 0)
        return 100.0;
    return 100.0 * static_cast<double>(areaHits(a)) /
           static_cast<double>(acc);
}

double
CacheStats::totalHitPct() const
{
    std::uint64_t acc = totalAccesses();
    if (acc == 0)
        return 100.0;
    return 100.0 * static_cast<double>(totalHits()) /
           static_cast<double>(acc);
}

Cache::Cache(const CacheConfig &config)
{
    reconfigure(config);
}

void
Cache::reset()
{
    _lines.assign(_lines.size(), Line{});
    _clock = 0;
    _stats = CacheStats{};
}

void
Cache::reconfigure(const CacheConfig &config)
{
    PSI_ASSERT(config.blockWords > 0 && config.ways > 0,
               "degenerate cache geometry");
    PSI_ASSERT(std::has_single_bit(config.blockWords),
               "block size must be a power of two, got ",
               config.blockWords);
    _config = config;
    _numSets = config.numIndexSets();
    PSI_ASSERT(std::has_single_bit(_numSets),
               "set count must be a power of two, got ", _numSets);
    _blockShift = static_cast<std::uint32_t>(
        std::countr_zero(config.blockWords));
    _setShift = static_cast<std::uint32_t>(std::countr_zero(_numSets));
    _setMask = _numSets - 1;
    _lines.assign(_numSets * config.ways, Line{});
    _clock = 0;
    _stats = CacheStats{};
}

int
Cache::victimWay(std::uint32_t set) const
{
    int victim = 0;
    std::uint64_t oldest = ~0ull;
    for (std::uint32_t w = 0; w < _config.ways; ++w) {
        const Line &l = line(set, static_cast<int>(w));
        if (!l.valid)
            return static_cast<int>(w);
        if (l.lastUse < oldest) {
            oldest = l.lastUse;
            victim = static_cast<int>(w);
        }
    }
    return victim;
}

std::uint64_t
Cache::install(std::uint32_t set, std::uint32_t tag, bool dirty,
               bool fetch)
{
    std::uint64_t extra = 0;
    int way = victimWay(set);
    Line &l = line(set, way);
    if (l.valid && l.dirty) {
        extra += _config.writeBackNs;
        ++_stats.writeBacks;
    }
    l.valid = true;
    l.dirty = dirty;
    l.tag = tag;
    l.lastUse = ++_clock;
    if (fetch) {
        extra += _config.missReadNs;
        ++_stats.readIns;
    }
    return extra;
}

std::uint64_t
Cache::miss(CacheCmd cmd, int a, std::uint32_t set, std::uint32_t tag,
            int way)
{
    int c = static_cast<int>(cmd);
    if (!_config.storeIn && cmd != CacheCmd::Read) {
        // Store-through: memory is updated on every write; no
        // allocation on a write miss.
        ++_stats.throughWrites;
        if (way >= 0) {
            ++_stats.hits[a][c];
            line(set, way).lastUse = ++_clock;
        }
        return _config.throughWriteNs;
    }
    switch (cmd) {
      case CacheCmd::Read:
        return install(set, tag, false, true);
      case CacheCmd::Write:
        // Write-allocate with block read-in.
        return install(set, tag, true, true);
      case CacheCmd::WriteStack:
        // The specialized stack push: allocate without block
        // read-in.  No memory transfer happens, so the access is
        // counted as a hit.
        ++_stats.hits[a][c];
        ++_stats.stackAllocs;
        return install(set, tag, true, false);
    }
    return 0;
}

} // namespace psi
