/**
 * @file
 * The PSI memory unit: address translation + cache + main memory.
 *
 * All firmware memory traffic flows through here.  The unit performs
 * the functional read/write against MainMemory, runs the access
 * through the Cache performance model, accumulates the extra time
 * memory stalls cost, and (optionally) appends each access to a
 * MemEvent trace for the PMMS tool.
 */

#ifndef PSI_MEM_MEMORY_SYSTEM_HPP
#define PSI_MEM_MEMORY_SYSTEM_HPP

#include <cstdint>
#include <vector>

#include "mem/area.hpp"
#include "mem/cache.hpp"
#include "mem/heap_store.hpp"
#include "mem/main_memory.hpp"
#include "mem/tagged_word.hpp"
#include "mem/trace.hpp"
#include "mem/translation.hpp"

namespace psi {

/**
 * One untimed word store recorded by the poke log: the logical
 * address and the word written.  Replaying a log through poke() in
 * record order reproduces the page-allocation order of the original
 * stores, and with it the exact physical layout (and therefore cache
 * behaviour) of the original machine.
 */
struct PokeRecord
{
    LogicalAddr addr;
    TaggedWord word;
};

/** Translation + cache + main memory, with timing and tracing. */
class MemorySystem final : public HeapStore
{
  public:
    explicit MemorySystem(const CacheConfig &config = CacheConfig::psi());

    // The timed accesses are inline: the fidelity engine makes one
    // per memory step.

    /** Read one word (issues a cache Read command). */
    TaggedWord
    read(const LogicalAddr &addr)
    {
        std::uint32_t paddr = _xlat.translate(addr);
        doAccess(CacheCmd::Read, addr, paddr);
        return _mem.read(paddr);
    }

    /** Write one word (cache Write command). */
    void
    write(const LogicalAddr &addr, const TaggedWord &w)
    {
        std::uint32_t paddr = _xlat.translate(addr);
        doAccess(CacheCmd::Write, addr, paddr);
        _mem.write(paddr, w);
    }

    /** Push-style write (the PSI Write-Stack cache command). */
    void
    writeStack(const LogicalAddr &addr, const TaggedWord &w)
    {
        std::uint32_t paddr = _xlat.translate(addr);
        doAccess(CacheCmd::WriteStack, addr, paddr);
        _mem.write(paddr, w);
    }

    /**
     * Read or write without engaging the cache model or the trace.
     * Used by the loader (code generation into the heap area happens
     * before measurement starts) and by result extraction.
     */
    TaggedWord peek(const LogicalAddr &addr) override;
    void poke(const LogicalAddr &addr, const TaggedWord &w) override;

    /** Extra nanoseconds spent in memory stalls so far. */
    std::uint64_t stallNs() const { return _stallNs; }

    const Cache &cache() const { return _cache; }

    /** Enable trace capture into @p sink (nullptr disables). */
    void setTraceSink(std::vector<MemEvent> *sink) { _trace = sink; }

    /** Record every poke() into @p sink (nullptr disables).  Used by
     *  the program compiler to capture the emitted heap image. */
    void setPokeLog(std::vector<PokeRecord> *sink) { _pokeLog = sink; }

    /** Clear cache state, stall time and statistics (not contents). */
    void resetStats();

    /**
     * Full reset: drop memory contents, address mappings, cache state
     * and stall time.  Afterwards the unit is indistinguishable from
     * a freshly constructed one with the same configuration.
     */
    void reset();

    /** Full reset plus a new cache configuration. */
    void reconfigure(const CacheConfig &config);

  private:
    void
    doAccess(CacheCmd cmd, const LogicalAddr &addr, std::uint32_t paddr)
    {
        _stallNs += _cache.access(cmd, addr.area, paddr);
        if (_trace)
            _trace->push_back(MemEvent{cmd, addr.area, paddr});
    }

    MainMemory _mem;
    TranslationTable _xlat;
    Cache _cache;
    std::uint64_t _stallNs = 0;
    std::vector<MemEvent> *_trace = nullptr;
    std::vector<PokeRecord> *_pokeLog = nullptr;
};

} // namespace psi

#endif // PSI_MEM_MEMORY_SYSTEM_HPP
