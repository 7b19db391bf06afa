/**
 * @file
 * Hardware address-translation table.
 *
 * The PSI allocates physical memory pieces to each logical area
 * through a hardware translation table.  This model keeps, per area,
 * a dense page table mapping virtual page number to a physical frame
 * base in MainMemory; pages are allocated on first touch (the role
 * the PSI operating system played).
 */

#ifndef PSI_MEM_TRANSLATION_HPP
#define PSI_MEM_TRANSLATION_HPP

#include <array>
#include <cstdint>
#include <vector>

#include "mem/area.hpp"
#include "mem/main_memory.hpp"

namespace psi {

/** Per-area page tables over one MainMemory. */
class TranslationTable
{
  public:
    explicit TranslationTable(MainMemory &mem) : _mem(&mem) {}

    /**
     * Translate a logical address to a physical word address,
     * allocating the page on first touch.  A mapped page is
     * translated inline; growing the table and allocating the frame
     * are left to mapPage().
     */
    std::uint32_t
    translate(const LogicalAddr &addr)
    {
        const auto &table = _tables[static_cast<int>(addr.area)];
        std::uint32_t vpage = addr.offset / kPageWords;
        if (vpage < table.size() && table[vpage] != kUnmapped)
            return table[vpage] + addr.offset % kPageWords;
        return mapPage(addr);
    }

    /** Number of pages mapped (backed by a frame) in @p area. */
    std::uint32_t pageCount(Area area) const
    {
        std::uint32_t n = 0;
        for (auto f : _tables[static_cast<int>(area)])
            n += f != kUnmapped;
        return n;
    }

    /**
     * Drop every mapping.  Frames are re-allocated on first touch in
     * access order, so a reset table paired with a reset MainMemory
     * reproduces the exact logical-to-physical assignment of a fresh
     * machine - the property the warm-engine reuse path relies on.
     */
    void reset()
    {
        for (auto &table : _tables)
            table.clear();
    }

  private:
    /** Sentinel for a page that has never been touched. */
    static constexpr std::uint32_t kUnmapped = 0xffffffffu;

    /** translate() for a page not mapped yet. */
    std::uint32_t mapPage(const LogicalAddr &addr);

    MainMemory *_mem;
    std::array<std::vector<std::uint32_t>, kNumAreas> _tables;
};

} // namespace psi

#endif // PSI_MEM_TRANSLATION_HPP
