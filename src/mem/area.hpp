/**
 * @file
 * Logical memory areas and logical addresses.
 *
 * The PSI allocates instruction code and heap vectors to a shared
 * "heap" area and gives each process four independent stack areas
 * (global, local, control, trail).  A logical address names an area
 * and a word offset; the hardware address-translation table maps it
 * to physical memory.
 */

#ifndef PSI_MEM_AREA_HPP
#define PSI_MEM_AREA_HPP

#include <cstdint>

#include "base/logging.hpp"

namespace psi {

/** The five logical address spaces of one PSI process. */
enum class Area : std::uint8_t
{
    Heap = 0,      ///< instruction code + heap vectors (shared)
    Global = 1,    ///< compound-term variables and instances
    Local = 2,     ///< local variable frames
    Control = 3,   ///< 10-word environment / choice-point frames
    Trail = 4,     ///< reset information for backtracking
};

constexpr int kNumAreas = 5;

/** Mnemonics matching the paper's table columns. */
const char *areaName(Area a);

/** A logical address: area + 28-bit word offset. */
struct LogicalAddr
{
    Area area = Area::Heap;
    std::uint32_t offset = 0;

    LogicalAddr() = default;
    // Forced inline (with plus()): the engines build one per memory
    // access, and an out-of-line range check costs more than the
    // access itself.
    [[gnu::always_inline]] LogicalAddr(Area a, std::uint32_t off)
        : area(a), offset(off)
    {
        PSI_ASSERT(off < (1u << 28), "logical offset overflow");
    }

    bool operator==(const LogicalAddr &o) const = default;

    /** Pack into the 32-bit data part of a Ref/List/Struct word. */
    std::uint32_t
    pack() const
    {
        return (static_cast<std::uint32_t>(area) << 28) | offset;
    }

    static LogicalAddr
    unpack(std::uint32_t w)
    {
        LogicalAddr a;
        a.area = static_cast<Area>(w >> 28);
        a.offset = w & 0x0fffffffu;
        return a;
    }

    [[gnu::always_inline]] LogicalAddr
    plus(std::uint32_t n) const
    {
        return LogicalAddr(area, offset + n);
    }
};

inline const char *
areaName(Area a)
{
    switch (a) {
      case Area::Heap: return "heap";
      case Area::Global: return "global";
      case Area::Local: return "local";
      case Area::Control: return "control";
      case Area::Trail: return "trail";
    }
    return "?";
}

} // namespace psi

#endif // PSI_MEM_AREA_HPP
