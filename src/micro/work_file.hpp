/**
 * @file
 * The work file (WF): PSI's 1K-word multi-functional register file.
 *
 * Layout used by this model (word addresses):
 *
 *   0x000-0x00F  scratch        dual-ported; the only words readable
 *                               through the source-2 (ALU input 2)
 *                               field.  The interpreter keeps its
 *                               hottest machine registers here.
 *   0x010-0x03F  registers      directly addressable: argument
 *                               registers A1..A16 (0x10-0x1F) and
 *                               temporaries (0x20-0x3F).
 *   0x040-0x07F  frame buffer 0 two 64-word buffers caching the local
 *   0x080-0x0BF  frame buffer 1 variable frame of the current clause
 *                               (tail-recursion optimization support).
 *   0x0C0-0x0DF  trail buffer   accessed indirectly through WFAR2.
 *   0x0E0-0x0FF  general area   accessed through WFCBR.
 *   0x3C0-0x3FF  constants      64-word constant storage, directly
 *                               addressable from a microinstruction.
 *
 * The two address registers WFAR1/WFAR2 support indirect access with
 * automatic post-increment / pre-decrement, matching the hardware.
 */

#ifndef PSI_MICRO_WORK_FILE_HPP
#define PSI_MICRO_WORK_FILE_HPP

#include <array>
#include <cstdint>

#include "base/logging.hpp"
#include "mem/tagged_word.hpp"
#include "micro/fields.hpp"

namespace psi {
namespace micro {

/** Work-file size and region bases. */
constexpr std::uint16_t kWfWords = 1024;
constexpr std::uint16_t kWfScratchBase = 0x000;
constexpr std::uint16_t kWfRegBase = 0x010;
constexpr std::uint16_t kWfArgBase = 0x010;   ///< A1..A16
constexpr std::uint16_t kWfTempBase = 0x020;
constexpr std::uint16_t kWfFrameBuf0 = 0x040;
constexpr std::uint16_t kWfFrameBuf1 = 0x080;
constexpr std::uint16_t kWfFrameBufWords = 64;
constexpr std::uint16_t kWfTrailBuf = 0x0C0;
constexpr std::uint16_t kWfTrailBufWords = 32;
constexpr std::uint16_t kWfGeneralBase = 0x0E0;
constexpr std::uint16_t kWfConstBase = 0x3C0;
constexpr std::uint16_t kWfConstWords = 64;

/** The register file proper plus its address registers. */
class WorkFile
{
  public:
    WorkFile() = default;

    const TaggedWord &
    read(std::uint16_t addr) const
    {
        PSI_ASSERT(addr < kWfWords, "WF address ", addr);
        return _words[addr];
    }

    void
    write(std::uint16_t addr, const TaggedWord &w)
    {
        PSI_ASSERT(addr < kWfWords, "WF address ", addr);
        _words[addr] = w;
    }

    // --- WFAR1 / WFAR2: indirect addressing with auto inc/dec --------

    std::uint16_t wfar1() const { return _wfar1; }
    std::uint16_t wfar2() const { return _wfar2; }
    void setWfar1(std::uint16_t a) { _wfar1 = a; }
    void setWfar2(std::uint16_t a) { _wfar2 = a; }

    /** Write through WFAR1 with post-increment. */
    void writeWfar1Inc(const TaggedWord &w) { _words[_wfar1++] = w; }
    /** Read through WFAR1 after pre-decrement. */
    const TaggedWord &readWfar1Dec() { return _words[--_wfar1]; }

    void writeWfar2Inc(const TaggedWord &w) { _words[_wfar2++] = w; }

    // --- WFCBR: base register for the general area --------------------

    std::uint16_t wfcbr() const { return _wfcbr; }
    void setWfcbr(std::uint16_t a) { _wfcbr = a; }

    /**
     * Classify a direct WF address into the Table 6 mode rows.
     * Indirect and base-relative accesses are classified by the
     * addressing path, not the address, so callers that use WFAR1/2,
     * PDR/CDR or WFCBR pass the corresponding mode explicitly.
     */
    static WfMode
    directMode(std::uint16_t addr)
    {
        if (addr < kWfRegBase)
            return WfMode::Direct00_0F;
        if (addr < kWfFrameBuf0)
            return WfMode::Direct10_3F;
        if (addr >= kWfConstBase && addr < kWfConstBase + kWfConstWords)
            return WfMode::Constant;
        return WfMode::None;
    }

  private:
    std::array<TaggedWord, kWfWords> _words{};
    std::uint16_t _wfar1 = 0;
    std::uint16_t _wfar2 = kWfTrailBuf;
    std::uint16_t _wfcbr = kWfGeneralBase;
};

} // namespace micro
} // namespace psi

#endif // PSI_MICRO_WORK_FILE_HPP
