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
 * The model keeps the words only.  An access the firmware makes
 * through the address registers WFAR1/WFAR2 or the base register
 * WFCBR is charged as that WfMode in Table 6 (micro/fields.hpp); the
 * registers themselves are not modelled.
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

/** The register file's words. */
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

  private:
    std::array<TaggedWord, kWfWords> _words{};
};

} // namespace micro
} // namespace psi

#endif // PSI_MICRO_WORK_FILE_HPP
