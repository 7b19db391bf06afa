#include "micro/sequencer.hpp"

namespace psi {
namespace micro {

SeqStats
Sequencer::stats() const
{
    SeqStats s = _stats;
    // The texture steps since resetStats() took ring positions
    // _ringBase .. _texturePos - 1.  The entry at offset i from the
    // first of them recurs every 16 positions.
    const std::uint64_t n = _texturePos - _ringBase;
    for (std::uint64_t i = 0; i < 16 && i < n; ++i) {
        const std::uint64_t times = (n - i + 15) / 16;
        const TexturePat &p = kTextureRing[(_ringBase + i) & 15];
        s.branchOps[static_cast<int>(p.b)] += times;
        s.wfModes[0][static_cast<int>(p.s1)] += times;
        s.wfModes[1][static_cast<int>(p.s2)] += times;
        s.wfModes[2][static_cast<int>(p.d)] += times;
    }
    return s;
}

} // namespace micro
} // namespace psi
