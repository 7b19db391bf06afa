/**
 * @file
 * Flat storage for the fast engine: FlatArea segments and the Flat
 * policy's areas and reset.  This translation unit instantiates
 * Core<Flat>, so the main loop's calls into the core can be inlined.
 */

#include "fast/fast_engine.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <new>
#include <utility>

#include "base/logging.hpp"
#include "interp/core_arith.hpp"
#include "interp/core_builtins.hpp"
#include "interp/core_control.hpp"
#include "interp/core_process.hpp"
#include "interp/core_term.hpp"
#include "interp/core_unify.hpp"

template class psi::interp::Core<psi::fast::Flat>;

namespace psi {
namespace fast {

namespace {

/** Words a segment allocates on its first write (32 KB). */
constexpr std::uint32_t kMinSegmentWords = 1u << 12;

/** Area offsets are 28 bits: the last segment ends there. */
constexpr std::uint32_t kAreaWords = 1u << 28;

/** Stack-area segments: one per process_call window. */
std::vector<std::uint32_t>
processWindowBases()
{
    std::vector<std::uint32_t> bases;
    for (std::uint32_t p = 1; p < interp::kProcesses; ++p)
        bases.push_back(p * interp::kProcWindow);
    return bases;
}

} // namespace

void
FlatArea::FreeWords::operator()(TaggedWord *p) const
{
    std::free(p);
}

FlatArea::FlatArea(const std::vector<std::uint32_t> &high_bases)
    : _high(high_bases.size())
{
    Segment *prev = &_low;
    for (std::size_t i = 0; i < high_bases.size(); ++i) {
        PSI_ASSERT(high_bases[i] > prev->base,
                   "segment bases must ascend");
        _high[i].base = high_bases[i];
        prev->limit = high_bases[i] - prev->base;
        prev = &_high[i];
    }
    prev->limit = kAreaWords - prev->base;
}

void
FlatArea::Segment::grow(std::uint32_t need)
{
    PSI_ASSERT(need <= limit, "segment overflow");
    std::uint64_t n =
        std::max<std::uint64_t>(kMinSegmentWords, 2ull * size);
    while (n < need)
        n <<= 1;
    n = std::min<std::uint64_t>(n, limit);
    // calloc: all-zero bytes are the Undef word, and a large block
    // comes zero-mapped, so untouched words cost no resident memory.
    auto *fresh = static_cast<TaggedWord *>(
        std::calloc(n, sizeof(TaggedWord)));
    if (fresh == nullptr)
        throw std::bad_alloc();
    std::copy_n(words.get(), hwm, fresh);
    words.reset(fresh);
    size = static_cast<std::uint32_t>(n);
}

void
FlatArea::Segment::clear()
{
    // All-zero bytes are the Undef word; memset, because a fill of
    // TaggedWord{} compiles to a byte and a word store per element.
    if (hwm > 0)
        std::memset(static_cast<void *>(words.get()), 0,
                    std::size_t{hwm} * sizeof(TaggedWord));
    hwm = 0;
}

const FlatArea::Segment &
FlatArea::segmentFor(std::uint32_t off) const
{
    for (auto s = _high.rbegin(); s != _high.rend(); ++s) {
        if (off >= s->base)
            return *s;
    }
    return _low;
}

FlatArea::Segment &
FlatArea::segmentFor(std::uint32_t off)
{
    return const_cast<Segment &>(std::as_const(*this).segmentFor(off));
}

TaggedWord
FlatArea::readSlow(std::uint32_t off) const
{
    const Segment &s = segmentFor(off);
    std::uint32_t i = off - s.base;
    return i < s.size ? s.words[i] : TaggedWord{};
}

void
FlatArea::fill(std::uint32_t off, std::uint32_t n, const TaggedWord &w)
{
    Segment &s = segmentFor(off);
    std::uint32_t i = off - s.base;
    PSI_ASSERT(n <= s.limit - i, "fill crosses a segment end");
    if (i + n > s.size)
        s.grow(i + n);
    std::fill_n(s.words.get() + i, n, w);
    s.hwm = std::max(s.hwm, i + n);
}

void
FlatArea::clear()
{
    _low.clear();
    clearHigh();
}

void
FlatArea::clearHigh()
{
    for (Segment &s : _high)
        s.clear();
}

void
FlatHeap::clear()
{
    for (std::uint32_t off : _poked)
        _area->write(off, TaggedWord{});
    _poked.clear();
    _area->clearHigh();
}

Flat::Flat()
    : _area{FlatArea({kl0::kGlobalRegBase}),
            FlatArea(processWindowBases()),
            FlatArea(processWindowBases()),
            FlatArea(processWindowBases()),
            FlatArea(processWindowBases())},
      _heap(area(Area::Heap))
{
    static_assert(kNumAreas == 5 && static_cast<int>(Area::Heap) == 0,
                  "one FlatArea per logical area, heap first");
}

void
Flat::reset()
{
    _heap.clear();
    for (int a = 1; a < kNumAreas; ++a)
        _area[a].clear();
}

} // namespace fast
} // namespace psi
