/**
 * @file
 * The fast (non-accounting) KL0 execution engine: the engine core
 * (interp/core.hpp) on the Flat access policy.
 *
 * The firmware - image load, query solve, the main loop, unification,
 * clause trial, choice points, the built-ins, process_call, solution
 * export - is the fidelity engine's own code, shared through
 * interp::Core; only how a word is stored and whether a step is
 * charged differ.  Flat keeps each logical area in contiguous flat
 * segments (FlatArea) replayed from the immutable
 * kl0::CompiledProgram, its A registers and frame buffers in a plain
 * array, and its trail on the flat trail stack (the trail-buffer
 * ablation's layout, which puts every entry at the same logical
 * position); every sequencer call is an empty inline function.
 * Queries are compiled by the shared kl0::CodeGen straight into the
 * flat heap (FlatHeap).
 *
 * Answers, solution order, write/nl/tab output and warnings are
 * therefore byte-identical to interp::Engine under the default
 * FirmwareOptions, including the generated "_G<addr>" variable names,
 * which encode allocation order.  Compile-time first-argument
 * indexing is served by the same core walk over the same
 * heap-resident index.
 *
 * What is NOT reproduced is the accounting: RunResult::steps and
 * timeNs are reported as zero, and RunLimits::maxSteps is interpreted
 * as a dispatch-count safety valve (the fidelity engine counts
 * microinstructions, so the same numeric limit trips far later here).
 * The paper's Tables 2-7 are therefore served exclusively by the
 * fidelity engine.
 */

#ifndef PSI_FAST_FAST_ENGINE_HPP
#define PSI_FAST_FAST_ENGINE_HPP

#include <cstdint>
#include <memory>
#include <vector>

#include "interp/core.hpp"
#include "interp/machine.hpp"
#include "mem/area.hpp"
#include "mem/heap_store.hpp"
#include "mem/tagged_word.hpp"
#include "micro/work_file.hpp"

namespace psi {
namespace fast {

/**
 * Flat storage for one logical area (28-bit word offsets) as
 * contiguous word segments.
 *
 * Every area has a low segment starting at offset 0.  An area may
 * declare high bases, each starting another segment that spans up to
 * the next base: the heap one at its global-register slots (which
 * sit just below the run-time vectors), each stack area one per
 * process_call window.  A segment is allocated on its first write
 * and grows, zero-filled, towards its limit as writes reach past its
 * end; clear() keeps the storage, so a warm engine stops allocating
 * once its segments fit the largest request it has served.
 *
 * A read in the low segment is one bounds compare plus one load.  A
 * word never written - or past the end of its segment - reads as the
 * Undef word, matching MemorySystem::peek of untouched memory.  Each
 * segment keeps a high-water mark (one past the highest word written
 * since the last clear), so clear() resets only what was touched.
 */
class FlatArea
{
  public:
    /** An area with segments at 0 and at each of @p high_bases
     *  (ascending, nonzero). */
    explicit FlatArea(const std::vector<std::uint32_t> &high_bases);

    // Forced inline: the engine core reads and writes every word
    // through these, and the inliner's unit-growth budget must not
    // decide whether a memory access costs a call.  The low segment
    // holds the code and nearly every word a run reads; without the
    // hint, GCC 12 puts the main loop's instruction fetch from it out
    // of line.
    [[gnu::always_inline]] TaggedWord
    read(std::uint32_t off) const
    {
        if (off < _low.size) [[likely]]
            return _low.words[off];
        return readSlow(off);
    }

    [[gnu::always_inline]] void
    write(std::uint32_t off, const TaggedWord &w)
    {
        if (off < _low.size) {
            // Member-wise: a whole-word copy compiles to one 8-byte
            // load of @p w, which stalls store forwarding when @p w
            // was just built by a byte store and a 4-byte store.
            TaggedWord &d = _low.words[off];
            d.tag = w.tag;
            d.data = w.data;
            if (off >= _low.hwm)
                _low.hwm = off + 1;
            return;
        }
        fill(off, 1, w);
    }

    /** write() @p w to the @p n words from @p off, which lie in one
     *  segment (vector_new initializes a vector's slots in one call). */
    void fill(std::uint32_t off, std::uint32_t n, const TaggedWord &w);

    /** Reset every word below each segment's high-water mark. */
    void clear();

    /** clear() the high segments only: the heap resets its low
     *  segment word by word from the poke log instead. */
    void clearHigh();

  private:
    struct FreeWords
    {
        void operator()(TaggedWord *p) const;
    };

    struct Segment
    {
        std::unique_ptr<TaggedWord[], FreeWords> words;
        std::uint32_t size = 0;   ///< words allocated
        std::uint32_t hwm = 0;    ///< words [0, hwm) may be non-zero
        std::uint32_t base = 0;   ///< area offset of words[0]
        std::uint32_t limit = 0;  ///< max size: up to the next base

        void grow(std::uint32_t need);
        void clear();
    };

    TaggedWord readSlow(std::uint32_t off) const;
    const Segment &segmentFor(std::uint32_t off) const;
    Segment &segmentFor(std::uint32_t off);

    Segment _low;
    std::vector<Segment> _high;  ///< ascending bases
};

/**
 * The heap as the store kl0::CodeGen emits query code through.
 * Words land directly in the heap area, and every poked offset is
 * logged - the image replay and each query install go through here -
 * so clear() can reset the heap's low segment word by word.  That is
 * complete because a running program writes the heap only through
 * the global registers and vectors, and both live in the high
 * segment, which clear() resets by its high-water mark.  The mostly
 * empty predicate directory is never swept.
 */
class FlatHeap final : public HeapStore
{
  public:
    explicit FlatHeap(FlatArea &area) : _area(&area) {}

    TaggedWord
    peek(const LogicalAddr &addr) override
    {
        return _area->read(addr.offset);
    }

    void
    poke(const LogicalAddr &addr, const TaggedWord &w) override
    {
        _poked.push_back(addr.offset);
        _area->write(addr.offset, w);
    }

    /** Return the heap to the never-written state. */
    void clear();

  private:
    FlatArea *_area;
    std::vector<std::uint32_t> _poked;
};

/**
 * The Flat access policy: memory accesses index the FlatAreas
 * directly, the work file is a plain array, and every accounting call
 * is an empty inline function.  Trail entries are never buffered and
 * frame buffers are always used, as under the default
 * FirmwareOptions.
 */
class Flat
{
  public:
    using Module = micro::Module;
    using BranchOp = micro::BranchOp;
    using WfMode = micro::WfMode;

    Flat();
    // The heap store points at the heap area.
    Flat(const Flat &) = delete;
    Flat &operator=(const Flat &) = delete;

    FlatArea &area(Area a) { return _area[static_cast<int>(a)]; }

    FlatHeap &heap() { return _heap; }
    /**
     * Reset what the previous image and its queries wrote: the heap
     * words they poked and each stack area below its high-water
     * marks.  The cost follows what the previous request touched,
     * not what the engine ever allocated.
     */
    void reset();
    /** No accounting in fast mode: steps and model time stay zero. */
    void startRun() { _dispatches = 0; }
    void finishRun(interp::RunResult &) const {}

    // Every member the core calls is forced inline, so no inliner
    // budget can make an accounting call or a word access cost a call.
    [[gnu::always_inline]] void
    step(Module, BranchOp, WfMode = WfMode::None, WfMode = WfMode::None,
         WfMode = WfMode::None)
    {}
    [[gnu::always_inline]] void texture(Module, int) {}

    [[gnu::always_inline]] TaggedWord
    readMem(Module, const LogicalAddr &addr, BranchOp,
            WfMode = WfMode::None, WfMode = WfMode::None) const
    {
        return peek(addr);
    }
    [[gnu::always_inline]] void
    writeMem(Module, const LogicalAddr &addr, const TaggedWord &w,
             BranchOp, WfMode = WfMode::None, WfMode = WfMode::None)
    {
        area(addr.area).write(addr.offset, w);
    }
    [[gnu::always_inline]] void
    pushMem(Module, const LogicalAddr &addr, const TaggedWord &w,
            BranchOp, WfMode = WfMode::None, WfMode = WfMode::None)
    {
        area(addr.area).write(addr.offset, w);
    }
    void
    fillMem(Module, const LogicalAddr &addr, std::uint32_t n,
            const TaggedWord &w, BranchOp, WfMode)
    {
        area(addr.area).fill(addr.offset, n, w);
    }
    [[gnu::always_inline]] TaggedWord
    peek(const LogicalAddr &addr) const
    {
        return _area[static_cast<int>(addr.area)].read(addr.offset);
    }

    [[gnu::always_inline]] TaggedWord
    wfRead(std::uint16_t addr) const
    {
        return _wf[addr];
    }
    [[gnu::always_inline]] void
    wfWrite(std::uint16_t addr, const TaggedWord &w)
    {
        _wf[addr] = w;
    }

    static constexpr bool trailBuffer() { return false; }
    static constexpr bool frameBuffers() { return true; }

    /** Dispatches so far: the maxSteps proxy of fast mode. */
    [[gnu::always_inline]] std::uint64_t ticks() const
    {
        return _dispatches;
    }
    [[gnu::always_inline]] void tick() { ++_dispatches; }

  private:
    FlatArea _area[kNumAreas];
    FlatHeap _heap;  ///< the heap area as the code generator's store
    /** Work-file words up to the trail buffer (A registers, frame
     *  buffers), at their micro::kWf* addresses. */
    TaggedWord _wf[micro::kWfTrailBuf + micro::kWfTrailBufWords] = {};
    std::uint64_t _dispatches = 0;
};

/** The KL0 engine on flat storage, with no accounting. */
class FastEngine : public interp::Core<Flat>
{};

} // namespace fast
} // namespace psi

#endif // PSI_FAST_FAST_ENGINE_HPP
