/**
 * @file
 * The fast (non-accounting) KL0 execution engine.
 *
 * A statement-for-statement transliteration of the firmware
 * interpreter (src/interp/) with every sequencer interaction removed:
 * no microinstruction stepping, no cache model, no work-file texture,
 * no module/branch tagging.  The instruction stream is the same
 * flattened, contiguous image of tagged words the fidelity engine
 * executes - replayed from the immutable kl0::CompiledProgram into
 * contiguous flat segments (FlatArea) - and the main loop dispatches
 * on the instruction tag token directly (computed goto under
 * GCC/Clang, a switch elsewhere).  Queries are compiled by the shared
 * kl0::CodeGen straight into the flat heap (FlatHeap).
 *
 * Fidelity contract: answers, solution sets, ordering and write/nl/tab
 * output are byte-identical to interp::Engine for any terminating
 * query, because the engine replicates
 *
 *  - the exact logical-address allocation order on every stack (so
 *    exported unbound variables print the same "_G<addr>" names),
 *  - the younger-binds-to-older rule and conditional-trail bounds,
 *  - the frame-buffer alternation, lazy frame flushing, TRO and
 *    determinate-frame-reclamation decisions, and
 *  - the output-cap check order of the firmware built-ins.
 *
 * What is NOT replicated is the accounting: RunResult::steps and
 * timeNs are reported as zero, RunLimits::maxSteps is interpreted as
 * a dispatch-count safety valve (the fidelity engine counts
 * microinstructions, so the same numeric limit trips far later here),
 * and deadlineNs is honored with the same bounded granularity as the
 * fidelity loop (a periodic poll every 4096 dispatches).  The paper's
 * Tables 2-7 are therefore served exclusively by the fidelity engine.
 *
 * Only the default FirmwareOptions are modeled (frame buffers on,
 * trail buffering on, no runtime first-argument probing); the trail
 * buffer is represented by a flat trail stack at the same logical
 * positions, which is observationally identical (same trail tops in
 * choice points, same LIFO unwind order).  Compile-time first-argument
 * indexing (kl0::CompileOptions::firstArgIndexing) IS supported: an
 * IndexRef directory entry is resolved through the same heap-resident
 * index structure the fidelity engine walks, selecting a pre-built
 * ClauseRef chain, so the clause trial order - and therefore every
 * answer byte - is unchanged.
 */

#ifndef PSI_FAST_FAST_ENGINE_HPP
#define PSI_FAST_FAST_ENGINE_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "interp/machine.hpp"
#include "kl0/builtin_defs.hpp"
#include "kl0/codegen.hpp"
#include "kl0/compiled_program.hpp"
#include "kl0/symbols.hpp"
#include "mem/area.hpp"
#include "mem/heap_store.hpp"
#include "mem/tagged_word.hpp"

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

    TaggedWord
    read(std::uint32_t off) const
    {
        if (off < _low.size)
            return _low.words[off];
        return readSlow(off);
    }

    void
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

/** The token-threaded flat-dispatch KL0 engine. */
class FastEngine
{
  public:
    FastEngine();
    // The heap store and the code generator point into the engine.
    FastEngine(const FastEngine &) = delete;
    FastEngine &operator=(const FastEngine &) = delete;

    /**
     * Install a precompiled image: reset what the previous image and
     * its queries wrote (the heap words they poked, each area below
     * its high-water marks), replay the image's poke log into the
     * flat heap and adopt its symbol table and codegen snapshot, as
     * interp::Engine::load does for the firmware machine.  The cost
     * follows what the previous request touched, not what the
     * engine ever allocated.
     */
    void load(const kl0::CompiledProgram &image);

    bool loaded() const { return _loaded; }

    /** Compile and run a query given as text. */
    interp::RunResult solve(const std::string &query_text,
                            const interp::RunLimits &limits =
                                interp::RunLimits());

    /** Compile and run a query term. */
    interp::RunResult solve(const kl0::TermPtr &goal,
                            const interp::RunLimits &limits =
                                interp::RunLimits());

    // ----- first-argument index instrumentation ------------------------
    /** Calls dispatched through a first-argument index this run. */
    std::uint64_t indexHits() const { return _idxHits; }
    /** Indexed calls that fell back to the linear chain this run. */
    std::uint64_t indexFallbacks() const { return _idxFallbacks; }
    /** Clause candidates visited by the trial loop this run. */
    std::uint64_t clauseTries() const { return _clauseTries; }

  private:
    using RunLimits = interp::RunLimits;
    using RunResult = interp::RunResult;
    using Activation = interp::Activation;
    using FrameLoc = interp::FrameLoc;
    using Deref = interp::Deref;

    // ----- fast_engine.cpp: control -----------------------------------
    void resetRun();
    RunResult run(const kl0::QueryCode &qc, const RunLimits &limits);
    void mainLoop(const kl0::QueryCode &qc, RunResult &result,
                  const RunLimits &limits);
    void loadArgs(std::uint32_t arity);
    bool doCall(std::uint32_t functor_idx, std::uint32_t goal_cp,
                bool last_call);
    std::uint32_t resolveIndex(std::uint32_t root);
    bool tryClauses(std::uint32_t table_addr, std::uint32_t goal_cp,
                    std::uint32_t arity, std::uint32_t cont_cp,
                    std::uint32_t cont_env, std::uint32_t cut_b);
    bool enterClause(std::uint32_t clause_addr, std::uint32_t cont_cp,
                     std::uint32_t cont_env, std::uint32_t cut_b);
    bool backtrack();
    void pushChoicePoint(std::uint32_t goal_cp, std::uint32_t cont_cp,
                         std::uint32_t cont_env,
                         std::uint32_t caller_frame_enc,
                         std::uint32_t caller_global_base,
                         std::uint32_t saved_gt, std::uint32_t saved_lt,
                         std::uint32_t saved_tt, std::uint32_t saved_b,
                         std::uint32_t next_clause_addr);
    void pushEnvFrame();
    void restoreEnv(std::uint32_t env_addr);
    void flushFrame();
    void doCut();
    void reloadTrailBounds();
    void extractSolution(const kl0::QueryCode &qc, RunResult &result);
    kl0::TermPtr exportTerm(const TaggedWord &w, int depth = 0);

    // ----- local frame access -----------------------------------------
    TaggedWord readLocal(std::uint32_t slot);
    void writeLocal(std::uint32_t slot, const TaggedWord &w);
    TaggedWord fetchVarArg(const VarSlot &vs);
    TaggedWord newGlobalCell();

    // ----- fast_unify.cpp: unification and trail ----------------------
    Deref deref(const TaggedWord &w);
    void bind(const LogicalAddr &cell, const TaggedWord &value);
    void trailPush(const LogicalAddr &cell);
    void unwindTrail(std::uint64_t to_tt);
    std::uint64_t trailTop() const { return _tt; }
    bool unify(const TaggedWord &a, const TaggedWord &b);
    bool unifyHead(const TaggedWord &desc, const TaggedWord &arg);
    TaggedWord instantiate(std::uint32_t skel_addr, bool is_cons);
    bool unifySkeleton(std::uint32_t skel_addr, bool is_cons,
                       const TaggedWord &term);
    bool unifySkelElement(const TaggedWord &skel_elem,
                          const TaggedWord &cell_value);

    // ----- fast_builtins.cpp ------------------------------------------
    bool execBuiltin(kl0::Builtin b);
    bool execIs();
    bool evalArith(const TaggedWord &w, std::int64_t &out);
    /**
     * Resolved arithmetic operator of a functor.  evalArith runs
     * once per expression node, so matching the operator by name
     * there dominates arith-heavy profiles; this memoizes the
     * string match per functor index (cleared on load, grown when a
     * query compile interns new functors).
     */
    enum class ArithOp : std::uint8_t
    {
        Unresolved = 0,
        NotArith,                          ///< not an arith functor
        Neg, Ident, Abs, BitNot,           // arity 1
        Add, Sub, Mul, IDiv, Mod, Rem,     // arity 2
        Min, Max, Shl, Shr, BitAnd, BitOr, BitXor,
    };
    ArithOp arithOpFor(std::uint32_t functor_idx);
    bool arithCompare(kl0::Builtin b);
    bool termCompare(const TaggedWord &a, const TaggedWord &b,
                     int &out);
    void writeTerm(const TaggedWord &w, int depth = 0);
    bool builtinFunctor();
    bool builtinArg();
    bool builtinUniv();
    bool builtinVector(kl0::Builtin b);
    bool builtinGlobal(kl0::Builtin b);
    bool builtinProcessCall();
    bool runNested(std::uint32_t functor_idx,
                   std::uint64_t max_dispatches);

    // ----- flat memory access -----------------------------------------
    TaggedWord
    read(const LogicalAddr &a) const
    {
        return _area[static_cast<int>(a.area)].read(a.offset);
    }
    void
    write(const LogicalAddr &a, const TaggedWord &w)
    {
        _area[static_cast<int>(a.area)].write(a.offset, w);
    }
    TaggedWord heapRead(std::uint32_t off) const
    {
        return _area[static_cast<int>(Area::Heap)].read(off);
    }

    // ----- components --------------------------------------------------
    FlatArea _area[kNumAreas];
    FlatHeap _heap;  ///< _area[Heap] as the code generator's store
    kl0::SymbolTable _syms;
    kl0::CodeGen _codegen;
    bool _loaded = false;

    // ----- machine registers -------------------------------------------
    std::uint32_t _gt = interp::kStackBase;  ///< global stack top
    std::uint32_t _lt = interp::kStackBase;  ///< local stack top
    std::uint32_t _ct = interp::kStackBase;  ///< control stack top
    std::uint32_t _tt = interp::kStackBase;  ///< trail stack top
    std::uint32_t _b = interp::kNoChoice;    ///< newest choice point
    std::uint32_t _hb = 0;                   ///< global top at newest CP
    std::uint32_t _hl = 0;                   ///< local top at newest CP
    std::uint32_t _cp = 0;                   ///< code pointer
    Activation _act;
    int _curBuf = 0;
    TaggedWord _a[kl0::kMaxArity];           ///< argument registers
    TaggedWord _fbuf[2][kl0::kMaxLocals];    ///< WF frame buffers
    std::uint32_t _vecTop = kl0::kVectorBase;
    std::uint64_t _inferences = 0;
    std::uint64_t _dispatches = 0;           ///< maxSteps proxy
    std::uint64_t _idxHits = 0;              ///< indexed dispatches
    std::uint64_t _idxFallbacks = 0;         ///< linear-chain fallbacks
    std::uint64_t _clauseTries = 0;          ///< clause candidates tried
    std::string _out;
    std::size_t _maxOutputBytes = 1 << 20;
    bool _failFlag = false;
    bool _inProcessCall = false;
    std::vector<bool> _warnedUndefined;
    std::vector<ArithOp> _arithOps; ///< functor idx -> operator memo
};

} // namespace fast
} // namespace psi

#endif // PSI_FAST_FAST_ENGINE_HPP
