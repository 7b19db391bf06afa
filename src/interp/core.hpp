/**
 * @file
 * The KL0 engine core: the PSI interpreter firmware, written once over
 * an access policy.
 *
 * Core<Access> holds the machine registers, the symbol table, the code
 * generator and every firmware routine: image load, query solve, the
 * main loop, argument loading, calls, clause trial, frames,
 * backtracking and cut (core_control.hpp), unification and the trail
 * (core_unify.hpp), the built-ins (core_builtins.hpp, core_arith.hpp,
 * core_term.hpp), process_call and the shared registry
 * (core_process.hpp), and solution export.  Each memory access,
 * microinstruction step and work-file touch goes to the policy object
 * _acc, so one set of statements drives two machines:
 *
 *  - interp::Modeled (engine.hpp) issues them through the Sequencer
 *    and MemorySystem, charging every step to its firmware module -
 *    the instrument behind the paper's Tables 2-7;
 *  - fast::Flat (fast_engine.hpp) reads and writes flat word arrays,
 *    and every accounting call is an empty inline function.
 *
 * The two engines therefore differ in exactly one design choice: how
 * a word is stored and whether a step is charged.  Answers, output,
 * warnings and allocation order are the same by construction.
 *
 * An Access policy provides (all inline):
 *
 *  - step(m, b, s1, s2, d), texture(m, n): charge steps;
 *  - readMem, writeMem, pushMem: one memory access with its step;
 *    fillMem: @p n writes of one word (vector_new);
 *  - peek(addr): an unaccounted read (solution export);
 *  - wfRead(addr), wfWrite(addr, w): work-file words - the A
 *    registers, the two frame buffers and the trail buffer, at the
 *    micro::kWf* addresses;
 *  - trailBuffer(), frameBuffers(): the firmware feature switches;
 *  - ticks(), tick(): the work counter that RunLimits::maxSteps
 *    reads, and its advance once per dispatch (Modeled:
 *    microinstruction steps, which the sequencer counts, and tick()
 *    is empty; Flat: dispatches);
 *  - heap(): the heap as the store the code generator emits into and
 *    an image load replays into, as its concrete final type so those
 *    pokes are direct calls;
 *  - reset(): the storage back to its just-constructed state, before
 *    an image load;
 *  - startRun(), finishRun(result): the bookkeeping around one query
 *    run (Modeled: zero the statistics, then report steps and model
 *    time).
 *
 * The member definitions are in the core_*.hpp headers, included only
 * by the translation unit of each engine, so the calls from the main
 * loop into the core can be inlined.
 */

#ifndef PSI_INTERP_CORE_HPP
#define PSI_INTERP_CORE_HPP

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "interp/machine.hpp"
#include "kl0/builtin_defs.hpp"
#include "kl0/codegen.hpp"
#include "kl0/compiled_program.hpp"
#include "kl0/symbols.hpp"
#include "micro/fields.hpp"
#include "micro/work_file.hpp"

namespace psi {
namespace interp {

/** The KL0 firmware over access policy @p Access. */
template <class Access>
class Core
{
  public:
    // The code generator points into the core.
    Core(const Core &) = delete;
    Core &operator=(const Core &) = delete;

    /**
     * Install a precompiled image into a fully reset machine: reset
     * the storage, adopt the image's symbol table, codegen snapshot
     * and compile options (query code compiled against the image must
     * agree with it), and replay its heap stores in emission order.
     *
     * Equivalent to a fresh engine consulting the image's source -
     * answers and, on the fidelity engine, every hardware statistic
     * are byte-identical, because the replay touches pages exactly as
     * the original compile did - without paying parse, normalize and
     * codegen on this thread.  This is the warm-engine hot path of
     * the psid worker loop.
     */
    void load(const kl0::CompiledProgram &image);

    /** Compile and run a query given as text, e.g. "append(X,Y,[1])". */
    RunResult solve(const std::string &query_text,
                    const RunLimits &limits = RunLimits());

    /** Compile and run a query term. */
    RunResult solve(const kl0::TermPtr &goal,
                    const RunLimits &limits = RunLimits());

    /** @name Per-run first-argument-index counters
     * Calls dispatched through an index (bound first argument) vs
     * falling back to the linear chain (unbound or uncovered tag),
     * and clause candidates visited by the trial loop.  Reset at
     * every solve; harvested into pool metrics by the psid worker.
     */
    /// @{
    std::uint64_t indexHits() const { return _idxHits; }
    std::uint64_t indexFallbacks() const { return _idxFallbacks; }
    std::uint64_t clauseTries() const { return _clauseTries; }
    /// @}

  protected:
    using Module = micro::Module;
    using BranchOp = micro::BranchOp;
    using WfMode = micro::WfMode;

    template <class... Args>
    explicit Core(Args &&...args)
        : _acc(std::forward<Args>(args)...), _codegen(_acc.heap(), _syms)
    {}

    static constexpr auto kScr = WfMode::Direct00_0F;
    static constexpr auto kReg = WfMode::Direct10_3F;
    static constexpr auto kConstWf = WfMode::Constant;
    static constexpr auto kNoWf = WfMode::None;

    /** @name Decode/bookkeeping step counts of the firmware routines
     * The register-level texture around the explicit memory accesses.
     * The densities are calibrated against the paper's own
     * measurements: ~137 steps per inference on nreverse, a cache
     * command in 16-23% of steps (Table 3), and the Table 2 module
     * mix.
     */
    /// @{
    static constexpr int kFetchDecode = 1;    ///< per body instruction
    static constexpr int kCallDecode = 10;    ///< per user-predicate call
    static constexpr int kTrialDecode = 1;    ///< per clause candidate
    static constexpr int kEnterDecode = 1;    ///< per clause entry
    static constexpr int kArgDecode = 2;      ///< per argument descriptor
    static constexpr int kVarFetchDecode = 1; ///< per variable argument
    static constexpr int kFramePush = 3;      ///< per control-frame push
    static constexpr int kEnvRestore = 3;     ///< per environment restore
    static constexpr int kReturnDecode = 4;   ///< per clause return
    static constexpr int kBacktrackDecode = 6;///< per deep backtrack
    static constexpr int kCutWork = 12;       ///< per cut
    static constexpr int kDerefHop = 2;       ///< per reference hop
    static constexpr int kBindWork = 3;       ///< per binding
    static constexpr int kUnifyEntry = 4;     ///< per general unify
    static constexpr int kHeadArgWork = 3;    ///< per head argument
    static constexpr int kSkelElem = 2;       ///< per skeleton element
    /// @}

    /** Make the self-referencing word of an unbound cell. */
    static TaggedWord
    unboundAt(const LogicalAddr &addr)
    {
        return {Tag::Ref, addr.pack()};
    }

    // ----- core_control.hpp: control -----------------------------------
    /** Reset the run registers and the per-run counters. */
    void resetRun();
    /**
     * Forget what the previous image left behind (vector space,
     * output cap, process-call guard, the per-functor memos) and
     * reset the run registers.
     */
    void resetImageState();
    /**
     * Run a compiled query: start the policy's run bookkeeping, reset
     * the run registers, arm the limits, call the query predicate and
     * run the main loop; the result carries the solutions, status,
     * inference count and output, and the policy's run report.
     */
    RunResult runQuery(const kl0::QueryCode &qc, const RunLimits &limits);
    /**
     * The firmware main loop: fetch an instruction word and branch on
     * its tag until @p max_solutions solutions are exported, the
     * query fails for good or a limit ends the run (result.status).
     */
    void mainLoop(const kl0::QueryCode &qc, RunResult &result,
                  int max_solutions);
    /** Load call arguments at _cp into A registers; advances _cp. */
    void loadArgs(std::uint32_t arity, Module m);
    /** Perform a user-predicate call. @return false to backtrack. */
    bool doCall(std::uint32_t functor_idx, std::uint32_t goal_cp,
                bool last_call);
    /**
     * Resolve a first-argument index rooted at @p root to the clause
     * table tryClauses should walk: dereference A1, switch on its
     * tag, probe the hash block when the class is keyed.  Unbound or
     * uncovered first arguments take the linear-table fallback.
     */
    std::uint32_t resolveIndex(std::uint32_t root);
    /**
     * Shallow-backtracking clause trial loop: try candidates from
     * @p table_addr against the A registers, undoing failed head
     * unifications from work-file state; push a choice point only
     * when a clause commits with alternatives remaining.
     *
     * The caller context for deep retries (frame location, global
     * base) is taken from _act at entry.
     */
    bool tryClauses(std::uint32_t table_addr, std::uint32_t goal_cp,
                    std::uint32_t cont_cp, std::uint32_t cont_env,
                    std::uint32_t cut_b);
    /** Enter one clause: globals, locals, head unification. */
    bool enterClause(std::uint32_t clause_addr, std::uint32_t cont_cp,
                     std::uint32_t cont_env, std::uint32_t cut_b);
    /** Restore state from the newest choice point; false if none. */
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
    /** Copy the buffer frame to the local stack if needed. */
    void flushFrame();
    void doCut();
    /** Re-read HB/HL from the (new) newest choice point. */
    void reloadTrailBounds(Module m);
    void extractSolution(const kl0::QueryCode &qc, RunResult &result);
    kl0::TermPtr exportTerm(const TaggedWord &w, int depth = 0);

    // ----- local frame and argument-register access ---------------------
    /** Work-file address of frame buffer @p kind. */
    static std::uint16_t
    frameBufBase(FrameLoc::Kind kind)
    {
        return kind == FrameLoc::Kind::Buf0 ? micro::kWfFrameBuf0
                                            : micro::kWfFrameBuf1;
    }
    TaggedWord readLocal(std::uint32_t slot, Module m);
    void writeLocal(std::uint32_t slot, const TaggedWord &w, Module m);
    /** Fetch a variable's value for an argument position. */
    TaggedWord fetchVarArg(const VarSlot &vs, Module m);
    /** Allocate a fresh unbound global cell; @return a Ref to it. */
    TaggedWord newGlobalCell(Module m);
    TaggedWord
    readA(std::uint32_t i, Module m)
    {
        _acc.step(m, BranchOp::T1Nop, kReg, kNoWf, kNoWf);
        return _acc.wfRead(micro::kWfArgBase + i);
    }

    // ----- core_unify.hpp: unification and trail -----------------------
    Deref deref(const TaggedWord &w, Module m);
    void bind(const LogicalAddr &cell, const TaggedWord &value,
              Module m);
    void trailPush(const LogicalAddr &cell);
    void trailFlush();
    void unwindTrail(std::uint64_t to_tt);
    std::uint64_t trailTop() const
    {
        return _memTT + _trailBufCount;
    }
    bool unify(const TaggedWord &a, const TaggedWord &b);
    bool unifyHead(const TaggedWord &desc, const TaggedWord &arg);
    /** Instantiate a heap skeleton onto the global stack. */
    TaggedWord instantiate(std::uint32_t skel_addr, bool is_cons);
    /** Read-mode unification of a skeleton against a bound term. */
    bool unifySkeleton(std::uint32_t skel_addr, bool is_cons,
                       const TaggedWord &term);
    /** One element of a skeleton against one runtime cell. */
    bool unifySkelElement(const TaggedWord &skel_elem,
                          const TaggedWord &cell_value);

    // ----- core_builtins.hpp / core_arith.hpp / core_term.hpp -----------
    bool execBuiltin(kl0::Builtin b);
    /** is/2 body, shared by the generic dispatch and CallIs. */
    bool execIs();
    bool evalArith(const TaggedWord &w, std::int64_t &out);
    /**
     * Resolved arithmetic operator of a functor.  evalArith runs
     * once per expression node, so matching the operator by name
     * there would dominate arith-heavy host profiles; this memoizes
     * the match per functor index (cleared with the symbol table,
     * grown when a query compile interns new functors).  Host work
     * only: no step is charged for it.
     */
    enum class ArithOp : std::uint8_t
    {
        Unresolved = 0,
        NotArith,                          ///< arity other than 1 or 2
        Unknown1, Neg, Ident, Abs, BitNot, // arity 1
        Unknown2, Add, Sub, Mul, IDiv, Mod, Rem, // arity 2
        Min, Max, Shl, Shr, BitAnd, BitOr, BitXor,
    };
    ArithOp arithOpFor(std::uint32_t functor_idx);
    static bool
    isUnary(ArithOp op)
    {
        return op < ArithOp::Unknown2;
    }
    bool arithCompare(kl0::Builtin b);
    /** Standard order comparison; -1/0/+1 via @p out. */
    bool termCompare(const TaggedWord &a, const TaggedWord &b,
                     int &out);
    void writeTerm(const TaggedWord &w, int depth = 0);
    bool builtinFunctor();
    bool builtinArg();
    bool builtinUniv();
    bool builtinVector(kl0::Builtin b);

    // ----- core_process.hpp: multi-process support ----------------------
    bool builtinGlobal(kl0::Builtin b);
    /**
     * process_call/2: run an arity-0 predicate to its first solution
     * inside another process's stack areas (the paper's §2.1
     * multi-process support: the heap is shared, the four stacks are
     * independent logical spaces).  The work-file contents and the
     * current control registers are saved across the switch, as on
     * the PSI.
     */
    bool builtinProcessCall();
    /**
     * process_call's own loop: run @p functor_idx to its first
     * solution within the run's limits.
     */
    bool runNested(std::uint32_t functor_idx);

    // ----- components ---------------------------------------------------
    Access _acc;            ///< storage and accounting
    kl0::SymbolTable _syms;
    kl0::CodeGen _codegen;  ///< emits into _acc.heap()

    // ----- machine registers (conceptually WF scratch) -----------------
    std::uint32_t _gt = kStackBase;   ///< global stack top
    std::uint32_t _lt = kStackBase;   ///< local stack top
    std::uint32_t _ct = kStackBase;   ///< control stack top
    std::uint32_t _memTT = kStackBase;///< trail stack top (memory part)
    std::uint32_t _b = kNoChoice;     ///< newest choice point
    std::uint32_t _hb = 0;            ///< global top at newest CP
    std::uint32_t _hl = 0;            ///< local top at newest CP
    std::uint32_t _cp = 0;            ///< code pointer
    Activation _act;
    int _curBuf = 0;
    std::uint32_t _trailBufCount = 0; ///< entries in the WF buffer
    std::uint32_t _vecTop = kl0::kVectorBase;
    std::uint64_t _inferences = 0;
    std::uint64_t _idxHits = 0;       ///< index-dispatched calls
    std::uint64_t _idxFallbacks = 0;  ///< linear-fallback calls
    std::uint64_t _clauseTries = 0;   ///< clause candidates visited
    std::string _out;
    std::size_t _maxOutputBytes = 1 << 20;
    bool _failFlag = false;           ///< set by dispatch on failure
    bool _inProcessCall = false;      ///< nesting guard
    RunGuard _guard;                  ///< the run's limits (runQuery)
    RunStatus _limitHit = RunStatus::Ok; ///< a limit runNested reached
    std::vector<bool> _warnedUndefined;
    std::vector<ArithOp> _arithOps;   ///< functor idx -> operator memo
};

} // namespace interp
} // namespace psi

#endif // PSI_INTERP_CORE_HPP
