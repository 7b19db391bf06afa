/**
 * @file
 * The PSI firmware interpreter.
 *
 * One Engine owns the full machine: memory system (translation +
 * cache + main memory), microprogram sequencer (work file, timing,
 * dynamic-frequency statistics), symbol table and code generator.
 * Programs are loaded once; queries are compiled on the fly and
 * executed by the firmware main loop.
 *
 * Every firmware action is issued through the sequencer, so the
 * statistics behind the paper's Tables 2-7 are measured from the work
 * the model actually performs.  The method split across translation
 * units mirrors the firmware modules: engine.cpp (control), unify.cpp
 * (unification, trail), builtins*.cpp (built-ins, get_arg).
 */

#ifndef PSI_INTERP_ENGINE_HPP
#define PSI_INTERP_ENGINE_HPP

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "interp/machine.hpp"
#include "kl0/builtin_defs.hpp"
#include "kl0/codegen.hpp"
#include "kl0/compiled_program.hpp"
#include "kl0/program.hpp"
#include "kl0/symbols.hpp"
#include "mem/memory_system.hpp"
#include "micro/sequencer.hpp"

namespace psi {
namespace interp {

/**
 * Firmware feature switches for the design studies the paper's
 * evaluation motivates (§4 discussions and the PSI-II redesign the
 * conclusion announces).  The defaults are the PSI as measured.
 */
struct FirmwareOptions
{
    /**
     * Clause selection by first-argument tag before head
     * unification - the "improving the instruction code suitable for
     * the compile time optimization" direction of the redesign
     * (PSI-II); off on the measured PSI.
     */
    bool firstArgIndexing = false;
    /** Buffer trail entries in the WF via WFAR2 (paper §4.3). */
    bool trailBuffer = true;
    /** Use the dedicated Write-Stack cache command for pushes. */
    bool writeStackCommand = true;
    /** Cache local frames in the WF buffers (TRO support, §2.2). */
    bool frameBuffers = true;
};

/** The microprogrammed KL0 interpreter. */
class Engine
{
  public:
    explicit Engine(const CacheConfig &config = CacheConfig::psi(),
                    const FirmwareOptions &fw = FirmwareOptions());

    /** Load (normalize + compile) a program into the heap image. */
    void load(const kl0::Program &program);

    /**
     * Consult @p text.  On a fresh machine this routes through the
     * single compile entry point, CompiledProgram::compile, and
     * installs the image; on a machine that already holds code it
     * compiles incrementally, appending clauses (the REPL path).
     */
    void consult(const std::string &text);

    /**
     * Code-generation options for subsequent consults and query
     * compiles.  load(image) overrides them with the image's own
     * options so the engine stays consistent with the installed code.
     */
    void setCompileOptions(const kl0::CompileOptions &opts)
    {
        _codegen.setOptions(opts);
    }
    const kl0::CompileOptions &compileOptions() const
    {
        return _codegen.options();
    }

    /**
     * Install a precompiled image into a fully reset machine.
     *
     * Equivalent to constructing a fresh Engine and consulting the
     * image's source - results and every hardware statistic are
     * byte-identical (the image replays its heap stores in emission
     * order, reproducing the physical layout of a consult) - but
     * without paying parse/normalize/codegen on this thread.  This
     * is the warm-engine hot path of the psid worker loop.
     */
    void load(const kl0::CompiledProgram &image);

    /** Same, first re-configuring the cache model for this run. */
    void load(const kl0::CompiledProgram &image,
              const CacheConfig &cache);

    /**
     * Return the machine to its just-constructed state: memory
     * contents and mappings, cache residency, work file, texture
     * ring, statistics, registers, vector/process state.  The symbol
     * table and heap image are cleared with everything else, so a
     * load()/consult() must follow before the next solve().
     */
    void resetMachine();

    /** Compile and run a query given as text, e.g. "append(X,Y,[1])". */
    RunResult solve(const std::string &query_text,
                    const RunLimits &limits = RunLimits());

    /** Compile and run a query term. */
    RunResult solve(const kl0::TermPtr &goal,
                    const RunLimits &limits = RunLimits());

    /** @name Component access (benches, tools, tests) */
    /// @{
    MemorySystem &mem() { return _mem; }
    micro::Sequencer &seq() { return _seq; }
    kl0::SymbolTable &symbols() { return _syms; }
    const kl0::CodeGen &codegen() const { return _codegen; }
    /// @}

    /**
     * When true (default), statistics and the cache are reset after
     * query compilation so measurements cover execution only.
     */
    void setResetStatsOnRun(bool v) { _resetStatsOnRun = v; }

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

  private:
    using Module = micro::Module;
    using BranchOp = micro::BranchOp;
    using WfMode = micro::WfMode;

    // ----- engine.cpp: control ---------------------------------------
    void resetRun();
    RunResult run(const kl0::QueryCode &qc, const RunLimits &limits);
    /** Sets result.status when a limit ends the run early. */
    void mainLoop(const kl0::QueryCode &qc, RunResult &result,
                  const RunLimits &limits);
    /** Load call arguments at _cp into A registers; advances _cp. */
    void loadArgs(std::uint32_t arity, Module m);
    /** Perform a user-predicate call. @return false to backtrack. */
    bool doCall(std::uint32_t functor_idx, std::uint32_t goal_cp,
                bool last_call);
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
                    std::uint32_t arity, std::uint32_t cont_cp,
                    std::uint32_t cont_env, std::uint32_t cut_b);
    /**
     * Resolve a first-argument index rooted at @p root to the clause
     * table tryClauses should walk: dereference A1, switch on its
     * tag, probe the hash block when the class is keyed.  Unbound or
     * uncovered first arguments take the linear-table fallback.
     */
    std::uint32_t resolveIndex(std::uint32_t root);
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

    // ----- local frame access -----------------------------------------
    TaggedWord readLocal(std::uint32_t slot, Module m);
    void writeLocal(std::uint32_t slot, const TaggedWord &w, Module m);
    /** Fetch a variable's value for an argument position. */
    TaggedWord fetchVarArg(const VarSlot &vs, Module m);
    /** Allocate a fresh unbound global cell; @return a Ref to it. */
    TaggedWord newGlobalCell(Module m);

    // ----- unify.cpp: unification and trail ---------------------------
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

    // ----- builtins.cpp / builtins_arith.cpp / builtins_term.cpp ------
    bool execBuiltin(kl0::Builtin b);
    /** is/2 body, shared by the generic dispatch and CallIs. */
    bool execIs();
    bool evalArith(const TaggedWord &w, std::int64_t &out);
    bool arithCompare(kl0::Builtin b);
    /** Standard order comparison; -1/0/+1 via @p out. */
    bool termCompare(const TaggedWord &a, const TaggedWord &b,
                     int &out);
    bool structuralEq(const TaggedWord &a, const TaggedWord &b);
    void writeTerm(const TaggedWord &w, int depth = 0);
    bool builtinFunctor();
    bool builtinArg();
    bool builtinUniv();
    bool builtinVector(kl0::Builtin b);
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
    /** Nested firmware loop used by process_call. */
    bool runNested(std::uint32_t functor_idx, std::uint64_t max_steps);

    TaggedWord readA(std::uint32_t i, Module m);
    void writeA(std::uint32_t i, const TaggedWord &w, Module m);

    // ----- components --------------------------------------------------
    /** Quick check: can clause head arg 1 possibly match @p a1? */
    bool firstArgMayMatch(std::uint32_t clause_addr,
                          const TaggedWord &a1);

    MemorySystem _mem;
    micro::Sequencer _seq;
    kl0::SymbolTable _syms;
    kl0::CodeGen _codegen;
    FirmwareOptions _fw;

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
    bool _resetStatsOnRun = true;
    bool _inProcessCall = false;      ///< nesting guard
    std::vector<bool> _warnedUndefined;
    /** Per-process stack cursors (index = process id; the paper's
     *  per-process logical areas are offset windows of 1 << 24
     *  words within each stack area). */
    struct ProcTops
    {
        std::uint32_t gt, lt, ct, tt;
        bool started = false;
    };
    std::array<ProcTops, kProcesses> _procTops{};
};

} // namespace interp
} // namespace psi

#endif // PSI_INTERP_ENGINE_HPP
