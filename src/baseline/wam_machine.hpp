/**
 * @file
 * Emulator for the compiled-code baseline engine.
 *
 * Structure-copying register machine: heap (global stack) of tagged
 * words, X register file, environment arena with permanent (Y)
 * slots, choice-point stack, trail, and a destructive vector arena
 * matching the PSI engine's heap vectors.
 *
 * Clause selection uses the compiler's first-argument index: a
 * choice point is created only when more than one clause remains
 * after indexing - the decisive advantage over the PSI interpreter
 * on deterministic programs, per the paper's Table 1 discussion.
 * Neither a call nor a choice point allocates: the clauses are
 * scanned with a cursor, and each choice point saves its argument
 * registers in one engine-wide argument stack.
 *
 * Time is modelled by the DEC-2060 cost table (cost_model.hpp);
 * results are exported as kl0 terms so tests can prove the two
 * engines agree.
 */

#ifndef PSI_BASELINE_WAM_MACHINE_HPP
#define PSI_BASELINE_WAM_MACHINE_HPP

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "baseline/cost_model.hpp"
#include "baseline/wam_compiler.hpp"
#include "interp/machine.hpp"
#include "kl0/builtin_defs.hpp"
#include "kl0/symbols.hpp"

namespace psi {
namespace baseline {

/** The baseline abstract machine. */
class WamEngine
{
  public:
    WamEngine();

    /** Normalize and compile a program. */
    void load(const kl0::Program &program);

    /** Parse and load program text. */
    void consult(const std::string &text);

    /** Compile and run a query (text or term). */
    interp::RunResult solve(const std::string &query_text,
                            const interp::RunLimits &limits =
                                interp::RunLimits());
    interp::RunResult solve(const kl0::TermPtr &goal,
                            const interp::RunLimits &limits =
                                interp::RunLimits());

    kl0::SymbolTable &symbols() { return _syms; }
    WamCompiler &compiler() { return _compiler; }
    const CostCounters &counters() const { return _cnt; }

  private:
    /** Environment frame (Y slots live in the _yslots arena). */
    struct Env
    {
        std::uint32_t prevE;
        std::uint32_t cont;
        std::uint32_t cutB;
        std::uint32_t ybase;
        std::uint32_t ny;
    };

    /**
     * Choice point.  The alternatives left are pred's clauses from
     * `next` on that the call reaches (see nextClause()); the call's
     * A registers are saved in _argStack[argBase, argBase + argc).
     */
    struct Choice
    {
        std::uint32_t e;
        std::uint32_t cont;
        std::uint32_t tr;
        std::uint32_t h;
        std::uint32_t cb;
        std::uint32_t envTop;
        std::uint32_t yTop;
        std::uint32_t argBase;
        std::uint32_t argc;
        std::uint32_t next;    ///< index of the next matching clause
        const CompiledPred *pred;
        ClauseKey key;         ///< the call's first-argument key
        bool unbound;          ///< first argument unbound: all clauses
    };

    void resetRun();
    interp::RunResult run(const WamQuery &q,
                          const interp::RunLimits &limits);
    bool step();                 ///< one instruction; false = failure
    bool backtrack();
    bool doCall(std::uint32_t functor_idx, bool is_execute);
    void extract(const WamQuery &q, interp::RunResult &out);
    kl0::TermPtr exportTerm(const TaggedWord &w, int depth = 0);

    // --- data-path helpers ---------------------------------------------
    TaggedWord derefW(TaggedWord w);
    void bindCell(std::uint32_t idx, const TaggedWord &w);
    TaggedWord pushUnbound();
    bool unifyW(const TaggedWord &a, const TaggedWord &b);
    TaggedWord &yslot(std::uint32_t n);

    // --- builtins (wam_builtins.cpp) -------------------------------------
    bool execBuiltin(kl0::Builtin b);
    bool evalArith(const TaggedWord &w, std::int64_t &out);
    bool termCompare(const TaggedWord &a, const TaggedWord &b,
                     int &out);
    void writeTerm(const TaggedWord &w, int depth = 0);
    bool builtinFunctor();
    bool builtinArg();
    bool builtinUniv();
    bool builtinVector(kl0::Builtin b);

    kl0::SymbolTable _syms;
    WamCompiler _compiler;
    const CostModel *_model;

    std::vector<TaggedWord> _heap;
    std::vector<TaggedWord> _x;
    std::vector<Env> _envs;
    std::vector<TaggedWord> _yslots;
    std::vector<Choice> _cps;
    /** Saved A registers of every choice point, bottom to top. */
    std::vector<TaggedWord> _argStack;
    std::vector<std::uint32_t> _trail;
    std::vector<TaggedWord> _vecs;
    /** Shared registry for global_set/global_get. */
    std::array<TaggedWord, 16> _globals{};

    std::uint32_t _p = 0;      ///< program counter (code offset)
    std::uint32_t _cp = 0;     ///< continuation code offset
    std::uint32_t _e = 0;      ///< current env (index + 1; 0 = none)
    std::uint32_t _cb = 0;     ///< cut barrier (choice stack depth)
    std::uint32_t _s = 0;      ///< unify pointer
    bool _writeMode = false;

    bool _failFlag = false;
    bool _haltFlag = false;
    std::uint64_t _inferences = 0;
    std::string _out;
    std::size_t _maxOutputBytes = 1 << 20;
    CostCounters _cnt;
    std::vector<bool> _warnedUndefined;
};

} // namespace baseline
} // namespace psi

#endif // PSI_BASELINE_WAM_MACHINE_HPP
