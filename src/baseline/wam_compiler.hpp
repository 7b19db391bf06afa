/**
 * @file
 * Compiler from KL0 clauses to the baseline instruction set.
 *
 * Performs the classic WAM translation: argument-register head
 * unification with specialized instructions, temporary (X) versus
 * permanent (Y) variable classification by chunk, environment
 * allocation only where needed, last-call optimization, and a
 * first-argument index per predicate (the "close indexing" the paper
 * credits DEC-10 Prolog's compiler with).
 */

#ifndef PSI_BASELINE_WAM_COMPILER_HPP
#define PSI_BASELINE_WAM_COMPILER_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "baseline/wam_instr.hpp"
#include "kl0/program.hpp"
#include "kl0/symbols.hpp"
#include "kl0/term.hpp"

namespace psi {
namespace baseline {

/** First-argument index key of one clause. */
struct ClauseKey
{
    enum class Kind : std::uint8_t
    {
        Var,     ///< matches anything (first arg is a variable,
                 ///< or the predicate has arity 0)
        Const,   ///< atom; data = atom index
        Int,     ///< integer; data = value bits
        Nil,
        List,
        Struct,  ///< data = functor index
    };

    Kind kind = Kind::Var;
    std::uint32_t data = 0;

    /** Does a call whose first argument has key @p goal reach us? */
    bool
    matches(const ClauseKey &goal) const
    {
        if (kind == Kind::Var)
            return true;
        return kind == goal.kind && data == goal.data;
    }
};

/** One compiled clause. */
struct CompiledClause
{
    std::uint32_t entry = 0;  ///< offset into the code vector
    ClauseKey key;
};

/** One compiled predicate. */
struct CompiledPred
{
    std::uint32_t arity = 0;
    std::vector<CompiledClause> clauses;
};

/** Result of compiling a query. */
struct WamQuery
{
    std::uint32_t predId = 0;  ///< functor index of $wamqueryN/0
    std::map<std::string, std::uint32_t> varSlots;  ///< name -> Y slot
    std::uint32_t nperm = 0;
};

/** The clause compiler and code store. */
class WamCompiler
{
  public:
    explicit WamCompiler(kl0::SymbolTable &syms);

    /** Compile a program (must already be normalized). */
    void compile(const kl0::Program &program);

    /** Compile a query goal; named variables become Y slots. */
    WamQuery compileQuery(const kl0::TermPtr &goal);

    const std::vector<WInstr> &code() const { return _code; }

    /** Predicate by functor index, or nullptr when undefined. */
    const CompiledPred *predicate(std::uint32_t functor_idx) const;

    kl0::SymbolTable &syms() { return *_syms; }

  private:
    struct VarInfo
    {
        int count = 0;
        int firstChunk = -1;
        int lastChunk = -1;
        bool pinned = false;
        bool perm = false;
        bool isVoid = false;
        bool seen = false;      ///< first occurrence emitted
        std::uint32_t slot = 0; ///< Y slot or X register
    };

    using VarMap = std::map<std::string, VarInfo>;

    void emit(WOp op, std::uint32_t a = 0, std::uint32_t b = 0)
    {
        _code.push_back(WInstr{op, a, b});
    }

    std::uint32_t compileClause(const kl0::Clause &clause,
                                bool is_query, VarMap &vars);
    void analyzeClause(const kl0::Clause &clause, VarMap &vars,
                       bool is_query) const;
    void countTerm(const kl0::TermPtr &t, int chunk, VarMap &vars)
        const;

    void compileHeadArg(const kl0::TermPtr &arg, std::uint32_t areg,
                        VarMap &vars);
    /** Emit the unify stream for a compound; returns nested temps. */
    void emitUnifyStream(const kl0::TermPtr &t, VarMap &vars,
                         std::vector<std::pair<std::uint32_t,
                                               kl0::TermPtr>> &later);
    void compileGoalArg(const kl0::TermPtr &arg, std::uint32_t areg,
                        VarMap &vars);
    /** Build a compound into register @p reg (children first). */
    void buildCompound(const kl0::TermPtr &t, std::uint32_t reg,
                       VarMap &vars);

    std::uint32_t freshTemp();

    static ClauseKey clauseKeyOf(const kl0::TermPtr &head);

    kl0::SymbolTable *_syms;
    std::vector<WInstr> _code;
    std::map<std::uint32_t, CompiledPred> _preds;
    std::uint32_t _tempNext = 16;
    std::uint64_t _queryCounter = 0;
};

} // namespace baseline
} // namespace psi

#endif // PSI_BASELINE_WAM_COMPILER_HPP
