/**
 * @file
 * Translation of KL0 clauses into PSI instruction code.
 *
 * The machine-resident expression of a program lives in the heap
 * area:
 *
 *  - a predicate directory at kDirBase, one word per functor index
 *    (ClauseRef to the predicate's clause table, or Undef);
 *  - per predicate, a clause table: ClauseRef words terminated by
 *    EndClauses;
 *  - per clause: a ClauseHeader word (arity / local count / global
 *    count packed into the data part), the head argument descriptor
 *    words, then the body goal records, terminated with Proceed;
 *  - compound-term skeletons referenced by HList/HStruct/AList/
 *    AStruct descriptors.
 *
 * Small goal arguments are packed four 8-bit operands to a word
 * (PackedArgs), each operand a 3-bit type plus 5-bit index, the
 * paper's packed-argument format and the target of the `case (irn)`
 * multi-way branch.
 *
 * Variables that occur inside compound terms are classified global
 * (their cells are allocated on the global stack at clause entry);
 * the rest are local (frame-buffer slots).  Single-occurrence
 * variables compile to void descriptors.
 */

#ifndef PSI_KL0_CODEGEN_HPP
#define PSI_KL0_CODEGEN_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "kl0/program.hpp"
#include "kl0/symbols.hpp"
#include "kl0/term.hpp"
#include "mem/heap_store.hpp"

namespace psi {
namespace kl0 {

/** @name Heap-area layout */
/// @{
constexpr std::uint32_t kHeapNull = 0;        ///< never a valid address
constexpr std::uint32_t kDirBase = 16;        ///< predicate directory
constexpr std::uint32_t kDirWords = 8192;     ///< max functor indices
constexpr std::uint32_t kCodeBase = kDirBase + kDirWords;
constexpr std::uint32_t kVectorBase = 1u << 24;  ///< runtime vectors
/** global_set/global_get registers, the shared registry just below
 *  the vectors.  With the vectors they are the only heap words a
 *  program writes at run time. */
constexpr std::uint32_t kGlobalRegSlots = 16;
constexpr std::uint32_t kGlobalRegBase = kVectorBase - 64;
/// @}

/** @name Machine limits */
/// @{
constexpr std::uint32_t kMaxArity = 16;   ///< argument registers
constexpr std::uint32_t kMaxLocals = 64;  ///< frame-buffer words
/// @}

/** @name Packed-operand encoding (3-bit type + 5-bit index) */
/// @{
constexpr std::uint32_t kPackNone = 0;      ///< padding
constexpr std::uint32_t kPackLocalVar = 1;
constexpr std::uint32_t kPackGlobalVar = 2;
constexpr std::uint32_t kPackVoid = 3;
constexpr std::uint32_t kPackSmallInt = 4;
/// @}

/** SkelVar data bit: single-occurrence (void) skeleton variable. */
constexpr std::uint32_t kSkelVoidBit = 0x20000;

/**
 * @name First-argument index layout (psiindex)
 *
 * A predicate with more than one clause and at least one
 * constant-keyed first argument gets, after its linear clause table,
 * an index the directory points at with {IndexRef, root}:
 *
 *  - root + 0: {IndexRoot, linear-table addr} - the fallback both
 *    engines take when the first argument dereferences unbound (or
 *    to a tag the index does not cover);
 *  - root + kIdxSlotAtom .. kIdxSlotStruct: one dispatch word per
 *    first-argument class, each either {ClauseRef, chain} (walk that
 *    chain directly) or {IndexHash, block} (probe the hash block);
 *  - hash block: {Int, nslots} {ClauseRef, miss chain} followed by
 *    nslots key/value pairs - key word ({Atom,i}/{Int,v}/{Functor,f}
 *    or {Undef,0} when empty) then {ClauseRef, bucket chain}.
 *    nslots is a power of two >= 2x the distinct keys (load factor
 *    <= 1/2), probed linearly; an empty key word means "no clause
 *    mentions this key", which routes to the miss chain.
 *
 * Every chain is an ordinary ClauseRef... EndClauses table holding
 * the key's matching clauses merged with the variable-headed clauses
 * in original source order, so choice points and backtracking work
 * on bucket chains exactly as on the linear table.  The index is a
 * filter: a skipped clause is one whose head unification was going
 * to fail on the first argument anyway.
 */
/// @{
constexpr std::uint32_t kIdxSlotAtom = 1;
constexpr std::uint32_t kIdxSlotInt = 2;
constexpr std::uint32_t kIdxSlotNil = 3;
constexpr std::uint32_t kIdxSlotList = 4;
constexpr std::uint32_t kIdxSlotStruct = 5;
constexpr std::uint32_t kIdxRootWords = 6;
/// @}

/**
 * Hash for index keys (atom index, int data, functor index).  The
 * codegen builder and both engines' probes must agree bit-for-bit;
 * multiplicative hashing keeps the high product bits, which scatter
 * far better than the low ones for the small sequential indices the
 * symbol tables hand out.
 */
inline std::uint32_t
indexKeyHash(std::uint32_t data)
{
    return (data * 2654435761u) >> 16;
}

/**
 * Code-generation options.  They ride CompiledProgram so an image
 * records how it was compiled; indexed and unindexed images of the
 * same source are different byte streams and must never alias (the
 * ProgramCache folds these bits into its key).  All-off reproduces
 * the pre-psiindex image bit-for-bit.
 */
struct CompileOptions
{
    /** Emit first-argument indexes (IndexRef directories). */
    bool firstArgIndexing = true;
    /** Emit CallIs/CallCmp for is/2 and the arithmetic compares
     *  instead of the generic CallBuiltin dispatch. */
    bool specializeBuiltins = true;

    /** The PSI as the paper measured it: its compiler emitted
     *  neither, so every paper table compiles with these. */
    static constexpr CompileOptions
    psiAsMeasured()
    {
        return {.firstArgIndexing = false, .specializeBuiltins = false};
    }

    bool operator==(const CompileOptions &) const = default;
};

/** Where a source variable lives at run time. */
struct SlotRef
{
    bool global = false;
    std::uint16_t index = 0;
};

/** Result of compiling a query. */
struct QueryCode
{
    std::uint32_t functorIdx = 0;  ///< the $query/0 predicate
    std::map<std::string, SlotRef> vars;  ///< named query variables
    std::uint32_t nlocals = 0;
    std::uint32_t nglobals = 0;
};

/** Compiles programs and queries into the heap image. */
class CodeGen
{
  public:
    /** A generator emitting into @p mem (the fidelity machine's
     *  MemorySystem or the fast engine's flat heap). */
    CodeGen(HeapStore &mem, SymbolTable &syms,
            CompileOptions opts = {});

    /** The options this generator compiles with. */
    const CompileOptions &options() const { return _opts; }

    /** Adopt @p opts (an engine loading an image adopts the image's
     *  options so later incremental consults and query compiles stay
     *  consistent with the installed code). */
    void setOptions(const CompileOptions &opts) { _opts = opts; }

    /**
     * Compile every predicate of @p program (normalize() must have
     * been applied first; bodies may contain only plain goals).
     */
    void compile(const Program &program);

    /**
     * Compile @p goal as the body of a fresh `$queryN/0` predicate.
     * All named variables of the goal are pinned so their bindings
     * can be extracted after a solution.
     */
    QueryCode compileQuery(const TermPtr &goal);

    /** First free heap word after the compiled image. */
    std::uint32_t heapTop() const { return _cursor; }

    /** Total instruction-code words emitted (for reports). */
    std::uint32_t codeWords() const { return _cursor - kCodeBase; }

    /**
     * The generator's whole post-compile state: the heap cursor and
     * the per-functor clause-address table.  Captured once by the
     * program compiler and restored into any engine that installs the
     * matching heap image (CompiledProgram / Engine::load).
     */
    struct Snapshot
    {
        std::uint32_t cursor = kCodeBase;
        std::map<std::uint32_t, std::vector<std::uint32_t>> clauses;
    };

    Snapshot snapshot() const { return Snapshot{_cursor, _clauses}; }

    /**
     * Restore a snapshot.  The query counter restarts at zero so the
     * first query compiled afterwards names its predicate `$query1`,
     * exactly as on a freshly consulted engine - part of the
     * byte-identity contract of the warm-engine path.
     */
    void
    restore(const Snapshot &s)
    {
        _cursor = s.cursor;
        _clauses = s.clauses;
        _queryCounter = 0;
        _exprSkel = false;
    }

  private:
    struct VarInfo
    {
        int count = 0;
        bool inSkel = false;
        bool pinned = false;
        bool global = false;
        bool isVoid = false;
        bool introduced = false;  ///< first occurrence already emitted
        std::uint16_t slot = 0;
    };

    using VarMap = std::map<std::string, VarInfo>;

    void emit(const TaggedWord &w);
    std::uint32_t here() const { return _cursor; }

    void compilePredicate(const PredId &id,
                          const std::vector<Clause> &clauses);
    std::uint32_t compileClause(const Clause &clause, VarMap &vars);

    /** First-argument class of the clause at @p clause_addr: one of
     *  the kIdxSlot* constants, or 0 for a variable head argument.
     *  @p key receives the atom/int/functor key for keyed classes. */
    int clauseKeySlot(std::uint32_t clause_addr,
                      std::uint32_t *key) const;

    /** Emit the index blocks for a predicate whose clause addresses
     *  are @p addrs and whose linear table is at @p linear_table.
     *  @return the index root address, or 0 when no clause has a
     *  constant first-argument key (indexing would filter nothing). */
    std::uint32_t emitIndex(const std::vector<std::uint32_t> &addrs,
                            std::uint32_t linear_table);

    /** Occurrence analysis over one clause. */
    void analyze(const Clause &clause, VarMap &vars) const;
    void analyzeTerm(const TermPtr &t, bool in_skel, bool in_arith,
                     VarMap &vars) const;
    static void assignSlots(VarMap &vars, std::uint32_t &nlocals,
                            std::uint32_t &nglobals);

    /** True when argument @p i of builtin @p b is an arithmetic
     *  expression position (evaluated, never instantiated). */
    static bool exprPosition(int builtin, std::size_t i);

    /** True when @p t contains no variables. */
    static bool groundTerm(const TermPtr &t);

    /** Emit a skeleton for @p t; @return its heap address. */
    std::uint32_t emitSkeleton(const TermPtr &t, VarMap &vars);
    TaggedWord skeletonElement(const TermPtr &t, VarMap &vars);

    void emitHeadArg(const TermPtr &arg, VarMap &vars);
    void emitGoalArgs(const TermPtr &goal, VarMap &vars);
    bool packable(const TermPtr &arg, const VarMap &vars) const;
    std::uint32_t packOperand(const TermPtr &arg, VarMap &vars);

    HeapStore *_mem;
    SymbolTable *_syms;
    CompileOptions _opts;
    std::uint32_t _cursor = kCodeBase;
    /** All clause addresses per functor, across compile() calls, so
     *  incremental consulting appends instead of replacing. */
    std::map<std::uint32_t, std::vector<std::uint32_t>> _clauses;
    std::uint64_t _queryCounter = 0;
    /** True while emitting an arithmetic-expression skeleton (local
     *  variable slots are then permitted in SkelVar elements). */
    bool _exprSkel = false;
};

} // namespace kl0
} // namespace psi

#endif // PSI_KL0_CODEGEN_HPP
