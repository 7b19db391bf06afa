#include <gtest/gtest.h>

#include "kl0/builtin_defs.hpp"
#include "kl0/codegen.hpp"
#include "kl0/normalize.hpp"
#include "kl0/reader.hpp"
#include "mem/memory_system.hpp"

using namespace psi;
using namespace psi::kl0;

namespace {

/** The pre-psiindex image layout: linear clause chains and generic
 *  CallBuiltin words.  The layout-pin tests below address clause and
 *  directory words directly, so they compile with first-argument
 *  indexing and builtin specialization off; the psiindex tests at the
 *  end of this file cover the indexed layout explicitly. */
constexpr CompileOptions kPlain = CompileOptions::psiAsMeasured();

/** Compile @p text and return (mem, syms-owned-elsewhere) helpers. */
struct Compiled
{
    MemorySystem mem;
    SymbolTable syms;
    CodeGen gen;

    explicit Compiled(const std::string &text,
                      CompileOptions opts = kPlain)
        : gen(mem, syms, opts)
    {
        Program p;
        p.consult(text);
        gen.compile(normalize(p));
    }

    TaggedWord
    at(std::uint32_t addr)
    {
        return mem.peek(LogicalAddr(Area::Heap, addr));
    }

    /** Address of the clause table of name/arity via the directory. */
    std::uint32_t
    table(const std::string &name, std::uint32_t arity)
    {
        std::uint32_t f = syms.functor(name, arity);
        TaggedWord dir = at(kDirBase + f);
        EXPECT_EQ(dir.tag, Tag::ClauseRef);
        return dir.data;
    }

    /** Address of clause @p i of name/arity. */
    std::uint32_t
    clause(const std::string &name, std::uint32_t arity,
           std::uint32_t i)
    {
        TaggedWord w = at(table(name, arity) + i);
        EXPECT_EQ(w.tag, Tag::ClauseRef);
        return w.data;
    }
};

} // namespace

TEST(Codegen, DirectoryAndClauseTable)
{
    Compiled c("f(1). f(2). f(3).");
    std::uint32_t t = c.table("f", 1);
    EXPECT_EQ(c.at(t).tag, Tag::ClauseRef);
    EXPECT_EQ(c.at(t + 1).tag, Tag::ClauseRef);
    EXPECT_EQ(c.at(t + 2).tag, Tag::ClauseRef);
    EXPECT_EQ(c.at(t + 3).tag, Tag::EndClauses);
}

TEST(Codegen, UndefinedPredicateDirectoryIsUndef)
{
    Compiled c("f(1).");
    std::uint32_t g = c.syms.functor("undefined_thing", 2);
    EXPECT_EQ(c.at(kDirBase + g).tag, Tag::Undef);
}

TEST(Codegen, ClauseHeaderFields)
{
    // X is local (head + two top-level goal occurrences), L is
    // global (occurs inside a list).
    Compiled c("p(X, [L]) :- q(X), r(X, L).");
    TaggedWord hdr = c.at(c.clause("p", 2, 0));
    ASSERT_EQ(hdr.tag, Tag::ClauseHeader);
    EXPECT_EQ(hdr.data & 0xff, 2u);            // arity
    EXPECT_EQ((hdr.data >> 8) & 0xff, 1u);     // nlocals (X)
    EXPECT_EQ((hdr.data >> 16) & 0xff, 1u);    // nglobals (L)
}

TEST(Codegen, FactBodyIsProceed)
{
    Compiled c("a.");
    std::uint32_t addr = c.clause("a", 0, 0);
    EXPECT_EQ(c.at(addr).tag, Tag::ClauseHeader);
    EXPECT_EQ(c.at(addr + 1).tag, Tag::Proceed);
}

TEST(Codegen, HeadDescriptorKinds)
{
    Compiled c("p(foo, 42, [], X, _, [a|T]) :- q(X, T).");
    std::uint32_t addr = c.clause("p", 6, 0);
    EXPECT_EQ(c.at(addr + 1).tag, Tag::HConst);
    EXPECT_EQ(c.at(addr + 2).tag, Tag::HInt);
    EXPECT_EQ(c.at(addr + 2).data, 42u);
    EXPECT_EQ(c.at(addr + 3).tag, Tag::HNil);
    EXPECT_EQ(c.at(addr + 4).tag, Tag::HVarF);
    EXPECT_EQ(c.at(addr + 5).tag, Tag::HVoid);
    EXPECT_EQ(c.at(addr + 6).tag, Tag::HList);
}

TEST(Codegen, RepeatedHeadVarIsHVarS)
{
    Compiled c("same(X, X).");
    std::uint32_t addr = c.clause("same", 2, 0);
    EXPECT_EQ(c.at(addr + 1).tag, Tag::HVarF);
    EXPECT_EQ(c.at(addr + 2).tag, Tag::HVarS);
}

TEST(Codegen, GroundHeadArgShared)
{
    Compiled c("conf(point(1,2)).");
    std::uint32_t addr = c.clause("conf", 1, 0);
    TaggedWord d = c.at(addr + 1);
    EXPECT_EQ(d.tag, Tag::HGroundStruct);
    // The shared skeleton is a well-formed runtime structure.
    LogicalAddr skel = LogicalAddr::unpack(d.data);
    EXPECT_EQ(skel.area, Area::Heap);
    EXPECT_EQ(c.mem.peek(skel).tag, Tag::Functor);
}

TEST(Codegen, NonGroundHeadArgIsSkeleton)
{
    Compiled c("p(point(X, 2)) :- q(X).");
    std::uint32_t addr = c.clause("p", 1, 0);
    EXPECT_EQ(c.at(addr + 1).tag, Tag::HStruct);
}

TEST(Codegen, LastUserCallMarked)
{
    Compiled c("p :- q, r. q. r.");
    std::uint32_t addr = c.clause("p", 0, 0);
    EXPECT_EQ(c.at(addr + 1).tag, Tag::Call);
    EXPECT_EQ(c.at(addr + 2).tag, Tag::CallLast);
    EXPECT_EQ(c.at(addr + 3).tag, Tag::Proceed);
}

TEST(Codegen, BuiltinCallEmitted)
{
    Compiled c("p(X) :- X = 3.");
    std::uint32_t addr = c.clause("p", 1, 0);
    TaggedWord w = c.at(addr + 2);
    EXPECT_EQ(w.tag, Tag::CallBuiltin);
    EXPECT_EQ(w.data, static_cast<std::uint32_t>(Builtin::Unify));
}

TEST(Codegen, PackedArgsForSmallOperands)
{
    Compiled c("p(X, Y) :- q(X, Y, 3, _).  q(_,_,_,_).");
    std::uint32_t addr = c.clause("p", 2, 0);
    // Header, HVarF, HVarF, CallLast (q is the final goal),
    // PackedArgs.
    EXPECT_EQ(c.at(addr + 3).tag, Tag::CallLast);
    TaggedWord packed = c.at(addr + 4);
    ASSERT_EQ(packed.tag, Tag::PackedArgs);
    // Operand 2 is the small integer 3.
    std::uint32_t op2 = (packed.data >> 16) & 0xff;
    EXPECT_EQ(op2 >> 5, kPackSmallInt);
    EXPECT_EQ(op2 & 0x1f, 3u);
    // Operand 3 is a void.
    std::uint32_t op3 = (packed.data >> 24) & 0xff;
    EXPECT_EQ(op3 >> 5, kPackVoid);
}

TEST(Codegen, AtomArgsNotPacked)
{
    Compiled c("p :- q(foo). q(_).");
    std::uint32_t addr = c.clause("p", 0, 0);
    EXPECT_EQ(c.at(addr + 1).tag, Tag::CallLast);
    EXPECT_EQ(c.at(addr + 2).tag, Tag::AConst);
}

TEST(Codegen, ArithExpressionSkeleton)
{
    Compiled c("p(X, Y) :- Y is X + 1.");
    std::uint32_t addr = c.clause("p", 2, 0);
    // Header, HVarF, HVarF, CallBuiltin(is), args.
    EXPECT_EQ(c.at(addr + 3).tag, Tag::CallBuiltin);
    EXPECT_EQ(c.at(addr + 4).tag, Tag::AVar);   // Y
    EXPECT_EQ(c.at(addr + 5).tag, Tag::AExpr);  // X + 1
    // X stays local: it never needs a global cell.
    TaggedWord hdr = c.at(addr);
    EXPECT_EQ((hdr.data >> 16) & 0xff, 0u);  // nglobals == 0
}

TEST(Codegen, GroundGoalArgShared)
{
    Compiled c("p :- q([1,2,3]). q(_).");
    std::uint32_t addr = c.clause("p", 0, 0);
    EXPECT_EQ(c.at(addr + 2).tag, Tag::AGroundList);
}

TEST(Codegen, QueryPinsNamedVars)
{
    MemorySystem mem;
    SymbolTable syms;
    CodeGen gen(mem, syms);
    QueryCode qc = gen.compileQuery(parseTerm("foo(X, _, Y)"));
    EXPECT_EQ(qc.vars.count("X"), 1u);
    EXPECT_EQ(qc.vars.count("Y"), 1u);
    EXPECT_EQ(qc.vars.size(), 2u);
}

TEST(Codegen, ArityLimitEnforced)
{
    Program p;
    p.consult("big(A1,A2,A3,A4,A5,A6,A7,A8,A9,A10,A11,A12,A13,A14,"
              "A15,A16,A17) :- true.");
    MemorySystem mem;
    SymbolTable syms;
    CodeGen gen(mem, syms);
    EXPECT_THROW(gen.compile(normalize(p)), FatalError);
}

// ----- psiindex: first-argument index layout ---------------------------

namespace {

/** Directory word of name/arity, whatever its tag. */
TaggedWord
dirWord(Compiled &c, const std::string &name, std::uint32_t arity)
{
    return c.at(kDirBase + c.syms.functor(name, arity));
}

/** Follow a root-slot word to its ClauseRef chain for @p key. */
std::uint32_t
chainAt(Compiled &c, TaggedWord slot_w, Tag key_tag, std::uint32_t key)
{
    if (slot_w.tag == Tag::ClauseRef)
        return slot_w.data;
    EXPECT_EQ(slot_w.tag, Tag::IndexHash);
    std::uint32_t block = slot_w.data;
    std::uint32_t nslots = c.at(block).data;
    std::uint32_t h = indexKeyHash(key) & (nslots - 1);
    for (;;) {
        TaggedWord kw = c.at(block + 2 + 2 * h);
        if (kw.tag == Tag::Undef)
            return c.at(block + 1).data;  // miss: var chain
        if (kw.tag == key_tag && kw.data == key)
            return c.at(block + 3 + 2 * h).data;
        h = (h + 1) & (nslots - 1);
    }
}

/** Clause addresses of the chain at @p t, in order. */
std::vector<std::uint32_t>
chainClauses(Compiled &c, std::uint32_t t)
{
    std::vector<std::uint32_t> out;
    for (; c.at(t).tag == Tag::ClauseRef; ++t)
        out.push_back(c.at(t).data);
    EXPECT_EQ(c.at(t).tag, Tag::EndClauses);
    return out;
}

} // namespace

TEST(Codegen, IndexedDirectoryPointsAtRoot)
{
    Compiled c("f(1). f(2). f(3).", CompileOptions{});
    TaggedWord dir = dirWord(c, "f", 1);
    ASSERT_EQ(dir.tag, Tag::IndexRef);
    // Root word 0 holds the linear fallback table, which still lists
    // every clause in source order.
    TaggedWord root0 = c.at(dir.data);
    ASSERT_EQ(root0.tag, Tag::IndexRoot);
    EXPECT_EQ(chainClauses(c, root0.data).size(), 3u);
}

TEST(Codegen, IndexHashSelectsTheMatchingClause)
{
    Compiled c("f(1). f(2). f(3).", CompileOptions{});
    TaggedWord dir = dirWord(c, "f", 1);
    ASSERT_EQ(dir.tag, Tag::IndexRef);
    std::uint32_t root = dir.data;
    auto linear = chainClauses(c, c.at(root).data);

    // Each integer key's bucket holds exactly its own clause.
    for (std::uint32_t k = 1; k <= 3; ++k) {
        auto bucket = chainClauses(
            c, chainAt(c, c.at(root + kIdxSlotInt), Tag::Int, k));
        ASSERT_EQ(bucket.size(), 1u) << "key " << k;
        EXPECT_EQ(bucket[0], linear[k - 1]) << "key " << k;
    }
    // A key no clause mentions falls through to the (empty) var chain.
    auto miss = chainClauses(
        c, chainAt(c, c.at(root + kIdxSlotInt), Tag::Int, 99));
    EXPECT_TRUE(miss.empty());
    // The atom class has no keyed clause: it shares the var chain.
    auto atoms = chainClauses(c, chainAt(c, c.at(root + kIdxSlotAtom),
                                         Tag::Atom, 0));
    EXPECT_TRUE(atoms.empty());
}

TEST(Codegen, VarHeadedClausesAppearInEveryChain)
{
    Compiled c("g(a, 1). g(X, 2). g(b, 3). g([], 4). g([_|_], 5).",
               CompileOptions{});
    TaggedWord dir = dirWord(c, "g", 2);
    ASSERT_EQ(dir.tag, Tag::IndexRef);
    std::uint32_t root = dir.data;
    auto linear = chainClauses(c, c.at(root).data);
    ASSERT_EQ(linear.size(), 5u);

    std::uint32_t key_a = c.syms.atom("a");
    auto a_chain = chainClauses(
        c, chainAt(c, c.at(root + kIdxSlotAtom), Tag::Atom, key_a));
    // g(a,1) plus the var clause g(X,2), in source order.
    ASSERT_EQ(a_chain.size(), 2u);
    EXPECT_EQ(a_chain[0], linear[0]);
    EXPECT_EQ(a_chain[1], linear[1]);

    auto nil_chain =
        chainClauses(c, c.at(root + kIdxSlotNil).data);
    ASSERT_EQ(nil_chain.size(), 2u);
    EXPECT_EQ(nil_chain[0], linear[1]);  // var clause first in order
    EXPECT_EQ(nil_chain[1], linear[3]);

    auto list_chain =
        chainClauses(c, c.at(root + kIdxSlotList).data);
    ASSERT_EQ(list_chain.size(), 2u);
    EXPECT_EQ(list_chain[0], linear[1]);
    EXPECT_EQ(list_chain[1], linear[4]);
}

TEST(Codegen, AllVarHeadsEmitNoIndex)
{
    // No clause has a constant key: the directory stays a plain
    // linear ClauseRef table.
    Compiled c("h(X, 1). h(Y, 2).", CompileOptions{});
    EXPECT_EQ(dirWord(c, "h", 2).tag, Tag::ClauseRef);
}

TEST(Codegen, SingleClauseAndZeroArityStayLinear)
{
    Compiled c("one(a). z :- one(X). z.", CompileOptions{});
    EXPECT_EQ(dirWord(c, "one", 1).tag, Tag::ClauseRef);
    // z/0 has two clauses but no first argument to index.
    EXPECT_EQ(dirWord(c, "z", 0).tag, Tag::ClauseRef);
}

TEST(Codegen, StructHeadsIndexOnPrincipalFunctor)
{
    Compiled c("s(p(_), 1). s(q(_, _), 2). s(p(_), 3).",
               CompileOptions{});
    TaggedWord dir = dirWord(c, "s", 2);
    ASSERT_EQ(dir.tag, Tag::IndexRef);
    std::uint32_t root = dir.data;
    auto linear = chainClauses(c, c.at(root).data);

    std::uint32_t fp = c.syms.functor("p", 1);
    auto p_chain = chainClauses(
        c, chainAt(c, c.at(root + kIdxSlotStruct), Tag::Functor, fp));
    ASSERT_EQ(p_chain.size(), 2u);
    EXPECT_EQ(p_chain[0], linear[0]);
    EXPECT_EQ(p_chain[1], linear[2]);

    std::uint32_t fq = c.syms.functor("q", 2);
    auto q_chain = chainClauses(
        c, chainAt(c, c.at(root + kIdxSlotStruct), Tag::Functor, fq));
    ASSERT_EQ(q_chain.size(), 1u);
    EXPECT_EQ(q_chain[0], linear[1]);
}

TEST(Codegen, SpecializedBuiltinOpcodes)
{
    Compiled c("p(X, Y) :- Y is X + 1, Y < 10.", CompileOptions{});
    std::uint32_t addr = c.clause("p", 2, 0);
    // Header, HVarF, HVarF, CallIs(is), args, CallCmp(<), args.
    EXPECT_EQ(c.at(addr + 3).tag, Tag::CallIs);
    EXPECT_EQ(c.at(addr + 3).data,
              static_cast<std::uint32_t>(Builtin::Is));
    EXPECT_EQ(c.at(addr + 6).tag, Tag::CallCmp);
    EXPECT_EQ(c.at(addr + 6).data,
              static_cast<std::uint32_t>(Builtin::Lt));
}

TEST(Codegen, UnindexedImageHasNoNewTags)
{
    // The option-off image must not contain any psiindex tag, so
    // pre-psiindex images are reproduced bit for bit.
    Compiled c("f(1). f(2). f(3). p(X, Y) :- Y is X + 1.");
    for (std::uint32_t a = kCodeBase; a < c.gen.heapTop(); ++a) {
        Tag t = c.at(a).tag;
        EXPECT_TRUE(t != Tag::IndexRef && t != Tag::IndexRoot &&
                    t != Tag::IndexHash && t != Tag::CallIs &&
                    t != Tag::CallCmp)
            << "word " << a;
    }
    EXPECT_EQ(dirWord(c, "f", 1).tag, Tag::ClauseRef);
}
