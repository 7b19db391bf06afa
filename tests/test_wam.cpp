/**
 * @file
 * Baseline (compiled-code) engine tests: compilation shape, clause
 * indexing behaviour, control, and the cost model.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "baseline/wam_machine.hpp"
#include "kl0/compiled_program.hpp"
#include "programs/registry.hpp"

#ifndef PSI_GOLDEN_DIR
#error "PSI_GOLDEN_DIR must name tests/golden"
#endif

using namespace psi;
using namespace psi::baseline;

namespace {

std::vector<std::string>
solutions(const std::string &program, const std::string &query,
          int max = 50)
{
    WamEngine eng;
    eng.consult(program);
    interp::RunLimits lim;
    lim.maxSolutions = max;
    auto r = eng.solve(query, lim);
    std::vector<std::string> out;
    for (const auto &s : r.solutions) {
        std::string line;
        for (const auto &kv : s.bindings) {
            if (!line.empty())
                line += " ";
            line += kv.first + "=" + kv.second->canonicalStr();
        }
        out.push_back(line.empty() ? "yes" : line);
    }
    return out;
}

/** Count occurrences of @p op in the clause code of name/arity. */
int
countOps(WamEngine &eng, const std::string &name,
         std::uint32_t arity, WOp op)
{
    const CompiledPred *pred =
        eng.compiler().predicate(eng.symbols().functor(name, arity));
    EXPECT_NE(pred, nullptr);
    int n = 0;
    for (const auto &cl : pred->clauses) {
        // Scan forward to the clause-terminating control transfer.
        for (std::size_t i = cl.entry;
             i < eng.compiler().code().size(); ++i) {
            const WInstr &w = eng.compiler().code()[i];
            if (w.op == op)
                ++n;
            if (w.op == WOp::Proceed || w.op == WOp::Execute ||
                w.op == WOp::Halt) {
                break;
            }
        }
    }
    return n;
}

/**
 * One line of tests/golden/wam_counters.txt: a registry workload run
 * as runOnBaseline runs it, with every CostCounters field.
 */
std::string
counterLine(const programs::BenchProgram &p)
{
    WamEngine eng;
    eng.consult(p.source);
    const interp::RunResult r = eng.solve(p.query);
    const CostCounters &c = eng.counters();

    std::string answers;
    for (const auto &s : r.solutions)
        answers += s.str() + '\n';
    answers += r.output;
    char hash[17];
    std::snprintf(hash, sizeof hash, "%016llx",
                  static_cast<unsigned long long>(
                      kl0::CompiledProgram::hashSource(answers)));

    std::ostringstream os;
    os << p.id << " status=" << interp::runStatusName(r.status)
       << " inferences=" << r.inferences << " steps=" << r.steps
       << " time_ns=" << r.timeNs
       << " solutions=" << r.solutions.size() << " answers=" << hash
       << " ops=";
    for (std::size_t i = 0; i < c.op.size(); ++i)
        os << (i > 0 ? "/" : "") << c.op[i];
    os << " tries=" << c.tries << " retries=" << c.retries
       << " trusts=" << c.trusts << " indexes=" << c.indexes
       << " unify_nodes=" << c.unifyNodes << " derefs=" << c.derefs
       << " trail_ops=" << c.trailOps
       << " builtin_calls=" << c.builtinCalls
       << " meta_calls=" << c.metaCalls
       << " arith_nodes=" << c.arithNodes
       << " write_nodes=" << c.writeNodes;
    return os.str();
}

} // namespace

TEST(WamCompile, FactIsGetProceed)
{
    WamEngine eng;
    eng.consult("color(red).");
    EXPECT_EQ(countOps(eng, "color", 1, WOp::GetConstant), 1);
    EXPECT_EQ(countOps(eng, "color", 1, WOp::Proceed), 1);
    EXPECT_EQ(countOps(eng, "color", 1, WOp::Allocate), 0);
}

TEST(WamCompile, LastCallOptimized)
{
    WamEngine eng;
    eng.consult("p :- q. q.");
    EXPECT_EQ(countOps(eng, "p", 0, WOp::Execute), 1);
    EXPECT_EQ(countOps(eng, "p", 0, WOp::Call), 0);
    EXPECT_EQ(countOps(eng, "p", 0, WOp::Allocate), 0);
}

TEST(WamCompile, EnvironmentOnlyWhenNeeded)
{
    WamEngine eng;
    eng.consult("two :- a, b. a. b.");
    EXPECT_EQ(countOps(eng, "two", 0, WOp::Allocate), 1);
    EXPECT_EQ(countOps(eng, "two", 0, WOp::Deallocate), 1);
    EXPECT_EQ(countOps(eng, "two", 0, WOp::Call), 1);
    EXPECT_EQ(countOps(eng, "two", 0, WOp::Execute), 1);
}

TEST(WamCompile, PermanentVariablesUseY)
{
    WamEngine eng;
    eng.consult("p(X, Y) :- q(X), r(Y). q(_). r(_).");
    // Y survives the first call: it must be a permanent variable.
    EXPECT_GE(countOps(eng, "p", 2, WOp::GetVariableY), 1);
}

TEST(WamCompile, TemporariesStayInX)
{
    WamEngine eng;
    eng.consult("p(X) :- q(X). q(_).");
    EXPECT_EQ(countOps(eng, "p", 1, WOp::GetVariableY), 0);
}

TEST(WamCompile, ListHeadUsesGetListStream)
{
    WamEngine eng;
    eng.consult("first([H|_], H).");
    EXPECT_EQ(countOps(eng, "first", 2, WOp::GetList), 1);
    EXPECT_GE(countOps(eng, "first", 2, WOp::UnifyVariableX), 1);
    EXPECT_EQ(countOps(eng, "first", 2, WOp::UnifyVoid), 1);
}

TEST(WamCompile, NestedStructureBreadthFirst)
{
    WamEngine eng;
    eng.consult("deep(f(g(1))).");
    EXPECT_EQ(countOps(eng, "deep", 1, WOp::GetStruct), 2);
}

TEST(WamCompile, CutCompilation)
{
    WamEngine eng;
    eng.consult("neck(X) :- !, q(X). late(X) :- q(X), !, r(X). "
                "q(_). r(_).");
    EXPECT_EQ(countOps(eng, "neck", 1, WOp::NeckCut), 1);
    EXPECT_EQ(countOps(eng, "late", 1, WOp::GetLevel), 1);
    EXPECT_EQ(countOps(eng, "late", 1, WOp::CutY), 1);
}

TEST(WamIndex, FirstArgumentIndexingSkipsChoicePoints)
{
    WamEngine eng;
    eng.consult("t(a, 1). t(b, 2). t(c, 3).");
    auto r = eng.solve("t(b, X)");
    ASSERT_TRUE(r.succeeded());
    // A bound, discriminating first argument: no choice point.
    EXPECT_EQ(eng.counters().tries, 0u);
    EXPECT_EQ(eng.counters().indexes, 1u);
}

TEST(WamIndex, UnboundFirstArgTriesAll)
{
    WamEngine eng;
    eng.consult("t(a, 1). t(b, 2). t(c, 3).");
    interp::RunLimits lim;
    lim.maxSolutions = 10;
    auto r = eng.solve("t(K, V)", lim);
    EXPECT_EQ(r.solutions.size(), 3u);
    EXPECT_GE(eng.counters().tries, 1u);
}

TEST(WamIndex, StructKeyDiscriminates)
{
    WamEngine eng;
    eng.consult("s(f(1), yes). s(g(W), no(W)).");
    auto r = eng.solve("s(g(9), X)");
    ASSERT_TRUE(r.succeeded());
    EXPECT_EQ(r.solutions[0].bindings.at("X")->str(), "no(9)");
    EXPECT_EQ(eng.counters().tries, 0u);
}

TEST(WamIndex, ConstKeyMismatchFailsFast)
{
    WamEngine eng;
    eng.consult("u(a). u(b).");
    auto r = eng.solve("u(zzz)");
    EXPECT_FALSE(r.succeeded());
    EXPECT_EQ(eng.counters().tries, 0u);
}

TEST(WamControl, EnumerationMatchesSourceOrder)
{
    auto v = solutions("w(b). w(a). w(c).", "w(X)");
    ASSERT_EQ(v.size(), 3u);
    EXPECT_EQ(v[0], "X=b");
}

TEST(WamControl, CutSemantics)
{
    auto v = solutions("m(1) :- !. m(2).", "m(X)");
    ASSERT_EQ(v.size(), 1u);
    EXPECT_EQ(v[0], "X=1");
}

TEST(WamControl, NegationAndIfThenElse)
{
    EXPECT_EQ(solutions("", "\\+ 1 > 2").size(), 1u);
    EXPECT_TRUE(solutions("", "\\+ 1 < 2").empty());
    auto v = solutions("", "(2 > 1 -> X = a ; X = b)");
    ASSERT_EQ(v.size(), 1u);
    EXPECT_EQ(v[0], "X=a");
}

TEST(WamControl, IncrementalConsultAppends)
{
    WamEngine eng;
    eng.consult("pick(1).");
    eng.consult("pick(2).");
    interp::RunLimits lim;
    lim.maxSolutions = 10;
    auto r = eng.solve("pick(X)", lim);
    EXPECT_EQ(r.solutions.size(), 2u);
}

TEST(WamControl, DeepRecursion)
{
    auto v = solutions(
        "count(0). count(N) :- N > 0, N1 is N - 1, count(N1).",
        "count(30000)", 1);
    EXPECT_EQ(v.size(), 1u);
}

TEST(WamControl, StepLimit)
{
    WamEngine eng;
    eng.consult("spin :- spin.");
    interp::RunLimits lim;
    lim.maxSteps = 5000;
    auto r = eng.solve("spin", lim);
    EXPECT_EQ(r.status, interp::RunStatus::StepLimit);
    // The limit is checked before each instruction: the run stops
    // one instruction past it, with the model time of exactly those.
    EXPECT_EQ(r.steps, 5001u);
    EXPECT_EQ(r.timeNs, 14003600u);
}

/**
 * A choice point's saved A registers outlive the choice points
 * created and cut above it.  outer/3 is retried after neck/1's choice
 * point was cut by a neck cut, and trusted after late/1's was cut by
 * a cut after a call; each clause then sees the arguments of the
 * call.  `\=` runs once with no choice point (it pushes a temporary
 * one) and once under probe/2's open choice point; both undo their
 * bindings.
 */
TEST(WamControl, ArgumentRegistersSurviveInnerCuts)
{
    WamEngine eng;
    eng.consult(
        "neck(_) :- !.\n"
        "neck(_).\n"
        "late(X) :- t(X), !.\n"
        "late(_).\n"
        "t(_).\n"
        "outer(_, _, _) :- neck(z), fail.\n"
        "outer(_, _, _) :- late(z), fail.\n"
        "outer(A, B, C) :- C = r(A, B).\n"
        "probe(V, R) :- f(V, b) \\= f(a, c), V = v, R = first.\n"
        "probe(_, second).\n");
    EXPECT_EQ(countOps(eng, "neck", 1, WOp::NeckCut), 1);
    EXPECT_EQ(countOps(eng, "late", 1, WOp::CutY), 1);

    auto r = eng.solve("f(W, b) \\= f(a, c), W = w, probe(V, P), "
                       "outer(a, f(b), R)");
    ASSERT_TRUE(r.succeeded());
    const auto &b = r.solutions[0].bindings;
    EXPECT_EQ(b.at("W")->str(), "w");
    EXPECT_EQ(b.at("V")->str(), "v");
    EXPECT_EQ(b.at("P")->str(), "first");
    EXPECT_EQ(b.at("R")->str(), "r(a,f(b))");
    // probe, outer, neck and late each push one choice point; outer's
    // is retried once and trusted once, the others are cut.
    const CostCounters &c = eng.counters();
    EXPECT_EQ(c.tries, 4u);
    EXPECT_EQ(c.retries, 1u);
    EXPECT_EQ(c.trusts, 1u);
}

TEST(WamBuiltins, ArithmeticAndComparison)
{
    EXPECT_EQ(solutions("", "X is 3 * 4 - 2")[0], "X=10");
    EXPECT_EQ(solutions("", "X is -9 mod 4")[0], "X=3");
    EXPECT_TRUE(solutions("", "2 + 2 =:= 4").size() == 1);
    EXPECT_TRUE(solutions("", "1 > 2").empty());
}

TEST(WamBuiltins, TermInspection)
{
    EXPECT_EQ(solutions("", "functor(f(a,b), F, A)")[0], "A=2 F=f");
    EXPECT_EQ(solutions("", "arg(1, f(x,y), V)")[0], "V=x");
    EXPECT_EQ(solutions("", "g(7) =.. L")[0], "L=[g,7]");
    EXPECT_EQ(solutions("", "T =.. [h, 1, 2]")[0], "T=h(1,2)");
}

TEST(WamBuiltins, Vectors)
{
    auto v = solutions(
        "", "vector_new(3, V), vector_set(V, 1, 5), "
            "vector_get(V, 1, X), vector_size(V, N), X = X, N = N");
    ASSERT_EQ(v.size(), 1u);
    EXPECT_NE(v[0].find("X=5"), std::string::npos);
    EXPECT_NE(v[0].find("N=3"), std::string::npos);
}

TEST(WamBuiltins, WriteOutput)
{
    WamEngine eng;
    eng.consult("go :- write(f([1, 2], x)), nl.");
    auto r = eng.solve("go");
    ASSERT_TRUE(r.succeeded());
    EXPECT_EQ(r.output, "f([1,2],x)\n");
}

TEST(WamCost, TimeGrowsWithWork)
{
    WamEngine eng;
    eng.consult("len([], 0). len([_|T], N) :- len(T, N0), N is N0 + 1.");
    auto r1 = eng.solve("len([1,2,3], N)");
    auto t1 = r1.timeNs;
    auto r2 = eng.solve("len([1,2,3,4,5,6,7,8,9,10], N)");
    EXPECT_GT(r2.timeNs, t1);
    EXPECT_GT(r1.timeNs, 0u);
}

TEST(WamCost, CountersFeedModel)
{
    WamEngine eng;
    eng.consult("p(X) :- X is 1 + 1.");
    auto r = eng.solve("p(X)");
    ASSERT_TRUE(r.succeeded());
    const CostCounters &c = eng.counters();
    EXPECT_GT(c.totalInstr(), 0u);
    EXPECT_GE(c.arithNodes, 3u);  // the +, and both leaves
    EXPECT_EQ(r.timeNs, c.timeNs(CostModel::dec2060()));
}

/**
 * Every counter of every registry workload on the baseline is pinned
 * in tests/golden/wam_counters.txt: Table 1's DEC column is computed
 * from them, so no engine change may move one unnoticed.
 */
TEST(WamCost, CountersMatchGolden)
{
    std::ifstream in(PSI_GOLDEN_DIR "/wam_counters.txt");
    std::map<std::string, std::string> golden;
    std::string line;
    while (std::getline(in, line)) {
        if (!line.empty() && line[0] != '#')
            golden[line.substr(0, line.find(' '))] = line;
    }
    EXPECT_EQ(golden.size(), programs::allPrograms().size())
        << "tests/golden/wam_counters.txt needs one line per registry "
           "workload";

    for (const auto &p : programs::allPrograms()) {
        const std::string actual = counterLine(p);
        auto it = golden.find(p.id);
        if (it == golden.end() || it->second != actual) {
            ADD_FAILURE() << "WAM counters moved; actual line:\n"
                          << actual;
        }
    }
}
