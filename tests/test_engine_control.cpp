/**
 * @file
 * Control behaviour of the PSI interpreter: backtracking, cut,
 * negation, disjunction, recursion depth, tail-call behaviour, and
 * run limits.
 */

#include <gtest/gtest.h>

#include "fast/fast_engine.hpp"
#include "interp/engine.hpp"
#include "kl0/compiled_program.hpp"

using namespace psi;
using namespace psi::interp;

namespace {

std::vector<std::string>
solutions(const std::string &program, const std::string &query,
          int max = 100)
{
    Engine eng;
    eng.consult(program);
    RunLimits lim;
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

const char *kPick = "pick(1). pick(2). pick(3).";

} // namespace

TEST(EngineControl, EnumerateFacts)
{
    auto v = solutions(kPick, "pick(X)");
    ASSERT_EQ(v.size(), 3u);
    EXPECT_EQ(v[0], "X=1");
    EXPECT_EQ(v[2], "X=3");
}

TEST(EngineControl, CartesianBacktracking)
{
    auto v = solutions(kPick, "pick(A), pick(B)");
    ASSERT_EQ(v.size(), 9u);
    EXPECT_EQ(v[0], "A=1 B=1");
    EXPECT_EQ(v[3], "A=2 B=1");
    EXPECT_EQ(v[8], "A=3 B=3");
}

TEST(EngineControl, RecursiveEnumerationRegression)
{
    // Regression for the globalization-trail bug: recursive choice
    // points must re-read caller arguments correctly on deep retry.
    auto v = solutions(
        "pick(1). pick(2). pick(3).\n"
        "r(0, []).\n"
        "r(N, [C|Cs]) :- N > 0, pick(C), N1 is N - 1, r(N1, Cs).",
        "r(2, L)");
    ASSERT_EQ(v.size(), 9u);
    EXPECT_EQ(v[0], "L=[1,1]");
    EXPECT_EQ(v[8], "L=[3,3]");
}

TEST(EngineControl, AppendEnumeratesSplits)
{
    auto v = solutions(
        "app([], L, L). app([H|T], L, [H|R]) :- app(T, L, R).",
        "app(X, Y, [1,2,3])");
    ASSERT_EQ(v.size(), 4u);
    EXPECT_EQ(v[0], "X=[] Y=[1,2,3]");
    EXPECT_EQ(v[3], "X=[1,2,3] Y=[]");
}

TEST(EngineControl, BindingsUndoneAcrossAlternatives)
{
    auto v = solutions("q(X) :- X = 1, fail.\nq(2).", "q(V)");
    ASSERT_EQ(v.size(), 1u);
    EXPECT_EQ(v[0], "V=2");
}

TEST(EngineControl, CutPrunesClauseAlternatives)
{
    auto v = solutions("m(1) :- !. m(2). m(3).", "m(X)");
    ASSERT_EQ(v.size(), 1u);
    EXPECT_EQ(v[0], "X=1");
}

TEST(EngineControl, CutIsClauseLocal)
{
    // Cut inside m/1 must not prune pick/1 alternatives.
    auto v = solutions(std::string(kPick) + "m(X) :- pick(X), !.",
                       "pick(A), m(B)");
    ASSERT_EQ(v.size(), 3u);  // A enumerates; B committed to 1
    EXPECT_EQ(v[0], "A=1 B=1");
    EXPECT_EQ(v[1], "A=2 B=1");
}

TEST(EngineControl, CutAfterAlternativesTried)
{
    auto v = solutions("t(X) :- X = a. t(X) :- X = b, !. t(c).",
                       "t(X)");
    ASSERT_EQ(v.size(), 2u);
    EXPECT_EQ(v[0], "X=a");
    EXPECT_EQ(v[1], "X=b");
}

TEST(EngineControl, CutFailCombination)
{
    EXPECT_TRUE(solutions("p :- fail. p.", "p").size() == 1);
    EXPECT_TRUE(solutions("p :- !, fail. p.", "p").empty());
}

TEST(EngineControl, NegationAsFailure)
{
    auto ok = solutions(kPick, "\\+ pick(9)");
    EXPECT_EQ(ok.size(), 1u);
    EXPECT_TRUE(solutions(kPick, "\\+ pick(2)").empty());
    // Negation leaves no bindings.
    auto v = solutions(kPick, "\\+ pick(9), pick(X)");
    EXPECT_EQ(v.size(), 3u);
}

TEST(EngineControl, Disjunction)
{
    auto v = solutions("", "(X = 1 ; X = 2 ; X = 3)");
    ASSERT_EQ(v.size(), 3u);
    EXPECT_EQ(v[1], "X=2");
}

TEST(EngineControl, IfThenElseCommitsToCondition)
{
    auto v = solutions(kPick, "(pick(X) -> Y = hit ; Y = miss)");
    ASSERT_EQ(v.size(), 1u);  // condition committed: no enumeration
    EXPECT_EQ(v[0], "X=1 Y=hit");
    auto w = solutions(kPick, "(pick(9) -> Y = hit ; Y = miss)");
    ASSERT_EQ(w.size(), 1u);
    EXPECT_EQ(w[0], "Y=miss");
}

TEST(EngineControl, BareIfThenFailsWithoutElse)
{
    EXPECT_TRUE(solutions("", "(1 > 2 -> X = y)").empty());
    EXPECT_EQ(solutions("", "(1 < 2 -> X = y)")[0], "X=y");
}

TEST(EngineControl, DeepDeterministicRecursion)
{
    auto v = solutions(
        "count(0). count(N) :- N > 0, N1 is N - 1, count(N1).",
        "count(20000)", 1);
    EXPECT_EQ(v.size(), 1u);
}

TEST(EngineControl, TailCallChainRunsLong)
{
    // A long last-call chain must not exhaust the control stack:
    // loop/1 below recurses 50000 times with TRO.
    Engine eng;
    eng.consult("loop(0). loop(N) :- N > 0, N1 is N - 1, loop(N1).");
    auto r = eng.solve("loop(50000)");
    EXPECT_TRUE(r.succeeded());
    EXPECT_EQ(r.status, RunStatus::Ok);
}

TEST(EngineControl, StepLimitStopsRunaway)
{
    Engine eng;
    eng.consult("spin :- spin.");
    RunLimits lim;
    lim.maxSteps = 20000;
    auto r = eng.solve("spin", lim);
    EXPECT_FALSE(r.succeeded());
    EXPECT_EQ(r.status, RunStatus::StepLimit);

    // Fast mode counts dispatches against the same limit.  The
    // deadline is a backstop: a loop that stopped counting them would
    // end in Timeout here instead of hanging the suite.
    fast::FastEngine fe;
    fe.load(kl0::CompiledProgram::compile("spin :- spin."));
    lim.deadlineNs = 10'000'000'000;
    r = fe.solve("spin", lim);
    EXPECT_FALSE(r.succeeded());
    EXPECT_EQ(r.status, RunStatus::StepLimit);
}

TEST(EngineControl, UndefinedPredicateJustFails)
{
    auto v = solutions("p :- no_such_thing.", "p");
    EXPECT_TRUE(v.empty());
}

TEST(EngineControl, MaxSolutionsRespected)
{
    auto v = solutions(kPick, "pick(A), pick(B)", 4);
    EXPECT_EQ(v.size(), 4u);
}

TEST(EngineControl, FirstSolutionOrderIsSourceOrder)
{
    auto v = solutions("w(b). w(a). w(c).", "w(X)");
    ASSERT_EQ(v.size(), 3u);
    EXPECT_EQ(v[0], "X=b");
    EXPECT_EQ(v[1], "X=a");
    EXPECT_EQ(v[2], "X=c");
}

TEST(EngineControl, BacktrackIntoStructureBuilding)
{
    auto v = solutions(
        "mk(1, f(one)). mk(2, f(two)).\n"
        "go(N, T) :- mk(N, T).",
        "go(N, T)");
    ASSERT_EQ(v.size(), 2u);
    EXPECT_EQ(v[0], "N=1 T=f(one)");
    EXPECT_EQ(v[1], "N=2 T=f(two)");
}

TEST(EngineControl, SharedVariableAcrossChoicePoints)
{
    auto v = solutions(kPick, "pick(X), X > 1, pick(Y), Y < X");
    // X=2: Y=1; X=3: Y=1, Y=2.
    ASSERT_EQ(v.size(), 3u);
    EXPECT_EQ(v[0], "X=2 Y=1");
    EXPECT_EQ(v[2], "X=3 Y=2");
}

TEST(EngineControl, FailureDrivenLoopWithVectors)
{
    auto v = solutions(
        std::string(kPick) +
            "count(N) :- vector_new(1, V), "
            "(pick(_), vector_get(V, 0, C0), C1 is C0 + 1, "
            "vector_set(V, 0, C1), fail ; vector_get(V, 0, N)).",
        "count(N)");
    ASSERT_EQ(v.size(), 1u);
    EXPECT_EQ(v[0], "N=3");
}

TEST(EngineControl, IncrementalConsultAppends)
{
    Engine eng;
    eng.consult("pick(1).");
    eng.consult("pick(2). pick(3).");
    RunLimits lim;
    lim.maxSolutions = 10;
    auto r = eng.solve("pick(X)", lim);
    ASSERT_EQ(r.solutions.size(), 3u);
    EXPECT_EQ(r.solutions[0].bindings.at("X")->value(), 1);
    EXPECT_EQ(r.solutions[2].bindings.at("X")->value(), 3);
}

TEST(EngineControl, StatsArePopulated)
{
    Engine eng;
    eng.consult("a. b :- a, a.");
    auto r = eng.solve("b");
    EXPECT_TRUE(r.succeeded());
    EXPECT_EQ(r.inferences, 4u);  // the $query wrapper, b, a, a
    EXPECT_GT(r.steps, 0u);
    EXPECT_GT(r.timeNs, r.steps * 100);
    EXPECT_GT(r.lips(), 0.0);
}
