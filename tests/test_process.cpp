/**
 * @file
 * Multi-process support (paper §2.1): process_call/2 runs an arity-0
 * predicate in another process's stack areas; the heap (and the
 * global registry) is shared; machine state survives the switch; the
 * run's limits hold inside it.
 */

#include <chrono>

#include <gtest/gtest.h>

#include "psi.hpp"

using namespace psi;
using namespace psi::interp;

namespace {

RunResult
run(const std::string &program, const std::string &query, int max = 10)
{
    Engine eng;
    eng.consult(program);
    RunLimits lim;
    lim.maxSolutions = max;
    return eng.solve(query, lim);
}

/** A process_call whose target never returns. */
const char *kSpinInProcess = "spin :- spin.\n"
                             "p :- process_call(1, spin).";

/** The run's deadline and step limit end the query @p solve runs
 *  promptly, though all its work is inside process_call. */
template <class Solve>
void
expectLimitsHold(const char *engine, Solve solve)
{
    RunLimits deadline;
    deadline.deadlineNs = 50'000'000;
    auto t0 = std::chrono::steady_clock::now();
    RunResult r = solve(deadline);
    auto elapsed = std::chrono::steady_clock::now() - t0;
    EXPECT_EQ(r.status, RunStatus::Timeout) << engine;
    EXPECT_LT(elapsed, std::chrono::seconds(1)) << engine;

    RunLimits steps;
    steps.maxSteps = 100'000;
    r = solve(steps);
    EXPECT_EQ(r.status, RunStatus::StepLimit) << engine;
    EXPECT_LT(r.inferences, 200'000u) << engine;
}

} // namespace

TEST(GlobalRegistry, SetAndGetAtomics)
{
    auto r = run("", "global_set(3, hello), global_get(3, V)");
    ASSERT_TRUE(r.succeeded());
    EXPECT_EQ(r.solutions[0].bindings.at("V")->name(), "hello");
}

TEST(GlobalRegistry, UnsetKeyFails)
{
    EXPECT_FALSE(run("", "global_get(7, _)").succeeded());
}

TEST(GlobalRegistry, RejectsNonAtomicValues)
{
    EXPECT_FALSE(run("", "global_set(0, f(x))").succeeded());
    EXPECT_FALSE(run("", "global_set(0, X), X = 1").succeeded());
    EXPECT_FALSE(run("", "global_set(99, a)").succeeded());
}

TEST(GlobalRegistry, SharesVectorHandles)
{
    auto r = run("", "vector_new(3, V), vector_set(V, 1, 42), "
                     "global_set(2, V), global_get(2, W), "
                     "vector_get(W, 1, X)");
    ASSERT_TRUE(r.succeeded());
    EXPECT_EQ(r.solutions[0].bindings.at("X")->value(), 42);
}

TEST(ProcessCall, RunsGoalAndReturns)
{
    auto r = run("svc :- global_set(1, done).",
                 "process_call(1, svc), global_get(1, V)");
    ASSERT_TRUE(r.succeeded());
    EXPECT_EQ(r.solutions[0].bindings.at("V")->name(), "done");
}

TEST(ProcessCall, FailurePropagates)
{
    EXPECT_FALSE(run("svc :- fail.", "process_call(1, svc)")
                     .succeeded());
}

TEST(ProcessCall, IsDeterministic)
{
    // svc has alternatives, but process_call takes only the first
    // solution and leaves no choice points behind.
    auto r = run("svc :- global_set(1, first).\n"
                 "svc :- global_set(1, second).",
                 "process_call(1, svc), global_get(1, V)",
                 10);
    ASSERT_EQ(r.solutions.size(), 1u);
    EXPECT_EQ(r.solutions[0].bindings.at("V")->name(), "first");
}

TEST(ProcessCall, CallerStateSurvivesSwitch)
{
    auto r = run(
        "svc :- global_get(0, Q), vector_set(Q, 0, 9).\n"
        "go(X, Y, L) :- X = f(1, g(2)), L = [a, b, c],\n"
        "    vector_new(2, Q), global_set(0, Q),\n"
        "    process_call(1, svc),\n"
        "    vector_get(Q, 0, Y).",
        "go(X, Y, L)");
    ASSERT_TRUE(r.succeeded());
    EXPECT_EQ(r.solutions[0].bindings.at("X")->str(), "f(1,g(2))");
    EXPECT_EQ(r.solutions[0].bindings.at("Y")->value(), 9);
    EXPECT_EQ(r.solutions[0].bindings.at("L")->str(), "[a,b,c]");
}

TEST(ProcessCall, BacktrackingAcrossProcessCall)
{
    // The caller can still backtrack across a process_call site.
    auto r = run("pick(1). pick(2).\n"
                 "svc.\n"
                 "go(A, B) :- pick(A), process_call(1, svc), pick(B).",
                 "go(A, B)", 10);
    EXPECT_EQ(r.solutions.size(), 4u);
}

TEST(ProcessCall, ServiceUsesOwnStackAreas)
{
    Engine eng;
    eng.consult("svc :- mklist(60, L), len(L, N), N =:= 60.\n"
                "mklist(0, []).\n"
                "mklist(N, [N|T]) :- N > 0, N1 is N - 1, mklist(N1, T).\n"
                "len([], 0).\n"
                "len([_|T], N) :- len(T, N0), N is N0 + 1.");
    auto r = eng.solve("process_call(3, svc)");
    ASSERT_TRUE(r.succeeded());
    // Process 3's global stack lives in its own window: pages beyond
    // the 1 << 24 word boundary of the Global area must be mapped.
    EXPECT_GT(eng.mem().cache().stats().areaAccesses(Area::Global),
              0u);
}

TEST(ProcessCall, RejectsBadArguments)
{
    EXPECT_FALSE(run("svc.", "process_call(0, svc)").succeeded());
    EXPECT_FALSE(run("svc.", "process_call(64, svc)").succeeded());
    EXPECT_FALSE(run("svc.", "process_call(1, f(x))").succeeded());
    EXPECT_FALSE(run("svc.", "process_call(1, no_such)").succeeded());
}

TEST(ProcessCall, NestingRefused)
{
    auto r = run("inner :- global_set(1, bad).\n"
                 "outer :- process_call(2, inner).",
                 "process_call(1, outer)");
    EXPECT_FALSE(r.succeeded());
}

TEST(ProcessCall, BaselineRunsInline)
{
    baseline::WamEngine eng;
    eng.consult("svc :- global_set(1, done).\n"
                "go(V) :- process_call(1, svc), global_get(1, V).");
    auto r = eng.solve("go(V)");
    ASSERT_TRUE(r.succeeded());
    EXPECT_EQ(r.solutions[0].bindings.at("V")->name(), "done");
}

TEST(ProcessCall, EnginesAgreeOnWindowWorkloads)
{
    for (const char *id : {"window2", "window3"}) {
        const auto &p = programs::programById(id);
        Engine a;
        a.consult(p.source);
        baseline::WamEngine b;
        b.consult(p.source);
        auto ra = a.solve(p.query);
        auto rb = b.solve(p.query);
        EXPECT_EQ(ra.succeeded(), rb.succeeded()) << id;
        EXPECT_EQ(ra.output, rb.output) << id;
    }
}

TEST(ProcessCall, RunLimitsHoldInsideProcessCall)
{
    Engine psi;
    psi.consult(kSpinInProcess);
    expectLimitsHold("fidelity", [&](const RunLimits &lim) {
        return psi.solve("p", lim);
    });

    fast::FastEngine fe;
    fe.load(kl0::CompiledProgram::compile(kSpinInProcess));
    expectLimitsHold("fast", [&](const RunLimits &lim) {
        return fe.solve("p", lim);
    });

    baseline::WamEngine wam;
    wam.consult(kSpinInProcess);
    expectLimitsHold("wam baseline", [&](const RunLimits &lim) {
        return wam.solve("p", lim);
    });
}

TEST(ProcessCall, LongTargetRunsToTheEndOnEveryEngine)
{
    // Only the run's limits bound a process_call target.  This one
    // takes 1.7 M inferences: over 200 M microinstruction steps on the
    // fidelity engine, and as many inferences on the fast engine.
    const char *prog = "count(0).\n"
                       "count(N) :- N > 0, N1 is N - 1, count(N1).\n"
                       "go :- count(1700000).\n"
                       "p :- process_call(1, go).";
    Engine psi;
    psi.consult(prog);
    RunResult r = psi.solve("p");
    EXPECT_TRUE(r.succeeded());
    EXPECT_GT(r.steps, 200'000'000u);

    fast::FastEngine fe;
    fe.load(kl0::CompiledProgram::compile(prog));
    RunResult f = fe.solve("p");
    EXPECT_TRUE(f.succeeded());
    EXPECT_EQ(f.inferences, r.inferences);

    baseline::WamEngine wam;
    wam.consult(prog);
    EXPECT_TRUE(wam.solve("p").succeeded());
}
