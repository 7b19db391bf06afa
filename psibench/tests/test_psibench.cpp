/**
 * @file
 * psibench's own unit tests: seeded schedules are reproducible, and
 * a wrong answer is counted as a failed operation on every path that
 * counts answers.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "oracle.hpp"
#include "replay.hpp"
#include "schedule.hpp"
#include "serving.hpp"

namespace psibench {
namespace {

using psi::interp::ExecMode;

std::string
scheduleBytes(const psi::reqlog::Log &log)
{
    std::ostringstream os;
    psi::reqlog::write(os, log);
    return os.str();
}

TEST(Schedule, SameSeedGivesByteIdenticalSchedule)
{
    for (const char *name : {"fast_small", "routed_mix"}) {
        const ServingSpec *spec = servingSpec(name);
        ASSERT_NE(spec, nullptr) << name;
        auto a = makeSchedule(*spec, 42, 3.0);
        auto b = makeSchedule(*spec, 42, 3.0);
        EXPECT_FALSE(a.entries.empty()) << name;
        EXPECT_EQ(scheduleBytes(a), scheduleBytes(b)) << name;
        EXPECT_EQ(scheduleHash(a), scheduleHash(b)) << name;
        auto c = makeSchedule(*spec, 43, 3.0);
        EXPECT_NE(scheduleHash(a), scheduleHash(c)) << name;
    }
}

TEST(Schedule, SpanIsCutExactly)
{
    auto log = makeSchedule(*servingSpec("routed_mix"), 7, 2.0);
    ASSERT_FALSE(log.entries.empty());
    EXPECT_LT(log.entries.back().atNs, 2'000'000'000u);
    // Calm 200/s with x2 bursts: roughly 400-800 arrivals in 2 s.
    EXPECT_GT(log.entries.size(), 300u);
    EXPECT_LT(log.entries.size(), 1200u);
}

psi::net::ResultMsg
resultFor(const Reference &ref, ExecMode mode)
{
    psi::net::ResultMsg r;
    r.solutions = ref.solutions;
    r.output = ref.output;
    if (mode == ExecMode::Fidelity) {
        r.steps = ref.steps;
        r.modelNs = ref.modelNs;
    }
    return r;
}

TEST(Oracle, CorruptedAnswersAreWrong)
{
    Oracle oracle(std::vector<std::string>{"nreverse30", "queens1"});
    for (ExecMode mode : {ExecMode::Fast, ExecMode::Fidelity}) {
        const Reference &ref = oracle.at("nreverse30");
        EXPECT_TRUE(oracle.check("nreverse30", mode, resultFor(ref, mode)));

        auto badSolution = resultFor(ref, mode);
        badSolution.solutions.front().back() ^= 1;
        EXPECT_FALSE(oracle.check("nreverse30", mode, badSolution));

        auto badOutput = resultFor(ref, mode);
        badOutput.output += "x";
        EXPECT_FALSE(oracle.check("nreverse30", mode, badOutput));

        auto otherProgram = resultFor(oracle.at("queens1"), mode);
        EXPECT_FALSE(oracle.check("nreverse30", mode, otherProgram));

        auto refused = resultFor(ref, mode);
        refused.status = psi::net::WireStatus::Overloaded;
        EXPECT_FALSE(oracle.check("nreverse30", mode, refused));
    }
    auto fidelity = resultFor(oracle.at("queens1"), ExecMode::Fidelity);
    fidelity.steps += 1;
    EXPECT_FALSE(oracle.check("queens1", ExecMode::Fidelity, fidelity));
    // Fast mode never fabricates model statistics.
    auto fast = resultFor(oracle.at("queens1"), ExecMode::Fidelity);
    EXPECT_FALSE(oracle.check("queens1", ExecMode::Fast, fast));
}

/** @p spec's references with nreverse30's answer deliberately wrong. */
Oracle
corruptedOracle(const ServingSpec &spec, const Oracle &truth)
{
    std::map<std::string, Reference> refs;
    for (const std::string &id : programIds(spec))
        refs[id] = truth.at(id);
    refs["nreverse30"].solutions.front() += " ";
    return Oracle(refs);
}

TEST(Replay, CorruptedReferenceFailsExactlyThatProgram)
{
    const ServingSpec &spec = *servingSpec("routed_mix");
    auto log = makeSchedule(spec, 9, 0.5);
    Oracle truth(programIds(spec));
    Oracle corrupted = corruptedOracle(spec, truth);
    Replayer good(truth), bad(corrupted);
    std::uint64_t nrev = 0, failed = 0;
    for (std::size_t i = 0; i < log.entries.size(); ++i) {
        const auto &e = log.entries[i];
        nrev += e.workload == "nreverse30";
        EXPECT_TRUE(good.run(e, i)) << e.workload;
        failed += bad.run(e, i) ? 0 : 1;
    }
    ASSERT_GT(nrev, 0u);
    EXPECT_EQ(failed, nrev);
    // Both fidelity and fast requests went through the replay.
    EXPECT_GT(good.counters().steps, 0);
    EXPECT_GT(good.counters().clauseTries, 0);
}

TEST(Serving, CorruptedReferenceCountsEveryAffectedRequestAsFailed)
{
    const ServingSpec &spec = *servingSpec("fast_small");
    auto log = makeSchedule(spec, 5, 0.3);
    ASSERT_FALSE(log.entries.empty());

    // The live server's (correct) RESULTs for the corrupted program
    // must fail.
    Oracle truth(programIds(spec));
    Oracle corrupted = corruptedOracle(spec, truth);

    Stack stack(spec);
    Client client(stack.port());
    std::vector<Sample> samples = runOpenLoop(client, log, corrupted, false);
    Tally tally;
    countSamples(samples, tally);

    std::uint64_t nrev = 0;
    for (const auto &e : log.entries)
        nrev += e.workload == "nreverse30";
    ASSERT_GT(nrev, 0u);
    EXPECT_EQ(tally.attempted, log.entries.size());
    EXPECT_EQ(tally.failed, nrev);

    ClosedLoop closed = runClosedLoop(client, log, corrupted, 0.3, 4);
    EXPECT_GT(closed.tally.attempted, 0u);
    EXPECT_GT(closed.tally.failed, 0u);
    EXPECT_LT(closed.tally.failed, closed.tally.attempted);
    EXPECT_EQ(closed.correct,
              closed.tally.attempted - closed.tally.failed);

    Tally clean;
    countSamples(runOpenLoop(client, log, truth, false), clean);
    EXPECT_EQ(clean.failed, 0u);
}

} // namespace
} // namespace psibench
