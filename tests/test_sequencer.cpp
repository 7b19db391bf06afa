#include <gtest/gtest.h>

#include "micro/sequencer.hpp"

using namespace psi;
using namespace psi::micro;

namespace {

/** The counters a step trace implies, one event at a time. */
SeqStats
countsFromTrace(const std::vector<StepEvent> &trace)
{
    SeqStats s;
    for (const StepEvent &e : trace) {
        ++s.moduleSteps[e.module];
        ++s.branchOps[e.branchOp];
        ++s.wfModes[0][e.src1Mode];
        ++s.wfModes[1][e.src2Mode];
        ++s.wfModes[2][e.destMode];
        if (e.hasCacheCmd != 0)
            ++s.cacheSteps[e.hasCacheCmd - 1];
    }
    return s;
}

void
expectSameCounts(const SeqStats &a, const SeqStats &b)
{
    EXPECT_EQ(a.moduleSteps, b.moduleSteps);
    EXPECT_EQ(a.branchOps, b.branchOps);
    EXPECT_EQ(a.wfModes, b.wfModes);
    EXPECT_EQ(a.cacheSteps, b.cacheSteps);
}

/**
 * Run @p calls on two sequencers, one with a trace sink attached
 * after @p prefix has run, and check that the closed-form counters
 * of both equal the counts rebuilt from the trace.
 */
template <typename Prefix, typename Calls>
void
expectClosedFormMatchesTrace(Prefix prefix, Calls calls)
{
    MemorySystem plainMem, tracedMem;
    Sequencer plain(plainMem), traced(tracedMem);
    std::vector<StepEvent> trace;
    prefix(plain);
    prefix(traced);
    traced.setTraceSink(&trace);
    calls(plain);
    calls(traced);
    const SeqStats rebuilt = countsFromTrace(trace);
    expectSameCounts(plain.stats(), rebuilt);
    expectSameCounts(traced.stats(), rebuilt);
    EXPECT_EQ(plain.totalSteps(), trace.size());
    EXPECT_EQ(plain.stats().totalSteps(), trace.size());
}

} // namespace

TEST(Sequencer, StepCountsModuleAndBranch)
{
    MemorySystem mem;
    Sequencer seq(mem);
    seq.step(Module::Unify, BranchOp::T1CaseTag, WfMode::Direct10_3F,
             WfMode::Direct00_0F, WfMode::None);
    seq.step(Module::Control, BranchOp::T2Goto);

    const SeqStats &s = seq.stats();
    EXPECT_EQ(s.totalSteps(), 2u);
    EXPECT_EQ(s.moduleSteps[static_cast<int>(Module::Unify)], 1u);
    EXPECT_EQ(s.moduleSteps[static_cast<int>(Module::Control)], 1u);
    EXPECT_EQ(s.branchOps[static_cast<int>(BranchOp::T1CaseTag)], 1u);
    EXPECT_EQ(s.branchOps[static_cast<int>(BranchOp::T2Goto)], 1u);
}

TEST(Sequencer, WfFieldModesTracked)
{
    MemorySystem mem;
    Sequencer seq(mem);
    seq.step(Module::Built, BranchOp::T1Nop, WfMode::Constant,
             WfMode::Direct00_0F, WfMode::Direct10_3F);
    const SeqStats s = seq.stats();
    EXPECT_EQ(s.wfModes[0][static_cast<int>(WfMode::Constant)], 1u);
    EXPECT_EQ(s.wfModes[1][static_cast<int>(WfMode::Direct00_0F)], 1u);
    EXPECT_EQ(s.wfModes[2][static_cast<int>(WfMode::Direct10_3F)], 1u);
    EXPECT_EQ(s.wfFieldAccesses(WfField::Source1), 1u);
    // 'None' does not count as a WF access.
    seq.step(Module::Built, BranchOp::T1Nop);
    EXPECT_EQ(seq.stats().wfFieldAccesses(WfField::Source1), 1u);
    EXPECT_EQ(seq.stats().totalSteps(), 2u);
}

TEST(Sequencer, MemoryStepsCarryCacheCommands)
{
    MemorySystem mem;
    Sequencer seq(mem);
    mem.poke({Area::Heap, 0}, {Tag::Int, 3});
    TaggedWord w = seq.readMem(Module::Control, {Area::Heap, 0},
                               BranchOp::T1CaseIrOpcode);
    EXPECT_EQ(w.data, 3u);
    seq.writeMem(Module::Unify, {Area::Global, 0}, {Tag::Int, 1},
                 BranchOp::T2Nop);
    seq.pushMem(Module::Trail, {Area::Trail, 0}, {Tag::Int, 2},
                BranchOp::T3Nop);
    const SeqStats &s = seq.stats();
    EXPECT_EQ(s.cacheSteps[static_cast<int>(CacheCmd::Read)], 1u);
    EXPECT_EQ(s.cacheSteps[static_cast<int>(CacheCmd::Write)], 1u);
    EXPECT_EQ(s.cacheSteps[static_cast<int>(CacheCmd::WriteStack)],
              1u);
    EXPECT_EQ(s.totalSteps(), 3u);
}

TEST(Sequencer, TimeIsStepsPlusStalls)
{
    MemorySystem mem;
    Sequencer seq(mem);
    seq.step(Module::Control, BranchOp::T1Nop);
    seq.step(Module::Control, BranchOp::T1Nop);
    EXPECT_EQ(seq.timeNs(), 2 * kStepNs);
    seq.readMem(Module::Control, {Area::Heap, 0},
                BranchOp::T1CaseTag);  // miss
    EXPECT_EQ(seq.timeNs(), 3 * kStepNs + mem.stallNs());
    EXPECT_GT(mem.stallNs(), 0u);
}

TEST(Sequencer, TextureEmitsExactlyN)
{
    MemorySystem mem;
    Sequencer seq(mem);
    seq.texture(Module::Unify, 25);
    EXPECT_EQ(seq.stats().totalSteps(), 25u);
    EXPECT_EQ(seq.stats().moduleSteps[static_cast<int>(Module::Unify)],
              25u);
    // Texture steps never carry cache commands.
    for (auto v : seq.stats().cacheSteps)
        EXPECT_EQ(v, 0u);
}

TEST(Sequencer, TextureMixIsMostlyNonNop)
{
    MemorySystem mem;
    Sequencer seq(mem);
    seq.texture(Module::Control, 160);
    const SeqStats &s = seq.stats();
    std::uint64_t nops =
        s.branchOps[static_cast<int>(BranchOp::T1Nop)] +
        s.branchOps[static_cast<int>(BranchOp::T2Nop)] +
        s.branchOps[static_cast<int>(BranchOp::T3Nop)];
    EXPECT_LT(nops * 5, s.totalSteps());  // < 20% no-ops
}

TEST(Sequencer, TraceSinkMirrorsSteps)
{
    MemorySystem mem;
    Sequencer seq(mem);
    std::vector<StepEvent> trace;
    seq.setTraceSink(&trace);
    seq.step(Module::Cut, BranchOp::T1CondTrue, WfMode::Direct00_0F);
    seq.readMem(Module::GetArg, {Area::Heap, 0}, BranchOp::T1CaseTag);
    seq.setTraceSink(nullptr);
    seq.step(Module::Cut, BranchOp::T1Nop);

    ASSERT_EQ(trace.size(), 2u);
    EXPECT_EQ(trace[0].module, static_cast<std::uint8_t>(Module::Cut));
    EXPECT_EQ(trace[0].hasCacheCmd, 0);
    EXPECT_EQ(trace[1].hasCacheCmd,
              1 + static_cast<int>(CacheCmd::Read));
}

TEST(Sequencer, ResetStatsZeroesCounters)
{
    MemorySystem mem;
    Sequencer seq(mem);
    seq.texture(Module::Built, 7);
    seq.resetStats();
    EXPECT_EQ(seq.stats().totalSteps(), 0u);
}

TEST(Sequencer, TextureClosedFormMatchesStepTrace)
{
    // Every ring position, with runs shorter than, equal to and
    // longer than the 16-entry ring; resetStats() leaves the ring
    // where it was, so each start is a reset taken mid-ring.
    for (int start = 0; start <= 16; ++start) {
        for (int n : {1, 4, 12, 16, 17, 33}) {
            SCOPED_TRACE(::testing::Message()
                         << "start " << start << ", n " << n);
            expectClosedFormMatchesTrace(
                [&](Sequencer &seq) {
                    seq.texture(Module::Control, start);
                    seq.resetStats();
                },
                [&](Sequencer &seq) {
                    seq.texture(Module::Unify, n);
                });
        }
    }
}

TEST(Sequencer, TextureClosedFormSurvivesMixedSteps)
{
    // Texture runs interleaved with explicit and memory steps, with a
    // resetStats() in the middle of a run of texture calls.
    expectClosedFormMatchesTrace(
        [](Sequencer &seq) {
            seq.texture(Module::Built, 5);
            seq.step(Module::Cut, BranchOp::T1Goto);
            seq.texture(Module::Built, 6);
            seq.resetStats();
        },
        [](Sequencer &seq) {
            seq.texture(Module::Unify, 17);
            seq.step(Module::Trail, BranchOp::T1CondTrue,
                     WfMode::IndWfar2, WfMode::None, WfMode::None);
            seq.texture(Module::Control, 3);
            seq.readMem(Module::Control, {Area::Heap, 0},
                        BranchOp::T1CaseIrOpcode);
            seq.texture(Module::GetArg, 33);
            seq.pushMem(Module::Trail, {Area::Trail, 0},
                        {Tag::Int, 1}, BranchOp::T3Nop);
            seq.texture(Module::Cut, 12);
        });
}

TEST(Sequencer, ResetRestartsTheRing)
{
    // reset() puts the ring back at entry 0, so a reused sequencer
    // charges exactly what a fresh one does.
    MemorySystem freshMem, reusedMem;
    Sequencer fresh(freshMem), reused(reusedMem);
    reused.texture(Module::Control, 7);
    reused.reset();
    fresh.texture(Module::Unify, 21);
    reused.texture(Module::Unify, 21);
    expectSameCounts(fresh.stats(), reused.stats());
}
