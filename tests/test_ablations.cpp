/**
 * @file
 * Firmware-option (ablation) correctness and direction tests: every
 * feature toggle must preserve semantics exactly, and the
 * performance deltas must point the way the paper's discussion
 * says.
 */

#include <gtest/gtest.h>

#include "psi.hpp"

using namespace psi;
using namespace psi::interp;

namespace {

/** The measured PSI's code: no first-argument index, no specialized
 *  builtins. */
constexpr kl0::CompileOptions kUnindexed =
    kl0::CompileOptions::psiAsMeasured();

/** The same code plus the compiled first-argument index. */
kl0::CompileOptions
indexed()
{
    kl0::CompileOptions o = kUnindexed;
    o.firstArgIndexing = true;
    return o;
}

std::vector<std::string>
solutionsWith(const FirmwareOptions &fw, const kl0::CompileOptions &code,
              const std::string &program, const std::string &query,
              int max = 50)
{
    Engine eng(CacheConfig::psi(), fw);
    eng.setCompileOptions(code);
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

/** A firmware variant and the image it runs. */
struct Variant
{
    FirmwareOptions fw;
    kl0::CompileOptions code;
};

/** The three single-feature firmware variants, the indexed image,
 *  and everything toggled at once. */
std::vector<Variant>
variants()
{
    FirmwareOptions no_ws;
    no_ws.writeStackCommand = false;
    FirmwareOptions no_tb;
    no_tb.trailBuffer = false;
    FirmwareOptions no_fb;
    no_fb.frameBuffers = false;
    FirmwareOptions all_off;
    all_off.writeStackCommand = false;
    all_off.trailBuffer = false;
    all_off.frameBuffers = false;
    return {{no_ws, kUnindexed},
            {no_tb, kUnindexed},
            {no_fb, kUnindexed},
            {FirmwareOptions(), indexed()},
            {all_off, indexed()}};
}

const char *kProg =
    "app([], L, L). app([H|T], L, [H|R]) :- app(T, L, R).\n"
    "pick(1). pick(2). pick(3).\n"
    "r(0, []).\n"
    "r(N, [C|Cs]) :- N > 0, pick(C), N1 is N - 1, r(N1, Cs).\n"
    "t(a, 1). t(b, 2). t(c, 3).\n"
    "m(1) :- !. m(2).\n"
    "loc(X, Y) :- q1(X), q2(X, Y). q1(5). q2(5, ok).";

} // namespace

TEST(Ablations, AllVariantsPreserveSemantics)
{
    const char *queries[] = {
        "app(X, Y, [1,2,3])",
        "r(2, L)",
        "pick(A), pick(B), A < B",
        "t(b, V)",
        "t(K, V)",
        "m(X)",
        "loc(X, Y)",
    };
    for (const char *q : queries) {
        auto expect =
            solutionsWith(FirmwareOptions(), kUnindexed, kProg, q);
        int vi = 0;
        for (const auto &v : variants()) {
            EXPECT_EQ(solutionsWith(v.fw, v.code, kProg, q), expect)
                << "variant " << vi << " query " << q;
            ++vi;
        }
    }
}

TEST(Ablations, WorkloadsUnchangedUnderIndexing)
{
    for (const char *id : {"queens1", "bup2", "harmonizer2", "lcp2"}) {
        const auto &p = programs::programById(id);
        Engine a;
        a.setCompileOptions(kUnindexed);
        a.consult(p.source);
        Engine b;
        b.setCompileOptions(indexed());
        b.consult(p.source);
        auto ra = a.solve(p.query);
        auto rb = b.solve(p.query);
        ASSERT_EQ(ra.solutions.size(), rb.solutions.size()) << id;
        for (std::size_t i = 0; i < ra.solutions.size(); ++i) {
            EXPECT_EQ(ra.solutions[i].str(), rb.solutions[i].str())
                << id;
        }
    }
}

TEST(Ablations, IndexingNeverSlower)
{
    // The compiled first-argument index only removes clause trials,
    // so the indexed image may not cost model time on list code.
    for (const char *id : {"nreverse30", "bup2", "lcp2"}) {
        const auto &p = programs::programById(id);
        Engine a;
        a.setCompileOptions(kUnindexed);
        a.consult(p.source);
        Engine b;
        b.setCompileOptions(indexed());
        b.consult(p.source);
        auto ta = a.solve(p.query).timeNs;
        auto tb = b.solve(p.query).timeNs;
        // Allow 2% tolerance (dispatch overhead on tiny predicates).
        EXPECT_LE(tb, ta + ta / 50) << id;
    }
}

TEST(Ablations, NoWriteStackCostsTime)
{
    FirmwareOptions no_ws;
    no_ws.writeStackCommand = false;
    const auto &p = programs::programById("qsort50");
    Engine a;
    a.consult(p.source);
    Engine b(CacheConfig::psi(), no_ws);
    b.consult(p.source);
    auto ta = a.solve(p.query);
    auto tb = b.solve(p.query);
    // Same step count, more memory stalls (write misses now fetch).
    EXPECT_EQ(ta.steps, tb.steps);
    EXPECT_GT(tb.timeNs, ta.timeNs);
    // And no write-stack commands appear at all.
    EXPECT_EQ(b.mem().cache().stats().cmdAccesses(
                  CacheCmd::WriteStack),
              0u);
}

TEST(Ablations, NoFrameBuffersRaisesLocalTraffic)
{
    FirmwareOptions no_fb;
    no_fb.frameBuffers = false;
    const auto &p = programs::programById("puzzle8");
    Engine a;
    a.consult(p.source);
    Engine b(CacheConfig::psi(), no_fb);
    b.consult(p.source);
    auto ra = a.solve(p.query);
    auto rb = b.solve(p.query);
    ASSERT_TRUE(ra.succeeded());
    ASSERT_TRUE(rb.succeeded());
    EXPECT_GT(b.mem().cache().stats().areaAccesses(Area::Local),
              a.mem().cache().stats().areaAccesses(Area::Local));
}

TEST(Ablations, NoTrailBufferMovesTrailToMemory)
{
    FirmwareOptions no_tb;
    no_tb.trailBuffer = false;
    const auto &p = programs::programById("queens1");
    Engine a;
    a.consult(p.source);
    Engine b(CacheConfig::psi(), no_tb);
    b.consult(p.source);
    auto ra = a.solve(p.query);
    auto rb = b.solve(p.query);
    ASSERT_TRUE(ra.succeeded() && rb.succeeded());
    // Every trail push now goes straight to the trail stack.
    EXPECT_GE(b.mem().cache().stats().areaAccesses(Area::Trail),
              a.mem().cache().stats().areaAccesses(Area::Trail));
}
