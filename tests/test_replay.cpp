/**
 * @file
 * psireplay suite: the trace-replay harness is only as trustworthy
 * as its log format and its determinism, so both are pinned here.
 *
 *  - reqlog format: write/parse round-trips losslessly, synthesis is
 *    a pure function of the seed, and the strict parser rejects a
 *    corpus of malformed logs with actionable "line N:" errors (a
 *    harness that silently skips bad lines replays different traffic
 *    than was recorded).
 *
 *  - adversarial workloads: the three worst-case programs the replay
 *    mix leans on compute their pinned answers (a silent change to
 *    one would quietly re-shape every replay built on the default
 *    mix).
 *
 *  - replay determinism: the same log submitted twice through an
 *    EnginePool produces byte-identical result payloads per entry
 *    and identical per-tenant dispatch counts.
 *
 *  - scheduler under replay: a bursty, Zipf-skewed two-tenant log
 *    pushed through the AffinityScheduler in log order keeps the
 *    PR-7 properties - WFQ interleave of the minority tenant and
 *    affinity batches that never extend past maxBatch - on
 *    non-uniform arrivals, not just on hand-built queues.
 *
 * Own binary labeled `replay`:
 *
 *     ctest --test-dir build -L replay --output-on-failure
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <future>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "base/reqlog.hpp"
#include "psi.hpp"

namespace {

using namespace psi;
using sched::AffinityScheduler;
using sched::DispatchClass;
using sched::PushResult;
using sched::SchedConfig;
using sched::TaskInfo;
using service::EnginePool;
using service::JobOutcome;
using service::QueryJob;

std::string
serialized(const reqlog::Log &log)
{
    std::ostringstream out;
    reqlog::write(out, log);
    return out.str();
}

/** A small mixed-shape config the format tests share. */
reqlog::GenConfig
smallConfig()
{
    reqlog::GenConfig config;
    config.seed = 7;
    config.requests = 60;
    config.rate = 2000.0;
    config.burst = 6.0;
    config.burstDwellS = 0.005;
    config.tenants = 3;
    config.skew = 1.2;
    config.fastShare = 0.5;
    config.deadlineShare = 0.25;
    config.workloads = {{"nreverse30", 3}, {"trail40", 1}};
    return config;
}

// ---------------------------------------------------------------------
// reqlog format
// ---------------------------------------------------------------------

TEST(ReqlogFormat, WriteParseRoundTripIsLossless)
{
    reqlog::Log log = reqlog::synthesize(smallConfig());
    const std::string text = serialized(log);

    std::istringstream in(text);
    std::string error;
    auto parsed = reqlog::parse(in, &error);
    ASSERT_TRUE(parsed.has_value()) << error;

    EXPECT_EQ(parsed->header.version, reqlog::kVersion);
    EXPECT_EQ(parsed->header.seed, 7u);
    EXPECT_EQ(parsed->header.source, "psi_mklog");
    ASSERT_EQ(parsed->entries.size(), log.entries.size());
    for (std::size_t i = 0; i < log.entries.size(); ++i) {
        SCOPED_TRACE("entry " + std::to_string(i));
        const reqlog::Entry &a = log.entries[i];
        const reqlog::Entry &b = parsed->entries[i];
        EXPECT_EQ(a.atNs, b.atNs);
        EXPECT_EQ(a.workload, b.workload);
        EXPECT_EQ(a.tenant, b.tenant);
        EXPECT_EQ(a.mode, b.mode);
        EXPECT_EQ(a.deadlineNs, b.deadlineNs);
        // Diagnostics carry the 1-based source line (header is 1).
        EXPECT_EQ(b.line, i + 2);
    }
    // Serialize the parse result: byte-identical to the original,
    // so record -> replay -> re-record cannot drift.
    EXPECT_EQ(serialized(*parsed), text);
    EXPECT_EQ(parsed->spanNs(), log.spanNs());
}

TEST(ReqlogFormat, SynthesisIsAPureFunctionOfTheSeed)
{
    const std::string once = serialized(reqlog::synthesize(smallConfig()));
    const std::string twice =
        serialized(reqlog::synthesize(smallConfig()));
    EXPECT_EQ(once, twice);

    reqlog::GenConfig other = smallConfig();
    other.seed = 8;
    EXPECT_NE(serialized(reqlog::synthesize(other)), once);
}

TEST(ReqlogFormat, SynthesizedLogHasProductionShape)
{
    reqlog::GenConfig config = smallConfig();
    reqlog::Log log = reqlog::synthesize(config);
    ASSERT_EQ(log.entries.size(), config.requests);

    const std::set<std::string> workloads = {"nreverse30", "trail40"};
    std::map<std::string, unsigned> perTenant;
    std::set<interp::ExecMode> modes;
    std::uint64_t prev = 0;
    for (const reqlog::Entry &e : log.entries) {
        EXPECT_GE(e.atNs, prev); // arrival offsets never go backwards
        prev = e.atNs;
        EXPECT_TRUE(workloads.count(e.workload)) << e.workload;
        ++perTenant[e.tenant];
        modes.insert(e.mode);
        if (e.deadlineNs != 0) {
            EXPECT_GE(e.deadlineNs, config.deadlineLoMs * 1'000'000);
            EXPECT_LE(e.deadlineNs, config.deadlineHiMs * 1'000'000);
        }
    }
    // fastShare = 0.5: both execution modes appear.
    EXPECT_EQ(modes.size(), 2u);
    // Tenants come from the fixed "t0".."tN-1" population and skew
    // heavy-tail: the head tenant out-sends the tail one.
    for (const auto &t : perTenant)
        EXPECT_TRUE(t.first == "t0" || t.first == "t1" ||
                    t.first == "t2")
            << t.first;
    EXPECT_GT(perTenant["t0"], perTenant["t2"]);
}

TEST(ReqlogFormat, BlankLinesAndCarriageReturnsAreTolerated)
{
    std::istringstream in("{\"psi_reqlog\": 1}\r\n"
                          "\n"
                          "{\"at_ns\": 5, \"workload\": \"x\"}\r\n");
    std::string error;
    auto log = reqlog::parse(in, &error);
    ASSERT_TRUE(log.has_value()) << error;
    ASSERT_EQ(log->entries.size(), 1u);
    EXPECT_EQ(log->entries[0].atNs, 5u);
    EXPECT_EQ(log->entries[0].line, 3u);
}

TEST(ReqlogFormat, MalformedLogsFailWithActionableLineErrors)
{
    // The parser is all-or-nothing: every corpus entry must fail,
    // name the offending 1-based line and say what is wrong with it.
    const std::string h = "{\"psi_reqlog\": 1}\n";
    struct Case
    {
        const char *name;
        std::string text;
        const char *wantLine;
        const char *wantWhy;
    };
    const Case corpus[] = {
        {"empty input", "", "line 1:", "empty log"},
        {"missing header",
         "{\"at_ns\": 0, \"workload\": \"x\"}\n", "line 1:",
         "psi_reqlog"},
        {"future version", "{\"psi_reqlog\": 3}\n", "line 1:",
         "unsupported reqlog version 3"},
        {"unknown header field",
         "{\"psi_reqlog\": 1, \"zone\": \"us\"}\n", "line 1:",
         "unknown header field 'zone'"},
        {"missing at_ns", h + "{\"workload\": \"x\"}\n", "line 2:",
         "missing required field \"at_ns\""},
        {"missing workload", h + "{\"at_ns\": 5}\n", "line 2:",
         "missing required field \"workload\""},
        {"empty workload",
         h + "{\"at_ns\": 5, \"workload\": \"\"}\n", "line 2:",
         "non-empty"},
        {"negative offset",
         h + "{\"at_ns\": -5, \"workload\": \"x\"}\n", "line 2:",
         "negative value for 'at_ns'"},
        {"fractional offset",
         h + "{\"at_ns\": 1.5, \"workload\": \"x\"}\n", "line 2:",
         "non-integer value for 'at_ns'"},
        {"overflowing offset",
         h + "{\"at_ns\": 99999999999999999999999, "
             "\"workload\": \"x\"}\n",
         "line 2:", "value of 'at_ns'"},
        {"time going backwards",
         h + "{\"at_ns\": 100, \"workload\": \"x\"}\n" +
             "{\"at_ns\": 50, \"workload\": \"x\"}\n",
         "line 3:", "goes backwards"},
        {"unknown mode",
         h + "{\"at_ns\": 0, \"workload\": \"x\", "
             "\"mode\": \"warp\"}\n",
         "line 2:", "unknown mode 'warp'"},
        {"unknown entry field",
         h + "{\"at_ns\": 0, \"workload\": \"x\", "
             "\"color\": \"red\"}\n",
         "line 2:", "unknown field 'color'"},
        {"junk after close",
         h + "{\"at_ns\": 0, \"workload\": \"x\"} trailing\n",
         "line 2:", "junk after closing '}'"},
        {"duplicate key",
         h + "{\"at_ns\": 0, \"at_ns\": 1, \"workload\": \"x\"}\n",
         "line 2:", "duplicate key 'at_ns'"},
        {"unterminated string",
         h + "{\"at_ns\": 0, \"workload\": \"x\n", "line 2:",
         "unterminated string"},
        {"not an object", h + "garbage\n", "line 2:",
         "expected '{'"},
    };

    for (const Case &c : corpus) {
        SCOPED_TRACE(c.name);
        std::istringstream in(c.text);
        std::string error;
        auto log = reqlog::parse(in, &error);
        EXPECT_FALSE(log.has_value());
        EXPECT_EQ(error.rfind(c.wantLine, 0), 0u) << error;
        EXPECT_NE(error.find(c.wantWhy), std::string::npos)
            << error;
    }
}

TEST(ReqlogFormat, ValidateWorkloadsNamesTheOffendingLine)
{
    std::istringstream in(
        "{\"psi_reqlog\": 1}\n"
        "{\"at_ns\": 0, \"workload\": \"nreverse30\"}\n"
        "{\"at_ns\": 10, \"workload\": \"nope\"}\n");
    std::string error;
    auto log = reqlog::parse(in, &error);
    ASSERT_TRUE(log.has_value()) << error;

    auto known = [](const std::string &id) {
        return programs::findProgramById(id) != nullptr;
    };
    EXPECT_FALSE(reqlog::validateWorkloads(*log, known, &error));
    EXPECT_NE(error.find("line 3"), std::string::npos) << error;
    EXPECT_NE(error.find("nope"), std::string::npos) << error;

    log->entries.pop_back();
    EXPECT_TRUE(reqlog::validateWorkloads(*log, known, &error));
}

TEST(ReqlogFormat, ParseFileNamesTheMissingPath)
{
    std::string error;
    auto log =
        reqlog::parseFile("/nonexistent/psi_replay_test.reqlog",
                          &error);
    EXPECT_FALSE(log.has_value());
    EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
}

// ---------------------------------------------------------------------
// Adversarial workloads
// ---------------------------------------------------------------------

/**
 * The replay default mix leans on the adversarial family; pin each
 * program's answer so a source edit cannot silently reshape every
 * log replayed against it.  setclash sums 6 same-set probes over 200
 * passes (200 * 21), permjoin joins perms of [1..5] x [1..4] on an
 * equal head (4 heads * 24 outer * 6 inner = 576), polyop adds a
 * 2000-call bound-key scan (27000) to the 26-way enumeration (351).
 */
TEST(AdversarialWorkloads, WorstCasesComputeTheirPinnedAnswers)
{
    const std::pair<const char *, const char *> expect[] = {
        {"setclash", "4200"},
        {"permjoin", "576"},
        {"polyop", "27351"},
    };
    for (const auto &[id, answer] : expect) {
        SCOPED_TRACE(id);
        PsiRun run = runOnPsi(programs::programById(id));
        EXPECT_TRUE(run.result.succeeded());
        ASSERT_EQ(run.result.solutions.size(), 1u);
        EXPECT_NE(run.result.solutions[0].str().find(answer),
                  std::string::npos)
            << run.result.solutions[0].str();
    }
}

// ---------------------------------------------------------------------
// Replay determinism through the pool
// ---------------------------------------------------------------------

/** Everything a replay client can observe about one outcome. */
std::string
payloadOf(const JobOutcome &out)
{
    std::string s = out.error;
    s += '|';
    s += std::to_string(static_cast<int>(out.run.result.status));
    s += '|';
    s += out.run.result.output;
    s += '|';
    s += std::to_string(out.run.result.inferences);
    for (const auto &sol : out.run.result.solutions) {
        s += '|';
        s += sol.str();
    }
    return s;
}

struct ReplayRun
{
    std::vector<std::string> payloads; ///< per entry, in log order
    std::map<std::string, std::uint64_t> dispatched; ///< per tenant
};

/** Submit every entry in log order; gather payloads + tenant counts. */
ReplayRun
runLogThroughPool(const reqlog::Log &log)
{
    EnginePool::Config config;
    config.workers = 3;
    config.queueCapacity = log.entries.size();
    EnginePool pool(config);

    std::vector<std::future<JobOutcome>> futures;
    for (const reqlog::Entry &e : log.entries) {
        QueryJob job;
        job.program = programs::programById(e.workload);
        job.tenant = e.tenant;
        job.mode = e.mode;
        // Deadline budgets stay off on purpose: a wall-clock budget
        // would make the payload timing-dependent, and this test is
        // about dispatch-order independence of the results.
        auto f = pool.submit(std::move(job));
        EXPECT_TRUE(f.has_value());
        if (f)
            futures.push_back(std::move(*f));
    }

    ReplayRun run;
    for (auto &f : futures) {
        JobOutcome out = f.get();
        EXPECT_TRUE(out.ok()) << out.error;
        run.payloads.push_back(payloadOf(out));
    }
    for (const auto &t : pool.metrics().sched.tenants)
        run.dispatched[t.name] = t.dispatched;
    return run;
}

TEST(ReplayDeterminism, SameLogTwiceThroughThePoolIsByteIdentical)
{
    reqlog::GenConfig config;
    config.seed = 2026;
    config.requests = 24;
    config.rate = 4000.0;
    config.tenants = 3;
    config.fastShare = 0.5;
    config.workloads = {
        {"nreverse30", 3}, {"qsort50", 2}, {"trail40", 1}};
    reqlog::Log log = reqlog::synthesize(config);

    ReplayRun first = runLogThroughPool(log);
    ReplayRun second = runLogThroughPool(log);

    ASSERT_EQ(first.payloads.size(), log.entries.size());
    ASSERT_EQ(second.payloads.size(), log.entries.size());
    for (std::size_t i = 0; i < log.entries.size(); ++i) {
        SCOPED_TRACE("entry " + std::to_string(i) + " (" +
                     log.entries[i].workload + ")");
        EXPECT_EQ(first.payloads[i], second.payloads[i]);
    }

    // Dispatch accounting is a pure function of the log too.
    EXPECT_EQ(first.dispatched, second.dispatched);
    std::uint64_t total = 0;
    for (const auto &t : first.dispatched)
        total += t.second;
    EXPECT_EQ(total, log.entries.size());
}

// ---------------------------------------------------------------------
// Scheduler under replay
// ---------------------------------------------------------------------

/** Two tenants, Zipf-skewed, bursty arrivals - the PR-7 policy must
 *  hold on a production-shaped arrival sequence, not just on the
 *  hand-built queues of test_sched.cpp. */
reqlog::GenConfig
burstyTwoTenantConfig()
{
    reqlog::GenConfig config;
    config.seed = 11;
    config.requests = 40;
    config.rate = 5000.0;
    config.burst = 10.0;
    config.burstDwellS = 0.002;
    config.tenants = 2;
    config.skew = 1.5;
    config.workloads = {{"nreverse30", 2}, {"trail40", 1}};
    return config;
}

TEST(SchedulerUnderReplay, BurstyTwoTenantLogInterleavesFairly)
{
    reqlog::Log log = reqlog::synthesize(burstyTwoTenantConfig());

    SchedConfig config;
    config.capacity = log.entries.size();
    config.ageCapNs = 0; // isolate the WFQ order
    AffinityScheduler<int> s(config);

    // Arrivals keep the log's non-uniform spacing (all in the past
    // so pops never block); affinity keys stay 0 to isolate
    // fairness.
    auto base = sched::SchedClock::now() - std::chrono::seconds(5);
    std::map<std::string, int> pushed;
    for (std::size_t i = 0; i < log.entries.size(); ++i) {
        const reqlog::Entry &e = log.entries[i];
        TaskInfo info;
        info.tenant = e.tenant;
        info.submitted =
            base + std::chrono::nanoseconds(e.atNs);
        int v = static_cast<int>(i);
        ASSERT_EQ(s.tryPush(info, v), PushResult::Ok);
        ++pushed[e.tenant];
    }
    ASSERT_EQ(pushed.size(), 2u); // the skewed log still has both
    const int minority = std::min(pushed["t0"], pushed["t1"]);
    ASSERT_GT(minority, 0);

    // Equal-weight WFQ pairs the i-th job of each tenant; while both
    // tenants are backlogged no prefix may drift more than one job
    // from a perfect interleave, however bursty the arrival order.
    std::map<std::string, int> popped;
    for (std::size_t i = 0; i < log.entries.size(); ++i) {
        auto d = s.pop(0, 0);
        ASSERT_TRUE(d.has_value());
        ++popped[log.entries[static_cast<std::size_t>(d->item)]
                     .tenant];
        if (static_cast<int>(i) < 2 * minority) {
            EXPECT_LE(std::abs(popped["t0"] - popped["t1"]), 1)
                << "after " << i + 1 << " dispatches";
        }
    }
    EXPECT_EQ(popped, pushed);

    auto snap = s.snapshot();
    EXPECT_EQ(snap.fairDispatches, log.entries.size());
    ASSERT_EQ(snap.tenants.size(), 2u);
    for (const auto &t : snap.tenants)
        EXPECT_EQ(t.dispatched,
                  static_cast<std::uint64_t>(pushed[t.name]))
            << t.name;
}

TEST(SchedulerUnderReplay, AffinityBatchesStayBoundedOnReplayOrder)
{
    reqlog::Log log = reqlog::synthesize(burstyTwoTenantConfig());

    SchedConfig config;
    config.capacity = log.entries.size();
    config.ageCapNs = 0;
    config.maxBatch = 4;
    AffinityScheduler<int> s(config);

    // Key each entry by its workload, the way the pool keys jobs by
    // compiled-image hash ('| 1' keeps the key nonzero).
    auto keyOf = [](const std::string &workload) {
        return static_cast<std::uint64_t>(
                   std::hash<std::string>{}(workload)) |
            1u;
    };
    auto now = sched::SchedClock::now();
    std::map<std::string, int> pushed;
    for (std::size_t i = 0; i < log.entries.size(); ++i) {
        const reqlog::Entry &e = log.entries[i];
        TaskInfo info;
        info.tenant = e.tenant;
        info.affinityKey = keyOf(e.workload);
        info.submitted = now;
        int v = static_cast<int>(i);
        ASSERT_EQ(s.tryPush(info, v), PushResult::Ok);
        ++pushed[e.tenant];
    }

    // One worker whose "loaded image" follows its dispatches, like a
    // warm engine: affinity may pull same-key jobs forward, but an
    // affinity dispatch must never extend a same-key run past
    // maxBatch.
    std::uint64_t loaded = 0;
    std::uint64_t runLength = 0;
    std::uint64_t affinityDispatches = 0;
    std::map<std::string, int> popped;
    for (std::size_t i = 0; i < log.entries.size(); ++i) {
        auto d = s.pop(0, loaded);
        ASSERT_TRUE(d.has_value());
        const reqlog::Entry &e =
            log.entries[static_cast<std::size_t>(d->item)];
        ++popped[e.tenant];
        if (d->cls == DispatchClass::Affinity) {
            ++affinityDispatches;
            EXPECT_EQ(keyOf(e.workload), loaded);
            EXPECT_LT(runLength, config.maxBatch)
                << "affinity dispatch " << i
                << " extended a full batch";
        }
        runLength =
            keyOf(e.workload) == loaded ? runLength + 1 : 1;
        loaded = keyOf(e.workload);
    }

    EXPECT_EQ(popped, pushed);
    auto snap = s.snapshot();
    EXPECT_EQ(snap.affinityDispatches, affinityDispatches);
    // Batching actually engaged on this log (it has two workloads
    // with long same-image stretches), and hits were counted.
    EXPECT_GE(snap.batches, 1u);
    EXPECT_GT(snap.affinityHits, 0u);
    EXPECT_EQ(snap.affinityHits + snap.affinityMisses,
              log.entries.size());
}

} // namespace
