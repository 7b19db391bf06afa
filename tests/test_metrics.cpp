/**
 * @file
 * STATS JSON and METRICS text, pinned: hand-built service and router
 * snapshots rendered in both wire formats and compared with
 * tests/golden/metrics.txt.  CI greps, psibench and dashboards read
 * these keys, families, labels and precisions, so a rendering change
 * fails here until the golden file is edited on purpose in the same
 * change.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "base/metrics.hpp"
#include "router/router.hpp"
#include "service/metrics.hpp"

#ifndef PSI_GOLDEN_DIR
#error "PSI_GOLDEN_DIR must name tests/golden"
#endif

using namespace psi;

namespace {

/** Every counter distinct and non-zero, two tenants (one the fold
 *  bucket), a few latency samples per stage. */
service::MetricsSnapshot
busyService()
{
    service::MetricsSnapshot s;
    s.workers = 4;
    s.submitted = 101;
    s.rejected = 7;
    s.queueDepth = 3;
    s.peakQueueDepth = 17;
    s.programCacheHits = 41;
    s.programCacheMisses = 5;
    s.programCacheEntries = 6;

    service::WorkerMetrics &t = s.total;
    t.completed = 90;
    t.succeeded = 70;
    t.timedOut = 9;
    t.stepLimited = 4;
    t.errored = 3;
    t.expiredInQueue = 2;
    t.jobsFidelity = 55;
    t.jobsFast = 35;
    t.inferences = 123456;
    t.indexHits = 2345;
    t.indexFallbacks = 67;
    t.modelNs = 98765432;
    t.stallNs = 1234567;
    t.hostExecNs = 87654321;
    t.hostSetupNs = 12345678;
    t.hostSolveNs = 65432109;
    for (std::size_t m = 0; m < t.seq.moduleSteps.size(); ++m)
        t.seq.moduleSteps[m] = 1000 + 17 * m;
    for (std::size_t c = 0; c < t.seq.cacheSteps.size(); ++c)
        t.seq.cacheSteps[c] = 500 + 3 * c;
    for (std::size_t a = 0; a < t.cache.accesses.size(); ++a) {
        for (std::size_t c = 0; c < t.cache.accesses[a].size(); ++c) {
            t.cache.accesses[a][c] = 300 + 20 * a + 7 * c;
            t.cache.hits[a][c] = 250 + 19 * a + 5 * c;
        }
    }
    t.cache.readIns = 111;
    t.cache.writeBacks = 112;
    t.cache.stackAllocs = 113;
    t.cache.throughWrites = 114;
    for (std::uint64_t ns : {120000, 250000, 900000, 4000000})
        t.latency.record(ns);
    for (std::uint64_t ns : {1000, 5000, 20000})
        t.queueWait.record(ns);
    for (std::uint64_t ns : {30000, 45000})
        t.setup.record(ns);
    for (std::uint64_t ns : {80000, 200000, 3500000})
        t.solve.record(ns);

    sched::SchedSnapshot &sc = s.sched;
    sc.kind = sched::SchedKind::Affinity;
    sc.affinityHits = 60;
    sc.affinityMisses = 30;
    sc.agedDispatches = 8;
    sc.fairDispatches = 50;
    sc.affinityDispatches = 32;
    sc.batches = 12;
    sc.batchJobs = 38;
    sc.maxBatchRun = 9;
    sc.quotaRejects = 21;
    sc.tenants.push_back({"alice", 3, 2, 80, 4, 19, 77, 3456789});
    sc.tenants.push_back(
        {sched::kOverflowTenant, 1, 1, 21, 2, 10, 13, 987654});

    s.netConnsAccepted = 18;
    s.netConnsDropped = 22;
    s.netBadFrames = 23;
    s.netDecodeErrors = 24;
    s.netVersionRejects = 25;
    return s;
}

router::RouterMetrics
twoBackendRouter()
{
    router::RouterMetrics m;
    m.backends.push_back({"127.0.0.1:7001", true, 40, 38, 3, 2, 1});
    m.backends.push_back({"127.0.0.1:7002", false, 25, 20, 6, 4, 5});
    m.clientConns = 11;
    m.submits = 66;
    m.affinityHits = 58;
    m.affinityMisses = 7;
    m.unknownWorkload = 12;
    m.noBackend = 13;
    m.routerTimeouts = 14;
    m.staleDropped = 15;
    m.clientGone = 16;
    return m;
}

/** Both wire formats of every pinned snapshot, one titled section
 *  per rendering. */
std::string
renderAll()
{
    std::ostringstream out;
    auto section = [&](const std::string &title, const std::string &text) {
        out << "== " << title << '\n' << text;
        if (text.empty() || text.back() != '\n')
            out << '\n';
    };
    auto render = [&](const std::string &name, const auto &snapshot,
                      std::uint64_t wall_ns) {
        const metrics::Registry r = metrics::describe(snapshot, wall_ns);
        section(name + ": STATS", r.json());
        section(name + ": METRICS", r.prometheus());
    };

    const service::MetricsSnapshot busy = busyService();
    render("service, wall 1.5 s", busy, 1'500'000'000);
    service::MetricsSnapshot quiet = busy;
    quiet.netConnsAccepted = 0;
    quiet.netConnsDropped = 0;
    quiet.netBadFrames = 0;
    quiet.netDecodeErrors = 0;
    quiet.netVersionRejects = 0;
    render("service, wall 0, no net counters", quiet, 0);
    // No tenant yet: the per-tenant families are listed empty.
    render("idle service", service::MetricsSnapshot{}, 0);

    const router::RouterMetrics routed = twoBackendRouter();
    render("router, wall 1.5 s", routed, 1'500'000'000);
    render("router, wall 1234.567891234 s", routed, 1'234'567'891'234);
    return out.str();
}

TEST(MetricsGolden, StatsAndMetricsMatchGolden)
{
    std::ifstream in(PSI_GOLDEN_DIR "/metrics.txt");
    ASSERT_TRUE(in) << "cannot read " PSI_GOLDEN_DIR "/metrics.txt";
    std::ostringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(renderAll(), golden.str());
}

} // namespace
