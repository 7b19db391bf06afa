/**
 * @file
 * psisched tests: deterministic policy unit tests over Scheduler<int>
 * (WFQ interleave, EDF tie-breaks, quotas, affinity batching, the
 * age-cap starvation pin) plus pool-level integration - two-tenant
 * runs, FIFO-vs-affinity differential byte-identity and the
 * TenantQuota refusal surfaced through submitAsync().
 *
 * These run in their own binary labeled `sched` so CI and the
 * sanitizer job can exercise the group in one command:
 *
 *     ctest --test-dir build -L sched --output-on-failure
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "psi.hpp"

namespace {

using namespace psi;
using sched::AffinityScheduler;
using sched::DispatchClass;
using sched::FifoScheduler;
using sched::PushResult;
using sched::SchedConfig;
using sched::SchedKind;
using sched::SchedSnapshot;
using sched::TaskInfo;
using service::EnginePool;
using service::JobOutcome;
using service::QueryJob;
using service::Submit;
using service::SubmitError;

constexpr std::uint64_t kMsNs = 1'000'000ull;
/** Mirror of SchedulerBase::kVirtualScale (protected there). */
constexpr std::uint64_t kScale = 1u << 16;

/** A workload that never terminates (tail-recursive loop). */
programs::BenchProgram
loopProgram()
{
    programs::BenchProgram p;
    p.id = "loop_forever";
    p.title = "loop forever";
    p.source = "loop :- loop.\n";
    p.query = "loop";
    return p;
}

interp::RunLimits
deadlineLimits(std::uint64_t ms)
{
    interp::RunLimits limits;
    limits.deadlineNs = ms * kMsNs;
    return limits;
}

TaskInfo
task(const std::string &tenant, std::uint64_t key = 0,
     std::uint64_t deadlineNs = 0,
     sched::SchedClock::time_point submitted =
         sched::SchedClock::now())
{
    TaskInfo info;
    info.tenant = tenant;
    info.affinityKey = key;
    info.deadlineNs = deadlineNs;
    info.submitted = submitted;
    return info;
}

/** Push one int or fail the test. */
template <typename S>
void
mustPush(S &s, const TaskInfo &info, int value)
{
    int v = value;
    ASSERT_EQ(s.tryPush(info, v), PushResult::Ok);
}

/** Pop one dispatch or fail the test. */
template <typename S>
sched::Dispatched<int>
mustPop(S &s, unsigned worker, std::uint64_t loadedKey)
{
    auto d = s.pop(worker, loadedKey);
    EXPECT_TRUE(d.has_value());
    return d ? std::move(*d) : sched::Dispatched<int>{};
}

// ---------------------------------------------------------------------
// Names and sanitization
// ---------------------------------------------------------------------

TEST(SchedNames, KindRoundTrip)
{
    EXPECT_STREQ(sched::schedKindName(SchedKind::Fifo), "fifo");
    EXPECT_STREQ(sched::schedKindName(SchedKind::Affinity),
                 "affinity");
    SchedKind k = SchedKind::Fifo;
    EXPECT_TRUE(sched::parseSchedKind("affinity", k));
    EXPECT_EQ(k, SchedKind::Affinity);
    EXPECT_TRUE(sched::parseSchedKind("fifo", k));
    EXPECT_EQ(k, SchedKind::Fifo);
    EXPECT_FALSE(sched::parseSchedKind("round-robin", k));
}

TEST(SchedNames, TenantSanitization)
{
    EXPECT_EQ(sched::sanitizeTenantName(""), "default");
    // '~' is reserved for the fold bucket, so it no longer passes
    // through - a client-declared "team-a_1.x~" must not be able to
    // produce a name in the scheduler's reserved namespace.
    EXPECT_EQ(sched::sanitizeTenantName("team-a_1.x~"),
              "team-a_1.x_");
    EXPECT_EQ(sched::sanitizeTenantName("bad name!"), "bad_name_");
    // Length capped so hostile ids cannot bloat metrics labels.
    EXPECT_EQ(sched::sanitizeTenantName(std::string(200, 'a')).size(),
              48u);
}

TEST(SchedNames, HostileTenantIdsSurviveJsonAndPrometheus)
{
    // Tenant ids chosen to break each emission surface: JSON-key
    // metacharacters, Prometheus label metacharacters, control
    // characters, and an attempt to claim the fold bucket's name.
    const std::vector<std::string> hostile = {
        "evil\"quote", "back\\slash", "line\nbreak", "tab\there",
        sched::kOverflowTenant,
    };
    SchedConfig config;
    config.capacity = 16;
    AffinityScheduler<int> s(config);
    for (std::size_t i = 0; i < hostile.size(); ++i)
        mustPush(s, task(hostile[i]), static_cast<int>(i));

    SchedSnapshot snap = s.snapshot();
    for (const auto &ten : snap.tenants) {
        // Every interned name is already metrics-safe: nothing that
        // needs escaping in a JSON key or Prometheus label value.
        for (char c : ten.name) {
            bool ok = (c >= 'a' && c <= 'z') ||
                      (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '_' ||
                      c == '.' || c == '-';
            EXPECT_TRUE(ok) << "unsafe char in tenant name '"
                            << ten.name << "'";
        }
        // No client name may land in the reserved fold bucket.
        EXPECT_NE(ten.name, sched::kOverflowTenant);
    }

    // The declared "~other" tenant was sanitized to "_other".
    bool sawSanitizedOther = false;
    for (const auto &ten : snap.tenants)
        sawSanitizedOther |= ten.name == "_other";
    EXPECT_TRUE(sawSanitizedOther);

    // The rendered JSON object must stay structurally valid: every
    // quote inside it is either a key/value delimiter or escaped.
    metrics::Registry r;
    snap.describe(r);
    const std::string json = r.json();
    int depth = 0;
    bool inString = false;
    for (std::size_t i = 0; i < json.size(); ++i) {
        char c = json[i];
        if (inString) {
            if (c == '\\')
                ++i; // skip escaped char
            else if (c == '"')
                inString = false;
        } else if (c == '"') {
            inString = true;
        } else if (c == '{') {
            ++depth;
        } else if (c == '}') {
            --depth;
        }
    }
    EXPECT_FALSE(inString) << "unterminated string in: " << json;
    EXPECT_EQ(depth, 0) << "unbalanced braces in: " << json;

    // Prometheus label values: no raw quote, backslash or newline
    // may appear inside the {tenant="..."} label.
    const std::string prom = r.prometheus();
    std::size_t pos = 0;
    while ((pos = prom.find("tenant=\"", pos)) != std::string::npos) {
        pos += 8;
        std::size_t end = prom.find('"', pos);
        ASSERT_NE(end, std::string::npos);
        const std::string label = prom.substr(pos, end - pos);
        EXPECT_EQ(label.find('\\'), std::string::npos) << label;
        EXPECT_EQ(label.find('\n'), std::string::npos) << label;
        pos = end;
    }
}

TEST(SchedNames, FoldBucketStaysReservedUnderOverflow)
{
    // With the tenant table capped, late tenants fold into "~other" -
    // and a client who declared the literal name "~other" beforehand
    // must still be counted separately (as "_other"), not merged
    // into the scheduler's own bucket.
    SchedConfig config;
    config.capacity = 16;
    config.maxTenants = 4; // three real tenants + the fold bucket
    AffinityScheduler<int> s(config);
    mustPush(s, task(sched::kOverflowTenant), 0); // hostile literal
    mustPush(s, task("a"), 1);
    mustPush(s, task("b"), 2);
    mustPush(s, task("late1"), 3); // past the cap: folds
    mustPush(s, task("late2"), 4); // folds too

    SchedSnapshot snap = s.snapshot();
    ASSERT_EQ(snap.tenants.size(), 4u);
    std::uint64_t folded = 0;
    std::uint64_t hostileAdmitted = 0;
    for (const auto &ten : snap.tenants) {
        if (ten.name == sched::kOverflowTenant)
            folded = ten.admitted;
        if (ten.name == "_other")
            hostileAdmitted = ten.admitted;
    }
    EXPECT_EQ(folded, 2u) << "late1+late2 share the fold bucket";
    EXPECT_EQ(hostileAdmitted, 1u)
        << "hostile '~other' must stay distinct from the bucket";
}

// ---------------------------------------------------------------------
// FifoScheduler: the legacy order, with the new accounting
// ---------------------------------------------------------------------

TEST(FifoSched, StrictArrivalOrderAcrossTenants)
{
    SchedConfig config;
    config.capacity = 8;
    FifoScheduler<int> s(config);
    EXPECT_EQ(s.kind(), SchedKind::Fifo);

    mustPush(s, task("a", 11), 1);
    mustPush(s, task("b", 22), 2);
    mustPush(s, task("a", 11), 3);
    mustPush(s, task("b", 22), 4);

    for (int want = 1; want <= 4; ++want) {
        auto d = mustPop(s, 0, 11);
        EXPECT_EQ(d.item, want);
        EXPECT_EQ(d.cls, DispatchClass::Fair);
    }

    SchedSnapshot snap = s.snapshot();
    EXPECT_EQ(snap.dispatches(), 4u);
    EXPECT_EQ(snap.affinityHits, 2u);   // the two key-11 jobs
    EXPECT_EQ(snap.affinityMisses, 2u);
    ASSERT_EQ(snap.tenants.size(), 2u);
    EXPECT_EQ(snap.tenants[0].name, "a");
    EXPECT_EQ(snap.tenants[0].dispatched, 2u);
    EXPECT_EQ(snap.tenants[1].name, "b");
    EXPECT_EQ(snap.tenants[1].dispatched, 2u);
}

TEST(FifoSched, FullQueueRefusesFailFast)
{
    SchedConfig config;
    config.capacity = 2;
    FifoScheduler<int> s(config);
    mustPush(s, task("a"), 1);
    mustPush(s, task("a"), 2);
    int v = 3;
    EXPECT_EQ(s.tryPush(task("a"), v), PushResult::QueueFull);
    EXPECT_EQ(v, 3); // refused item untouched
    EXPECT_EQ(s.snapshot().tenants[0].rejected, 1u);
}

// ---------------------------------------------------------------------
// AffinityScheduler: fairness
// ---------------------------------------------------------------------

/**
 * Equal-weight WFQ interleaves a backlogged tenant with a newly
 * arriving one instead of draining the backlog first.  Tenant a
 * queues six jobs, then b queues two; virtual finish tags put b's
 * jobs right behind a's matching ones:  a1 b1 a2 b2 a3 a4 a5 a6.
 */
TEST(AffinitySched, EqualWeightInterleave)
{
    SchedConfig config;
    config.capacity = 16;
    config.ageCapNs = 0; // isolate the fair order
    AffinityScheduler<int> s(config);

    auto now = sched::SchedClock::now();
    for (int i = 1; i <= 6; ++i)
        mustPush(s, task("a", 0, 0, now), 10 + i);
    for (int i = 1; i <= 2; ++i)
        mustPush(s, task("b", 0, 0, now), 20 + i);

    const std::vector<int> want = {11, 21, 12, 22, 13, 14, 15, 16};
    for (int expected : want) {
        auto d = mustPop(s, 0, 0);
        EXPECT_EQ(d.item, expected);
        EXPECT_EQ(d.cls, DispatchClass::Fair);
    }
    EXPECT_EQ(s.snapshot().fairDispatches, 8u);
}

/**
 * A weight-3 tenant gets three dispatches for every one a weight-1
 * tenant gets while both are backlogged: tags advance by scale/3 vs
 * scale, so the order is h1 h2 h3 l1 h4 h5 h6 l2.
 */
TEST(AffinitySched, WeightedShareUnderContention)
{
    SchedConfig config;
    config.capacity = 16;
    config.ageCapNs = 0;
    config.weights["heavy"] = 3;
    AffinityScheduler<int> s(config);

    auto now = sched::SchedClock::now();
    for (int i = 1; i <= 6; ++i)
        mustPush(s, task("heavy", 0, 0, now), 100 + i);
    for (int i = 1; i <= 2; ++i)
        mustPush(s, task("light", 0, 0, now), 200 + i);

    const std::vector<int> want = {101, 102, 103, 201,
                                   104, 105, 106, 202};
    for (int expected : want)
        EXPECT_EQ(mustPop(s, 0, 0).item, expected);

    SchedSnapshot snap = s.snapshot();
    ASSERT_EQ(snap.tenants.size(), 2u);
    EXPECT_EQ(snap.tenants[0].weight, 3u);
    EXPECT_EQ(snap.tenants[1].weight, 1u);
}

/** Equal virtual tags break ties earliest-deadline-first. */
TEST(AffinitySched, EdfTieBreakOnEqualTags)
{
    SchedConfig config;
    config.capacity = 8;
    config.ageCapNs = 0;
    AffinityScheduler<int> s(config);

    auto now = sched::SchedClock::now();
    // Same arrival instant, same (first-job) virtual finish tag:
    // the 1 ms deadline beats the 10 s one despite arriving later.
    mustPush(s, task("x", 0, 10'000 * kMsNs, now), 1);
    mustPush(s, task("y", 0, 1 * kMsNs, now), 2);

    EXPECT_EQ(mustPop(s, 0, 0).item, 2);
    EXPECT_EQ(mustPop(s, 0, 0).item, 1);
}

/**
 * A tenant that was idle while others accumulated backlog starts at
 * the current virtual clock: its first job lands near the head, but
 * it gets no retroactive "credit" for the idle time.
 */
TEST(AffinitySched, LateTenantStartsAtVirtualNowNotZero)
{
    SchedConfig config;
    config.capacity = 16;
    config.ageCapNs = 0;
    AffinityScheduler<int> s(config);

    auto now = sched::SchedClock::now();
    for (int i = 1; i <= 4; ++i)
        mustPush(s, task("busy", 0, 0, now), 10 + i);
    // Dispatch two: the virtual clock advances to busy's 2nd tag.
    EXPECT_EQ(mustPop(s, 0, 0).item, 11);
    EXPECT_EQ(mustPop(s, 0, 0).item, 12);

    // The late tenant's first tag = vnow + scale = busy's 3rd tag;
    // busy wins the tie on seq, then the newcomer goes next.
    mustPush(s, task("late", 0, 0, now), 99);
    EXPECT_EQ(mustPop(s, 0, 0).item, 13);
    EXPECT_EQ(mustPop(s, 0, 0).item, 99);
    EXPECT_EQ(mustPop(s, 0, 0).item, 14);
}

// ---------------------------------------------------------------------
// AffinityScheduler: admission control
// ---------------------------------------------------------------------

TEST(AffinitySched, QuotaAndCapacityFailFast)
{
    SchedConfig config;
    config.capacity = 4;
    config.tenantQuota = 2;
    AffinityScheduler<int> s(config);

    mustPush(s, task("a"), 1);
    mustPush(s, task("a"), 2);
    int v = 3;
    // Tenant a is at quota while the queue still has room.
    EXPECT_EQ(s.tryPush(task("a"), v), PushResult::QuotaExceeded);
    mustPush(s, task("b"), 4);
    mustPush(s, task("b"), 5);
    // Queue full now: capacity refusal wins over quota accounting.
    EXPECT_EQ(s.tryPush(task("c"), v), PushResult::QueueFull);

    SchedSnapshot snap = s.snapshot();
    EXPECT_EQ(snap.quotaRejects, 1u);
    ASSERT_EQ(snap.tenants.size(), 3u);
    EXPECT_EQ(snap.tenants[0].quotaRejected, 1u);
    EXPECT_EQ(snap.tenants[2].name, "c");
    EXPECT_EQ(snap.tenants[2].rejected, 1u);

    s.close();
    EXPECT_EQ(s.tryPush(task("a"), v), PushResult::Closed);
    EXPECT_EQ(v, 3);
}

TEST(AffinitySched, BlockingPushWaitsForQuotaRelease)
{
    SchedConfig config;
    config.capacity = 8;
    config.tenantQuota = 1;
    AffinityScheduler<int> s(config);

    mustPush(s, task("a"), 1);
    std::thread consumer([&s] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        EXPECT_EQ(mustPop(s, 0, 0).item, 1);
        EXPECT_EQ(mustPop(s, 0, 0).item, 2);
    });
    // Blocks on the tenant quota (not capacity) until the consumer
    // dispatches job 1.
    int v = 2;
    EXPECT_EQ(s.push(task("a"), v), PushResult::Ok);
    consumer.join();
    EXPECT_EQ(s.size(), 0u);
}

TEST(AffinitySched, CloseDrainsThenEndsStream)
{
    SchedConfig config;
    config.capacity = 4;
    AffinityScheduler<int> s(config);
    mustPush(s, task("a"), 1);
    mustPush(s, task("a"), 2);
    s.close();

    int v = 3;
    EXPECT_EQ(s.push(task("a"), v), PushResult::Closed);
    EXPECT_EQ(s.tryPush(task("a"), v), PushResult::Closed);
    EXPECT_EQ(mustPop(s, 0, 0).item, 1); // queued jobs still drain
    EXPECT_EQ(mustPop(s, 0, 0).item, 2);
    EXPECT_FALSE(s.pop(0, 0).has_value()); // then end-of-stream
}

TEST(AffinitySched, OverflowTenantsShareOneBucket)
{
    SchedConfig config;
    config.capacity = 16;
    config.maxTenants = 3;
    AffinityScheduler<int> s(config);

    mustPush(s, task("a"), 1);
    mustPush(s, task("b"), 2);
    mustPush(s, task("c"), 3); // table full: lands in ~other
    mustPush(s, task("d"), 4); // shares the same bucket

    SchedSnapshot snap = s.snapshot();
    ASSERT_EQ(snap.tenants.size(), 3u);
    EXPECT_EQ(snap.tenants[0].name, "a");
    EXPECT_EQ(snap.tenants[1].name, "b");
    EXPECT_EQ(snap.tenants[2].name, sched::kOverflowTenant);
    EXPECT_EQ(snap.tenants[2].admitted, 2u);
}

// ---------------------------------------------------------------------
// AffinityScheduler: affinity batching and the age cap
// ---------------------------------------------------------------------

/**
 * A worker holding image K1 batches the queued K1 jobs (oldest
 * first) up to maxBatch, then falls back to the fair head; with the
 * image swapped to K2 the K2 jobs batch the same way.  Every counter
 * of the run is pinned.
 */
TEST(AffinitySched, BatchesBoundedByMaxBatch)
{
    constexpr std::uint64_t kK1 = 0xAAAA, kK2 = 0xBBBB;
    SchedConfig config;
    config.capacity = 16;
    config.maxBatch = 2;
    config.ageCapNs = 0;
    AffinityScheduler<int> s(config);

    auto now = sched::SchedClock::now();
    mustPush(s, task("t", kK2, 0, now), 20); // k2a: fair head
    mustPush(s, task("t", kK1, 0, now), 11); // k1a
    mustPush(s, task("t", kK1, 0, now), 12); // k1b
    mustPush(s, task("t", kK1, 0, now), 13); // k1c
    mustPush(s, task("t", kK2, 0, now), 21); // k2b

    struct Want
    {
        std::uint64_t loaded;
        int item;
        DispatchClass cls;
    };
    const std::vector<Want> script = {
        {kK1, 11, DispatchClass::Affinity}, // batch 1 on K1
        {kK1, 12, DispatchClass::Affinity},
        {kK1, 20, DispatchClass::Fair},     // maxBatch hit: fair head
        {kK2, 21, DispatchClass::Affinity}, // batch 2 on K2
        {kK2, 13, DispatchClass::Fair},     // maxBatch hit again
    };
    for (const Want &w : script) {
        auto d = mustPop(s, 0, w.loaded);
        EXPECT_EQ(d.item, w.item);
        EXPECT_EQ(d.cls, w.cls);
    }

    SchedSnapshot snap = s.snapshot();
    EXPECT_EQ(snap.affinityHits, 3u);   // k1a k1b k2b
    EXPECT_EQ(snap.affinityMisses, 2u); // k2a under K1, k1c under K2
    EXPECT_EQ(snap.affinityDispatches, 3u);
    EXPECT_EQ(snap.fairDispatches, 2u);
    EXPECT_EQ(snap.agedDispatches, 0u);
    EXPECT_EQ(snap.batches, 2u);
    EXPECT_EQ(snap.batchJobs, 4u);
    EXPECT_EQ(snap.maxBatchRun, 2u);
    EXPECT_DOUBLE_EQ(snap.affinityHitRatio(), 0.6);
}

/**
 * The starvation regression pin: affinity pressure from a hot image
 * cannot hold the oldest job past ageCapNs.  Once the victim has
 * waited past the cap it dispatches next - as Aged - even though the
 * worker's loaded image still has queued work and batch room.
 */
TEST(AffinitySched, AgeCapOverridesAffinityPressure)
{
    constexpr std::uint64_t kHot = 0xCAFE, kCold = 0xD00D;
    SchedConfig config;
    config.capacity = 16;
    config.maxBatch = 1000;         // batching never self-limits
    config.ageCapNs = 30 * kMsNs;
    AffinityScheduler<int> s(config);

    mustPush(s, task("light", kCold), 99); // the would-starve victim
    for (int i = 1; i <= 4; ++i)
        mustPush(s, task("heavy", kHot), i);

    // Affinity wins while the victim is younger than the cap.
    auto first = mustPop(s, 0, kHot);
    EXPECT_EQ(first.cls, DispatchClass::Affinity);
    EXPECT_EQ(first.item, 1);

    std::this_thread::sleep_for(std::chrono::milliseconds(40));

    // Past the cap the victim overrides the (still available) batch.
    auto aged = mustPop(s, 0, kHot);
    EXPECT_EQ(aged.item, 99);
    EXPECT_EQ(aged.cls, DispatchClass::Aged);
    EXPECT_GE(aged.waitNs, 30 * kMsNs);

    SchedSnapshot snap = s.snapshot();
    EXPECT_EQ(snap.agedDispatches, 1u);
    EXPECT_EQ(snap.affinityDispatches, 1u);
}

// ---------------------------------------------------------------------
// Pool integration
// ---------------------------------------------------------------------

QueryJob
jobFor(const std::string &workload, const std::string &tenant)
{
    QueryJob job;
    job.program = programs::programById(workload);
    job.cache = CacheConfig::psi();
    job.tenant = tenant;
    return job;
}

/** Two tenants through the production scheduler: everything
 *  completes and the per-tenant + affinity accounting shows up in
 *  the pool's MetricsSnapshot, its JSON and its Prometheus text. */
TEST(SchedPool, TwoTenantRunPopulatesMetrics)
{
    EnginePool::Config config;
    config.workers = 2;
    config.queueCapacity = 32;
    config.scheduler = SchedKind::Affinity;
    EnginePool pool(config);
    EXPECT_EQ(pool.schedulerKind(), SchedKind::Affinity);

    constexpr int kJobs = 8;
    std::vector<std::future<JobOutcome>> futures;
    for (int i = 0; i < kJobs; ++i) {
        auto fut = pool.submit(
            jobFor("nreverse30", i % 2 == 0 ? "alice" : "bob"));
        ASSERT_TRUE(fut.has_value());
        futures.push_back(std::move(*fut));
    }
    for (auto &f : futures) {
        JobOutcome out = f.get();
        EXPECT_TRUE(out.ok());
        EXPECT_TRUE(out.run.result.succeeded());
    }

    auto snap = pool.metrics();
    EXPECT_EQ(snap.sched.kind, SchedKind::Affinity);
    EXPECT_EQ(snap.sched.dispatches(),
              static_cast<std::uint64_t>(kJobs));
    // Every job shares one image, so only each worker's first
    // dispatch (cold engine, loadedKey 0) can miss.
    EXPECT_LE(snap.sched.affinityMisses, 2u);
    EXPECT_GE(snap.sched.affinityHits,
              static_cast<std::uint64_t>(kJobs) - 2u);
    ASSERT_EQ(snap.sched.tenants.size(), 2u);
    EXPECT_EQ(snap.sched.tenants[0].name, "alice");
    EXPECT_EQ(snap.sched.tenants[0].dispatched, 4u);
    EXPECT_EQ(snap.sched.tenants[1].name, "bob");
    EXPECT_EQ(snap.sched.tenants[1].dispatched, 4u);

    const std::string json = metrics::describe(snap).json();
    EXPECT_NE(json.find("\"sched_policy\": \"affinity\""),
              std::string::npos);
    EXPECT_NE(json.find("\"sched_affinity_hits\""),
              std::string::npos);
    EXPECT_NE(json.find("\"tenant_alice_dispatched\": 4"),
              std::string::npos);

    const std::string prom = metrics::describe(snap).prometheus();
    EXPECT_NE(prom.find("psi_sched_policy{policy=\"affinity\"} 1"),
              std::string::npos);
    EXPECT_NE(prom.find("psi_sched_affinity_hits_total"),
              std::string::npos);
    EXPECT_NE(
        prom.find("psi_sched_tenant_dispatched_total{tenant=\"bob\"}"
                  " 4"),
        std::string::npos);
}

/**
 * Differential byte-identity: the affinity scheduler may reorder
 * dispatch, but results and hardware statistics of every workload -
 * including the new stress programs - must match the FIFO pool
 * field by field (Engine::load() still fully resets per job).
 */
TEST(SchedPool, AffinityMatchesFifoOnMixedWorkloads)
{
    const std::vector<std::string> ids = {
        "nreverse30", "qsort50", "trail40", "deeprec", "permall6",
    };
    // Repeat each workload so affinity actually batches.
    std::vector<std::string> sequence;
    for (int round = 0; round < 3; ++round)
        for (const auto &id : ids)
            sequence.push_back(id);

    auto runWith = [&sequence](SchedKind kind) {
        EnginePool::Config config;
        config.workers = 3;
        config.queueCapacity = 64;
        config.scheduler = kind;
        EnginePool pool(config);
        std::vector<std::future<JobOutcome>> futures;
        for (const auto &id : sequence) {
            auto fut = pool.submit(jobFor(id, "diff"));
            EXPECT_TRUE(fut.has_value());
            futures.push_back(std::move(*fut));
        }
        std::vector<JobOutcome> outs;
        outs.reserve(futures.size());
        for (auto &f : futures)
            outs.push_back(f.get());
        return outs;
    };

    std::vector<JobOutcome> fifo = runWith(SchedKind::Fifo);
    std::vector<JobOutcome> aff = runWith(SchedKind::Affinity);
    ASSERT_EQ(fifo.size(), aff.size());
    for (std::size_t i = 0; i < fifo.size(); ++i) {
        SCOPED_TRACE(sequence[i]);
        const PsiRun &f = fifo[i].run;
        const PsiRun &a = aff[i].run;
        EXPECT_TRUE(aff[i].ok());
        ASSERT_EQ(a.result.solutions.size(),
                  f.result.solutions.size());
        for (std::size_t k = 0; k < f.result.solutions.size(); ++k)
            EXPECT_EQ(a.result.solutions[k].str(),
                      f.result.solutions[k].str());
        EXPECT_EQ(a.result.output, f.result.output);
        EXPECT_EQ(a.result.status, f.result.status);
        EXPECT_EQ(a.result.inferences, f.result.inferences);
        EXPECT_EQ(a.result.steps, f.result.steps);
        EXPECT_EQ(a.result.timeNs, f.result.timeNs);
        EXPECT_EQ(a.stallNs, f.stallNs);
        EXPECT_EQ(a.seq.moduleSteps, f.seq.moduleSteps);
        EXPECT_EQ(a.seq.branchOps, f.seq.branchOps);
        EXPECT_EQ(a.cache.accesses, f.cache.accesses);
        EXPECT_EQ(a.cache.hits, f.cache.hits);
        EXPECT_EQ(a.cache.writeBacks, f.cache.writeBacks);
    }
}

/** A tenant over its quota is refused fail-fast with the dedicated
 *  TenantQuota reason (the wire maps it to OVERLOADED), while other
 *  tenants still get in. */
TEST(SchedPool, SubmitAsyncSurfacesTenantQuota)
{
    EnginePool::Config config;
    config.workers = 1;
    config.queueCapacity = 8;
    config.scheduler = SchedKind::Affinity;
    config.sched.tenantQuota = 1;
    EnginePool pool(config);

    // Wedge the single worker so queued jobs stay queued.
    auto wedge = pool.submit({loopProgram(), CacheConfig::psi(),
                              deadlineLimits(400)});
    ASSERT_TRUE(wedge.has_value());
    while (pool.queueDepth() > 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    std::atomic<int> done{0};
    auto callback = [&done](JobOutcome) { ++done; };

    QueryJob greedy1 = jobFor("nreverse30", "greedy");
    greedy1.limits = deadlineLimits(3000);
    EXPECT_FALSE(
        pool.submitAsync(std::move(greedy1), callback).has_value());

    QueryJob greedy2 = jobFor("nreverse30", "greedy");
    greedy2.limits = deadlineLimits(3000);
    auto refused = pool.submitAsync(std::move(greedy2), callback);
    ASSERT_TRUE(refused.has_value());
    EXPECT_EQ(*refused, SubmitError::TenantQuota);

    // A different tenant is not affected by greedy's quota.
    QueryJob polite = jobFor("nreverse30", "polite");
    polite.limits = deadlineLimits(3000);
    EXPECT_FALSE(
        pool.submitAsync(std::move(polite), callback).has_value());

    EXPECT_EQ(wedge->get().status(), interp::RunStatus::Timeout);
    pool.shutdown(); // drains the accepted async jobs
    EXPECT_EQ(done.load(), 2);

    auto snap = pool.metrics();
    EXPECT_EQ(snap.sched.quotaRejects, 1u);
    EXPECT_EQ(snap.rejected, 1u);
}

} // namespace
