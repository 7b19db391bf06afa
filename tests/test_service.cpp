/**
 * @file
 * psid service tests: queue backpressure, deadline handling,
 * pool-vs-sequential determinism and metrics aggregation.
 *
 * These run in their own binary labeled `service` so the whole
 * group can be exercised under TSan in one command:
 *
 *     cmake -B build-tsan -S . -DPSI_SANITIZE=thread
 *     cmake --build build-tsan -j
 *     ctest --test-dir build-tsan -L service --output-on-failure
 */

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "psi.hpp"

namespace {

using namespace psi;
using service::EnginePool;
using service::JobOutcome;
using service::LatencyHistogram;
using service::QueryJob;
using service::Submit;

constexpr std::uint64_t kMsNs = 1'000'000ull;

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

// ---------------------------------------------------------------------
// Latency histogram
// ---------------------------------------------------------------------

TEST(Histogram, QuantilesWithinBucketError)
{
    LatencyHistogram h;
    for (std::uint64_t ms = 1; ms <= 100; ++ms)
        h.record(ms * kMsNs);

    EXPECT_EQ(h.count(), 100u);
    EXPECT_EQ(h.minNs(), 1 * kMsNs);
    EXPECT_EQ(h.maxNs(), 100 * kMsNs);

    // Upper-bound estimates: exact value <= estimate <= value * 9/8.
    for (auto [q, exact] : {std::pair<double, std::uint64_t>{0.50, 50},
                            {0.95, 95},
                            {0.99, 99}}) {
        std::uint64_t est = h.quantileNs(q);
        EXPECT_GE(est, exact * kMsNs) << "q=" << q;
        EXPECT_LE(est, exact * kMsNs * 9 / 8) << "q=" << q;
    }
}

/**
 * Samples past the top bucket used to be folded into it silently;
 * now they are counted, so a latency report can say "the tail is
 * clamped" instead of presenting a fabricated p99.
 */
TEST(Histogram, SaturationIsCountedNotSilent)
{
    LatencyHistogram h;
    h.record(1 * kMsNs);
    EXPECT_EQ(h.saturatedCount(), 0u);

    const std::uint64_t huge = 1ull << 63;
    h.record(huge);
    h.record(std::numeric_limits<std::uint64_t>::max());
    EXPECT_EQ(h.saturatedCount(), 2u);
    // Saturated samples still count everywhere else.
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.maxNs(), std::numeric_limits<std::uint64_t>::max());

    LatencyHistogram other;
    other.record(huge);
    h.merge(other);
    EXPECT_EQ(h.saturatedCount(), 3u);

    h.reset();
    EXPECT_EQ(h.saturatedCount(), 0u);
    EXPECT_EQ(h.count(), 0u);
}

TEST(Histogram, MergeMatchesCombinedRecording)
{
    LatencyHistogram lo, hi, all;
    for (std::uint64_t ms = 1; ms <= 50; ++ms) {
        lo.record(ms * kMsNs);
        all.record(ms * kMsNs);
    }
    for (std::uint64_t ms = 51; ms <= 100; ++ms) {
        hi.record(ms * kMsNs);
        all.record(ms * kMsNs);
    }
    lo.merge(hi);
    EXPECT_EQ(lo.count(), all.count());
    EXPECT_EQ(lo.sumNs(), all.sumNs());
    EXPECT_EQ(lo.minNs(), all.minNs());
    EXPECT_EQ(lo.maxNs(), all.maxNs());
    for (double q : {0.1, 0.5, 0.9, 0.99})
        EXPECT_EQ(lo.quantileNs(q), all.quantileNs(q)) << "q=" << q;
}

// ---------------------------------------------------------------------
// Deadlines in the engines
// ---------------------------------------------------------------------

TEST(Deadline, PsiEngineTimesOutWithPartialStats)
{
    const auto p = loopProgram();
    PsiRun run = runOnPsi(p, CacheConfig::psi(), deadlineLimits(50));
    EXPECT_EQ(run.result.status, interp::RunStatus::Timeout);
    EXPECT_TRUE(run.result.timedOut());
    EXPECT_FALSE(run.result.succeeded());
    // Partial statistics are still reported.
    EXPECT_GT(run.result.steps, 0u);
    EXPECT_GT(run.result.inferences, 0u);
    EXPECT_GT(run.seq.totalSteps(), 0u);
}

TEST(Deadline, BaselineEngineTimesOut)
{
    const auto p = loopProgram();
    interp::RunResult r = runOnBaseline(p, deadlineLimits(50));
    EXPECT_EQ(r.status, interp::RunStatus::Timeout);
    EXPECT_FALSE(r.succeeded());
    EXPECT_GT(r.steps, 0u);
}

TEST(Deadline, StepLimitKeepsDistinctStatus)
{
    const auto p = loopProgram();
    interp::RunLimits limits;
    limits.maxSteps = 10'000;
    PsiRun run = runOnPsi(p, CacheConfig::psi(), limits);
    EXPECT_EQ(run.result.status, interp::RunStatus::StepLimit);
    EXPECT_FALSE(run.result.timedOut());
}

// ---------------------------------------------------------------------
// Engine pool
// ---------------------------------------------------------------------

/** Concurrent batch == sequential execution, bit for bit. */
TEST(EnginePool, BatchMatchesSequentialOnFullRegistry)
{
    const auto &programs = programs::allPrograms();
    std::vector<PsiRun> sequential;
    sequential.reserve(programs.size());
    for (const auto &p : programs)
        sequential.push_back(runOnPsi(p));

    // Four workers, and room in the queue for the whole batch.
    EnginePool::Config config;
    config.workers = 4;
    config.queueCapacity = programs.size();
    EnginePool pool(config);
    std::vector<std::future<JobOutcome>> futures;
    for (const auto &p : programs) {
        auto fut = pool.submit(
            QueryJob{p, CacheConfig::psi(), interp::RunLimits()});
        ASSERT_TRUE(fut.has_value()) << p.id;
        futures.push_back(std::move(*fut));
    }
    std::vector<PsiRun> pooled;
    for (auto &fut : futures) {
        JobOutcome out = fut.get();
        ASSERT_TRUE(out.ok()) << out.id << ": " << out.error;
        pooled.push_back(std::move(out.run));
    }

    ASSERT_EQ(pooled.size(), sequential.size());
    for (std::size_t i = 0; i < programs.size(); ++i) {
        SCOPED_TRACE(programs[i].id);
        const PsiRun &s = sequential[i];
        const PsiRun &c = pooled[i];

        // Logical results.
        ASSERT_EQ(c.result.solutions.size(),
                  s.result.solutions.size());
        for (std::size_t k = 0; k < s.result.solutions.size(); ++k)
            EXPECT_EQ(c.result.solutions[k].str(),
                      s.result.solutions[k].str());
        EXPECT_EQ(c.result.output, s.result.output);
        EXPECT_EQ(c.result.status, s.result.status);

        // Model clock and work.
        EXPECT_EQ(c.result.inferences, s.result.inferences);
        EXPECT_EQ(c.result.steps, s.result.steps);
        EXPECT_EQ(c.result.timeNs, s.result.timeNs);
        EXPECT_EQ(c.stallNs, s.stallNs);

        // Hardware statistics, field by field.
        EXPECT_EQ(c.seq.moduleSteps, s.seq.moduleSteps);
        EXPECT_EQ(c.seq.branchOps, s.seq.branchOps);
        EXPECT_EQ(c.seq.wfModes, s.seq.wfModes);
        EXPECT_EQ(c.seq.cacheSteps, s.seq.cacheSteps);
        EXPECT_EQ(c.cache.accesses, s.cache.accesses);
        EXPECT_EQ(c.cache.hits, s.cache.hits);
        EXPECT_EQ(c.cache.readIns, s.cache.readIns);
        EXPECT_EQ(c.cache.writeBacks, s.cache.writeBacks);
        EXPECT_EQ(c.cache.stackAllocs, s.cache.stackAllocs);
        EXPECT_EQ(c.cache.throughWrites, s.cache.throughWrites);
    }
}

TEST(EnginePool, FullQueueAppliesBackpressure)
{
    EnginePool::Config config;
    config.workers = 1;
    config.queueCapacity = 1;
    EnginePool pool(config);

    // Occupy the single worker, then fill the single queue slot.
    auto running = pool.submit({loopProgram(), CacheConfig::psi(),
                                deadlineLimits(750)});
    ASSERT_TRUE(running.has_value());
    // Wait until the worker has picked the first job up so the
    // queued one cannot be consumed before the fail-fast probe.
    while (pool.queueDepth() > 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    auto queued = pool.submit({loopProgram(), CacheConfig::psi(),
                               deadlineLimits(750)});
    ASSERT_TRUE(queued.has_value());

    // Queue full: a fail-fast submission is refused immediately.
    auto rejected = pool.submit({programs::programById("nreverse30"),
                                 CacheConfig::psi(),
                                 interp::RunLimits()},
                                Submit::FailFast);
    EXPECT_FALSE(rejected.has_value());

    JobOutcome first = running->get();
    JobOutcome second = queued->get();
    EXPECT_EQ(first.status(), interp::RunStatus::Timeout);
    EXPECT_EQ(second.status(), interp::RunStatus::Timeout);

    auto snap = pool.metrics();
    EXPECT_EQ(snap.submitted, 2u);
    EXPECT_EQ(snap.rejected, 1u);
    EXPECT_EQ(snap.total.completed, 2u);
    EXPECT_EQ(snap.total.timedOut, 2u);
    EXPECT_GE(snap.peakQueueDepth, 1u);
}

/** A deadline-exceeded job must free its worker for the next job. */
TEST(EnginePool, TimeoutFreesWorkerForNextJob)
{
    EnginePool::Config config;
    config.workers = 1;
    config.queueCapacity = 4;
    EnginePool pool(config);

    auto runaway = pool.submit({loopProgram(), CacheConfig::psi(),
                                deadlineLimits(100)});
    auto normal = pool.submit({programs::programById("nreverse30"),
                               CacheConfig::psi(),
                               interp::RunLimits()});
    ASSERT_TRUE(runaway.has_value());
    ASSERT_TRUE(normal.has_value());

    JobOutcome r1 = runaway->get();
    JobOutcome r2 = normal->get();
    EXPECT_EQ(r1.status(), interp::RunStatus::Timeout);
    EXPECT_EQ(r2.status(), interp::RunStatus::Ok);
    EXPECT_TRUE(r2.run.result.succeeded());

    auto snap = pool.metrics();
    EXPECT_EQ(snap.total.completed, 2u);
    EXPECT_EQ(snap.total.timedOut, 1u);
    EXPECT_EQ(snap.total.succeeded, 1u);
}

TEST(EnginePool, ShutdownRefusesNewJobs)
{
    EnginePool pool(EnginePool::Config{2, 8, nullptr});
    auto fut = pool.submit({programs::programById("nreverse30"),
                            CacheConfig::psi(), interp::RunLimits()});
    ASSERT_TRUE(fut.has_value());
    EXPECT_TRUE(fut->get().ok());
    pool.shutdown();
    auto refused = pool.submit({programs::programById("nreverse30"),
                                CacheConfig::psi(),
                                interp::RunLimits()});
    EXPECT_FALSE(refused.has_value());
}

/**
 * Race a burst of submitAsync() calls against shutdown(): every job
 * the pool ACCEPTED must run its callback exactly once - a lost
 * callback hangs whoever is waiting on the completion, a doubled one
 * double-frees their state.  Run under TSan by the service label.
 */
TEST(EnginePool, SubmitAsyncCallbacksAcceptedBeforeShutdownFireOnce)
{
    const auto &p = programs::programById("nreverse30");
    constexpr int kJobs = 16;

    // Several rounds so shutdown() lands at different points of the
    // submission burst: before it, in the middle, after it.
    for (int round = 0; round < 4; ++round) {
        EnginePool::Config config;
        config.workers = 2;
        config.queueCapacity = kJobs;
        auto pool = std::make_unique<EnginePool>(config);

        std::array<std::atomic<int>, kJobs> fired{};
        std::array<bool, kJobs> accepted{};

        std::thread closer([&pool, round] {
            std::this_thread::sleep_for(
                std::chrono::microseconds(round * 300));
            pool->shutdown();
        });
        for (int i = 0; i < kJobs; ++i) {
            auto refusal = pool->submitAsync(
                {p, CacheConfig::psi(), interp::RunLimits()},
                [&fired, i](JobOutcome) { ++fired[i]; });
            accepted[i] = !refusal.has_value();
            if (refusal) {
                EXPECT_EQ(*refusal, service::SubmitError::ShutDown);
            }
        }
        closer.join();
        pool.reset(); // joins workers: all callbacks have run

        for (int i = 0; i < kJobs; ++i)
            EXPECT_EQ(fired[i].load(), accepted[i] ? 1 : 0)
                << "job " << i << " in round " << round;
    }
}

TEST(EnginePool, MetricsAggregateAcrossWorkers)
{
    const auto &programs = programs::allPrograms();
    EnginePool::Config config;
    config.workers = 4;
    config.queueCapacity = programs.size();
    EnginePool pool(config);

    std::vector<std::future<JobOutcome>> futures;
    std::uint64_t want_inferences = 0;
    for (const auto &p : programs) {
        auto fut = pool.submit({p, CacheConfig::psi(),
                                interp::RunLimits()});
        ASSERT_TRUE(fut.has_value());
        futures.push_back(std::move(*fut));
    }
    for (auto &f : futures)
        want_inferences += f.get().run.result.inferences;

    auto snap = pool.metrics();
    EXPECT_EQ(snap.workers, 4u);
    EXPECT_EQ(snap.submitted, programs.size());
    EXPECT_EQ(snap.total.completed, programs.size());
    EXPECT_EQ(snap.total.succeeded, programs.size());
    EXPECT_EQ(snap.total.inferences, want_inferences);
    EXPECT_EQ(snap.total.latency.count(), programs.size());
    EXPECT_GT(snap.total.steps(), 0u);
    EXPECT_GT(snap.total.cache.totalAccesses(), 0u);

    // Renderings carry the aggregates.
    std::string json = metrics::describe(snap, 1'000'000'000ull).json();
    EXPECT_NE(json.find("\"completed\": " +
                        std::to_string(programs.size())),
              std::string::npos);
    EXPECT_NE(json.find("\"aggregate_lips\""), std::string::npos);
    EXPECT_GT(metrics::describe(snap, 1'000'000'000ull)
                  .table("psid service metrics")
                  .rowCount(),
              10u);
}

// ---------------------------------------------------------------------
// ProgramCache + warm engines (the compile-once hot path)
// ---------------------------------------------------------------------

/**
 * Cached-compile determinism over the full registry: installing a
 * CompiledProgram into a *reused* engine via load() must reproduce
 * runOnPsi() - results, model clock and every hardware statistic -
 * byte for byte.  One engine serves every program twice, so this
 * pins both the image replay and the warm-reset path.
 */
TEST(ProgramCache, CachedRunsMatchRunOnPsiOnFullRegistry)
{
    interp::Engine engine;
    for (int pass = 0; pass < 2; ++pass) {
        for (const auto &p : programs::allPrograms()) {
            SCOPED_TRACE(p.id + " pass " + std::to_string(pass));
            PsiRun s = runOnPsi(p);
            kl0::CompiledProgram image =
                kl0::CompiledProgram::compile(p.source);
            PsiRun c = runCompiledOnPsi(engine, image, p.query);

            ASSERT_EQ(c.result.solutions.size(),
                      s.result.solutions.size());
            for (std::size_t k = 0; k < s.result.solutions.size();
                 ++k)
                EXPECT_EQ(c.result.solutions[k].str(),
                          s.result.solutions[k].str());
            EXPECT_EQ(c.result.output, s.result.output);
            EXPECT_EQ(c.result.status, s.result.status);
            EXPECT_EQ(c.result.inferences, s.result.inferences);
            EXPECT_EQ(c.result.steps, s.result.steps);
            EXPECT_EQ(c.result.timeNs, s.result.timeNs);
            EXPECT_EQ(c.stallNs, s.stallNs);
            EXPECT_EQ(c.seq.moduleSteps, s.seq.moduleSteps);
            EXPECT_EQ(c.seq.branchOps, s.seq.branchOps);
            EXPECT_EQ(c.seq.wfModes, s.seq.wfModes);
            EXPECT_EQ(c.seq.cacheSteps, s.seq.cacheSteps);
            EXPECT_EQ(c.cache.accesses, s.cache.accesses);
            EXPECT_EQ(c.cache.hits, s.cache.hits);
            EXPECT_EQ(c.cache.readIns, s.cache.readIns);
            EXPECT_EQ(c.cache.writeBacks, s.cache.writeBacks);
            EXPECT_EQ(c.cache.stackAllocs, s.cache.stackAllocs);
            EXPECT_EQ(c.cache.throughWrites, s.cache.throughWrites);
        }
    }
}

/** Non-default cache geometry survives the warm load() path too. */
TEST(ProgramCache, CachedRunsMatchUnderAlternateCacheConfig)
{
    CacheConfig small;
    small.capacityWords = 1024;
    small.ways = 1;
    small.storeIn = false;

    const auto &p = programs::programById("qsort50");
    PsiRun s = runOnPsi(p, small);
    interp::Engine engine; // constructed with the *default* config:
                           // load() must re-configure it per run
    kl0::CompiledProgram image =
        kl0::CompiledProgram::compile(p.source);
    PsiRun c = runCompiledOnPsi(engine, image, p.query, small);

    EXPECT_EQ(c.result.steps, s.result.steps);
    EXPECT_EQ(c.result.timeNs, s.result.timeNs);
    EXPECT_EQ(c.stallNs, s.stallNs);
    EXPECT_EQ(c.cache.accesses, s.cache.accesses);
    EXPECT_EQ(c.cache.hits, s.cache.hits);
    EXPECT_EQ(c.cache.readIns, s.cache.readIns);
    EXPECT_EQ(c.cache.writeBacks, s.cache.writeBacks);
    EXPECT_EQ(c.cache.throughWrites, s.cache.throughWrites);
}

TEST(ProgramCache, CountsHitsAndMissesPerDistinctSource)
{
    service::ProgramCache cache;
    const auto &a = programs::programById("nreverse30");
    const auto &b = programs::programById("qsort50");

    auto a1 = cache.get(a.source);
    auto a2 = cache.get(a.source);
    auto b1 = cache.get(b.source);

    EXPECT_EQ(a1.get(), a2.get()); // one shared immutable image
    EXPECT_NE(a1.get(), b1.get());

    auto stats = cache.stats();
    EXPECT_EQ(stats.misses, 2u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.entries, 2u);
}

TEST(ProgramCache, CompileFailurePropagatesAndIsNotCached)
{
    service::ProgramCache cache;
    EXPECT_THROW(cache.get("this is not KL0 ("), FatalError);
    // The poisoned entry is dropped, not memoized.
    EXPECT_EQ(cache.stats().entries, 0u);
    EXPECT_THROW(cache.get("this is not KL0 ("), FatalError);
    EXPECT_EQ(cache.stats().misses, 2u);
}

/**
 * Many threads racing on the same key: exactly one compile, everyone
 * gets the same image.  Run under TSan by the service label.
 */
TEST(ProgramCache, ConcurrentGetSameKeyCompilesOnce)
{
    service::ProgramCache cache;
    const std::string source =
        programs::programById("nreverse30").source;
    constexpr int kThreads = 8;

    std::vector<service::ProgramCache::ProgramPtr> got(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i) {
        threads.emplace_back(
            [&cache, &source, &got, i] { got[i] = cache.get(source); });
    }
    for (auto &t : threads)
        t.join();

    for (int i = 1; i < kThreads; ++i)
        EXPECT_EQ(got[i].get(), got[0].get());
    auto stats = cache.stats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, static_cast<std::uint64_t>(kThreads - 1));
    EXPECT_EQ(stats.entries, 1u);
}

/**
 * Negative path under contention: when the shared compile fails,
 * EVERY concurrently-waiting thread observes the failure (nobody
 * hangs, nobody gets a null image), and the bad entry is dropped so
 * the same cache still compiles a good program afterwards.
 */
TEST(ProgramCache, ConcurrentCompileFailureReachesEveryWaiter)
{
    service::ProgramCache cache;
    const std::string bad = "this is not KL0 (";
    constexpr int kThreads = 8;

    std::atomic<int> threw{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i) {
        threads.emplace_back([&cache, &bad, &threw] {
            try {
                cache.get(bad);
                ADD_FAILURE() << "bad source compiled";
            } catch (const FatalError &) {
                ++threw;
            }
        });
    }
    for (auto &t : threads)
        t.join();

    EXPECT_EQ(threw.load(), kThreads);
    // Not poison-cached: the failed entry is gone, a retry compiles
    // again (and fails again), and a good program still works.
    EXPECT_EQ(cache.stats().entries, 0u);
    EXPECT_THROW(cache.get(bad), FatalError);
    auto image =
        cache.get(programs::programById("nreverse30").source);
    EXPECT_NE(image.get(), nullptr);
    EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(EnginePool, ProgramCacheCountersSurfaceInMetrics)
{
    EnginePool::Config config;
    config.workers = 1;
    config.queueCapacity = 4;
    EnginePool pool(config);

    const auto &p = programs::programById("nreverse30");
    for (int i = 0; i < 3; ++i) {
        auto fut = pool.submit({p, CacheConfig::psi(),
                                interp::RunLimits()});
        ASSERT_TRUE(fut.has_value());
        EXPECT_TRUE(fut->get().ok());
    }

    auto snap = pool.metrics();
    EXPECT_EQ(snap.programCacheMisses, 1u);
    EXPECT_EQ(snap.programCacheHits, 2u);
    EXPECT_EQ(snap.programCacheEntries, 1u);
    EXPECT_GT(snap.total.hostSolveNs, 0u);

    std::string json = metrics::describe(snap).json();
    EXPECT_NE(json.find("\"program_cache_hits\": 2"),
              std::string::npos);
    EXPECT_NE(json.find("\"program_cache_misses\": 1"),
              std::string::npos);
    EXPECT_NE(json.find("\"host_setup_ns\""), std::string::npos);
}

// ---------------------------------------------------------------------
// Deadline covers queue wait
// ---------------------------------------------------------------------

/**
 * Regression: the deadline budget used to start only when the engine
 * began executing, so a short-deadline job stuck behind a slow one
 * still ran its full budget after the wait.  Now the budget starts
 * at submit: a job whose budget is exhausted by queue wait completes
 * as Timeout in ~queue-wait time, without ever touching an engine.
 */
TEST(EnginePool, DeadlineBudgetIncludesQueueWait)
{
    EnginePool::Config config;
    config.workers = 1;
    config.queueCapacity = 4;
    EnginePool pool(config);

    // Occupy the single worker for ~400 ms.
    auto slow = pool.submit({loopProgram(), CacheConfig::psi(),
                             deadlineLimits(400)});
    ASSERT_TRUE(slow.has_value());
    while (pool.queueDepth() > 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    // 10 ms budget, ~400 ms of queue ahead of it: dead on arrival.
    auto doomed = pool.submit({programs::programById("nreverse30"),
                               CacheConfig::psi(),
                               deadlineLimits(10)});
    ASSERT_TRUE(doomed.has_value());

    JobOutcome out = doomed->get();
    EXPECT_EQ(out.status(), interp::RunStatus::Timeout);
    EXPECT_TRUE(out.expired);
    // The engine never ran: no model work, no per-run host time.
    EXPECT_EQ(out.run.result.steps, 0u);
    EXPECT_EQ(out.run.result.inferences, 0u);
    EXPECT_EQ(out.setupNs, 0u);
    EXPECT_EQ(out.solveNs, 0u);
    // It timed out in ~queue-wait time, not queue wait + budget:
    // completion is dominated by the wait itself.
    EXPECT_GE(out.queueNs, 10 * kMsNs);
    EXPECT_LT(out.latencyNs - out.queueNs, 10 * kMsNs);

    EXPECT_EQ(slow->get().status(), interp::RunStatus::Timeout);
    auto snap = pool.metrics();
    EXPECT_EQ(snap.total.timedOut, 2u);
    EXPECT_EQ(snap.total.expiredInQueue, 1u);
}

/** A still-live budget is reduced by the time spent queueing. */
TEST(EnginePool, RemainingBudgetShrinksWithQueueWait)
{
    EnginePool::Config config;
    config.workers = 1;
    config.queueCapacity = 4;
    EnginePool pool(config);

    // ~1 s of queue ahead, 3 s total budget.  With the budget
    // anchored at submit the loop job behind runs for only the
    // *remaining* ~2 s and its whole-request latency lands near 3 s;
    // the old engine-anchored budget would have run the full 3 s
    // after pickup (~4 s latency).
    auto slow = pool.submit({loopProgram(), CacheConfig::psi(),
                             deadlineLimits(1'000)});
    ASSERT_TRUE(slow.has_value());
    auto behind = pool.submit({loopProgram(), CacheConfig::psi(),
                               deadlineLimits(3'000)});
    ASSERT_TRUE(behind.has_value());

    JobOutcome out = behind->get();
    EXPECT_EQ(out.status(), interp::RunStatus::Timeout);
    EXPECT_FALSE(out.expired);
    EXPECT_GT(out.run.result.steps, 0u);
    EXPECT_GE(out.queueNs, 900 * kMsNs);
    // Whole-request latency stays near the submit-anchored budget,
    // with slack for the deadline poll granularity - it must not be
    // queue wait *plus* the full budget.
    EXPECT_LT(out.latencyNs, 3'600 * kMsNs);
}

/**
 * The deadline audit for fast mode, part 1: a fast-mode job whose
 * budget is consumed by queue wait must complete as Timeout with the
 * expired flag and zero stats, exactly like a fidelity job - the
 * expiry check runs before the worker ever picks an engine.
 */
TEST(EnginePool, FastModeQueueExpiryMatchesFidelity)
{
    EnginePool::Config config;
    config.workers = 1;
    config.queueCapacity = 4;
    EnginePool pool(config);

    QueryJob slow{loopProgram(), CacheConfig::psi(),
                  deadlineLimits(400)};
    slow.mode = interp::ExecMode::Fast;
    auto running = pool.submit(std::move(slow));
    ASSERT_TRUE(running.has_value());
    while (pool.queueDepth() > 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    QueryJob doomed{programs::programById("nreverse30"),
                    CacheConfig::psi(), deadlineLimits(10)};
    doomed.mode = interp::ExecMode::Fast;
    auto f = pool.submit(std::move(doomed));
    ASSERT_TRUE(f.has_value());

    JobOutcome out = f->get();
    EXPECT_EQ(out.status(), interp::RunStatus::Timeout);
    EXPECT_TRUE(out.expired);
    EXPECT_EQ(out.mode, interp::ExecMode::Fast);
    EXPECT_EQ(out.run.result.steps, 0u);
    EXPECT_EQ(out.run.result.inferences, 0u);
    EXPECT_EQ(out.setupNs, 0u);
    EXPECT_EQ(out.solveNs, 0u);

    EXPECT_EQ(running->get().status(), interp::RunStatus::Timeout);
    auto snap = pool.metrics();
    EXPECT_EQ(snap.total.expiredInQueue, 1u);
}

/**
 * Part 2: a runaway fast-mode solve honors deadlineNs.  The fast
 * loop only polls the clock every few thousand dispatches, so allow
 * generous (but bounded) granularity slack on top of the budget.
 */
TEST(EnginePool, FastModeRunawaySolveHonorsDeadline)
{
    EnginePool::Config config;
    config.workers = 1;
    EnginePool pool(config);

    QueryJob runaway{loopProgram(), CacheConfig::psi(),
                     deadlineLimits(100)};
    runaway.mode = interp::ExecMode::Fast;
    auto f = pool.submit(std::move(runaway));
    ASSERT_TRUE(f.has_value());

    JobOutcome out = f->get();
    EXPECT_EQ(out.status(), interp::RunStatus::Timeout);
    EXPECT_FALSE(out.expired);
    EXPECT_EQ(out.mode, interp::ExecMode::Fast);
    // ~100 ms budget; anything past 2 s means the deadline poll is
    // broken, not merely coarse.
    EXPECT_LT(out.latencyNs, 2'000 * kMsNs);

    // The worker is free afterwards: a normal fast job completes.
    QueryJob next{programs::programById("nreverse30"),
                  CacheConfig::psi(), interp::RunLimits()};
    next.mode = interp::ExecMode::Fast;
    auto g = pool.submit(std::move(next));
    ASSERT_TRUE(g.has_value());
    EXPECT_EQ(g->get().status(), interp::RunStatus::Ok);
}

// ---------------------------------------------------------------------
// Registry lookups (actionable failures)
// ---------------------------------------------------------------------

TEST(Registry, FindProgramByIdReturnsNullForUnknown)
{
    EXPECT_EQ(programs::findProgramById("no_such_workload"), nullptr);
    ASSERT_NE(programs::findProgramById("nreverse30"), nullptr);
    EXPECT_EQ(programs::findProgramById("nreverse30")->id,
              "nreverse30");
}

TEST(Registry, ProgramByIdErrorListsAvailableNames)
{
    try {
        programs::programById("no_such_workload");
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("no_such_workload"), std::string::npos);
        EXPECT_NE(msg.find("available"), std::string::npos);
        EXPECT_NE(msg.find("nreverse30"), std::string::npos);
    }
}

} // namespace
