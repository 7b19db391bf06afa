#include "service/engine_pool.hpp"

#include "base/logging.hpp"
#include "base/trace.hpp"
#include "fast/fast_engine.hpp"
#include "interp/engine.hpp"
#include "kl0/compiled_program.hpp"

namespace psi {
namespace service {

namespace {

sched::SchedConfig
poolSchedConfig(const EnginePool::Config &config)
{
    sched::SchedConfig sc = config.sched;
    sc.capacity = config.queueCapacity;
    return sc;
}

} // namespace

EnginePool::EnginePool() : EnginePool(Config()) {}

EnginePool::EnginePool(const Config &config)
    : _config(config),
      _programCache(config.programCache
                        ? config.programCache
                        : std::make_shared<ProgramCache>()),
      _sched(sched::makeScheduler<Job>(config.scheduler,
                                       poolSchedConfig(config)))
{
    if (_config.workers == 0)
        _config.workers = 1;
    _shards.reserve(_config.workers);
    _threads.reserve(_config.workers);
    for (unsigned i = 0; i < _config.workers; ++i)
        _shards.push_back(std::make_unique<Shard>());
    for (unsigned i = 0; i < _config.workers; ++i)
        _threads.emplace_back([this, i] { workerMain(i); });
}

EnginePool::~EnginePool()
{
    shutdown();
}

std::optional<SubmitError>
EnginePool::enqueue(Job &&job, Submit mode)
{
    sched::TaskInfo info;
    info.tenant = job.query.tenant;
    info.affinityKey =
        kl0::CompiledProgram::hashSource(job.query.program.source);
    info.deadlineNs = job.query.limits.deadlineNs;
    info.submitted = job.submitted;

    sched::PushResult r = mode == Submit::Block
        ? _sched->push(info, job)
        : _sched->tryPush(info, job);
    switch (r) {
      case sched::PushResult::Ok:
        break;
      case sched::PushResult::QueueFull:
        _rejected.fetch_add(1, std::memory_order_relaxed);
        return SubmitError::QueueFull;
      case sched::PushResult::QuotaExceeded:
        _rejected.fetch_add(1, std::memory_order_relaxed);
        return SubmitError::TenantQuota;
      case sched::PushResult::Closed:
        _rejected.fetch_add(1, std::memory_order_relaxed);
        return SubmitError::ShutDown;
    }

    _submitted.fetch_add(1, std::memory_order_relaxed);
    std::uint64_t depth = _sched->size();
    std::uint64_t peak = _peakDepth.load(std::memory_order_relaxed);
    while (depth > peak &&
           !_peakDepth.compare_exchange_weak(
               peak, depth, std::memory_order_relaxed)) {
    }
    return std::nullopt;
}

std::optional<std::future<JobOutcome>>
EnginePool::submit(QueryJob query, Submit mode)
{
    Job job;
    job.query = std::move(query);
    job.submitted = std::chrono::steady_clock::now();
    std::future<JobOutcome> fut = job.promise.get_future();

    if (enqueue(std::move(job), mode))
        return std::nullopt;
    return fut;
}

std::optional<SubmitError>
EnginePool::submitAsync(QueryJob query,
                        std::function<void(JobOutcome)> done,
                        Submit mode)
{
    Job job;
    job.query = std::move(query);
    job.done = std::move(done);
    job.submitted = std::chrono::steady_clock::now();

    return enqueue(std::move(job), mode);
}

void
EnginePool::workerMain(unsigned index)
{
    auto ns = [](auto from, auto to) {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                to - from)
                .count());
    };

    Shard &shard = *_shards[index];
    // One long-lived engine per worker.  load() fully resets machine,
    // memory and statistics state between jobs, so each job still
    // observes a machine indistinguishable from a fresh construction
    // - without paying the construction, or the per-request KL0
    // compile the shared ProgramCache now absorbs.
    interp::Engine engine;
    // The fast engine sits beside the fidelity engine: both stay warm
    // so a worker alternating modes never reconstructs either.  It is
    // only instantiated on the first fast job (its flat segments cost
    // a little memory a fidelity-only deployment shouldn't pay).
    std::unique_ptr<fast::FastEngine> fastEngine;
    // The affinity key of the image the warm engine currently
    // holds; the scheduler batches same-key jobs onto this worker.
    std::uint64_t loadedKey = 0;
    while (std::optional<sched::Dispatched<Job>> d =
               _sched->pop(index, loadedKey)) {
        Job *job = &d->item;
        auto picked = std::chrono::steady_clock::now();

        JobOutcome out;
        out.id = job->query.program.id;
        out.queueNs = ns(job->submitted, picked);
        out.traceTag = job->query.traceTag;
        out.mode = job->query.mode;

        // Spans are recorded only for tagged jobs with tracing on;
        // the tracing bool keeps the disabled path to one relaxed
        // load per job.
        const bool tracing = trace::enabled() && out.traceTag != 0;
        if (tracing) {
            std::uint64_t qStart = trace::toNs(job->submitted);
            std::uint64_t qEnd = trace::toNs(picked);
            trace::record(trace::Stage::Queue, out.traceTag, qStart,
                          qEnd);
            // Attribute the same wait to its scheduling class, so a
            // trace shows *why* the request dispatched when it did.
            trace::Stage cls = trace::Stage::SchedFair;
            if (d->cls == sched::DispatchClass::Affinity)
                cls = trace::Stage::SchedAffinity;
            else if (d->cls == sched::DispatchClass::Aged)
                cls = trace::Stage::SchedAged;
            trace::record(cls, out.traceTag, qStart, qEnd);
        }

        // The deadline budget starts at submit, so queue wait counts
        // against it.  Dead-on-arrival jobs complete as Timeout right
        // here instead of burning a worker on a doomed run.
        const std::uint64_t budget = job->query.limits.deadlineNs;
        if (budget != 0 && out.queueNs >= budget) {
            out.expired = true;
            out.run.result.status = interp::RunStatus::Timeout;
        } else {
            try {
                std::uint64_t tFetch =
                    tracing ? trace::nowNs() : 0;
                bool compiled = false;
                ProgramCache::ProgramPtr image = _programCache->get(
                    job->query.program.source, job->query.compile,
                    &compiled);
                if (tracing)
                    trace::record(compiled
                                      ? trace::Stage::Compile
                                      : trace::Stage::CacheHit,
                                  out.traceTag, tFetch,
                                  trace::nowNs());
                const bool fast =
                    job->query.mode == interp::ExecMode::Fast;
                if (fast) {
                    if (!fastEngine)
                        fastEngine =
                            std::make_unique<fast::FastEngine>();
                    fastEngine->load(*image);
                } else {
                    engine.load(*image, job->query.cache);
                }
                loadedKey = image->sourceHash();
                auto loaded = std::chrono::steady_clock::now();
                if (tracing)
                    trace::record(trace::Stage::Setup, out.traceTag,
                                  trace::toNs(picked),
                                  trace::toNs(loaded));

                interp::RunLimits limits = job->query.limits;
                if (budget != 0)
                    limits.deadlineNs = budget - out.queueNs;
                if (fast) {
                    // No sequencer, cache model or stall clock to
                    // copy: fast runs report zero hardware stats.
                    out.run.result = fastEngine->solve(
                        job->query.program.query, limits);
                    out.indexHits = fastEngine->indexHits();
                    out.indexFallbacks = fastEngine->indexFallbacks();
                } else {
                    out.run.result = engine.solve(
                        job->query.program.query, limits);
                    out.run.seq = engine.seq().stats();
                    out.run.cache = engine.mem().cache().stats();
                    out.run.stallNs = engine.mem().stallNs();
                    out.indexHits = engine.indexHits();
                    out.indexFallbacks = engine.indexFallbacks();
                }

                auto solved = std::chrono::steady_clock::now();
                if (tracing)
                    trace::record(trace::Stage::Solve, out.traceTag,
                                  trace::toNs(loaded),
                                  trace::toNs(solved));
                out.setupNs = ns(picked, loaded);
                out.solveNs = ns(loaded, solved);
            } catch (const FatalError &e) {
                out.error = e.what();
                // The engine may be mid-load; don't advertise its
                // image as warm to the scheduler.
                loadedKey = 0;
            }
        }

        auto done = std::chrono::steady_clock::now();
        out.execNs = ns(picked, done);
        out.latencyNs = ns(job->submitted, done);

        // Record before fulfilling the promise so a caller who has
        // waited on the future observes the job in the metrics.
        {
            std::lock_guard<std::mutex> lock(shard.m);
            shard.wm.record(out);
        }
        if (job->done)
            job->done(std::move(out));
        else
            job->promise.set_value(std::move(out));
    }
}

void
EnginePool::shutdown()
{
    bool expected = false;
    if (!_shutdown.compare_exchange_strong(expected, true))
        return;
    _sched->close();
    for (auto &t : _threads) {
        if (t.joinable())
            t.join();
    }
}

MetricsSnapshot
EnginePool::metrics() const
{
    MetricsSnapshot snap;
    for (const auto &shard : _shards) {
        std::lock_guard<std::mutex> lock(shard->m);
        snap.total.merge(shard->wm);
    }
    snap.submitted = _submitted.load(std::memory_order_relaxed);
    snap.rejected = _rejected.load(std::memory_order_relaxed);
    snap.queueDepth = _sched->size();
    snap.peakQueueDepth = _peakDepth.load(std::memory_order_relaxed);
    snap.workers = _config.workers;
    snap.sched = _sched->snapshot();
    ProgramCache::Stats pc = _programCache->stats();
    snap.programCacheHits = pc.hits;
    snap.programCacheMisses = pc.misses;
    snap.programCacheEntries = pc.entries;
    return snap;
}

} // namespace service
} // namespace psi
