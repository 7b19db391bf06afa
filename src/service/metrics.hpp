/**
 * @file
 * psid metrics: per-worker shards and the merged service snapshot.
 *
 * Each pool worker owns a WorkerMetrics shard and records into it
 * with no cross-worker contention; the aggregator merges every shard
 * (plus the pool-level submit/reject gauges) into a MetricsSnapshot
 * on demand.  MetricsSnapshot::describe() declares every metric
 * once to a metrics::Registry (base/metrics.hpp), which renders the
 * STATS JSON object, the METRICS Prometheus text and the human
 * table from those declarations.
 *
 * Aggregated quantities: job counters (completed / succeeded /
 * timed-out / step-limited / errored, plus pool-level submitted /
 * rejected and queue depth), the merged hardware statistics
 * (micro::SeqStats, CacheStats, model time, stall time) and two
 * latency histograms (queue wait and total submit-to-completion)
 * with p50/p95/p99 queries.
 */

#ifndef PSI_SERVICE_METRICS_HPP
#define PSI_SERVICE_METRICS_HPP

#include <cstdint>
#include <string>

#include "mem/cache.hpp"
#include "micro/sequencer.hpp"
#include "sched/metrics.hpp"
#include "service/histogram.hpp"

namespace psi {
namespace service {

struct JobOutcome;

/** @name Hardware-statistics merge helpers (shard aggregation) */
/// @{
void accumulate(micro::SeqStats &into, const micro::SeqStats &from);
void accumulate(CacheStats &into, const CacheStats &from);
/// @}

/** One worker's (mergeable) slice of the service metrics. */
struct WorkerMetrics
{
    std::uint64_t completed = 0;   ///< jobs finished (any status)
    std::uint64_t succeeded = 0;   ///< ... with >= 1 solution
    std::uint64_t timedOut = 0;    ///< ... RunStatus::Timeout
    std::uint64_t stepLimited = 0; ///< ... RunStatus::StepLimit
    std::uint64_t errored = 0;     ///< ... FatalError from the engine
    /** Timeouts whose whole budget was spent queueing: completed as
     *  RunStatus::Timeout without ever touching an engine. */
    std::uint64_t expiredInQueue = 0;
    /** @name Per-execution-mode split of `completed` */
    /// @{
    std::uint64_t jobsFidelity = 0; ///< microcoded interpreter runs
    std::uint64_t jobsFast = 0;     ///< flat-storage fast runs
    /// @}

    std::uint64_t inferences = 0;  ///< user-predicate calls
    /** @name First-argument index counters (both engines) */
    /// @{
    std::uint64_t indexHits = 0;      ///< calls served via the index
    std::uint64_t indexFallbacks = 0; ///< indexed calls gone linear
    /// @}
    std::uint64_t modelNs = 0;     ///< model clock (steps + stalls)
    std::uint64_t stallNs = 0;     ///< memory stall share
    std::uint64_t hostExecNs = 0;  ///< host time spent executing
    std::uint64_t hostSetupNs = 0; ///< ... program fetch + load share
    std::uint64_t hostSolveNs = 0; ///< ... query compile + run share

    micro::SeqStats seq;           ///< merged firmware statistics
    CacheStats cache;              ///< merged cache statistics
    LatencyHistogram latency;      ///< submit -> completion (host ns)
    LatencyHistogram queueWait;    ///< submit -> worker pickup
    /** @name Per-stage duration summaries (jobs that ran only) */
    /// @{
    LatencyHistogram setup;        ///< program fetch + image load
    LatencyHistogram solve;        ///< query compile + run
    /// @}

    std::uint64_t steps() const { return seq.totalSteps(); }

    /** Fold one finished job into this shard. */
    void record(const JobOutcome &outcome);

    /** Fold another shard into this one. */
    void merge(const WorkerMetrics &other);
};

/** Point-in-time aggregate over the whole pool. */
struct MetricsSnapshot
{
    WorkerMetrics total;               ///< all worker shards merged
    std::uint64_t submitted = 0;       ///< jobs accepted into the queue
    std::uint64_t rejected = 0;        ///< fail-fast submissions refused
    std::uint64_t queueDepth = 0;      ///< jobs waiting right now
    std::uint64_t peakQueueDepth = 0;  ///< high-water mark
    unsigned workers = 0;

    /** @name Shared ProgramCache counters (compile-once hot path) */
    /// @{
    std::uint64_t programCacheHits = 0;
    std::uint64_t programCacheMisses = 0;
    std::uint64_t programCacheEntries = 0;
    /// @}

    /** Scheduler counters: per-tenant fairness, affinity batching
     *  (see sched/metrics.hpp). */
    sched::SchedSnapshot sched;

    /** @name Wire-level counters (filled by net::PsiServer) */
    /// @{
    std::uint64_t netConnsAccepted = 0; ///< connections accepted
    std::uint64_t netConnsDropped = 0;  ///< dropped by the server
    std::uint64_t netBadFrames = 0;     ///< framing-layer rejects
    std::uint64_t netDecodeErrors = 0;  ///< body/protocol rejects
    std::uint64_t netVersionRejects = 0;///< HELLO major refused
    /// @}

    /**
     * Aggregate service throughput: model inferences completed per
     * host second over @p wall_ns of service wall time.
     */
    double hostLips(std::uint64_t wall_ns) const;

    /**
     * Declare every service metric to @p r (the scheduler's through
     * sched.describe()): job counters, the per-stage duration
     * summaries (queue / setup / solve / request) and the firmware +
     * cache aggregates behind the paper's Tables 2-5.  @p wall_ns 0
     * leaves out the wall time and the throughput.
     */
    void describe(metrics::Registry &r, std::uint64_t wall_ns = 0) const;
};

} // namespace service
} // namespace psi

#endif // PSI_SERVICE_METRICS_HPP
