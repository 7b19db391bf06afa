#include "service/metrics.hpp"

#include <utility>

#include "base/metrics.hpp"
#include "service/engine_pool.hpp"

namespace psi {
namespace service {

void
accumulate(micro::SeqStats &into, const micro::SeqStats &from)
{
    for (std::size_t i = 0; i < into.moduleSteps.size(); ++i)
        into.moduleSteps[i] += from.moduleSteps[i];
    for (std::size_t i = 0; i < into.branchOps.size(); ++i)
        into.branchOps[i] += from.branchOps[i];
    for (std::size_t f = 0; f < into.wfModes.size(); ++f) {
        for (std::size_t m = 0; m < into.wfModes[f].size(); ++m)
            into.wfModes[f][m] += from.wfModes[f][m];
    }
    for (std::size_t i = 0; i < into.cacheSteps.size(); ++i)
        into.cacheSteps[i] += from.cacheSteps[i];
}

void
accumulate(CacheStats &into, const CacheStats &from)
{
    for (std::size_t a = 0; a < into.accesses.size(); ++a) {
        for (std::size_t c = 0; c < into.accesses[a].size(); ++c) {
            into.accesses[a][c] += from.accesses[a][c];
            into.hits[a][c] += from.hits[a][c];
        }
    }
    into.readIns += from.readIns;
    into.writeBacks += from.writeBacks;
    into.stackAllocs += from.stackAllocs;
    into.throughWrites += from.throughWrites;
}

void
WorkerMetrics::record(const JobOutcome &outcome)
{
    ++completed;
    if (outcome.mode == interp::ExecMode::Fast)
        ++jobsFast;
    else
        ++jobsFidelity;
    if (!outcome.ok()) {
        ++errored;
    } else {
        switch (outcome.status()) {
          case interp::RunStatus::Timeout:
            ++timedOut;
            if (outcome.expired)
                ++expiredInQueue;
            break;
          case interp::RunStatus::StepLimit:
            ++stepLimited;
            break;
          case interp::RunStatus::Ok:
            if (outcome.run.result.succeeded())
                ++succeeded;
            break;
        }
    }

    inferences += outcome.run.result.inferences;
    indexHits += outcome.indexHits;
    indexFallbacks += outcome.indexFallbacks;
    modelNs += outcome.run.result.timeNs;
    stallNs += outcome.run.stallNs;
    hostExecNs += outcome.execNs;
    hostSetupNs += outcome.setupNs;
    hostSolveNs += outcome.solveNs;
    accumulate(seq, outcome.run.seq);
    accumulate(cache, outcome.run.cache);
    latency.record(outcome.latencyNs);
    queueWait.record(outcome.queueNs);
    // Stage histograms only make sense for jobs that reached an
    // engine; queue-expired jobs have no setup/solve phase.
    if (outcome.ok() && !outcome.expired) {
        setup.record(outcome.setupNs);
        solve.record(outcome.solveNs);
    }
}

void
WorkerMetrics::merge(const WorkerMetrics &other)
{
    completed += other.completed;
    jobsFidelity += other.jobsFidelity;
    jobsFast += other.jobsFast;
    succeeded += other.succeeded;
    timedOut += other.timedOut;
    stepLimited += other.stepLimited;
    errored += other.errored;
    expiredInQueue += other.expiredInQueue;
    inferences += other.inferences;
    indexHits += other.indexHits;
    indexFallbacks += other.indexFallbacks;
    modelNs += other.modelNs;
    stallNs += other.stallNs;
    hostExecNs += other.hostExecNs;
    hostSetupNs += other.hostSetupNs;
    hostSolveNs += other.hostSolveNs;
    accumulate(seq, other.seq);
    accumulate(cache, other.cache);
    latency.merge(other.latency);
    queueWait.merge(other.queueWait);
    setup.merge(other.setup);
    solve.merge(other.solve);
}

double
MetricsSnapshot::hostLips(std::uint64_t wall_ns) const
{
    return wall_ns == 0
        ? 0.0
        : static_cast<double>(total.inferences) * 1e9 /
              static_cast<double>(wall_ns);
}

void
MetricsSnapshot::describe(metrics::Registry &r, std::uint64_t wall_ns) const
{
    using metrics::nanos;
    r.add("workers", r.gauge("psi_workers"), workers);
    r.add("submitted", r.counter("psi_jobs_submitted_total"), submitted);
    r.add("completed", r.counter("psi_jobs_completed_total"),
          total.completed);
    const auto mode = r.counter("psi_jobs_mode_total");
    r.add("completed_fidelity", mode, total.jobsFidelity,
          {{"mode", "fidelity"}});
    r.add("completed_fast", mode, total.jobsFast, {{"mode", "fast"}});
    r.add("succeeded", r.counter("psi_jobs_succeeded_total"),
          total.succeeded);
    r.add("timed_out", r.counter("psi_jobs_timed_out_total"),
          total.timedOut);
    r.add("expired_in_queue", r.counter("psi_jobs_expired_in_queue_total"),
          total.expiredInQueue);
    r.add("step_limited", r.counter("psi_jobs_step_limited_total"),
          total.stepLimited);
    r.add("errored", r.counter("psi_jobs_errored_total"), total.errored);
    r.add("rejected", r.counter("psi_jobs_rejected_total"), rejected);
    r.add("queue_depth", r.gauge("psi_queue_depth"), queueDepth);
    r.add("peak_queue_depth", r.gauge("psi_queue_depth_peak"),
          peakQueueDepth);

    r.add("inferences", r.counter("psi_inferences_total"),
          total.inferences);
    r.add("index_hits", r.counter("psi_index_hits_total"), total.indexHits);
    r.add("index_fallbacks", r.counter("psi_index_fallbacks_total"),
          total.indexFallbacks);
    r.add("microsteps", r.counter("psi_microsteps_total"), total.steps());
    r.add("model_ns", r.counter("psi_model_seconds_total"),
          nanos(total.modelNs));
    r.add("stall_ns", r.counter("psi_stall_seconds_total"),
          nanos(total.stallNs));
    r.add("host_exec_ns", r.counter("psi_host_exec_seconds_total"),
          nanos(total.hostExecNs));
    r.add("host_setup_ns", r.counter("psi_host_setup_seconds_total"),
          nanos(total.hostSetupNs));
    r.add("host_solve_ns", r.counter("psi_host_solve_seconds_total"),
          nanos(total.hostSolveNs));

    // Per-stage duration summaries; "request" is the whole
    // submit-to-completion latency the clients observe.
    const auto stage =
        r.family("psi_request_stage_seconds", metrics::Type::Summary);
    const std::pair<const char *, const LatencyHistogram &> stages[] = {
        {"queue", total.queueWait},
        {"setup", total.setup},
        {"solve", total.solve},
        {"request", total.latency}};
    static const std::pair<const char *, double> kQs[] = {
        {"0.5", 0.5}, {"0.95", 0.95}, {"0.99", 0.99}};
    for (const auto &[name, h] : stages) {
        for (const auto &[label, q] : kQs)
            r.add("", stage, nanos(h.quantileNs(q)),
                  {{"stage", name}, {"quantile", label}});
        r.add("", stage, nanos(h.sumNs()), {{"stage", name}}, "_sum");
        r.add("", stage, h.count(), {{"stage", name}}, "_count");
    }

    // Firmware module steps (paper Table 2).
    const auto module = r.counter("psi_firmware_module_steps_total");
    for (int m = 0; m < micro::kNumModules; ++m)
        r.add("", module, total.seq.moduleSteps[m],
              {{"module",
                micro::moduleName(static_cast<micro::Module>(m))}});
    // Steps per cache command (paper Table 3).
    const auto cmdSteps = r.counter("psi_cache_command_steps_total");
    for (int c = 0; c < kNumCacheCmds; ++c)
        r.add("", cmdSteps, total.seq.cacheSteps[c],
              {{"cmd", cacheCmdName(static_cast<CacheCmd>(c))}});
    // Cache accesses / hits per area and command (Tables 4-5).
    const auto accesses = r.counter("psi_cache_accesses_total");
    const auto hits = r.counter("psi_cache_hits_total");
    for (int a = 0; a < kNumAreas; ++a) {
        for (int c = 0; c < kNumCacheCmds; ++c) {
            const metrics::Labels l = {
                {"area", areaName(static_cast<Area>(a))},
                {"cmd", cacheCmdName(static_cast<CacheCmd>(c))}};
            r.add("", accesses, total.cache.accesses[a][c], l);
            r.add("", hits, total.cache.hits[a][c], l);
        }
    }
    r.add("", r.counter("psi_cache_read_ins_total"), total.cache.readIns);
    r.add("", r.counter("psi_cache_write_backs_total"),
          total.cache.writeBacks);
    r.add("", r.counter("psi_cache_stack_allocs_total"),
          total.cache.stackAllocs);
    r.add("", r.counter("psi_cache_through_writes_total"),
          total.cache.throughWrites);
    const double hitPct = total.cache.totalHitPct();
    r.add("cache_hit_pct", {}, metrics::fixed(hitPct, 3));
    r.add("", r.gauge("psi_cache_hit_ratio"),
          metrics::fixed(hitPct / 100.0, 6));

    r.add("program_cache_hits", r.counter("psi_program_cache_hits_total"),
          programCacheHits);
    r.add("program_cache_misses",
          r.counter("psi_program_cache_misses_total"), programCacheMisses);
    r.add("program_cache_entries", r.gauge("psi_program_cache_entries"),
          programCacheEntries);

    sched.describe(r);

    r.add("net_conns_accepted", r.counter("psi_net_conns_accepted_total"),
          netConnsAccepted);
    r.add("net_conns_dropped", r.counter("psi_net_conns_dropped_total"),
          netConnsDropped);
    r.add("net_bad_frames", r.counter("psi_net_bad_frames_total"),
          netBadFrames);
    r.add("net_decode_errors", r.counter("psi_net_decode_errors_total"),
          netDecodeErrors);
    r.add("net_version_rejects",
          r.counter("psi_net_version_rejects_total"), netVersionRejects);

    // Client-observed latency in STATS; METRICS has the request-stage
    // summaries above instead.
    r.add("latency_p50_ns", {}, total.latency.quantileNs(0.50));
    r.add("latency_p95_ns", {}, total.latency.quantileNs(0.95));
    r.add("latency_p99_ns", {}, total.latency.quantileNs(0.99));
    r.add("latency_min_ns", {}, total.latency.minNs());
    r.add("latency_max_ns", {}, total.latency.maxNs());
    r.add("latency_mean_ns", {}, metrics::fixed(total.latency.meanNs(), 0));
    r.add("queue_wait_p50_ns", {}, total.queueWait.quantileNs(0.50));
    r.add("queue_wait_p99_ns", {}, total.queueWait.quantileNs(0.99));
    if (wall_ns != 0) {
        r.add("wall_ns", r.gauge("psi_wall_seconds"), nanos(wall_ns));
        r.add("aggregate_lips", r.gauge("psi_aggregate_lips"),
              metrics::fixed(hostLips(wall_ns), 1));
    }
}

} // namespace service
} // namespace psi
