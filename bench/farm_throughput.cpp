/**
 * @file
 * psid scaling curve: run the full workload registry through the
 * engine pool at 1/2/4/8 workers and report aggregate throughput
 * (model inferences completed per host second) plus latency
 * percentiles - the repo's first many-query scaling measurement.
 *
 *     $ ./bench/farm_throughput                 # full registry
 *     $ ./bench/farm_throughput queens1 bup3    # selected workloads
 *     $ ./bench/farm_throughput --json          # JSON lines only
 *     $ ./bench/farm_throughput --light 10 lcp1 # closed-loop latency
 *
 * Each job is an isolated engine simulation, so throughput should
 * scale near-linearly with workers up to the host's core count; the
 * `speedup` column makes the knee visible.  All rounds share one
 * pre-warmed ProgramCache (every source compiled once up front), so
 * they measure the service's steady state and stay comparable to
 * each other.  The setup/solve columns split each request's host
 * time into program install (cache fetch + image load) versus query
 * execution.
 *
 * --light N switches to the closed-loop light-load mode: per
 * workload, one warm-up request followed by N single-in-flight
 * requests against a 1-worker pool, reporting mean request latency
 * and its setup/solve split.  With zero queue wait and a warm cache
 * this is the per-request floor - the number EXPERIMENTS.md tracks.
 *
 * One JSON line per round (or per light-mode workload) is printed
 * for machine consumption; --json suppresses the human table so
 * perf trajectories can be collected by scripts.
 */

#include <chrono>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"

namespace {

using namespace psi;
using clock_type = std::chrono::steady_clock;

struct Round
{
    unsigned workers;
    std::uint64_t wallNs;
    service::MetricsSnapshot snap;
};

Round
runRound(const std::vector<programs::BenchProgram> &batch,
         unsigned workers,
         std::shared_ptr<service::ProgramCache> cache)
{
    service::EnginePool::Config config;
    config.workers = workers;
    config.queueCapacity = batch.size();
    config.programCache = std::move(cache);
    service::EnginePool pool(config);

    auto t0 = clock_type::now();
    std::vector<std::future<service::JobOutcome>> futures;
    futures.reserve(batch.size());
    for (const auto &p : batch) {
        auto fut = pool.submit(service::QueryJob{p, CacheConfig::psi(),
                                                 interp::RunLimits()});
        if (fut)
            futures.push_back(std::move(*fut));
    }
    for (auto &f : futures)
        f.get();
    auto wall = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            clock_type::now() - t0)
            .count());
    return Round{workers, wall, pool.metrics()};
}

/** Closed-loop per-workload means: one request in flight at a time. */
struct LightRow
{
    std::string id;
    std::uint64_t reps = 0;
    std::uint64_t latencyMeanNs = 0; ///< submit -> completion
    std::uint64_t setupMeanNs = 0;   ///< cache fetch + image load
    std::uint64_t solveMeanNs = 0;   ///< query compile + run
};

std::vector<LightRow>
runLight(const std::vector<programs::BenchProgram> &batch,
         std::uint64_t reps)
{
    service::EnginePool::Config config;
    config.workers = 1;
    config.queueCapacity = 4;
    config.programCache = std::make_shared<service::ProgramCache>();
    service::EnginePool pool(config);

    std::vector<LightRow> rows;
    rows.reserve(batch.size());
    for (const auto &p : batch) {
        // Warm-up request: compiles the source into the shared
        // cache and faults the worker's engine into a steady state.
        pool.submit(service::QueryJob{p, CacheConfig::psi(),
                                      interp::RunLimits()})
            ->get();

        LightRow row;
        row.id = p.id;
        row.reps = reps;
        for (std::uint64_t i = 0; i < reps; ++i) {
            service::JobOutcome out =
                pool.submit(service::QueryJob{p, CacheConfig::psi(),
                                              interp::RunLimits()})
                    ->get();
            row.latencyMeanNs += out.latencyNs;
            row.setupMeanNs += out.setupNs;
            row.solveMeanNs += out.solveNs;
        }
        if (reps > 0) {
            row.latencyMeanNs /= reps;
            row.setupMeanNs /= reps;
            row.solveMeanNs /= reps;
        }
        rows.push_back(std::move(row));
    }
    return rows;
}

std::string
lightJson(const LightRow &r)
{
    JsonWriter w;
    w.s("mode", "light");
    w.s("workload", r.id);
    w.u("reps", r.reps);
    w.u("latency_mean_ns", r.latencyMeanNs);
    w.u("setup_mean_ns", r.setupMeanNs);
    w.u("solve_mean_ns", r.solveMeanNs);
    return w.str();
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace psi;

    bool json = false;
    unsigned light = 0;
    Flags flags("farm_throughput [options] [workload ...]");
    flags.flag("--json", &json,
               "print only the per-round metrics JSON lines");
    flags.opt("--light", &light,
              "closed-loop mode: per workload, 1 warm-up + N "
              "single-in-flight requests on 1 worker");
    std::vector<std::string> ids;
    if (!flags.parse(argc, argv, &ids))
        return 1;

    std::vector<programs::BenchProgram> batch;
    try {
        batch = programs::resolveProgramsOrAll(ids);
    } catch (const FatalError &e) {
        std::cerr << e.what() << "\n";
        return 1;
    }

    if (light > 0) {
        if (!json)
            bench::banner("psid light-load latency (closed loop, "
                          "1 worker, warm cache)");
        std::vector<LightRow> rows = runLight(batch, light);
        if (!json) {
            Table t("per-request latency over " +
                    std::to_string(light) + " reps");
            t.setHeader({"workload", "latency us", "setup us",
                         "solve us"});
            for (const auto &r : rows)
                t.addRow({r.id, bench::f2(r.latencyMeanNs / 1e3),
                          bench::f2(r.setupMeanNs / 1e3),
                          bench::f2(r.solveMeanNs / 1e3)});
            t.print(std::cout);
            std::cout << "\n";
        }
        for (const auto &r : rows)
            std::cout << (json ? "" : "JSON: ") << lightJson(r)
                      << "\n";
        return 0;
    }

    if (!json)
        bench::banner("psid farm throughput (" +
                      std::to_string(batch.size()) +
                      " jobs per round)");

    // Compile every source once up front so all rounds run against
    // a warm cache (steady-state service behavior) and the speedup
    // column compares like with like.
    auto cache = std::make_shared<service::ProgramCache>();
    for (const auto &p : batch)
        cache->get(p.source);

    Table t("worker scaling");
    t.setHeader({"workers", "wall ms", "agg LIPS", "speedup",
                 "p50 ms", "p95 ms", "p99 ms", "setup ms",
                 "solve ms", "timeouts"});

    double base_lips = 0.0;
    std::vector<Round> rounds;
    for (unsigned workers : {1u, 2u, 4u, 8u}) {
        Round r = runRound(batch, workers, cache);
        double lips = r.snap.hostLips(r.wallNs);
        if (workers == 1)
            base_lips = lips;
        t.addRow({std::to_string(workers),
                  bench::f2(r.wallNs / 1e6),
                  stats::fixed(lips, 0),
                  bench::f2(base_lips > 0 ? lips / base_lips : 0.0),
                  bench::f2(r.snap.total.latency.quantileNs(0.50) / 1e6),
                  bench::f2(r.snap.total.latency.quantileNs(0.95) / 1e6),
                  bench::f2(r.snap.total.latency.quantileNs(0.99) / 1e6),
                  bench::f2(r.snap.total.hostSetupNs / 1e6),
                  bench::f2(r.snap.total.hostSolveNs / 1e6),
                  std::to_string(r.snap.total.timedOut)});
        rounds.push_back(std::move(r));
    }

    // The snapshot's own JSON renderer carries the whole round
    // (workers, wall_ns, aggregate_lips, quantiles, ...), so the
    // machine-readable mode is one line of it per round.
    if (json) {
        for (const auto &r : rounds)
            std::cout << metrics::describe(r.snap, r.wallNs).json()
                      << "\n";
        return 0;
    }

    t.print(std::cout);
    std::cout << "\n";
    for (const auto &r : rounds)
        std::cout << "JSON: "
                  << metrics::describe(r.snap, r.wallNs).json() << "\n";
    return 0;
}
