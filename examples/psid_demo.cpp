/**
 * @file
 * psid demo: submit a batch of workloads to an EnginePool and print
 * the per-job outcomes plus the aggregated service metrics (table
 * and machine-readable JSON).
 *
 *     $ ./examples/psid_demo                        # registry, 4 workers
 *     $ ./examples/psid_demo -w 8                   # 8 workers
 *     $ ./examples/psid_demo -d 100 queens1 bup3    # 100 ms deadline
 *     $ ./examples/psid_demo --trace-out trace.json # psitrace spans
 *
 * Flags: -w N workers, -q N queue capacity, -d MS per-job deadline,
 * --trace-out FILE Chrome trace-event JSON of the batch.
 */

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "psi.hpp"

int
main(int argc, char **argv)
{
    using namespace psi;
    using clock = std::chrono::steady_clock;

    unsigned workers = 4;
    std::uint64_t capacity = 0;  // 0 = sized to the batch
    std::uint64_t deadline_ms = 0;
    std::string traceOut;

    Flags flags("psid_demo [options] [workload ...]");
    flags.opt("-w", &workers, "worker threads (default 4)")
        .opt("-q", &capacity, "queue capacity (default: batch size)")
        .opt("-d", &deadline_ms, "per-job deadline in ms (0 = none)")
        .opt("--trace-out", &traceOut,
             "enable psitrace; write Chrome trace JSON to FILE");
    std::vector<std::string> ids;
    if (!flags.parse(argc, argv, &ids))
        return 1;
    if (!traceOut.empty())
        trace::setEnabled(true);

    std::vector<programs::BenchProgram> batch;
    try {
        batch = programs::resolveProgramsOrAll(ids);
    } catch (const FatalError &e) {
        std::cerr << e.what() << "\n";
        return 1;
    }

    service::EnginePool::Config config;
    config.workers = workers;
    config.queueCapacity =
        capacity ? static_cast<std::size_t>(capacity) : batch.size();
    service::EnginePool pool(config);

    interp::RunLimits limits;
    limits.deadlineNs = deadline_ms * 1'000'000ull;

    std::cout << "psid: " << batch.size() << " jobs, "
              << pool.workers() << " workers, queue capacity "
              << pool.queueCapacity() << "\n\n";

    auto t0 = clock::now();
    std::vector<std::future<service::JobOutcome>> futures;
    futures.reserve(batch.size());
    for (const auto &p : batch) {
        service::QueryJob job{p, CacheConfig::psi(), limits};
        if (trace::enabled())
            job.traceTag = trace::nextTag();
        auto fut = pool.submit(std::move(job));
        if (!fut) {
            std::cerr << "submit refused for " << p.id << "\n";
            return 1;
        }
        futures.push_back(std::move(*fut));
    }

    for (auto &fut : futures) {
        service::JobOutcome out = fut.get();
        std::cout << "  " << out.id << ": ";
        if (!out.ok()) {
            std::cout << "ERROR " << out.error << "\n";
            continue;
        }
        std::cout << interp::runStatusName(out.status()) << ", "
                  << out.run.result.inferences << " inferences, "
                  << stats::fixed(out.run.result.timeNs / 1e6, 2)
                  << " model ms, "
                  << stats::fixed(out.latencyNs / 1e6, 2)
                  << " ms latency (queue "
                  << stats::fixed(out.queueNs / 1e6, 2) << " ms)\n";
    }
    auto wall_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            clock::now() - t0)
            .count());

    auto snap = pool.metrics();
    std::cout << "\n";
    const metrics::Registry r = metrics::describe(snap, wall_ns);
    r.table("psid service metrics").print(std::cout);
    std::cout << "\nJSON: " << r.json() << "\n";

    if (!traceOut.empty()) {
        std::vector<trace::Span> spans = trace::collect();
        std::ofstream out(traceOut);
        if (!out) {
            std::cerr << "psid_demo: cannot write " << traceOut
                      << "\n";
            return 1;
        }
        out << trace::chromeJson(spans);
        std::cout << "\ntrace: wrote " << spans.size()
                  << " spans to " << traceOut << "\n";
    }
    return 0;
}
