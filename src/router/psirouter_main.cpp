/**
 * @file
 * psirouter: the shared-nothing cluster front end as a daemon.
 *
 *     $ ./src/psirouter -P 9733 \
 *           --backend 127.0.0.1:9734 --backend 127.0.0.1:9735
 *
 * Fronts N independent psinet backends (each a PsiServer, e.g.
 * `psinet_demo serve`): requests are sharded by the program's
 * source-content hash on a consistent-hash ring, so each backend's
 * compiled-program cache and warm engines serve a stable shard.
 * Backends are health-checked and ejected/re-admitted automatically;
 * a backend killed mid-batch has its unacknowledged requests failed
 * over to the ring successor, losing nothing.
 *
 * Clients speak the ordinary psinet protocol to the router (the
 * HELLO_ACK carries the routing feature bit); STATS/METRICS against
 * the router report per-backend routed/retried/ejected counters and
 * the shard-affinity hit ratio.  SIGINT/SIGTERM (or a DRAIN message)
 * drains gracefully: every forwarded request is answered before
 * exit.
 */

#include <iostream>
#include <string>
#include <vector>

#include "base/flags.hpp"
#include "base/metrics.hpp"
#include "base/trace.hpp"
#include "router/router.hpp"

int
main(int argc, char **argv)
{
    using namespace psi;

    std::uint64_t port = 9733;
    std::vector<std::string> backendSpecs;
    std::uint64_t vnodes = 128;
    std::uint64_t probeMs = 200;
    std::uint64_t probeTimeoutMs = 1000;
    std::uint64_t ejectAfter = 3;
    bool reusePort = false;
    bool traceOn = false;

    Flags flags("psirouter --backend host:port [--backend ...] "
                "[options]");
    flags
        .opt("-P", &port,
             "TCP port to listen on (default 9733, 0 = ephemeral)")
        .opt("--backend", &backendSpecs,
             "backend address host:port (repeat once per backend)")
        .opt("--vnodes", &vnodes,
             "ring points per backend (default 128)")
        .opt("--probe-ms", &probeMs,
             "health probe interval in ms (default 200)")
        .opt("--probe-timeout-ms", &probeTimeoutMs,
             "probe timeout in ms (default 1000)")
        .opt("--eject-after", &ejectAfter,
             "consecutive probe failures before ejection (default 3)")
        .flag("--reuseport",
              &reusePort, "set SO_REUSEPORT on the listener so "
                          "several routers can share the port")
        .flag("--trace", &traceOn,
              "record psitrace spans (fetch with a TRACE message)");
    if (!flags.parse(argc, argv))
        return 1;
    if (traceOn)
        trace::setEnabled(true);

    router::PsiRouter::Config config;
    config.port = static_cast<std::uint16_t>(port);
    config.vnodes = static_cast<unsigned>(vnodes);
    config.probeIntervalNs = probeMs * 1'000'000ull;
    config.probeTimeoutNs = probeTimeoutMs * 1'000'000ull;
    config.ejectAfterFailures = static_cast<unsigned>(ejectAfter);
    config.reusePort = reusePort;
    for (const std::string &spec : backendSpecs) {
        std::string error;
        auto addr = router::BackendAddr::parse(spec, &error);
        if (!addr) {
            std::cerr << "psirouter: " << error << "\n";
            return 1;
        }
        config.backends.push_back(*addr);
    }
    if (config.backends.empty()) {
        std::cerr << "psirouter: at least one --backend is required\n"
                  << flags.usage();
        return 1;
    }

    router::PsiRouter router(config);
    std::string error;
    if (!router.start(&error)) {
        std::cerr << "psirouter: " << error << "\n";
        return 1;
    }
    router.installSignalHandlers();

    std::cout << "psirouter: listening on 127.0.0.1:" << router.port()
              << ", " << config.backends.size() << " backends:";
    for (const auto &addr : config.backends)
        std::cout << ' ' << addr.str();
    std::cout << "\npsirouter: SIGINT/SIGTERM or a DRAIN message "
                 "drains gracefully\n";

    router.run();

    std::cout << "\npsirouter: drained; final metrics\n";
    metrics::describe(router.metrics())
        .table("psirouter metrics")
        .print(std::cout);
    return 0;
}
