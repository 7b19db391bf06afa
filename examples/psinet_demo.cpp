/**
 * @file
 * psinet demo: the daemon and its client in one binary.
 *
 *     $ ./examples/psinet_demo serve -P 9734 -w 4 --trace &
 *     $ ./examples/psinet_demo submit queens1 bup3
 *     $ ./examples/psinet_demo submit -d 100 harmonizer3
 *     $ ./examples/psinet_demo stats
 *     $ ./examples/psinet_demo metrics     # Prometheus text
 *     $ ./examples/psinet_demo trace       # Chrome trace JSON
 *     $ ./examples/psinet_demo drain
 *
 * `serve` runs the PsiServer event loop in the foreground and drains
 * gracefully on SIGINT/SIGTERM (or a client's `drain`): it stops
 * accepting, finishes in-flight jobs, flushes every reply, prints
 * the final metrics table and exits.  With --trace it records
 * psitrace spans for every request, served on demand by `trace`.
 *
 * The client commands open with a HELLO handshake, so connecting to
 * a future incompatible server fails with its structured ERROR
 * instead of a silent hang.
 */

#include <iostream>
#include <string>
#include <vector>

#include "psi.hpp"

namespace {

using namespace psi;

constexpr std::uint16_t kDefaultPort = 9734;

int
cmdServe(int argc, char **argv)
{
    std::uint64_t port = kDefaultPort;
    unsigned workers = 4;
    std::uint64_t capacity = 64;
    bool traceOn = false;

    Flags flags("psinet_demo serve [options]");
    flags.opt("-P", &port, "TCP port (default 9734, 0 = ephemeral)")
        .opt("-w", &workers, "pool worker threads (default 4)")
        .opt("-q", &capacity,
             "job queue capacity (default 64); a SUBMIT that finds "
             "it full gets OVERLOADED")
        .flag("--trace", &traceOn,
              "record psitrace spans (fetch with the trace command)");
    if (!flags.parse(argc, argv))
        return 1;
    if (traceOn)
        trace::setEnabled(true);

    net::PsiServer::Config config;
    config.port = static_cast<std::uint16_t>(port);
    config.workers = workers;
    config.queueCapacity = static_cast<std::size_t>(capacity);

    net::PsiServer server(config);
    std::string error;
    if (!server.start(&error)) {
        std::cerr << "psinet: " << error << "\n";
        return 1;
    }
    server.installSignalHandlers();

    std::cout << "psinet: listening on 127.0.0.1:" << server.port()
              << ", " << workers << " workers, queue capacity "
              << capacity << " (fail-fast)"
              << "\npsinet: SIGINT/SIGTERM or a DRAIN message drains "
                 "gracefully\n";

    server.run();

    std::cout << "\npsinet: drained; final metrics\n";
    metrics::describe(server.metrics())
        .table("psid service metrics")
        .print(std::cout);
    return 0;
}

/** Shared client-side connection flags. */
struct Endpoint
{
    std::string host = "127.0.0.1";
    std::uint64_t port = kDefaultPort;

    void
    registerWith(Flags &flags)
    {
        flags.opt("-H", &host, "server host (default 127.0.0.1)")
            .opt("-P", &port, "server port (default 9734)");
    }

    bool
    connect(net::PsiClient &client)
    {
        std::string error;
        if (!client.connect(host, static_cast<std::uint16_t>(port),
                            &error)) {
            std::cerr << "psinet: " << error << "\n";
            return false;
        }
        // Version handshake up front: an incompatible server
        // answers with a structured ERROR instead of garbage later.
        if (!client.hello(net::kSupportedFeatures, -1, &error)) {
            std::cerr << "psinet: " << error << "\n";
            return false;
        }
        return true;
    }
};

int
cmdSubmit(int argc, char **argv)
{
    Endpoint endpoint;
    std::uint64_t deadline_ms = 0;
    Flags flags("psinet_demo submit [options] [workload ...]");
    endpoint.registerWith(flags);
    flags.opt("-d", &deadline_ms,
              "per-request deadline in ms (0 = none)");
    std::vector<std::string> ids;
    if (!flags.parse(argc, argv, &ids))
        return 1;
    if (ids.empty()) {
        for (const auto &p : programs::allPrograms())
            ids.push_back(p.id);
    }

    net::PsiClient client;
    if (!endpoint.connect(client))
        return 1;

    int failures = 0;
    for (const auto &id : ids) {
        std::string error;
        auto result = client.submit(
            net::Request{id, deadline_ms * 1'000'000ull}, nullptr,
            &error);
        if (!result) {
            std::cerr << "psinet: " << id << ": " << error << "\n";
            return 1;
        }
        std::cout << "  " << id << ": "
                  << net::wireStatusName(result->status);
        if (!result->ran()) {
            std::cout << " (" << result->error << ")\n";
            ++failures;
            continue;
        }
        std::cout << ", " << result->inferences << " inferences, "
                  << stats::fixed(result->modelNs / 1e6, 2)
                  << " model ms, "
                  << stats::fixed(result->latencyNs / 1e6, 2)
                  << " ms server latency";
        if (!result->solutions.empty())
            std::cout << ", " << result->solutions.front();
        std::cout << "\n";
    }
    return failures == 0 ? 0 : 1;
}

int
cmdStats(int argc, char **argv)
{
    Endpoint endpoint;
    Flags flags("psinet_demo stats [options]");
    endpoint.registerWith(flags);
    if (!flags.parse(argc, argv))
        return 1;

    net::PsiClient client;
    if (!endpoint.connect(client))
        return 1;
    std::string error;
    auto json = client.stats(-1, &error);
    if (!json) {
        std::cerr << "psinet: " << error << "\n";
        return 1;
    }
    std::cout << *json << "\n";
    return 0;
}

int
cmdMetrics(int argc, char **argv)
{
    Endpoint endpoint;
    Flags flags("psinet_demo metrics [options]");
    endpoint.registerWith(flags);
    if (!flags.parse(argc, argv))
        return 1;

    net::PsiClient client;
    if (!endpoint.connect(client))
        return 1;
    std::string error;
    auto text = client.metricsText(-1, &error);
    if (!text) {
        std::cerr << "psinet: " << error << "\n";
        return 1;
    }
    std::cout << *text;
    return 0;
}

int
cmdTrace(int argc, char **argv)
{
    Endpoint endpoint;
    Flags flags("psinet_demo trace [options]");
    endpoint.registerWith(flags);
    if (!flags.parse(argc, argv))
        return 1;

    net::PsiClient client;
    if (!endpoint.connect(client))
        return 1;
    std::string error;
    auto json = client.traceJson(-1, &error);
    if (!json) {
        std::cerr << "psinet: " << error << "\n";
        return 1;
    }
    std::cout << *json;
    return 0;
}

int
cmdDrain(int argc, char **argv)
{
    Endpoint endpoint;
    Flags flags("psinet_demo drain [options]");
    endpoint.registerWith(flags);
    if (!flags.parse(argc, argv))
        return 1;

    net::PsiClient client;
    if (!endpoint.connect(client))
        return 1;
    std::string error;
    if (!client.drain(-1, &error)) {
        std::cerr << "psinet: " << error << "\n";
        return 1;
    }
    std::cout << "psinet: server acknowledged drain\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string usage =
        "usage: psinet_demo {serve|submit|stats|metrics|trace|drain}"
        " [options]\n"
        "       psinet_demo <command> -h   for command options\n";
    if (argc < 2) {
        std::cerr << usage;
        return 1;
    }
    std::string command = argv[1];
    // Hand the command's own argv (sans the command word) down.
    argv[1] = argv[0];
    if (command == "serve")
        return cmdServe(argc - 1, argv + 1);
    if (command == "submit")
        return cmdSubmit(argc - 1, argv + 1);
    if (command == "stats")
        return cmdStats(argc - 1, argv + 1);
    if (command == "metrics")
        return cmdMetrics(argc - 1, argv + 1);
    if (command == "trace")
        return cmdTrace(argc - 1, argv + 1);
    if (command == "drain")
        return cmdDrain(argc - 1, argv + 1);
    std::cerr << "unknown command '" << command << "'\n" << usage;
    return 1;
}
