/**
 * @file
 * psirouter demo: a whole cluster in one process.
 *
 *     $ ./examples/psirouter_demo            # 3 backends, 2 rounds
 *     $ ./examples/psirouter_demo -n 4 -r 3
 *     $ ./examples/psirouter_demo --kill     # failover, live
 *
 * Boots N PsiServer backends and one PsiRouter in-process, then
 * submits every registry workload through the router for R rounds.
 * Afterwards it shows what the cluster tier is for:
 *
 *  - the router's per-backend table: how the consistent-hash ring
 *    spread the workloads, and the shard-affinity hit ratio;
 *  - each backend's program-cache counters: every distinct program
 *    source compiled on exactly one backend (cluster-wide misses ==
 *    distinct sources), and round 2+ hit the caches everywhere.
 *
 * With --kill, backend 0 is drained mid-batch during the last round:
 * the router ejects it, fails its unacknowledged requests over to
 * the ring successors, and every submit still completes - the
 * retried/ejections columns show the failover at work.
 */

#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "psi.hpp"

namespace {

using namespace psi;

/** Pull one flat-JSON u64 out of a STATS reply. */
std::uint64_t
jsonU64(const std::string &json, const std::string &key)
{
    std::string needle = "\"" + key + "\": ";
    std::size_t at = json.find(needle);
    if (at == std::string::npos)
        return 0;
    return std::strtoull(json.c_str() + at + needle.size(), nullptr,
                         10);
}

} // namespace

int
main(int argc, char **argv)
{
    unsigned backends = 3;
    unsigned rounds = 2;
    unsigned workers = 2;
    bool kill = false;

    Flags flags("psirouter_demo [options]");
    flags.opt("-n", &backends, "backend servers (default 3)")
        .opt("-r", &rounds, "rounds over the registry (default 2)")
        .opt("-w", &workers, "workers per backend (default 2)")
        .flag("--kill", &kill,
              "drain backend 0 mid-batch to show failover");
    if (!flags.parse(argc, argv))
        return 1;
    if (backends == 0 || rounds == 0) {
        std::cerr << "psirouter_demo: -n and -r must be positive\n";
        return 1;
    }

    // --- the cluster: N backends + 1 router, all in-process -------
    std::vector<std::unique_ptr<net::PsiServer>> servers;
    std::vector<std::thread> serverThreads;
    router::PsiRouter::Config rconfig;
    for (unsigned i = 0; i < backends; ++i) {
        net::PsiServer::Config sc;
        sc.workers = workers;
        auto server = std::make_unique<net::PsiServer>(sc);
        std::string error;
        if (!server->start(&error)) {
            std::cerr << "psirouter_demo: backend: " << error
                      << "\n";
            return 1;
        }
        rconfig.backends.push_back(
            router::BackendAddr{"127.0.0.1", server->port()});
        servers.push_back(std::move(server));
    }
    for (auto &server : servers)
        serverThreads.emplace_back([&server] { server->run(); });

    router::PsiRouter router(rconfig);
    std::string error;
    if (!router.start(&error)) {
        std::cerr << "psirouter_demo: router: " << error << "\n";
        return 1;
    }
    std::thread routerThread([&router] { router.run(); });

    std::cout << "psirouter_demo: " << backends
              << " backends behind 127.0.0.1:" << router.port()
              << ", " << rounds << " rounds over "
              << programs::allPrograms().size() << " workloads\n";

    // --- drive every workload through the router -------------------
    net::PsiClient client;
    net::RetryPolicy retry; // failover glitches are retryable
    retry.seed = 20260807;
    int failures = 0;
    const auto &registry = programs::allPrograms();
    for (unsigned round = 0; round < rounds; ++round) {
        for (std::size_t i = 0; i < registry.size(); ++i) {
            if (kill && round == rounds - 1 &&
                i == registry.size() / 2) {
                std::cout << "psirouter_demo: draining backend 0 "
                             "mid-batch...\n";
                servers[0]->requestDrain();
            }
            if (!client.connected() &&
                !client.connect("127.0.0.1", router.port(),
                                &error)) {
                std::cerr << "psirouter_demo: " << error << "\n";
                return 1;
            }
            auto result = client.submit(
                net::Request{registry[i].id, 0}, &retry, &error);
            if (!result) {
                std::cerr << "psirouter_demo: " << registry[i].id
                          << ": " << error << "\n";
                ++failures;
            } else if (!result->ran()) {
                std::cerr << "psirouter_demo: " << registry[i].id
                          << ": "
                          << net::wireStatusName(result->status)
                          << " (" << result->error << ")\n";
                ++failures;
            }
        }
    }

    // --- what the cluster did --------------------------------------
    router::RouterMetrics routed = router.metrics();
    std::cout << '\n';
    metrics::describe(routed).table("psirouter metrics").print(std::cout);
    std::cout << "\naffinity: " << routed.affinityHits << " hits, "
              << routed.affinityMisses << " misses ("
              << stats::fixed(100.0 * routed.affinityRatio(), 1)
              << "% routed to the shard owner)\n";

    std::uint64_t clusterMisses = 0, clusterHits = 0;
    for (std::size_t i = 0; i < servers.size(); ++i) {
        if (kill && i == 0)
            continue; // drained above; its loop has exited
        net::PsiClient direct;
        if (!direct.connect("127.0.0.1", servers[i]->port(),
                            &error))
            continue;
        auto json = direct.stats(-1, &error);
        if (!json)
            continue;
        std::uint64_t misses = jsonU64(*json,
                                       "program_cache_misses");
        std::uint64_t hits = jsonU64(*json, "program_cache_hits");
        clusterMisses += misses;
        clusterHits += hits;
        std::cout << "backend " << i << ": " << misses
                  << " sources compiled, " << hits
                  << " compile-cache hits\n";
    }
    std::cout << "cluster: " << clusterMisses
              << " compiles total for "
              << programs::distinctSourceCount()
              << " distinct program sources ("
              << clusterHits << " cache hits)\n";

    // --- graceful teardown -----------------------------------------
    router.requestDrain();
    routerThread.join();
    for (auto &server : servers)
        server->requestDrain();
    for (auto &thread : serverThreads)
        thread.join();

    if (failures != 0) {
        std::cerr << "psirouter_demo: " << failures
                  << " submits failed\n";
        return 1;
    }
    std::cout << "psirouter_demo: every submit completed\n";
    return 0;
}
