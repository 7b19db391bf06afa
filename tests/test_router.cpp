/**
 * @file
 * psirouter tests: the consistent-hash ring and the cluster tier.
 *
 *  - hash-ring properties: distribution balance across 2/4/8
 *    backends (registry program hashes and a synthetic key sweep),
 *    minimal remap (≤ ~1/N keys move) on leave/join, and
 *    preference-list shape
 *  - loopback cluster integration: full-registry results through a
 *    2-backend router are byte-identical to sequential runOnPsi(),
 *    HELLO negotiation carries the routing feature bit (and a plain
 *    server's does not), STATS/METRICS expose per-backend counters
 *  - shard affinity: across 4 backends every distinct program source
 *    compiles on exactly one backend (cluster-wide program-cache
 *    misses == distinct sources), verified via the backends' own
 *    STATS counters
 *  - chaos: a backend killed mid-pipelined-batch loses zero requests
 *    and duplicates none (exactly-once failover to the ring
 *    successor); an ejected backend is re-admitted after restart
 *  - the client side both share (net::Frontend): a slow consumer
 *    past maxWriteBuffer is dropped, and SIGTERM drains the loop
 *
 * The binary carries the `router` ctest label so the group runs
 * under ThreadSanitizer alongside `service` and `net`:
 *
 *     cmake -B build-tsan -S . -DPSI_SANITIZE=thread
 *     cmake --build build-tsan -j
 *     ctest --test-dir build-tsan -L "service|net|router"
 */

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "psi.hpp"
#include "raw_conn.hpp"

namespace {

using namespace psi;
using psi::tests::RawConn;
using router::BackendAddr;
using router::HashRing;
using router::PsiRouter;

// ---------------------------------------------------------------------
// Consistent-hash ring properties
// ---------------------------------------------------------------------

std::vector<std::uint64_t>
syntheticKeys(std::size_t n)
{
    std::vector<std::uint64_t> keys;
    keys.reserve(n);
    SplitMix64 rng(20260807);
    for (std::size_t i = 0; i < n; ++i)
        keys.push_back(rng.next());
    return keys;
}

std::vector<std::uint64_t>
registryKeys()
{
    // The actual routing keys: every distinct program-source hash in
    // the workload registry.
    std::set<std::uint64_t> distinct;
    for (const auto &p : programs::allPrograms())
        distinct.insert(kl0::CompiledProgram::hashSource(p.source));
    return {distinct.begin(), distinct.end()};
}

TEST(HashRing, BalanceAcrossMemberships)
{
    const auto keys = syntheticKeys(10'000);
    for (unsigned nodes : {2u, 4u, 8u}) {
        HashRing ring;
        for (unsigned n = 0; n < nodes; ++n)
            ring.add(n);

        std::map<std::uint32_t, std::size_t> share;
        for (std::uint64_t key : keys) {
            auto owner = ring.owner(key);
            ASSERT_TRUE(owner.has_value());
            ++share[*owner];
        }
        ASSERT_EQ(share.size(), nodes)
            << "some node owns no keys at all";
        const double mean =
            static_cast<double>(keys.size()) / nodes;
        for (const auto &entry : share) {
            EXPECT_GT(entry.second, 0.5 * mean)
                << "node " << entry.first << " of " << nodes
                << " is starved";
            EXPECT_LT(entry.second, 1.5 * mean)
                << "node " << entry.first << " of " << nodes
                << " is overloaded";
        }
    }
}

TEST(HashRing, RegistryHashesSpreadOverFourBackends)
{
    // The real keyset is small (a dozen distinct sources), so only
    // sanity-level balance holds: with 4 backends no single backend
    // owns everything, and ownership is deterministic.
    const auto keys = registryKeys();
    ASSERT_GE(keys.size(), 8u);

    HashRing ring;
    for (unsigned n = 0; n < 4; ++n)
        ring.add(n);

    std::map<std::uint32_t, std::size_t> share;
    for (std::uint64_t key : keys)
        ++share[*ring.owner(key)];
    EXPECT_GE(share.size(), 2u)
        << "all program sources landed on one backend";
    for (const auto &entry : share)
        EXPECT_LT(entry.second, keys.size())
            << "backend " << entry.first << " owns every source";

    HashRing again;
    for (unsigned n = 0; n < 4; ++n)
        again.add(n);
    for (std::uint64_t key : keys)
        EXPECT_EQ(*ring.owner(key), *again.owner(key))
            << "ownership must be a pure function of membership";
}

TEST(HashRing, MinimalRemapOnLeave)
{
    const auto keys = syntheticKeys(10'000);
    for (unsigned nodes : {2u, 4u, 8u}) {
        HashRing ring;
        for (unsigned n = 0; n < nodes; ++n)
            ring.add(n);

        std::map<std::uint64_t, std::uint32_t> before;
        for (std::uint64_t key : keys)
            before[key] = *ring.owner(key);

        const std::uint32_t leaver = nodes / 2;
        ring.remove(leaver);

        std::size_t moved = 0;
        for (std::uint64_t key : keys) {
            std::uint32_t now = *ring.owner(key);
            if (before[key] == leaver) {
                ++moved;
                EXPECT_NE(now, leaver);
            } else {
                // THE consistent-hashing property: keys not owned by
                // the leaver must not move at all.
                EXPECT_EQ(now, before[key])
                    << "a surviving backend's key moved on leave";
            }
        }
        // The leaver owned ~1/N of the keys; allow balance slack.
        EXPECT_LT(static_cast<double>(moved),
                  1.5 * keys.size() / nodes)
            << "leave of one of " << nodes
            << " nodes moved too many keys";
    }
}

TEST(HashRing, JoinMovesKeysOnlyToTheJoiner)
{
    const auto keys = syntheticKeys(10'000);
    HashRing ring;
    for (unsigned n = 0; n < 4; ++n)
        ring.add(n);

    std::map<std::uint64_t, std::uint32_t> before;
    for (std::uint64_t key : keys)
        before[key] = *ring.owner(key);

    ring.add(4);
    std::size_t moved = 0;
    for (std::uint64_t key : keys) {
        std::uint32_t now = *ring.owner(key);
        if (now != before[key]) {
            ++moved;
            EXPECT_EQ(now, 4u)
                << "a key moved between pre-existing backends";
        }
    }
    EXPECT_GT(moved, 0u) << "the joiner took no load";
    EXPECT_LT(static_cast<double>(moved), 1.5 * keys.size() / 5);

    // Leave + rejoin restores the original layout exactly: the ring
    // is a pure function of the membership set.
    ring.remove(4);
    for (std::uint64_t key : keys)
        EXPECT_EQ(*ring.owner(key), before[key]);
}

TEST(HashRing, PreferenceStartsAtOwnerAndCoversAll)
{
    HashRing ring;
    for (unsigned n = 0; n < 5; ++n)
        ring.add(n);

    SplitMix64 rng(7);
    for (int i = 0; i < 200; ++i) {
        std::uint64_t key = rng.next();
        auto pref = ring.preference(key, 5);
        ASSERT_EQ(pref.size(), 5u);
        EXPECT_EQ(pref.front(), *ring.owner(key));
        std::set<std::uint32_t> distinct(pref.begin(), pref.end());
        EXPECT_EQ(distinct.size(), 5u)
            << "preference list repeated a node";

        // Asking for more than the membership clamps.
        EXPECT_EQ(ring.preference(key, 99).size(), 5u);
        // A shorter list is a prefix of the longer one.
        auto two = ring.preference(key, 2);
        ASSERT_EQ(two.size(), 2u);
        EXPECT_EQ(two[0], pref[0]);
        EXPECT_EQ(two[1], pref[1]);
    }

    HashRing empty;
    EXPECT_FALSE(empty.owner(42).has_value());
    EXPECT_TRUE(empty.preference(42, 3).empty());
}

TEST(BackendAddrParse, AcceptsHostPortFormsRejectsGarbage)
{
    auto full = BackendAddr::parse("10.1.2.3:9734");
    ASSERT_TRUE(full.has_value());
    EXPECT_EQ(full->host, "10.1.2.3");
    EXPECT_EQ(full->port, 9734);

    auto bare = BackendAddr::parse("9735");
    ASSERT_TRUE(bare.has_value());
    EXPECT_EQ(bare->host, "127.0.0.1");
    EXPECT_EQ(bare->port, 9735);

    auto colon = BackendAddr::parse(":9736");
    ASSERT_TRUE(colon.has_value());
    EXPECT_EQ(colon->host, "127.0.0.1");
    EXPECT_EQ(colon->port, 9736);

    std::string error;
    EXPECT_FALSE(BackendAddr::parse("host:", &error).has_value());
    EXPECT_FALSE(BackendAddr::parse("host:0", &error).has_value());
    EXPECT_FALSE(
        BackendAddr::parse("host:66000", &error).has_value());
    EXPECT_FALSE(BackendAddr::parse("host:12x", &error).has_value());
    EXPECT_NE(error.find("bad backend"), std::string::npos);
}

// ---------------------------------------------------------------------
// Loopback cluster harness
// ---------------------------------------------------------------------

/** One PsiServer backend running its loop on a background thread. */
struct BackendHarness
{
    net::PsiServer server;
    std::thread loop;

    explicit BackendHarness(std::uint16_t port = 0,
                            unsigned workers = 2,
                            std::size_t maxWriteBuffer =
                                net::ListenConfig().maxWriteBuffer)
        : server([&] {
              net::PsiServer::Config config;
              config.port = port;
              config.workers = workers;
              config.queueCapacity = 64;
              config.maxWriteBuffer = maxWriteBuffer;
              return config;
          }())
    {
        std::string error;
        if (!server.start(&error))
            throw std::runtime_error("backend start: " + error);
        loop = std::thread([this] { server.run(); });
    }

    ~BackendHarness()
    {
        server.requestDrain();
        if (loop.joinable())
            loop.join();
    }

    std::uint16_t port() const { return server.port(); }
};

/** Fast-paced router timings so ejection/readmission tests run in
 *  milliseconds, not the production-default seconds. */
PsiRouter::Config
routerConfig(const std::vector<std::uint16_t> &backendPorts)
{
    PsiRouter::Config config;
    for (std::uint16_t port : backendPorts)
        config.backends.push_back(BackendAddr{"127.0.0.1", port});
    config.probeIntervalNs = 20'000'000;   // 20 ms
    config.probeTimeoutNs = 200'000'000;   // 200 ms
    config.ejectAfterFailures = 2;
    config.connectTimeoutNs = 200'000'000; // 200 ms
    config.readmission = {5'000'000, 50'000'000, 2.0, 20260807};
    return config;
}

/** A PsiRouter running its loop on a background thread. */
struct RouterHarness
{
    PsiRouter router;
    std::thread loop;

    explicit RouterHarness(const PsiRouter::Config &config)
        : router(config)
    {
        std::string error;
        if (!router.start(&error))
            throw std::runtime_error("router start: " + error);
        loop = std::thread([this] { router.run(); });
    }

    ~RouterHarness()
    {
        router.requestDrain();
        if (loop.joinable())
            loop.join();
    }

    std::uint16_t port() const { return router.port(); }

    /** Block until @p n backends are admitted to the ring. */
    void
    waitForAdmission(std::size_t n)
    {
        for (int spins = 0; spins < 5000; ++spins) {
            std::size_t admitted = 0;
            for (const auto &b : router.metrics().backends)
                admitted += b.admitted ? 1 : 0;
            if (admitted >= n)
                return;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(1));
        }
        FAIL() << "backends were not admitted within 5 s";
    }
};

/** Pull one flat-JSON u64 counter out of a STATS reply. */
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

/** Byte-for-byte comparison of a wire RESULT vs a sequential run. */
void
expectMatchesSequential(const net::ResultMsg &got,
                        const programs::BenchProgram &program)
{
    PsiRun want = runOnPsi(program);
    EXPECT_EQ(got.status, net::wireStatus(want.result.status));
    ASSERT_EQ(got.solutions.size(), want.result.solutions.size());
    for (std::size_t i = 0; i < got.solutions.size(); ++i)
        EXPECT_EQ(got.solutions[i], want.result.solutions[i].str());
    EXPECT_EQ(got.output, want.result.output);
    EXPECT_EQ(got.inferences, want.result.inferences);
    EXPECT_EQ(got.steps, want.result.steps);
    EXPECT_EQ(got.modelNs, want.result.timeNs);
    EXPECT_EQ(got.stallNs, want.stallNs);
    EXPECT_EQ(got.seq.moduleSteps, want.seq.moduleSteps);
    EXPECT_EQ(got.seq.branchOps, want.seq.branchOps);
    EXPECT_EQ(got.seq.wfModes, want.seq.wfModes);
    EXPECT_EQ(got.seq.cacheSteps, want.seq.cacheSteps);
    EXPECT_EQ(got.cache.accesses, want.cache.accesses);
    EXPECT_EQ(got.cache.hits, want.cache.hits);
    EXPECT_EQ(got.cache.readIns, want.cache.readIns);
    EXPECT_EQ(got.cache.writeBacks, want.cache.writeBacks);
    EXPECT_EQ(got.cache.stackAllocs, want.cache.stackAllocs);
    EXPECT_EQ(got.cache.throughWrites, want.cache.throughWrites);
}

// ---------------------------------------------------------------------
// Cluster integration
// ---------------------------------------------------------------------

TEST(Router, HelloAckCarriesRoutingBitOnlyFromTheRouter)
{
    BackendHarness backend;
    RouterHarness router(routerConfig({backend.port()}));
    router.waitForAdmission(1);
    std::string error;

    net::PsiClient viaRouter;
    ASSERT_TRUE(
        viaRouter.connect("127.0.0.1", router.port(), &error))
        << error;
    auto routerAck = viaRouter.hello(
        net::kSupportedFeatures | net::kFeatureRouting, -1, &error);
    ASSERT_TRUE(routerAck.has_value()) << error;
    EXPECT_EQ(routerAck->versionMajor, net::kProtocolMajor);
    EXPECT_TRUE(routerAck->features & net::kFeatureRouting)
        << "router must advertise the routing feature bit";
    EXPECT_TRUE(routerAck->features & net::kFeatureMetrics);

    net::PsiClient direct;
    ASSERT_TRUE(
        direct.connect("127.0.0.1", backend.port(), &error))
        << error;
    auto serverAck = direct.hello(
        net::kSupportedFeatures | net::kFeatureRouting, -1, &error);
    ASSERT_TRUE(serverAck.has_value()) << error;
    EXPECT_FALSE(serverAck->features & net::kFeatureRouting)
        << "a plain server must NOT advertise routing";
}

TEST(Router, RegistryThroughTwoBackendsMatchesSequential)
{
    BackendHarness backend0, backend1;
    RouterHarness router(
        routerConfig({backend0.port(), backend1.port()}));
    router.waitForAdmission(2);

    net::PsiClient client;
    std::string error;
    ASSERT_TRUE(client.connect("127.0.0.1", router.port(), &error))
        << error;

    for (const auto &program : programs::allPrograms()) {
        SCOPED_TRACE(program.id);
        auto got =
            client.submit(net::Request{program.id}, nullptr, &error);
        ASSERT_TRUE(got.has_value()) << error;
        expectMatchesSequential(*got, program);
        EXPECT_GT(got->latencyNs, 0u);
    }

    // Both backends actually served a share of the registry.
    router::RouterMetrics metrics = router.router.metrics();
    for (const auto &b : metrics.backends) {
        EXPECT_GT(b.routed, 0u) << b.addr << " was never routed to";
        EXPECT_EQ(b.routed, b.completed);
    }
    EXPECT_EQ(metrics.affinityMisses, 0u);
    EXPECT_EQ(metrics.staleDropped, 0u);
}

/**
 * The v2.2 mode flag rides through the router to the backend: a
 * fast-mode request comes back with fidelity-identical answers and
 * the zeroed accounting that marks it as fast-served.
 */
TEST(Router, FastModeForwardsThroughToBackends)
{
    BackendHarness backend;
    RouterHarness router(routerConfig({backend.port()}));
    router.waitForAdmission(1);

    net::PsiClient client;
    std::string error;
    ASSERT_TRUE(client.connect("127.0.0.1", router.port(), &error))
        << error;

    const auto &program = programs::programById("nreverse30");
    PsiRun want = runOnPsi(program);

    net::Request request{program.id};
    request.mode = interp::ExecMode::Fast;
    auto got = client.submit(request, nullptr, &error);
    ASSERT_TRUE(got.has_value()) << error;
    EXPECT_EQ(got->status, net::WireStatus::Ok);
    ASSERT_EQ(got->solutions.size(), want.result.solutions.size());
    for (std::size_t i = 0; i < got->solutions.size(); ++i)
        EXPECT_EQ(got->solutions[i], want.result.solutions[i].str());
    EXPECT_EQ(got->inferences, want.result.inferences);
    // steps == 0 on a completed solve proves the backend really ran
    // the fast engine - fidelity would have counted every step.
    EXPECT_EQ(got->steps, 0u);
    EXPECT_EQ(got->modelNs, 0u);
}

/** A backend named by host name is resolved once, at start(), and
 *  serves requests like one given as a dotted quad. */
TEST(Router, HostNameBackendServesSubmit)
{
    BackendHarness backend;
    PsiRouter::Config config = routerConfig({});
    config.backends.push_back(BackendAddr{"localhost", backend.port()});
    RouterHarness router(config);
    router.waitForAdmission(1);

    net::PsiClient client;
    std::string error;
    ASSERT_TRUE(client.connect("localhost", router.port(), &error))
        << error;
    const auto &program = programs::programById("nreverse30");
    auto got = client.submit(net::Request{program.id}, nullptr, &error);
    ASSERT_TRUE(got.has_value()) << error;
    expectMatchesSequential(*got, program);
    EXPECT_EQ(router.router.metrics().backends[0].routed, 1u);
}

TEST(Router, UnknownWorkloadRefusedAtTheRouter)
{
    BackendHarness backend;
    RouterHarness router(routerConfig({backend.port()}));
    router.waitForAdmission(1);

    net::PsiClient client;
    std::string error;
    ASSERT_TRUE(client.connect("127.0.0.1", router.port(), &error))
        << error;
    auto result = client.submit(net::Request{"no-such-workload"},
                                nullptr, &error);
    ASSERT_TRUE(result.has_value()) << error;
    EXPECT_EQ(result->status, net::WireStatus::UnknownWorkload);
    EXPECT_NE(result->error.find("available"), std::string::npos);
    // Refused locally: nothing was forwarded to the backend.
    EXPECT_EQ(router.router.metrics().backends[0].routed, 0u);
}

/** A refused HELLO and a bad frame cost the router only that
 *  client: the ERROR arrives before the close, and a well-behaved
 *  client on another connection is still routed. */
TEST(Router, UnsupportedMajorAndBadFrameDropOnlyThatClient)
{
    BackendHarness backend;
    RouterHarness router(routerConfig({backend.port()}));
    router.waitForAdmission(1);

    RawConn hello(router.port());
    net::HelloMsg bad;
    bad.versionMajor = 99;
    ASSERT_TRUE(hello.sendAll(net::encode(net::Message(bad))));
    bool eof = false;
    auto reply = hello.readMessage(&eof);
    ASSERT_TRUE(reply.has_value()) << "no ERROR before close";
    ASSERT_TRUE(std::holds_alternative<net::ErrorMsg>(*reply));
    const auto &err = std::get<net::ErrorMsg>(*reply);
    EXPECT_EQ(err.code, net::kErrUnsupportedVersion);
    EXPECT_NE(err.message.find("unsupported protocol major 99; "
                               "router speaks"),
              std::string::npos)
        << err.message;
    EXPECT_FALSE(hello.readMessage(&eof).has_value());
    EXPECT_TRUE(eof) << "router kept a refused client open";

    RawConn oversized(router.port());
    ASSERT_TRUE(oversized.sendAll(psi::tests::oversizedPrefix()));
    EXPECT_FALSE(oversized.readMessage(&eof).has_value());
    EXPECT_TRUE(eof) << "router kept an oversized-frame client open";

    net::PsiClient client;
    std::string error;
    ASSERT_TRUE(client.connect("127.0.0.1", router.port(), &error))
        << error;
    auto result =
        client.submit(net::Request{"nreverse30"}, nullptr, &error);
    ASSERT_TRUE(result.has_value()) << error;
    EXPECT_EQ(result->status, net::WireStatus::Ok);
}

TEST(Router, StatsAndMetricsExposePerBackendCounters)
{
    BackendHarness backend0, backend1;
    RouterHarness router(
        routerConfig({backend0.port(), backend1.port()}));
    router.waitForAdmission(2);

    net::PsiClient client;
    std::string error;
    ASSERT_TRUE(client.connect("127.0.0.1", router.port(), &error))
        << error;
    ASSERT_TRUE(
        client.submit(net::Request{"nreverse30"}, nullptr, &error))
        << error;

    auto json = client.stats(-1, &error);
    ASSERT_TRUE(json.has_value()) << error;
    EXPECT_NE(json->find("\"role\": \"router\""),
              std::string::npos);
    EXPECT_EQ(jsonU64(*json, "backends"), 2u);
    EXPECT_EQ(jsonU64(*json, "backends_admitted"), 2u);
    EXPECT_EQ(jsonU64(*json, "submits"), 1u);
    EXPECT_EQ(jsonU64(*json, "backend_0_routed") +
                  jsonU64(*json, "backend_1_routed"),
              1u);
    EXPECT_NE(json->find("affinity_ratio"), std::string::npos);

    auto text = client.metricsText(-1, &error);
    ASSERT_TRUE(text.has_value()) << error;
    EXPECT_NE(text->find("# TYPE psi_router_routed_total counter"),
              std::string::npos);
    EXPECT_NE(text->find("psi_router_routed_total{backend=\""),
              std::string::npos);
    EXPECT_NE(text->find("psi_router_affinity_ratio"),
              std::string::npos);
    EXPECT_NE(text->find("psi_router_ejections_total"),
              std::string::npos);
}

/** The shard-affinity acceptance criterion: across 4 backends every
 *  distinct program source compiles on exactly one backend, so the
 *  cluster-wide program-cache miss count equals the number of
 *  distinct sources (verified via the backends' own STATS). */
TEST(Router, ShardAffinityCompilesEachSourceOnExactlyOneBackend)
{
    std::vector<std::unique_ptr<BackendHarness>> backends;
    std::vector<std::uint16_t> ports;
    for (int i = 0; i < 4; ++i) {
        backends.push_back(std::make_unique<BackendHarness>());
        ports.push_back(backends.back()->port());
    }
    RouterHarness router(routerConfig(ports));
    router.waitForAdmission(4);

    net::PsiClient client;
    std::string error;
    ASSERT_TRUE(client.connect("127.0.0.1", router.port(), &error))
        << error;
    for (int round = 0; round < 2; ++round)
        for (const auto &program : programs::allPrograms()) {
            auto result = client.submit(net::Request{program.id},
                                        nullptr, &error);
            ASSERT_TRUE(result.has_value())
                << program.id << ": " << error;
            ASSERT_TRUE(result->ran())
                << program.id << ": " << result->error;
        }

    // With every backend admitted the whole run, no request was
    // diverted off its home shard...
    router::RouterMetrics metrics = router.router.metrics();
    EXPECT_EQ(metrics.affinityMisses, 0u);
    EXPECT_EQ(metrics.affinityHits,
              2 * programs::allPrograms().size());

    // ...so each distinct source compiled on exactly one backend:
    // cluster-wide misses == distinct sources, and every backend's
    // second-round submits all hit its compile cache.
    std::uint64_t clusterMisses = 0;
    for (const auto &backend : backends) {
        net::PsiClient direct;
        ASSERT_TRUE(direct.connect("127.0.0.1", backend->port(),
                                   &error))
            << error;
        auto json = direct.stats(-1, &error);
        ASSERT_TRUE(json.has_value()) << error;
        clusterMisses += jsonU64(*json, "program_cache_misses");
    }
    EXPECT_EQ(clusterMisses, programs::distinctSourceCount());
}

TEST(Router, DrainAnswersAckAndExitsTheLoop)
{
    BackendHarness backend;
    auto router = std::make_unique<RouterHarness>(
        routerConfig({backend.port()}));
    router->waitForAdmission(1);
    std::uint16_t port = router->port();

    net::PsiClient client;
    std::string error;
    ASSERT_TRUE(client.connect("127.0.0.1", port, &error)) << error;
    ASSERT_TRUE(client.drain(-1, &error)) << error;
    EXPECT_TRUE(router->router.draining());

    // The loop exits on its own once drained; a new SUBMIT on the
    // still-open connection is refused.
    auto refused =
        client.submit(net::Request{"nreverse30"}, nullptr, &error);
    if (refused.has_value()) {
        EXPECT_EQ(refused->status, net::WireStatus::Draining);
    }

    router->loop.join();
    router.reset();
    net::PsiClient after;
    EXPECT_FALSE(after.connect("127.0.0.1", port, &error));
}

// ---------------------------------------------------------------------
// Chaos: failover and re-admission
// ---------------------------------------------------------------------

/** The cluster-wide chaos invariant: one of two backends is killed
 *  in the middle of a pipelined batch; every request must complete
 *  exactly once, byte-identical to an undisturbed sequential run. */
TEST(RouterChaos, BackendKilledMidBatchLosesNothing)
{
    BackendHarness survivor;
    auto victim = std::make_unique<BackendHarness>();

    // The victim sits behind a transparent faultnet proxy: stopping
    // the proxy hard-kills the router->victim path mid-batch (RSTs
    // the live connection AND refuses the redial), exactly like a
    // machine dropping off the network.
    net::FaultProxy proxy("127.0.0.1", victim->port(),
                          net::FaultSchedule{});
    std::string error;
    ASSERT_TRUE(proxy.start(&error)) << error;

    RouterHarness router(
        routerConfig({survivor.port(), proxy.port()}));
    router.waitForAdmission(2);

    net::PsiClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", router.port(), &error))
        << error;

    // Pipeline the whole registry through the router at once.
    const auto &registry = programs::allPrograms();
    std::map<std::uint64_t, std::string> tagToWorkload;
    for (const auto &program : registry) {
        std::uint64_t tag = 0;
        ASSERT_TRUE(client.sendSubmit(program.id, 0, &tag, &error))
            << error;
        tagToWorkload[tag] = program.id;
    }

    // Collect a few results, then kill the victim mid-batch.
    std::map<std::string, net::ResultMsg> results;
    for (int i = 0; i < 3; ++i) {
        auto msg = client.recvResult(60'000, &error);
        ASSERT_TRUE(msg.has_value()) << error;
        results.emplace(tagToWorkload.at(msg->tag),
                        std::move(*msg));
    }
    proxy.stop();

    // Zero lost: every remaining request still completes (failover
    // resubmits the victim's unacknowledged work to the survivor).
    while (results.size() < registry.size()) {
        auto msg = client.recvResult(60'000, &error);
        ASSERT_TRUE(msg.has_value())
            << "request lost after backend kill: " << error;
        auto inserted = results.emplace(
            tagToWorkload.at(msg->tag), std::move(*msg));
        EXPECT_TRUE(inserted.second)
            << "duplicate RESULT for one request";
    }

    // Zero duplicates beyond the batch either.
    EXPECT_FALSE(client.recvResult(200, &error).has_value());

    // Byte-identical to an undisturbed sequential run.
    for (const auto &program : registry) {
        SCOPED_TRACE(program.id);
        auto it = results.find(program.id);
        ASSERT_NE(it, results.end());
        ASSERT_TRUE(it->second.ran()) << it->second.error;
        expectMatchesSequential(it->second, program);
    }

    // The router observed the kill: the victim is ejected, and any
    // requests it held were retried on the survivor.
    router::RouterMetrics metrics = router.router.metrics();
    EXPECT_FALSE(metrics.backends[1].admitted);
    EXPECT_GE(metrics.backends[1].ejections, 1u);
    victim.reset();
}

TEST(RouterChaos, EjectedBackendIsReadmittedAfterRestart)
{
    std::uint16_t fixedPort;
    {
        // Grab an ephemeral port, then restart the backend on it
        // later so the router's redial finds the revived process at
        // the same address.
        BackendHarness probe;
        fixedPort = probe.port();
    }

    auto backend = std::make_unique<BackendHarness>(fixedPort);
    RouterHarness router(routerConfig({fixedPort}));
    router.waitForAdmission(1);

    net::PsiClient client;
    std::string error;
    ASSERT_TRUE(client.connect("127.0.0.1", router.port(), &error))
        << error;
    auto first =
        client.submit(net::Request{"nreverse30"}, nullptr, &error);
    ASSERT_TRUE(first.has_value()) << error;
    EXPECT_EQ(first->status, net::WireStatus::Ok);

    // Kill the only backend.  The ring empties, so new submits are
    // refused (the refusal is immediate, not a hang).
    backend.reset();
    bool sawRefusal = false;
    for (int i = 0; i < 5000 && !sawRefusal; ++i) {
        auto refused = client.submit(net::Request{"nreverse30"},
                                     nullptr, &error);
        ASSERT_TRUE(refused.has_value()) << error;
        if (refused->status == net::WireStatus::Overloaded)
            sawRefusal = true;
        else
            std::this_thread::sleep_for(
                std::chrono::milliseconds(1));
    }
    EXPECT_TRUE(sawRefusal)
        << "submits kept succeeding with no backend alive";

    // Restart on the same port: the backoff redial must re-admit it
    // and submits must succeed again without reconnecting.
    backend = std::make_unique<BackendHarness>(fixedPort);
    router.waitForAdmission(1);
    auto revived =
        client.submit(net::Request{"nreverse30"}, nullptr, &error);
    ASSERT_TRUE(revived.has_value()) << error;
    EXPECT_EQ(revived->status, net::WireStatus::Ok);

    router::RouterMetrics metrics = router.router.metrics();
    EXPECT_GE(metrics.backends[0].ejections, 1u);
    EXPECT_TRUE(metrics.backends[0].admitted);
}

// ---------------------------------------------------------------------
// The shared client side (net::Frontend)
// ---------------------------------------------------------------------

/** Send STATS on a raw connection: the front end must close it
 *  without answering. */
void
expectStatsAnsweredWithEof(std::uint16_t port)
{
    RawConn conn(port);
    ASSERT_TRUE(conn.sendAll(net::encode(net::Message(net::StatsMsg{}))));
    bool eof = false;
    EXPECT_FALSE(conn.readMessage(&eof).has_value());
    EXPECT_TRUE(eof) << "a reply past maxWriteBuffer was not dropped";
}

TEST(Frontend, SlowConsumerPastMaxWriteBufferIsDropped)
{
    // Every STATS reply is longer than 64 bytes, so queueing one
    // marks the client a slow consumer on either front end.
    BackendHarness tiny(0, 1, 64);
    expectStatsAnsweredWithEof(tiny.port());
    EXPECT_EQ(tiny.server.metrics().netConnsDropped, 1u);

    BackendHarness backend;
    PsiRouter::Config config = routerConfig({backend.port()});
    config.maxWriteBuffer = 64;
    RouterHarness router(config);
    expectStatsAnsweredWithEof(router.port());

    net::PsiClient client;
    std::string error;
    ASSERT_TRUE(client.connect("127.0.0.1", backend.port(), &error))
        << error;
    EXPECT_TRUE(client.stats(-1, &error).has_value()) << error;
}

TEST(Frontend, SigtermDrainsServerAndRouter)
{
    BackendHarness backend;
    backend.server.installSignalHandlers();
    ASSERT_EQ(std::raise(SIGTERM), 0);
    backend.loop.join();
    EXPECT_TRUE(backend.server.draining());

    BackendHarness live;
    RouterHarness router(routerConfig({live.port()}));
    router.router.installSignalHandlers();
    ASSERT_EQ(std::raise(SIGTERM), 0);
    router.loop.join();
    EXPECT_TRUE(router.router.draining());

    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGTERM, SIG_DFL);
}

} // namespace
