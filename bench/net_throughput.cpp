/**
 * @file
 * psinet open-loop load generator over loopback.
 *
 * A round's traffic is one request schedule: a list of psi_reqlog
 * entries (src/base/reqlog.hpp), each carrying its due offset,
 * workload, tenant, engine mode and deadline.  Three sources build
 * that list:
 *
 *  - a paced round: -n entries of the -W workload, entry k due at
 *    k / -r seconds, every one under the shared default tenant;
 *  - --mix "workload:share[:weight],...": the same pacing, with the
 *    entries dealt over one tenant per mix lane (named after its
 *    workload) in weighted round-robin order, so `share` is a
 *    tenant's slice of the offered traffic and `weight` its
 *    server-side WFQ share (default 1: the interesting case is
 *    share >> weight, a flooder that fairness must contain);
 *  - --replay LOG: a psi_mklog log or a --record capture, entry due
 *    at at_ns / --speed, so the recorded arrival timing is kept.
 *
 * Entry k rides connection k mod -c.  Each connection runs a sender
 * thread that submits its entries when they fall due, pipelined,
 * however fast replies come back, and a receiver thread that takes
 * the RESULTs in completion order.  That is the open-loop discipline:
 * latency runs from each entry's due time, so queueing delay (the
 * sender's own lateness included) shows up in the measured latency
 * instead of silently throttling the load, as it would in a
 * closed-loop (submit, wait, repeat) generator.
 *
 * Per worker count (1/2/4/8; -w runs one round, a replay runs one
 * round at 4) it reports achieved throughput, client-observed
 * p50/p95/p99 latency and the OVERLOADED count, plus the server's own
 * view fetched via STATS before drain: the mean setup/solve host-time
 * split, the compiled-program cache hits and misses, and the
 * psisched counters.  --mix and --replay rounds add per-tenant and
 * per-workload lanes (tenant_* and workload_* JSON keys, with the
 * server's per-tenant dispatch counts); a replay adds how late each
 * send landed against its schedule, and --record FILE writes the
 * traffic as actually sent back out as a reqlog that can itself be
 * replayed.  Every round prints one JSON line, and the line ends in
 * "retry_exhausted".  Results are recorded in EXPERIMENTS.md.
 *
 * Independent of the traffic source:
 *
 *  - --backends N serves the round from N in-process servers behind
 *    an in-process PsiRouter (--endpoints HOST:PORT fronts external
 *    backends instead), adding per-backend routed counts and the
 *    shard-affinity ratio: the program-cache misses stay at the
 *    number of distinct sources however many backends serve;
 *  - --fault-schedule SPEC puts a FaultProxy (src/net/faultnet.hpp)
 *    between the clients and the server, and each connection walks
 *    its entries with one request in flight through the retrying
 *    submit: reconnecting while a receiver thread reads the same
 *    socket would race;
 *  - --trace-out FILE enables psitrace: the server's stage spans and
 *    each client's request and send spans, stitched by the trace tag
 *    the server echoes, are written as Chrome trace-event JSON with a
 *    per-request coverage report; --metrics-out FILE saves the last
 *    round's METRICS text.
 *
 * --replay excludes --mix and --fault-schedule, and --mix excludes
 * --fault-schedule.
 *
 *     $ ./bench/net_throughput -r 500 -n 1000 -W queens1 --json
 *     $ ./bench/net_throughput --mix "trail40:8,nreverse30:1" \
 *           -r 400 -n 800 -w 2 --sched affinity
 *     $ ./bench/psi_mklog --seed 42 -n 2000 -o prod.reqlog
 *     $ ./bench/net_throughput --replay prod.reqlog -w 4 --json
 *     $ ./bench/net_throughput --backends 4 --fault-schedule \
 *           "seed=7,split=0.3,delay_us=0..200,reset_after=20000"
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "base/mixspec.hpp"
#include "base/reqlog.hpp"
#include "bench_util.hpp"

namespace {

using namespace psi;
using clock_type = std::chrono::steady_clock;

/** Nanoseconds from @p start to @p t. */
std::uint64_t
sinceNs(clock_type::time_point start,
        clock_type::time_point t = clock_type::now())
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t - start)
            .count());
}

/** Position of @p name in @p names (names.size() when absent). */
std::uint32_t
indexOf(const std::vector<std::string> &names, const std::string &name)
{
    return static_cast<std::uint32_t>(
        std::find(names.begin(), names.end(), name) - names.begin());
}

/** The two stat lanes one entry counts in. */
struct Lanes
{
    std::uint32_t tenant = 0;
    std::uint32_t workload = 0;
};

struct RoundConfig
{
    /** The round's traffic: entry k is due at start + at_ns and rides
     *  connection k mod connections. */
    std::vector<reqlog::Entry> entries;
    /** Stat lanes: the entries' tenants and workloads, in
     *  first-appearance order. */
    std::vector<std::string> tenants;
    std::vector<std::string> workloads;
    bool record = false; ///< keep each send's offset (--record)
    std::uint64_t connections = 4;
    std::uint64_t queueCapacity = 64;
    /** Pool dispatch policy and fairness knobs of every in-process
     *  server (tenant quota, age cap, --mix WFQ weights). */
    sched::SchedKind sched = sched::SchedKind::Affinity;
    sched::SchedConfig fairness;
    net::FaultSchedule schedule; ///< active when schedule.enabled()
    bool fetchMetrics = false;   ///< fetch METRICS before drain
    /** Router mode: boot this many in-process backends behind an
     *  in-process PsiRouter (0 = plain single-server round). */
    unsigned routerBackends = 0;
    /** Router mode: front these external backends instead. */
    std::vector<router::BackendAddr> endpoints;

    bool
    routerMode() const
    {
        return routerBackends > 0 || !endpoints.empty();
    }

    Lanes
    lanesOf(const reqlog::Entry &e) const
    {
        return {indexOf(tenants, e.tenant),
                indexOf(workloads, e.workload)};
    }

    /** How many entries connection @p conn sends. */
    std::uint64_t
    entriesOn(std::uint64_t conn) const
    {
        return (entries.size() + connections - 1 - conn) / connections;
    }
};

/** The replies of one stat lane: a tenant's, a workload's or the
 *  whole round's. */
struct LaneStats
{
    service::LatencyHistogram latency;
    std::uint64_t sent = 0;
    std::uint64_t ok = 0;
    std::uint64_t timedOut = 0;
    std::uint64_t overloaded = 0;
    std::uint64_t otherRefused = 0;

    void
    count(net::WireStatus status, std::uint64_t latencyNs)
    {
        latency.record(latencyNs);
        switch (status) {
          case net::WireStatus::Ok:
          case net::WireStatus::StepLimit:
            ++ok;
            break;
          case net::WireStatus::Timeout:
            ++timedOut;
            break;
          case net::WireStatus::Overloaded:
            ++overloaded;
            break;
          default:
            ++otherRefused;
            break;
        }
    }

    void
    merge(const LaneStats &from)
    {
        latency.merge(from.latency);
        sent += from.sent;
        ok += from.ok;
        timedOut += from.timedOut;
        overloaded += from.overloaded;
        otherRefused += from.otherRefused;
    }
};

/**
 * What one connection saw.  A pipelined connection's sender and
 * receiver threads both write it without a lock; that is race-free
 * only because they write different members: the sender calls
 * sent() and appends to `recorded`, the receiver calls count() and
 * sets `lastReply` and `lost`.
 */
struct ConnStats
{
    LaneStats total;
    std::vector<LaneStats> tenants;   ///< per RoundConfig::tenants
    std::vector<LaneStats> workloads; ///< per RoundConfig::workloads
    std::uint64_t lost = 0; ///< entries that never got a RESULT
    clock_type::time_point lastReply{};
    net::RetryStats retries; ///< fault mode: this client's retries
    /** How late the sends landed against their due times (sleep_until
     *  never fires early, but a loaded host can fire late). */
    std::uint64_t lateSumNs = 0;
    std::uint64_t lateMaxNs = 0;
    /** --record: (actual send offset, entry index). */
    std::vector<std::pair<std::uint64_t, std::uint32_t>> recorded;

    explicit ConnStats(const RoundConfig &config)
        : tenants(config.tenants.size()),
          workloads(config.workloads.size())
    {
    }

    void
    sent(Lanes lanes, std::uint64_t lateNs)
    {
        ++total.sent;
        ++tenants[lanes.tenant].sent;
        ++workloads[lanes.workload].sent;
        lateSumNs += lateNs;
        lateMaxNs = std::max(lateMaxNs, lateNs);
    }

    void
    count(Lanes lanes, net::WireStatus status, std::uint64_t latencyNs)
    {
        total.count(status, latencyNs);
        tenants[lanes.tenant].count(status, latencyNs);
        workloads[lanes.workload].count(status, latencyNs);
    }

    void
    merge(const ConnStats &from)
    {
        total.merge(from.total);
        for (std::size_t l = 0; l < tenants.size(); ++l)
            tenants[l].merge(from.tenants[l]);
        for (std::size_t l = 0; l < workloads.size(); ++l)
            workloads[l].merge(from.workloads[l]);
        lost += from.lost;
        lastReply = std::max(lastReply, from.lastReply);
        retries.connectDials += from.retries.connectDials;
        retries.connectRetries += from.retries.connectRetries;
        retries.reconnects += from.retries.reconnects;
        retries.resubmits += from.retries.resubmits;
        retries.overloadedRetries += from.retries.overloadedRetries;
        retries.drainingRetries += from.retries.drainingRetries;
        retries.duplicatesDropped += from.retries.duplicatesDropped;
        retries.backoffNs += from.retries.backoffNs;
        retries.exhausted += from.retries.exhausted;
        lateSumNs += from.lateSumNs;
        lateMaxNs = std::max(lateMaxNs, from.lateMaxNs);
        recorded.insert(recorded.end(), from.recorded.begin(),
                        from.recorded.end());
    }
};

struct RoundResult
{
    RoundResult(unsigned workers, const RoundConfig &config)
        : workers(workers), client(config)
    {
    }

    unsigned workers = 0;
    double achievedRps = 0;
    ConnStats client; ///< every connection's stats, merged
    /** The backends' STATS, summed: where each request's host time
     *  went (program install vs query execution), how often the
     *  compiled-program cache hit, the psisched counters and each
     *  tenant's dispatch count (per RoundConfig::tenants). */
    std::uint64_t setupMeanNs = 0;
    std::uint64_t solveMeanNs = 0;
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
    std::uint64_t schedAffinityHits = 0;
    std::uint64_t schedAffinityMisses = 0;
    std::uint64_t schedAgedDispatches = 0;
    std::uint64_t schedBatches = 0;
    std::uint64_t schedQuotaRejects = 0;
    std::vector<std::uint64_t> tenantDispatched;
    net::FaultStats faults;  ///< fault mode: what the proxy injected
    std::string metricsText; ///< METRICS reply (when fetchMetrics)
    /** Router mode: the router's per-backend routed counts and the
     *  cluster-wide shard-affinity split. */
    std::vector<std::pair<std::string, std::uint64_t>> backendRouted;
    std::uint64_t affinityHits = 0;
    std::uint64_t affinityMisses = 0;
    std::uint64_t routerRetried = 0;
    std::uint64_t routerEjections = 0;
};

/** Pull one unsigned field out of the flat metrics JSON. */
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

/** One connection's pipelined sender + receiver pair. */
void
driveConnection(const RoundConfig &config, std::uint16_t port,
                std::uint64_t connIndex, clock_type::time_point start,
                ConnStats &stats)
{
    // One slot per entry this connection sends.  Tags are minted
    // 1..n in send order, so a RESULT's slot is tag-1.  Send times
    // are published with release stores so the receiver reads them
    // safely.
    struct Slot
    {
        std::uint32_t entry = 0;
        Lanes lanes;
        std::atomic<std::uint64_t> sentNs{0};
        std::atomic<std::uint64_t> sendDoneNs{0};
    };
    std::vector<Slot> slots(config.entriesOn(connIndex));
    for (std::size_t i = 0; i < slots.size(); ++i) {
        slots[i].entry = static_cast<std::uint32_t>(
            connIndex + i * config.connections);
        slots[i].lanes = config.lanesOf(config.entries[slots[i].entry]);
    }

    net::PsiClient client;
    std::string error;
    if (!client.connect("127.0.0.1", port, &error)) {
        std::cerr << "net_throughput: " << error << "\n";
        stats.lost = slots.size();
        return;
    }

    std::atomic<std::uint64_t> sent{0};
    std::thread sender([&] {
        for (Slot &slot : slots) {
            const reqlog::Entry &e = config.entries[slot.entry];
            std::this_thread::sleep_until(
                start + std::chrono::nanoseconds(e.atNs));
            const std::uint64_t sentNs = sinceNs(start);
            slot.sentNs.store(sentNs, std::memory_order_release);
            if (!client.sendSubmit(e.workload, e.deadlineNs, nullptr,
                                   nullptr, e.tenant, e.mode))
                break;
            slot.sendDoneNs.store(sinceNs(start),
                                  std::memory_order_release);
            stats.sent(slot.lanes, sentNs - e.atNs);
            if (config.record)
                stats.recorded.emplace_back(sentNs, slot.entry);
            sent.fetch_add(1, std::memory_order_release);
        }
        sent.fetch_add(1u << 31, std::memory_order_release);
    });

    std::uint64_t received = 0;
    for (;;) {
        std::uint64_t progress = sent.load(std::memory_order_acquire);
        bool senderDone = (progress & (1u << 31)) != 0;
        if (senderDone && received >= (progress & ((1u << 31) - 1)))
            break;

        auto result = client.recvResult(senderDone ? 30000 : 100);
        if (!result) {
            if (!client.connected())
                break;
            continue; // poll timeout; re-check sender progress
        }
        if (result->tag == 0 || result->tag > slots.size())
            break; // not a tag this connection sent
        ++received;
        stats.lastReply = clock_type::now();

        // Latency runs from the due time, not the actual send, so a
        // sender that falls behind its schedule shows in the
        // percentiles instead of hiding the queueing it causes.
        const Slot &slot = slots[result->tag - 1];
        const std::uint64_t nowNs = sinceNs(start, stats.lastReply);
        stats.count(slot.lanes, result->status,
                    nowNs - config.entries[slot.entry].atNs);

        // The whole client-observed request, from the actual send,
        // under the tag the server minted: the coverage report
        // divides the stage spans by this window.  The SUBMIT's
        // encode + send syscall is recorded retroactively (the tag
        // is only known once the RESULT echoes it back).
        if (result->traceTag != 0 && trace::enabled()) {
            std::uint64_t sentNs =
                slot.sentNs.load(std::memory_order_acquire);
            std::uint64_t startTraceNs = trace::toNs(start);
            trace::record(trace::Stage::Request, result->traceTag,
                          startTraceNs + sentNs,
                          startTraceNs + nowNs);
            std::uint64_t sendDoneNs =
                slot.sendDoneNs.load(std::memory_order_acquire);
            if (sendDoneNs != 0)
                trace::record(trace::Stage::Send, result->traceTag,
                              startTraceNs + sentNs,
                              startTraceNs + sendDoneNs);
        }
    }
    sender.join();
    // Whatever got no RESULT - never sent, or in flight when the
    // connection died - is lost.
    stats.lost = slots.size() - received;
}

/**
 * Fault-mode connection: the same entries, one request in flight
 * through the retrying submit.  Latency is measured from the due
 * time, so time spent reconnecting and backing off lands in the
 * percentiles.
 */
void
driveFaultConnection(const RoundConfig &config, std::uint16_t port,
                     std::uint64_t connIndex,
                     clock_type::time_point start, ConnStats &stats)
{
    net::PsiClient client;
    net::RetryPolicy policy;
    policy.maxAttempts = 25;
    policy.connectAttempts = 10;
    policy.backoffBaseNs = 1'000'000;  // 1 ms: loopback reconnects
    policy.backoffMaxNs = 50'000'000;  // are cheap, keep pace up
    policy.seed = config.schedule.seed * 1000 + connIndex;
    client.setRetryPolicy(policy);

    std::string error;
    if (!client.connect("127.0.0.1", port, &error)) {
        std::cerr << "net_throughput: " << error << "\n";
        stats.lost = config.entriesOn(connIndex);
        stats.retries = client.retryStats();
        return;
    }

    for (std::uint64_t k = connIndex; k < config.entries.size();
         k += config.connections) {
        const reqlog::Entry &e = config.entries[k];
        const Lanes lanes = config.lanesOf(e);
        std::this_thread::sleep_until(
            start + std::chrono::nanoseconds(e.atNs));
        stats.sent(lanes, sinceNs(start) - e.atNs);
        net::Request request{e.workload, e.deadlineNs, 30000, e.tenant,
                             e.mode};
        auto result = client.submit(request, &policy, &error);
        if (!result) {
            ++stats.lost;
            continue;
        }
        stats.lastReply = clock_type::now();
        stats.count(lanes, result->status,
                    sinceNs(start, stats.lastReply) - e.atNs);
    }
    stats.retries = client.retryStats();
}

/** How much of each client-observed request window the recorded
 *  stage spans account for. */
struct TraceCoverage
{
    std::size_t spans = 0;    ///< all spans collected
    std::size_t requests = 0; ///< tags with a client request span
    double minPct = 0;        ///< worst-covered request
    double meanPct = 0;
};

/**
 * Per request: union of the non-request spans sharing its tag,
 * clipped to the client-observed window, divided by the window.
 * The uncovered remainder is wire transit + poll wakeups - the only
 * time psitrace has no thread to charge.
 */
TraceCoverage
analyzeTrace(const std::vector<trace::Span> &spans)
{
    TraceCoverage cov;
    cov.spans = spans.size();

    using Interval = std::pair<std::uint64_t, std::uint64_t>;
    std::map<std::uint64_t, Interval> windows;
    for (const auto &s : spans) {
        if (s.stage == trace::Stage::Request)
            windows[s.tag] = {s.startNs, s.startNs + s.durNs};
    }
    std::map<std::uint64_t, std::vector<Interval>> stages;
    for (const auto &s : spans) {
        if (s.stage == trace::Stage::Request || s.tag == 0)
            continue;
        auto it = windows.find(s.tag);
        if (it == windows.end())
            continue;
        std::uint64_t lo = std::max(s.startNs, it->second.first);
        std::uint64_t hi =
            std::min(s.startNs + s.durNs, it->second.second);
        if (hi > lo)
            stages[s.tag].push_back({lo, hi});
    }

    double sumPct = 0;
    cov.minPct = 100.0;
    for (const auto &[tag, window] : windows) {
        const std::uint64_t dur = window.second - window.first;
        double pct = 0;
        auto it = stages.find(tag);
        if (it != stages.end() && dur > 0) {
            std::vector<Interval> &ivals = it->second;
            std::sort(ivals.begin(), ivals.end());
            std::uint64_t covered = 0;
            std::uint64_t cursor = window.first;
            for (const auto &[lo, hi] : ivals) {
                std::uint64_t from = std::max(lo, cursor);
                if (hi > from)
                    covered += hi - from;
                cursor = std::max(cursor, hi);
            }
            pct = 100.0 * static_cast<double>(covered) /
                  static_cast<double>(dur);
        }
        cov.minPct = std::min(cov.minPct, pct);
        sumPct += pct;
        ++cov.requests;
    }
    if (cov.requests == 0)
        cov.minPct = 0;
    else
        cov.meanPct = sumPct / static_cast<double>(cov.requests);
    return cov;
}

RoundResult
runRound(const RoundConfig &config, unsigned workers)
{
    // One server in the plain rounds; --backends N boots a cluster
    // of them behind an in-process router; --endpoints boots only
    // the router, fronting externally-started backends.
    std::vector<std::unique_ptr<net::PsiServer>> servers;
    std::vector<std::thread> serverThreads;
    std::vector<router::BackendAddr> backendAddrs;
    std::string error;

    const unsigned localServers =
        config.routerMode() ? config.routerBackends : 1;
    for (unsigned i = 0; i < localServers; ++i) {
        net::PsiServer::Config serverConfig;
        serverConfig.port = 0;
        serverConfig.workers = workers;
        serverConfig.queueCapacity =
            static_cast<std::size_t>(config.queueCapacity);
        serverConfig.scheduler = config.sched;
        serverConfig.sched = config.fairness;
        auto server = std::make_unique<net::PsiServer>(serverConfig);
        if (!server->start(&error)) {
            std::cerr << "net_throughput: " << error << "\n";
            std::exit(1);
        }
        backendAddrs.push_back(
            router::BackendAddr{"127.0.0.1", server->port()});
        servers.push_back(std::move(server));
    }
    for (auto &server : servers)
        serverThreads.emplace_back([&server] { server->run(); });
    for (const auto &endpoint : config.endpoints)
        backendAddrs.push_back(endpoint);

    std::optional<router::PsiRouter> router;
    std::thread routerThread;
    if (config.routerMode()) {
        router::PsiRouter::Config rc;
        rc.backends = backendAddrs;
        router.emplace(rc);
        if (!router->start(&error)) {
            std::cerr << "net_throughput: " << error << "\n";
            std::exit(1);
        }
        routerThread = std::thread([&router] { router->run(); });
        // Don't start the clock until the ring is populated (local
        // backends must all join; external ones get a grace window).
        const std::size_t want =
            config.endpoints.empty() ? backendAddrs.size() : 1;
        for (int spins = 0; spins < 5000; ++spins) {
            std::size_t admitted = 0;
            for (const auto &b : router->metrics().backends)
                admitted += b.admitted ? 1 : 0;
            if (admitted >= want)
                break;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(1));
        }
    }
    std::uint16_t servicePort =
        router ? router->port() : servers.front()->port();

    // Fault mode: clients talk to the proxy, which mangles the byte
    // stream on its way to (and from) the service front end.
    const bool faulty = config.schedule.enabled();
    std::optional<net::FaultProxy> proxy;
    if (faulty) {
        proxy.emplace("127.0.0.1", servicePort, config.schedule);
        if (!proxy->start(&error)) {
            std::cerr << "net_throughput: " << error << "\n";
            std::exit(1);
        }
    }
    std::uint16_t clientPort = faulty ? proxy->port() : servicePort;

    auto start = clock_type::now() + std::chrono::milliseconds(20);
    std::vector<ConnStats> stats(config.connections, ConnStats(config));
    std::vector<std::thread> connThreads;
    auto drive = faulty ? driveFaultConnection : driveConnection;
    for (std::uint64_t c = 0; c < config.connections; ++c)
        connThreads.emplace_back(drive, std::cref(config), clientPort,
                                 c, start, std::ref(stats[c]));
    for (auto &t : connThreads)
        t.join();

    RoundResult result(workers, config);
    for (const ConnStats &s : stats)
        result.client.merge(s);
    std::sort(result.client.recorded.begin(),
              result.client.recorded.end());
    const std::uint64_t spanNs =
        result.client.lastReply > start
            ? sinceNs(start, result.client.lastReply)
            : 0;
    if (spanNs > 0)
        result.achievedRps =
            static_cast<double>(result.client.total.latency.count()) *
            1e9 / static_cast<double>(spanNs);

    // Fetch the backends' own view of the round (STATS over the
    // wire) before draining: the per-request setup/solve split and
    // the program-cache counters only exist on the server side.  In
    // router mode the counters are summed cluster-wide - shard
    // affinity means the miss total stays at the number of distinct
    // sources no matter how many backends serve.
    std::uint64_t setupNs = 0, solveNs = 0, completed = 0;
    result.tenantDispatched.resize(config.tenants.size());
    for (const auto &addr : backendAddrs) {
        net::PsiClient statsClient;
        if (!statsClient.connect(addr.host, addr.port, &error))
            continue;
        auto json = statsClient.stats(5000, &error);
        if (!json)
            continue;
        completed += jsonU64(*json, "completed");
        setupNs += jsonU64(*json, "host_setup_ns");
        solveNs += jsonU64(*json, "host_solve_ns");
        result.cacheHits += jsonU64(*json, "program_cache_hits");
        result.cacheMisses += jsonU64(*json, "program_cache_misses");
        result.schedAffinityHits +=
            jsonU64(*json, "sched_affinity_hits");
        result.schedAffinityMisses +=
            jsonU64(*json, "sched_affinity_misses");
        result.schedAgedDispatches +=
            jsonU64(*json, "sched_aged_dispatches");
        result.schedBatches += jsonU64(*json, "sched_batches");
        result.schedQuotaRejects +=
            jsonU64(*json, "sched_quota_rejects");
        for (std::size_t l = 0; l < config.tenants.size(); ++l)
            result.tenantDispatched[l] += jsonU64(
                *json, "tenant_" +
                           sched::sanitizeTenantName(config.tenants[l]) +
                           "_dispatched");
    }
    if (completed > 0) {
        result.setupMeanNs = setupNs / completed;
        result.solveMeanNs = solveNs / completed;
    }
    if (config.fetchMetrics) {
        // The front end's METRICS: the router's own exposition in
        // router mode, the lone server's otherwise.
        net::PsiClient metricsClient;
        if (metricsClient.connect("127.0.0.1", servicePort, &error)) {
            if (auto text = metricsClient.metricsText(5000, &error))
                result.metricsText = std::move(*text);
        }
    }

    if (router) {
        router::RouterMetrics metrics = router->metrics();
        for (const auto &b : metrics.backends) {
            result.backendRouted.emplace_back(b.addr, b.routed);
            result.routerRetried += b.retried;
            result.routerEjections += b.ejections;
        }
        result.affinityHits = metrics.affinityHits;
        result.affinityMisses = metrics.affinityMisses;
    }

    if (proxy) {
        result.faults = proxy->stats();
        proxy->stop();
    }
    if (router) {
        router->requestDrain();
        routerThread.join();
    }
    for (auto &server : servers)
        server->requestDrain();
    for (auto &thread : serverThreads)
        thread.join();
    return result;
}

/** Append the p50/p95/p99 of @p h, in ms, to a table row. */
void
addQuantiles(std::vector<std::string> &row,
             const service::LatencyHistogram &h)
{
    for (double q : {0.50, 0.95, 0.99})
        row.push_back(bench::f2(h.quantileNs(q) / 1e6));
}

/** Write the p50/p95/p99 of @p h as PREFIXp50_ns, ... */
void
jsonQuantiles(JsonWriter &w, const std::string &prefix,
              const service::LatencyHistogram &h)
{
    w.u(prefix + "p50_ns", h.quantileNs(0.50));
    w.u(prefix + "p95_ns", h.quantileNs(0.95));
    w.u(prefix + "p99_ns", h.quantileNs(0.99));
}

/** A stat lane as a table row: name, sent, ok, overloaded, p50-p99. */
std::vector<std::string>
laneRow(const std::string &name, const LaneStats &lane)
{
    std::vector<std::string> row{name, std::to_string(lane.sent),
                                 std::to_string(lane.ok),
                                 std::to_string(lane.overloaded)};
    addQuantiles(row, lane.latency);
    return row;
}

/** A stat lane's JSON keys, each under @p prefix. */
void
jsonLane(JsonWriter &w, const std::string &prefix, const LaneStats &lane)
{
    w.u(prefix + "sent", lane.sent);
    w.u(prefix + "ok", lane.ok);
    w.u(prefix + "overloaded", lane.overloaded);
    w.u(prefix + "timed_out", lane.timedOut);
    jsonQuantiles(w, prefix, lane.latency);
}

} // namespace

int
main(int argc, char **argv)
{
    RoundConfig config;
    std::uint64_t requests = 200;
    double ratePerSec = 200.0;
    std::string workload = "nreverse30";
    std::uint64_t deadline_ms = 0;
    std::uint64_t fixedWorkers = 0;
    std::uint64_t tenantQuota = 0;
    std::string mixSpec;
    std::string schedName = "affinity";
    std::string modeName = "fidelity";
    std::uint64_t ageCapMs = 500;
    std::string faultSpec;
    std::string traceOut;
    std::string metricsOut;
    std::string replayPath;
    std::string recordPath;
    double replaySpeed = 1.0;
    std::vector<std::string> endpointSpecs;
    bool json = false;

    Flags flags("net_throughput [options]");
    flags.opt("-c", &config.connections,
              "concurrent connections (default 4)")
        .opt("-n", &requests,
             "total requests per round (default 200)")
        .opt("-r", &ratePerSec,
             "offered request rate per second (default 200)")
        .opt("-W", &workload,
             "workload id to submit (default nreverse30)")
        .opt("-d", &deadline_ms,
             "per-request deadline in ms (0 = none)")
        .opt("-q", &config.queueCapacity,
             "server queue capacity (default 64)")
        .opt("-w", &fixedWorkers,
             "run a single round with this many workers instead of "
             "the 1/2/4/8 sweep")
        .opt("--mix", &mixSpec,
             "multi-tenant mode: \"workload:share[:weight],...\" - "
             "one tenant per entry, share = traffic ratio, weight = "
             "server WFQ share (default 1), per-tenant reporting")
        .opt("--sched", &schedName,
             "pool dispatch policy: affinity (default) or fifo")
        .opt("--mode", &modeName,
             "engine execution mode: fidelity (default, full "
             "per-step accounting) or fast (no accounting)")
        .opt("--tenant-quota", &tenantQuota,
             "per-tenant queued-job quota (0 = queue capacity)")
        .opt("--age-cap-ms", &ageCapMs,
             "scheduler anti-starvation age cap in ms "
             "(default 500; 0 disables)")
        .opt("--backends", &config.routerBackends,
             "router mode: boot this many in-process backends "
             "behind a psirouter (0 = single server)")
        .opt("--endpoints", &endpointSpecs,
             "router mode: front this HOST:PORT backend "
             "(repeatable) instead of booting servers")
        .opt("--replay", &replayPath,
             "replay a psi_reqlog JSONL request log (psi_mklog "
             "output or a --record capture), preserving recorded "
             "inter-arrival timing; per-tenant + per-workload "
             "reporting")
        .opt("--speed", &replaySpeed,
             "replay time-scale factor (default 1.0; 2 = twice as "
             "fast)")
        .opt("--record", &recordPath,
             "replay mode: write the traffic as actually sent "
             "(real send offsets) back out as a reqlog to FILE")
        .opt("--fault-schedule", &faultSpec,
             "inject faults via a proxy, e.g. "
             "\"seed=7,split=0.3,delay_us=0..200,reset_after=20000\"")
        .opt("--trace-out", &traceOut,
             "enable psitrace; write Chrome trace JSON to FILE")
        .opt("--metrics-out", &metricsOut,
             "write the last round's Prometheus METRICS text to FILE")
        .flag("--json", &json, "JSON lines only");
    if (!flags.parse(argc, argv))
        return 1;
    if (!faultSpec.empty()) {
        std::string error;
        auto schedule = net::FaultSchedule::parse(faultSpec, &error);
        if (!schedule) {
            std::cerr << "net_throughput: " << error << "\n";
            return 1;
        }
        config.schedule = *schedule;
    }
    for (const auto &spec : endpointSpecs) {
        std::string error;
        auto addr = router::BackendAddr::parse(spec, &error);
        if (!addr) {
            std::cerr << "net_throughput: " << error << "\n";
            return 1;
        }
        config.endpoints.push_back(*addr);
    }
    if (config.routerBackends > 0 && !config.endpoints.empty()) {
        std::cerr << "net_throughput: --backends and --endpoints "
                     "are mutually exclusive\n";
        return 1;
    }
    config.fairness.tenantQuota = static_cast<std::size_t>(tenantQuota);
    config.fairness.ageCapNs = ageCapMs * 1'000'000ull;
    config.fetchMetrics = !metricsOut.empty();
    if (!traceOut.empty())
        trace::setEnabled(true);
    if (config.connections == 0 || requests == 0 || ratePerSec <= 0) {
        std::cerr << "net_throughput: -c, -n and -r must be > 0\n";
        return 1;
    }
    if (!sched::parseSchedKind(schedName, config.sched)) {
        std::cerr << "net_throughput: unknown --sched '" << schedName
                  << "' (use fifo or affinity)\n";
        return 1;
    }
    interp::ExecMode mode = interp::ExecMode::Fidelity;
    if (modeName == "fast") {
        mode = interp::ExecMode::Fast;
    } else if (modeName != "fidelity") {
        std::cerr << "net_throughput: unknown --mode '" << modeName
                  << "' (use fidelity or fast)\n";
        return 1;
    }

    // The round's traffic: the replayed log, or -n entries paced at
    // -r over the --mix lanes (-W alone is one lane under the
    // default tenant).  `source` names it in the banner and JSON.
    std::optional<reqlog::Log> replayLog;
    std::vector<mixspec::MixEntry> mix;
    std::string source = workload;
    if (!replayPath.empty()) {
        if (!mixSpec.empty() || config.schedule.enabled()) {
            std::cerr << "net_throughput: --replay is mutually "
                         "exclusive with --mix and "
                         "--fault-schedule\n";
            return 1;
        }
        if (replaySpeed <= 0) {
            std::cerr << "net_throughput: --speed must be > 0\n";
            return 1;
        }
        std::string error;
        replayLog = reqlog::parseFile(replayPath, &error);
        if (!replayLog) {
            std::cerr << "net_throughput: " << error << "\n";
            return 1;
        }
        if (!reqlog::validateWorkloads(
                *replayLog,
                [](const std::string &id) {
                    return programs::findProgramById(id) != nullptr;
                },
                &error)) {
            std::cerr << "net_throughput: " << replayPath << ": "
                      << error << "; available: "
                      << programs::programIdList() << "\n";
            return 1;
        }
        if (replayLog->entries.empty()) {
            std::cerr << "net_throughput: " << replayPath
                      << ": log has no entries\n";
            return 1;
        }
        config.entries = replayLog->entries;
        for (reqlog::Entry &e : config.entries)
            e.atNs = static_cast<std::uint64_t>(
                static_cast<double>(e.atNs) / replaySpeed);
        config.record = !recordPath.empty();
        // The offered rate the log embodies (for the table only).
        const double n = static_cast<double>(config.entries.size());
        const double spanS = static_cast<double>(replayLog->spanNs()) /
                             1e9 / replaySpeed;
        ratePerSec = spanS > 0 ? n / spanS : n;
        source = "replay:" + replayPath;
    } else if (!recordPath.empty()) {
        std::cerr << "net_throughput: --record requires --replay\n";
        return 1;
    }
    if (!mixSpec.empty()) {
        if (config.schedule.enabled()) {
            std::cerr << "net_throughput: --mix and "
                         "--fault-schedule are mutually exclusive\n";
            return 1;
        }
        std::string mixError;
        if (!mixspec::parseMixSpec(mixSpec, mix, mixError)) {
            std::cerr << "net_throughput: " << mixError << "\n";
            return 1;
        }
        source = "mix ";
        for (const mixspec::MixEntry &lane : mix) {
            if (&lane != &mix.front())
                source += ",";
            source += lane.workload + ":" + std::to_string(lane.share);
            config.fairness.weights[lane.workload] = lane.weight;
        }
    }
    if (!replayLog) {
        const std::vector<mixspec::MixEntry> lanes =
            mix.empty() ? std::vector<mixspec::MixEntry>{{workload}}
                        : mix;
        for (const mixspec::MixEntry &lane : lanes) {
            if (programs::findProgramById(lane.workload) == nullptr) {
                std::cerr << "unknown workload '" << lane.workload
                          << "'; available: "
                          << programs::programIdList() << "\n";
                return 1;
            }
        }
        // Weighted round-robin, interleaved so a heavy tenant's
        // requests spread across the round instead of clumping.
        const std::vector<std::uint32_t> pattern =
            mixspec::wrrPattern(lanes);
        if (pattern.empty()) {
            std::cerr << "net_throughput: --mix produced an empty "
                         "lane pattern (all shares zero?)\n";
            return 1;
        }
        for (std::uint64_t k = 0; k < requests; ++k) {
            const mixspec::MixEntry &lane =
                lanes[pattern[k % pattern.size()]];
            reqlog::Entry e;
            e.atNs = static_cast<std::uint64_t>(1e9 * k / ratePerSec);
            e.workload = lane.workload;
            e.tenant = mix.empty() ? "" : lane.workload;
            e.mode = mode;
            e.deadlineNs = deadline_ms * 1'000'000ull;
            config.entries.push_back(std::move(e));
        }
    }
    for (const reqlog::Entry &e : config.entries) {
        if (indexOf(config.tenants, e.tenant) == config.tenants.size())
            config.tenants.push_back(e.tenant);
        if (indexOf(config.workloads, e.workload) ==
            config.workloads.size())
            config.workloads.push_back(e.workload);
    }
    const bool perTenant = !mix.empty() || replayLog;
    // A --mix tenant's lane spec (null for a replayed tenant).
    auto mixLane = [&mix](const std::string &tenant) {
        auto it = std::find_if(mix.begin(), mix.end(),
                               [&](const mixspec::MixEntry &m) {
                                   return m.workload == tenant;
                               });
        return it == mix.end() ? nullptr : &*it;
    };

    if (!json) {
        bench::banner(
            "psinet open-loop load (" + source + ", " +
            std::to_string(config.entries.size()) + " reqs @ " +
            bench::f1(ratePerSec) + "/s over " +
            std::to_string(config.connections) + " connections, " +
            sched::schedKindName(config.sched) + " scheduler)");
        if (replayLog)
            std::cout << "replay: " << replayPath << " ("
                      << replayLog->entries.size() << " entries over "
                      << bench::f2(static_cast<double>(
                                       replayLog->spanNs()) /
                                   1e9)
                      << " s, speed x" << bench::f2(replaySpeed)
                      << ", " << config.tenants.size() << " tenants, "
                      << config.workloads.size() << " workloads, seed "
                      << replayLog->header.seed << ")\n";
        if (config.routerBackends > 0)
            std::cout << "router mode: " << config.routerBackends
                      << " in-process backends behind a psirouter\n";
        else if (!config.endpoints.empty())
            std::cout << "router mode: fronting "
                      << config.endpoints.size()
                      << " external backend(s)\n";
        if (config.schedule.enabled())
            std::cout << "fault schedule: " << config.schedule.str()
                      << "\n\n";
    }

    Table t(config.routerMode()
                ? "cluster scaling over TCP loopback (psirouter)"
                : "worker scaling over TCP loopback");
    std::vector<std::string> header{
        "workers",  "offered r/s", "achieved r/s", "ok",
        "overloaded", "timeouts",  "p50 ms",       "p95 ms",
        "p99 ms",   "setup us",    "solve us",     "cache h/m"};
    if (config.routerMode()) {
        header.push_back("routed/bk");
        header.push_back("affinity %");
    }
    t.setHeader(header);

    std::vector<unsigned> workerSweep{1u, 2u, 4u, 8u};
    if (fixedWorkers != 0)
        workerSweep = {static_cast<unsigned>(fixedWorkers)};
    else if (replayLog)
        workerSweep = {4}; // a log replays once, not per sweep step
    if (!config.endpoints.empty())
        workerSweep = {0}; // external backends: nothing to sweep

    std::vector<RoundResult> rounds;
    for (unsigned workers : workerSweep) {
        RoundResult r = runRound(config, workers);
        const LaneStats &total = r.client.total;
        std::vector<std::string> row{
            workers == 0 ? "-" : std::to_string(r.workers),
            bench::f1(ratePerSec),
            bench::f1(r.achievedRps),
            std::to_string(total.ok),
            std::to_string(total.overloaded),
            std::to_string(total.timedOut)};
        addQuantiles(row, total.latency);
        row.push_back(bench::f2(r.setupMeanNs / 1e3));
        row.push_back(bench::f2(r.solveMeanNs / 1e3));
        row.push_back(std::to_string(r.cacheHits) + "/" +
                      std::to_string(r.cacheMisses));
        if (config.routerMode()) {
            std::string routed;
            for (const auto &[addr, count] : r.backendRouted) {
                if (!routed.empty())
                    routed += "/";
                routed += std::to_string(count);
            }
            row.push_back(routed);
            const std::uint64_t lookups =
                r.affinityHits + r.affinityMisses;
            row.push_back(
                lookups == 0
                    ? "-"
                    : bench::f1(100.0 * r.affinityHits /
                                static_cast<double>(lookups)));
        }
        t.addRow(row);
        rounds.push_back(std::move(r));
    }

    const RoundResult &last = rounds.back();
    if (!json) {
        t.print(std::cout);
        if (perTenant) {
            // Who waited, not just the aggregate: the fairness story
            // is per tenant, the affinity story per workload.
            Table tt("per-tenant lanes (last round, " +
                     std::to_string(last.workers) + " workers)");
            tt.setHeader({"tenant", "sent", "ok", "overloaded",
                          "p50 ms", "p95 ms", "p99 ms", "dispatched",
                          "share", "weight"});
            for (std::size_t l = 0; l < config.tenants.size(); ++l) {
                std::vector<std::string> row = laneRow(
                    sched::sanitizeTenantName(config.tenants[l]),
                    last.client.tenants[l]);
                row.push_back(std::to_string(last.tenantDispatched[l]));
                const mixspec::MixEntry *m = mixLane(config.tenants[l]);
                row.push_back(m ? std::to_string(m->share) : "-");
                row.push_back(m ? std::to_string(m->weight) : "-");
                tt.addRow(row);
            }
            std::cout << "\n";
            tt.print(std::cout);
            Table wt("per-workload lanes (last round)");
            wt.setHeader({"workload", "sent", "ok", "overloaded",
                          "p50 ms", "p95 ms", "p99 ms"});
            for (std::size_t l = 0; l < config.workloads.size(); ++l)
                wt.addRow(laneRow(config.workloads[l],
                                  last.client.workloads[l]));
            std::cout << "\n";
            wt.print(std::cout);
            std::cout << "sched: affinity_hits="
                      << last.schedAffinityHits
                      << " misses=" << last.schedAffinityMisses
                      << " aged=" << last.schedAgedDispatches
                      << " batches=" << last.schedBatches
                      << " quota_rejects=" << last.schedQuotaRejects
                      << "\n";
        }
        if (replayLog)
            std::cout << "send-timing skew vs recorded offsets: mean "
                      << bench::f2(
                             last.client.total.sent == 0
                                 ? 0.0
                                 : static_cast<double>(
                                       last.client.lateSumNs) /
                                       static_cast<double>(
                                           last.client.total.sent) /
                                       1e6)
                      << " ms, max "
                      << bench::f2(last.client.lateMaxNs / 1e6)
                      << " ms\n";
        for (const auto &r : rounds) {
            if (r.client.total.latency.saturatedCount() != 0)
                std::cout << "WARNING: "
                          << r.client.total.latency.saturatedCount()
                          << " latency samples @ " << r.workers
                          << "w overflowed the histogram's top "
                             "bucket (quantiles are clamped; see "
                             "latency_saturated in the JSON)\n";
        }
        if (config.schedule.enabled()) {
            std::cout << "\n";
            for (const auto &r : rounds)
                std::cout << "faults @ " << r.workers
                          << "w: resets=" << r.faults.resets
                          << " splits=" << r.faults.splits
                          << " coalesces=" << r.faults.coalesces
                          << " truncated=" << r.faults.truncatedBytes
                          << "B | retries: reconnects="
                          << r.client.retries.reconnects
                          << " resubmits=" << r.client.retries.resubmits
                          << " dup_dropped="
                          << r.client.retries.duplicatesDropped
                          << " exhausted="
                          << r.client.retries.exhausted << "\n";
        }
    }
    for (const auto &r : rounds) {
        if (!json)
            std::cout << (&r == &rounds.front() ? "\n" : "");
        const LaneStats &total = r.client.total;
        JsonWriter w;
        w.u("workers", r.workers);
        w.s("workload", source);
        w.num("offered_rps", bench::f1(ratePerSec));
        w.num("achieved_rps", bench::f1(r.achievedRps));
        w.u("ok", total.ok);
        w.u("overloaded", total.overloaded);
        w.u("timed_out", total.timedOut);
        w.u("lost", r.client.lost);
        jsonQuantiles(w, "latency_", total.latency);
        w.u("latency_saturated", total.latency.saturatedCount());
        w.u("host_setup_mean_ns", r.setupMeanNs);
        w.u("host_solve_mean_ns", r.solveMeanNs);
        w.u("program_cache_hits", r.cacheHits);
        w.u("program_cache_misses", r.cacheMisses);
        w.s("sched_policy", sched::schedKindName(config.sched));
        w.u("sched_affinity_hits", r.schedAffinityHits);
        w.u("sched_affinity_misses", r.schedAffinityMisses);
        w.u("sched_aged_dispatches", r.schedAgedDispatches);
        w.u("sched_batches", r.schedBatches);
        w.u("sched_quota_rejects", r.schedQuotaRejects);
        if (perTenant) {
            for (std::size_t l = 0; l < config.tenants.size(); ++l) {
                const std::string p =
                    "tenant_" +
                    sched::sanitizeTenantName(config.tenants[l]) + "_";
                if (const mixspec::MixEntry *m =
                        mixLane(config.tenants[l])) {
                    w.u(p + "share", m->share);
                    w.u(p + "weight", m->weight);
                }
                jsonLane(w, p, r.client.tenants[l]);
                w.u(p + "dispatched", r.tenantDispatched[l]);
            }
            for (std::size_t l = 0; l < config.workloads.size(); ++l)
                jsonLane(w, "workload_" + config.workloads[l] + "_",
                         r.client.workloads[l]);
        }
        if (config.routerMode()) {
            w.u("router_backends", r.backendRouted.size());
            for (std::size_t i = 0; i < r.backendRouted.size(); ++i)
                w.u("backend_" + std::to_string(i) + "_routed",
                    r.backendRouted[i].second);
            w.u("affinity_hits", r.affinityHits);
            w.u("affinity_misses", r.affinityMisses);
            const std::uint64_t lookups =
                r.affinityHits + r.affinityMisses;
            w.num("affinity_ratio",
                  stats::fixed(lookups == 0
                                   ? 0.0
                                   : static_cast<double>(
                                         r.affinityHits) /
                                         static_cast<double>(lookups),
                               4));
            w.u("router_retried", r.routerRetried);
            w.u("router_ejections", r.routerEjections);
        }
        if (config.schedule.enabled()) {
            const net::RetryStats &retries = r.client.retries;
            w.u("fault_resets", r.faults.resets);
            w.u("fault_splits", r.faults.splits);
            w.u("fault_coalesces", r.faults.coalesces);
            w.u("fault_truncated_bytes", r.faults.truncatedBytes);
            w.u("retry_reconnects", retries.reconnects);
            w.u("retry_resubmits", retries.resubmits);
            w.u("retry_overloaded", retries.overloadedRetries);
            w.u("retry_duplicates_dropped", retries.duplicatesDropped);
            w.u("retry_backoff_ns", retries.backoffNs);
        }
        if (replayLog) {
            w.s("replay_log", replayPath);
            w.u("replay_entries", replayLog->entries.size());
            w.u("replay_span_ns", replayLog->spanNs());
            w.num("replay_speed", stats::fixed(replaySpeed, 2));
            w.u("replay_seed", replayLog->header.seed);
            w.u("replay_skew_mean_ns",
                total.sent == 0 ? 0 : r.client.lateSumNs / total.sent);
            w.u("replay_skew_max_ns", r.client.lateMaxNs);
        }
        // Last on purpose, in every mode: the CI gates grep for
        // `"retry_exhausted": 0}` closing the object.
        w.u("retry_exhausted", r.client.retries.exhausted);
        std::cout << (json ? "" : "JSON: ") << w.str() << "\n";
    }

    if (!traceOut.empty()) {
        std::vector<trace::Span> spans = trace::collect();
        std::ofstream out(traceOut);
        if (!out) {
            std::cerr << "net_throughput: cannot write " << traceOut
                      << "\n";
            return 1;
        }
        out << trace::chromeJson(spans);
        TraceCoverage cov = analyzeTrace(spans);
        if (json) {
            JsonWriter w;
            w.s("trace_file", traceOut);
            w.u("trace_spans", cov.spans);
            w.u("trace_dropped_spans", trace::droppedSpans());
            w.u("trace_requests", cov.requests);
            w.num("trace_coverage_min_pct",
                  stats::fixed(cov.minPct, 2));
            w.num("trace_coverage_mean_pct",
                  stats::fixed(cov.meanPct, 2));
            std::cout << w.str() << "\n";
        } else {
            std::cout << "\ntrace: wrote " << cov.spans
                      << " spans to " << traceOut << " ("
                      << cov.requests
                      << " stitched requests; stage coverage of "
                         "client latency: min "
                      << bench::f2(cov.minPct) << "%, mean "
                      << bench::f2(cov.meanPct) << "%)\n";
            if (trace::droppedSpans() != 0)
                std::cout << "trace: " << trace::droppedSpans()
                          << " spans dropped (buffers full)\n";
        }
    }
    if (config.record) {
        // Write the traffic as actually sent: same requests, real
        // send offsets (merged across connections, re-sorted into
        // one timeline).  The capture is itself a valid reqlog, so
        // a replay can be replayed.
        reqlog::Log capture;
        capture.header.seed = replayLog->header.seed;
        capture.header.source = "net_throughput";
        capture.entries.reserve(last.client.recorded.size());
        std::uint64_t prevNs = 0;
        for (const auto &[offsetNs, entryIdx] : last.client.recorded) {
            reqlog::Entry entry = config.entries[entryIdx];
            // Guard monotonicity against clock ties across
            // connections resolving in either order.
            entry.atNs = std::max(offsetNs, prevNs);
            prevNs = entry.atNs;
            capture.entries.push_back(std::move(entry));
        }
        std::string error;
        if (!reqlog::writeFile(recordPath, capture, &error)) {
            std::cerr << "net_throughput: " << error << "\n";
            return 1;
        }
        if (!json)
            std::cout << "record: wrote " << capture.entries.size()
                      << " entries to " << recordPath << "\n";
    }
    if (!metricsOut.empty()) {
        std::ofstream out(metricsOut);
        if (!out) {
            std::cerr << "net_throughput: cannot write "
                      << metricsOut << "\n";
            return 1;
        }
        out << last.metricsText;
        if (!json)
            std::cout << "metrics: wrote " << last.metricsText.size()
                      << " bytes of Prometheus text to "
                      << metricsOut << "\n";
    }
    return 0;
}
