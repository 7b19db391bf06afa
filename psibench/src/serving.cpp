#include "serving.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <iostream>
#include <map>
#include <set>

#include "base/logging.hpp"
#include "base/trace.hpp"
#include "catalog.hpp"
#include "kl0/compiled_program.hpp"
#include "programs/registry.hpp"
#include "replay.hpp"
#include "spans.hpp"

namespace psibench {

using namespace psi;
using interp::ExecMode;

namespace {

/** Cold set-ups per untraced run; setup_s is their median. */
constexpr int kColdSetups = 15;
/** Closed-loop concurrency on the one connection. */
constexpr unsigned kInflight = 4;
/** A RESULT later than this after the last send is lost. */
constexpr std::uint64_t kGraceNs = 10'000'000'000ull;
/** Requests the traced run replays through the layer entry points. */
constexpr std::size_t kReplayRequests = 600;
/** Latency a failed request is charged: it misses any limit. */
constexpr double kFailedLatencyUs = 1e12;

/** Sleep until close to @p dueNs, then spin the rest so timer
 *  wake-up jitter does not land in every latency sample. */
void
waitUntil(std::uint64_t dueNs)
{
    constexpr std::uint64_t kSpinNs = 150'000;
    for (;;) {
        std::uint64_t now = nowNs();
        if (now >= dueNs)
            return;
        if (dueNs - now > kSpinNs)
            std::this_thread::sleep_for(
                std::chrono::nanoseconds(dueNs - now - kSpinNs));
    }
}

void
closeFd(int &fd)
{
    if (fd >= 0)
        ::close(fd);
    fd = -1;
}

} // namespace

// ---------------------------------------------------------------- Stack

Stack::Stack(const ServingSpec &spec)
{
    unsigned n = spec.routedBackends == 0 ? 1 : spec.routedBackends;
    for (unsigned i = 0; i < n; ++i) {
        net::PsiServer::Config cfg;
        cfg.workers = 1;
        // Nothing is refused at today's speed, so a refusal is a
        // regression rather than noise.
        cfg.queueCapacity = 1 << 16;
        auto server = std::make_unique<net::PsiServer>(cfg);
        std::string error;
        if (!server->start(&error))
            fatal("psibench: server start failed: ", error);
        _servers.push_back(std::move(server));
    }
    if (spec.routedBackends != 0) {
        router::PsiRouter::Config cfg;
        for (const auto &s : _servers) {
            router::BackendAddr addr;
            addr.port = s->port();
            cfg.backends.push_back(addr);
        }
        _router = std::make_unique<router::PsiRouter>(cfg);
        std::string error;
        if (!_router->start(&error))
            fatal("psibench: router start failed: ", error);
    }
    // Threads start only after everything that can throw.
    for (auto &s : _servers)
        _loops.emplace_back([p = s.get()] { p->run(); });
    if (_router)
        _loops.emplace_back([p = _router.get()] { p->run(); });
}

Stack::~Stack()
{
    if (_router) {
        _router->requestDrain();
        _loops.back().join();
        _loops.pop_back();
    }
    for (auto &s : _servers)
        s->requestDrain();
    for (auto &t : _loops)
        t.join();
}

std::uint16_t
Stack::port() const
{
    return _router ? _router->port() : _servers.front()->port();
}

bool
Stack::waitAdmitted(double timeoutS) const
{
    if (!_router)
        return true;
    std::uint64_t end = nowNs() + static_cast<std::uint64_t>(timeoutS * 1e9);
    while (nowNs() < end) {
        bool all = true;
        for (const auto &b : _router->metrics().backends)
            all = all && b.admitted;
        if (all)
            return true;
        std::this_thread::yield();
    }
    return false;
}

std::vector<service::MetricsSnapshot>
Stack::backendMetrics() const
{
    std::vector<service::MetricsSnapshot> out;
    for (const auto &s : _servers)
        out.push_back(s->metrics());
    return out;
}

router::RouterMetrics
Stack::routerMetrics() const
{
    return _router ? _router->metrics() : router::RouterMetrics{};
}

// --------------------------------------------------------------- Client

Client::Client(std::uint16_t port)
{
    _fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (_fd < 0)
        fatal("psibench: socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(_fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof addr) != 0) {
        closeFd(_fd);
        fatal("psibench: connect to port ", port, " failed");
    }
    int one = 1;
    ::setsockopt(_fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    net::Message ack;
    if (!send(net::Message(net::HelloMsg{})) ||
        !recvMessage(ack, 10'000) ||
        !std::holds_alternative<net::HelloAckMsg>(ack)) {
        closeFd(_fd);
        fatal("psibench: HELLO exchange failed");
    }
}

Client::~Client()
{
    closeFd(_fd);
}

bool
Client::send(const net::Message &msg)
{
    std::string frame = net::encode(msg);
    std::size_t off = 0;
    while (off < frame.size()) {
        ssize_t n = ::send(_fd, frame.data() + off, frame.size() - off,
                           MSG_NOSIGNAL);
        if (n <= 0) {
            if (n < 0 && errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

bool
Client::recvMessage(net::Message &out, int timeoutMs)
{
    for (;;) {
        std::string payload;
        switch (net::extractFrame(_rbuf, payload)) {
          case net::FrameResult::Frame: {
            std::optional<net::Message> m = net::decode(payload);
            if (!m)
                return false;
            out = std::move(*m);
            return true;
          }
          case net::FrameResult::Bad:
            return false;
          case net::FrameResult::NeedMore:
            break;
        }
        pollfd pfd{_fd, POLLIN, 0};
        int rc = ::poll(&pfd, 1, timeoutMs);
        if (rc < 0 && errno == EINTR)
            continue;
        if (rc <= 0)
            return false;
        char buf[64 * 1024];
        ssize_t n = ::recv(_fd, buf, sizeof buf, 0);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        _rbuf.append(buf, static_cast<std::size_t>(n));
    }
}

bool
Client::recvResult(net::ResultMsg &out, int timeoutMs)
{
    net::Message m;
    while (recvMessage(m, timeoutMs)) {
        if (auto *r = std::get_if<net::ResultMsg>(&m)) {
            out = std::move(*r);
            return true;
        }
    }
    return false;
}

// ---------------------------------------------------------- open loop

std::vector<Sample>
runOpenLoop(Client &client, const reqlog::Log &log, const Oracle &oracle,
            bool traceSends, std::uint64_t tagBase)
{
    const std::vector<reqlog::Entry> &entries = log.entries;
    std::vector<Sample> samples(entries.size());
    std::atomic<bool> sendFailed{false};
    const std::uint64_t t0 = nowNs() + 2'000'000;

    std::thread sender([&] {
        for (std::size_t i = 0; i < entries.size(); ++i) {
            Sample &s = samples[i];
            s.dueNs = t0 + entries[i].atNs;
            waitUntil(s.dueNs);
            s.sentNs = nowNs();
            std::uint64_t traceStart = traceSends ? trace::nowNs() : 0;
            if (!client.send(
                    net::Message(submitFor(entries[i], tagBase + i)))) {
                sendFailed = true;
                return;
            }
            if (traceSends)
                trace::record(trace::Stage::Send, 0, traceStart,
                              trace::nowNs());
        }
    });

    // The receiver runs here; it owns recvNs/ok/refused and the
    // server fields, the sender owns dueNs/sentNs.
    const std::uint64_t lastDue = t0 + log.spanNs();
    std::size_t received = 0;
    while (received < entries.size() && !sendFailed) {
        net::ResultMsg r;
        if (!client.recvResult(r, 100)) {
            if (nowNs() > lastDue + kGraceNs)
                break;
            continue;
        }
        std::uint64_t at = nowNs();
        const std::uint64_t i = r.tag - tagBase;
        if (r.tag < tagBase || i >= entries.size() ||
            samples[i].recvNs != 0)
            continue;
        Sample &s = samples[i];
        s.recvNs = at;
        s.refused = r.status == net::WireStatus::Overloaded ||
                    r.status == net::WireStatus::Draining;
        s.ok = oracle.check(entries[i].workload, entries[i].mode, r);
        s.serverLatencyNs = r.latencyNs;
        s.queueNs = r.queueNs;
        s.execNs = r.execNs;
        ++received;
    }
    sender.join();
    return samples;
}

void
countSamples(const std::vector<Sample> &samples, Tally &tally)
{
    for (const Sample &s : samples)
        tally.count(s.recvNs != 0 && s.ok);
}

// -------------------------------------------------------- closed loop

ClosedLoop
runClosedLoop(Client &client, const reqlog::Log &log, const Oracle &oracle,
              double seconds, unsigned inflight)
{
    const std::vector<reqlog::Entry> &entries = log.entries;
    ClosedLoop out;
    if (entries.empty())
        return out;
    // Tags above any open loop's, so a straggler from an earlier
    // phase can never be taken for one of these.
    constexpr std::uint64_t kTagBase = 1ull << 40;
    const std::uint64_t start = nowNs(), cpu0 = processCpuNs();
    const std::uint64_t end =
        start + static_cast<std::uint64_t>(seconds * 1e9);
    // Each RESULT releases the next SUBMIT, so one thread keeps the
    // window full and the client adds no thread of its own to the
    // pipeline it measures.
    std::uint64_t sent = 0, received = 0;
    auto sendNext = [&] {
        const reqlog::Entry &e = entries[sent % entries.size()];
        if (client.send(net::Message(submitFor(e, kTagBase + sent))))
            ++sent;
    };
    for (unsigned k = 0; k < inflight; ++k)
        sendNext();
    std::uint64_t lastProgress = nowNs();
    while (received < sent) {
        net::ResultMsg r;
        if (!client.recvResult(r, 100)) {
            if (nowNs() - lastProgress > kGraceNs)
                break; // outstanding replies are lost
            continue;
        }
        if (r.tag < kTagBase)
            continue;
        lastProgress = nowNs();
        ++received;
        const reqlog::Entry &e =
            entries[(r.tag - kTagBase) % entries.size()];
        bool ok = oracle.check(e.workload, e.mode, r);
        out.tally.count(ok);
        out.correct += ok ? 1 : 0;
        if (lastProgress < end)
            sendNext();
    }
    out.wallNs = nowNs() - start;
    out.cpuNs = processCpuNs() - cpu0;
    for (std::uint64_t i = received; i < sent; ++i)
        out.tally.count(false);
    return out;
}

// ------------------------------------------------------------ runner

namespace {

/** The first entry of each (program, mode) in @p log. */
std::vector<reqlog::Entry>
warmups(const reqlog::Log &log)
{
    std::set<std::pair<std::string, ExecMode>> pairs;
    std::vector<reqlog::Entry> out;
    for (const reqlog::Entry &e : log.entries) {
        if (pairs.insert({e.workload, e.mode}).second)
            out.push_back(e);
    }
    return out;
}

/** A warm, admitted stack plus the connection that warmed it. */
struct Setup
{
    std::unique_ptr<Stack> stack;
    std::unique_ptr<Client> client;
    std::uint64_t ns = 0;
};

/**
 * One cold set-up: build the stack, wait for ring admission, and
 * send one warm-up request per (program, mode) in the schedule so
 * every distinct source is compiled.  Timed up to the last warm-up
 * RESULT; teardown is not timed.
 */
std::unique_ptr<Setup>
coldSetup(const ServingSpec &spec, const reqlog::Log &log,
          const Oracle &oracle, Tally &tally)
{
    const std::vector<reqlog::Entry> warm = warmups(log);
    auto s = std::make_unique<Setup>();
    std::uint64_t t0 = nowNs();
    s->stack = std::make_unique<Stack>(spec);
    if (!s->stack->waitAdmitted(10))
        fatal("psibench: router never admitted its backends");
    s->client = std::make_unique<Client>(s->stack->port());
    for (std::size_t i = 0; i < warm.size(); ++i)
        s->client->send(net::Message(submitFor(warm[i], i)));
    for (std::size_t n = 0; n < warm.size(); ++n) {
        net::ResultMsg r;
        if (!s->client->recvResult(r, 30'000))
            fatal("psibench: warm-up reply lost");
        tally.count(r.tag < warm.size() &&
                    oracle.check(warm[r.tag].workload, warm[r.tag].mode,
                                 r));
    }
    s->ns = nowNs() - t0;
    return s;
}

double
latencyUs(const Sample &s)
{
    return s.ok ? static_cast<double>(s.recvNs - s.dueNs) / 1e3
                : kFailedLatencyUs;
}

double
pooledLatencyUs(const std::vector<Sample> &samples, double q)
{
    std::vector<double> v;
    for (const Sample &s : samples)
        v.push_back(latencyUs(s));
    return percentile(v, q);
}

/** kl0 layer: each distinct source compiled (timed) outside any
 *  server; returns mean compile µs and total code words. */
void
measureCompile(const std::vector<std::string> &ids,
               std::map<std::string, double> &v)
{
    std::set<std::uint64_t> seen;
    std::vector<double> us;
    double words = 0;
    for (const std::string &id : ids) {
        const auto &p = programs::programById(id);
        if (!seen.insert(kl0::CompiledProgram::hashSource(p.source))
                 .second)
            continue;
        std::vector<double> reps;
        for (int r = 0; r < 3; ++r) {
            std::uint64_t t = nowNs();
            kl0::CompiledProgram img = kl0::CompiledProgram::compile(p.source);
            reps.push_back(static_cast<double>(nowNs() - t) / 1e3);
            if (r == 0)
                words += img.codeWords();
        }
        us.push_back(median(reps));
    }
    v["kl0.compile_us"] = mean(us);
    v["kl0.code_words"] = words;
}

/**
 * Per-layer values from the schedule's first kReplayRequests requests
 * replayed in-process with one span per layer call.  A fixed count
 * keeps the exact counters exact; the cache is warmed first, so
 * service.cache_get times hits.
 */
void
replayLayers(const reqlog::Log &log, const Oracle &oracle,
             SpanLog &spans, Tally &tally,
             std::map<std::string, double> &v)
{
    Replayer replayer(oracle, &spans);
    replayer.warm(log);
    const std::size_t n = std::min(log.entries.size(), kReplayRequests);
    for (std::size_t i = 0; i < n; ++i)
        tally.count(replayer.run(log.entries[i], i + 1));

    std::map<std::string, double> self = spans.meanSelfUs();
    auto put = [&](const char *metric, const char *span) {
        if (self.count(span))
            v[metric] = self[span];
    };
    put("fast.load_us", "fast.load");
    put("fast.solve_us", "fast.solve");
    put("interp.load_us", "interp.load");
    put("interp.solve_us", "interp.solve");
    put("service.cache_get_us", "service.cache_get");
    put("net.encode_us", "net.encode");
    put("net.decode_us", "net.decode");
    const ReplayCounters &c = replayer.counters();
    v["fast.index_hits"] = c.indexHits;
    v["fast.clause_tries"] = c.clauseTries;
    v["micro.steps"] = c.steps;
    v["interp.model_ns"] = c.modelNs;
    v["mem.stall_ns"] = c.stallNs;
    if (c.cacheAccesses > 0)
        v["mem.cache_hit_pct"] = 100.0 * c.cacheHits / c.cacheAccesses;
    if (c.steps > 0) {
        v["interp.host_ns_per_step"] = c.solveCpuNs / c.steps;
        v["sim_msteps_per_s"] = c.steps / c.solveCpuNs * 1e3;
    }
    v["net.submit_bytes"] = c.submitBytes;
    v["net.result_bytes"] = c.resultBytes;
}

/** Service, sched, net and client values from an untraced
 *  open-loop phase and the stack's own counters. */
void
harvestServing(const Stack &stack, const std::vector<Sample> &samples,
               std::map<std::string, double> &v)
{
    std::vector<double> queue, exec, overhead, late;
    double refused = 0, lost = 0;
    for (const Sample &s : samples) {
        late.push_back(static_cast<double>(s.sentNs - s.dueNs) / 1e3);
        if (s.recvNs == 0) {
            ++lost;
            continue;
        }
        refused += s.refused ? 1 : 0;
        queue.push_back(static_cast<double>(s.queueNs) / 1e3);
        exec.push_back(static_cast<double>(s.execNs) / 1e3);
        overhead.push_back(
            (static_cast<double>(s.recvNs - s.sentNs) -
             static_cast<double>(s.serverLatencyNs)) / 1e3);
    }
    v["service.queue_p50_us"] = percentile(queue, 0.50);
    v["service.queue_p95_us"] = percentile(queue, 0.95);
    v["service.exec_p50_us"] = percentile(exec, 0.50);
    v["net.overhead_p50_us"] = percentile(overhead, 0.50);
    v["net.refused"] = refused;
    v["net.lost"] = lost;
    v["client.latency_p50_us"] = pooledLatencyUs(samples, 0.50);
    v["client.latency_p95_us"] = pooledLatencyUs(samples, 0.95);
    v["client.latency_p99_us"] = pooledLatencyUs(samples, 0.99);
    v["client.latency_p999_us"] = pooledLatencyUs(samples, 0.999);
    v["client.samples"] = static_cast<double>(samples.size());
    v["gen.late_mean_us"] = mean(late);
    v["gen.late_max_us"] = late.empty() ? 0 : percentile(late, 1.0);

    double ran = 0, setupNs = 0, solveNs = 0, misses = 0, peak = 0,
           affHits = 0, dispatches = 0, batches = 0, aged = 0;
    for (const service::MetricsSnapshot &m : stack.backendMetrics()) {
        ran += static_cast<double>(m.total.completed -
                                   m.total.expiredInQueue -
                                   m.total.errored);
        setupNs += static_cast<double>(m.total.hostSetupNs);
        solveNs += static_cast<double>(m.total.hostSolveNs);
        misses += static_cast<double>(m.programCacheMisses);
        peak = std::max(peak, static_cast<double>(m.peakQueueDepth));
        affHits += static_cast<double>(m.sched.affinityHits);
        dispatches += static_cast<double>(m.sched.dispatches());
        batches += static_cast<double>(m.sched.batches);
        aged += static_cast<double>(m.sched.agedDispatches);
    }
    if (ran > 0) {
        v["service.setup_mean_us"] = setupNs / ran / 1e3;
        v["service.solve_mean_us"] = solveNs / ran / 1e3;
    }
    v["service.cache_misses"] = misses;
    v["service.peak_queue_depth"] = peak;
    if (dispatches > 0)
        v["sched.affinity_hit_ratio"] = affHits / dispatches;
    v["sched.batches"] = batches;
    v["sched.aged"] = aged;

    if (stack.routed()) {
        router::RouterMetrics rm = stack.routerMetrics();
        double retried = 0, refusals = 0, ejections = 0;
        for (const auto &b : rm.backends) {
            retried += static_cast<double>(b.retried);
            refusals += static_cast<double>(b.refusals);
            ejections += static_cast<double>(b.ejections);
        }
        v["router.affinity_hit_ratio"] = rm.affinityRatio();
        v["router.retried"] = retried;
        v["router.refusals"] = refusals;
        v["router.ejections"] = ejections;
    }
}

/** trace.<stage>_us: mean psitrace span per stage. */
void
harvestPsitrace(const std::vector<trace::Span> &spans,
                std::map<std::string, double> &v)
{
    const std::pair<trace::Stage, const char *> stages[] = {
        {trace::Stage::Queue, "trace.queue_us"},
        {trace::Stage::Setup, "trace.setup_us"},
        {trace::Stage::Solve, "trace.solve_us"},
        {trace::Stage::Encode, "trace.encode_us"},
        {trace::Stage::Reply, "trace.reply_us"},
        {trace::Stage::Decode, "trace.decode_us"},
        {trace::Stage::Send, "trace.send_us"},
    };
    for (const auto &[stage, name] : stages) {
        std::vector<double> us;
        for (const trace::Span &s : spans) {
            if (s.stage == stage)
                us.push_back(static_cast<double>(s.durNs) / 1e3);
        }
        v[name] = mean(us);
    }
}

/** The untraced replay's per-request numbers, at reference speed. */
struct Timed
{
    std::vector<double> latencyUs; ///< SUBMIT encode to RESULT decode
    std::vector<double> refUs;     ///< every reference sample
    double scaledS = 0;            ///< sum of scaled latencies
    double scaledCpuUs = 0;
    std::uint64_t requests = 0, correct = 0;
};

/**
 * Replay @p log's requests in order, round and round, on @p replayer
 * for @p seconds.  The reference kernel is timed between chunks of
 * about kChunkNs of requests; each request is scaled by the mean of
 * the samples either side of its chunk.
 */
Timed
timedReplay(Replayer &replayer, const reqlog::Log &log, double seconds,
            Tally &tally)
{
    constexpr std::uint64_t kChunkNs = 25'000'000;
    Timed t;
    const std::vector<reqlog::Entry> &entries = log.entries;
    const std::uint64_t end =
        nowNs() + static_cast<std::uint64_t>(seconds * 1e9);
    double before = refKernelUs();
    t.refUs.push_back(before);
    std::vector<std::pair<double, double>> chunk;
    while (nowNs() < end && !entries.empty()) {
        chunk.clear();
        const std::uint64_t chunkEnd = nowNs() + kChunkNs;
        while (nowNs() < chunkEnd) {
            const reqlog::Entry &e = entries[t.requests % entries.size()];
            const std::uint64_t t0 = nowNs(), c0 = threadCpuNs();
            bool ok = replayer.run(e, t.requests + 1);
            chunk.push_back({static_cast<double>(nowNs() - t0) / 1e3,
                             static_cast<double>(threadCpuNs() - c0) / 1e3});
            tally.count(ok);
            t.correct += ok ? 1 : 0;
            ++t.requests;
        }
        const double after = refKernelUs();
        t.refUs.push_back(after);
        const double f = 2 * kRefNominalUs / (before + after);
        before = after;
        for (const auto &[wallUs, cpuUs] : chunk) {
            t.latencyUs.push_back(wallUs * f);
            t.scaledS += wallUs * f / 1e6;
            t.scaledCpuUs += cpuUs * f;
        }
    }
    return t;
}

} // namespace

void
runServing(const ServingSpec &spec, const Args &args, Report &report)
{
    StealMeter steal;
    const double S = args.seconds;
    // The untraced replay serves about --seconds x rate requests from
    // a schedule four times that long, so the mix it serves (and with
    // it the tail) barely depends on the seed's draws.
    const reqlog::Log log =
        makeSchedule(spec, args.seed, args.trace ? 0.3 * S : 4 * S);
    std::cout << "psibench: workload " << spec.name << " seed "
              << args.seed << " schedule " << log.entries.size()
              << " requests hash " << std::hex << scheduleHash(log)
              << std::dec << "\n";
    const std::vector<std::string> ids = programIds(spec);
    const Oracle oracle(ids);
    Tally tally;
    std::map<std::string, double> v;

    if (!args.trace) {
        // Cold set-ups: a fresh program cache and fresh engines, every
        // distinct source compiled by one warm-up request per
        // (program, mode).  Each is scaled by the reference samples
        // either side of it; the previous one's teardown is untimed.
        const std::vector<reqlog::Entry> warm = warmups(log);
        std::vector<double> setupS;
        std::unique_ptr<Replayer> replayer;
        double before = refKernelUs();
        for (int k = 0; k < kColdSetups; ++k) {
            replayer.reset();
            const std::uint64_t t0 = nowNs();
            replayer = std::make_unique<Replayer>(oracle);
            for (const reqlog::Entry &e : warm)
                tally.count(replayer->run(e, 0));
            const double s = static_cast<double>(nowNs() - t0) / 1e9;
            const double after = refKernelUs();
            setupS.push_back(s * 2 * kRefNominalUs / (before + after));
            before = after;
        }
        Timed t = timedReplay(*replayer, log, S, tally);
        v["setup_s"] = median(setupS);
        v["latency_p50_us"] = percentile(t.latencyUs, 0.50);
        v["latency_p95_us"] = percentile(t.latencyUs, 0.95);
        v["goodput_rps"] = static_cast<double>(t.correct) / t.scaledS;
        v["cpu_us_per_req"] =
            t.scaledCpuUs / static_cast<double>(t.requests);
        replayer.reset();
        v["peak_rss_mb"] = peakRssMb();
        std::cerr << "psibench: " << spec.name << " " << t.requests
                  << " requests replayed, steal " << steal.sharePct()
                  << " %, reference kernel "
                  << median(t.refUs) << " us (scaled to "
                  << kRefNominalUs << ")\n";
        fill(report, endToEndMetrics(), v, true);
    } else {
        // The loopback stack: its client-side numbers, its own
        // counters, and its psitrace stage means.
        const double refStartUs = refKernelUs();
        std::unique_ptr<Setup> setup = coldSetup(spec, log, oracle, tally);
        v["client.setup_s"] = static_cast<double>(setup->ns) / 1e9;
        measureCompile(ids, v);
        std::vector<Sample> plain =
            runOpenLoop(*setup->client, log, oracle, false);
        countSamples(plain, tally);
        harvestServing(*setup->stack, plain, v);
        ClosedLoop closed =
            runClosedLoop(*setup->client, log, oracle, 0.1 * S, kInflight);
        tally.attempted += closed.tally.attempted;
        tally.failed += closed.tally.failed;
        v["client.goodput_rps"] = static_cast<double>(closed.correct) *
                                  1e9 / static_cast<double>(closed.wallNs);

        trace::reset();
        trace::setEnabled(true);
        std::vector<Sample> traced =
            runOpenLoop(*setup->client, log, oracle, true);
        trace::setEnabled(false);
        countSamples(traced, tally);
        std::vector<trace::Span> psitrace = trace::collect();
        harvestPsitrace(psitrace, v);
        double plainP50 = pooledLatencyUs(plain, 0.5);
        if (plainP50 > 0)
            v["trace.overhead_pct"] =
                100.0 * (pooledLatencyUs(traced, 0.5) / plainP50 - 1);
        setup.reset();

        SpanLog spans;
        replayLayers(log, oracle, spans, tally, v);

        const std::string stem = traceDir() + "/" + spec.name + "-seed" +
                                 std::to_string(args.seed);
        std::ofstream(stem + "-psitrace.json")
            << trace::chromeJson(psitrace);
        if (!spans.write(stem + "-spans.jsonl"))
            warn("psibench: could not write ", stem, "-spans.jsonl");
        std::cout << "psibench: spans written to " << stem
                  << "-spans.jsonl and " << stem << "-psitrace.json\n";

        v["host.steal_pct"] = steal.sharePct();
        v["host.ref_kernel_us"] = (refStartUs + refKernelUs()) / 2;
        fill(report, perLayerMetrics(), v, false);
    }
    report.attempted = tally.attempted;
    report.failed = tally.failed;
}

} // namespace psibench
