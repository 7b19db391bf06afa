#include "router/router.hpp"

#include <sys/socket.h>

#include <algorithm>

#include "base/logging.hpp"
#include "base/metrics.hpp"
#include "base/trace.hpp"
#include "kl0/compiled_program.hpp"
#include "programs/registry.hpp"

namespace psi {
namespace router {

// --------------------------------------------------------------------
// BackendAddr

std::optional<BackendAddr>
BackendAddr::parse(const std::string &spec, std::string *error)
{
    auto fail = [&](const std::string &why) {
        if (error)
            *error = "bad backend '" + spec + "': " + why;
        return std::nullopt;
    };

    BackendAddr addr;
    std::string portPart;
    std::size_t colon = spec.rfind(':');
    if (colon == std::string::npos) {
        portPart = spec; // bare port, loopback host
    } else {
        if (colon > 0)
            addr.host = spec.substr(0, colon);
        portPart = spec.substr(colon + 1);
    }
    if (portPart.empty())
        return fail("missing port");
    unsigned long port = 0;
    for (char c : portPart) {
        if (c < '0' || c > '9')
            return fail("port is not a number");
        port = port * 10 + static_cast<unsigned long>(c - '0');
        if (port > 65535)
            return fail("port out of range");
    }
    if (port == 0)
        return fail("port out of range");
    addr.port = static_cast<std::uint16_t>(port);
    return addr;
}

std::string
BackendAddr::str() const
{
    return host + ":" + std::to_string(port);
}

// --------------------------------------------------------------------
// RouterMetrics

double
RouterMetrics::affinityRatio() const
{
    std::uint64_t total = affinityHits + affinityMisses;
    return total == 0
        ? 1.0
        : static_cast<double>(affinityHits) /
              static_cast<double>(total);
}

void
RouterMetrics::describe(metrics::Registry &r, std::uint64_t wall_ns) const
{
    r.add("role", {}, metrics::text("router"));
    r.add("backends", r.gauge("psi_router_backends"), backends.size());
    std::uint64_t admitted = 0;
    for (const Backend &b : backends)
        admitted += b.admitted ? 1 : 0;
    r.add("backends_admitted", {}, admitted);
    // The per-backend families print here; their samples are declared
    // with the per-backend STATS keys below.
    const auto isAdmitted = r.gauge("psi_router_backend_admitted");
    const auto routed = r.counter("psi_router_routed_total");
    const auto completed = r.counter("psi_router_completed_total");
    const auto retried = r.counter("psi_router_retried_total");
    const auto refusals = r.counter("psi_router_refusals_total");
    const auto ejections = r.counter("psi_router_ejections_total");
    r.add("client_conns", r.counter("psi_router_client_conns_total"),
          clientConns);
    r.add("submits", r.counter("psi_router_submits_total"), submits);
    r.add("affinity_hits", r.counter("psi_router_affinity_hits_total"),
          affinityHits);
    r.add("affinity_misses", r.counter("psi_router_affinity_misses_total"),
          affinityMisses);
    r.add("affinity_ratio", r.gauge("psi_router_affinity_ratio"),
          metrics::fixed(affinityRatio(), 4));
    r.add("unknown_workload",
          r.counter("psi_router_unknown_workload_total"), unknownWorkload);
    r.add("no_backend", r.counter("psi_router_no_backend_total"),
          noBackend);
    r.add("router_timeouts", r.counter("psi_router_timeouts_total"),
          routerTimeouts);
    r.add("stale_dropped", r.counter("psi_router_stale_dropped_total"),
          staleDropped);
    r.add("client_gone", r.counter("psi_router_client_gone_total"),
          clientGone);
    for (std::size_t i = 0; i < backends.size(); ++i) {
        const Backend &b = backends[i];
        const std::string p = "backend_" + std::to_string(i) + "_";
        const metrics::Labels l = {{"backend", b.addr}};
        r.add(p + "addr", {}, metrics::text(b.addr));
        r.add(p + "admitted", isAdmitted, b.admitted ? 1 : 0, l);
        r.add(p + "routed", routed, b.routed, l);
        r.add(p + "completed", completed, b.completed, l);
        r.add(p + "retried", retried, b.retried, l);
        r.add(p + "refusals", refusals, b.refusals, l);
        r.add(p + "ejections", ejections, b.ejections, l);
    }
    r.add("wall_ns", r.counter("psi_router_uptime_seconds"),
          metrics::nanos(wall_ns));
}

// --------------------------------------------------------------------
// PsiRouter

PsiRouter::PsiRouter() : PsiRouter(Config()) {}

PsiRouter::PsiRouter(const Config &config)
    // The router's HELLO_ACK adds kFeatureRouting to the plain-server
    // feature set: a client that offered the bit can tell a router
    // from a backend by the ack.
    : Frontend(config, "router", "psirouter",
               net::kSupportedFeatures | net::kFeatureRouting),
      _config(config),
      _ring(config.vnodes),
      _fullRing(config.vnodes)
{
    for (std::size_t i = 0; i < _config.backends.size(); ++i) {
        auto backend = std::make_unique<Backend>();
        backend->addr = _config.backends[i];
        backend->index = static_cast<std::uint32_t>(i);
        Backoff::Config bc = _config.readmission;
        // Distinct jitter stream per backend so simultaneous deaths
        // don't redial in lockstep.
        bc.seed = SplitMix64(bc.seed ^ (i + 1)).next();
        backend->backoff = Backoff(bc);
        _backends.push_back(std::move(backend));
        // The full ring never changes: it defines each key's *home*
        // backend for affinity accounting even while members are
        // ejected.
        _fullRing.add(static_cast<std::uint32_t>(i));
    }
}

bool
PsiRouter::start(std::string *error)
{
    if (_backends.empty()) {
        if (error)
            *error = "no backends configured";
        return false;
    }
    // Resolve once: the poll loop redials without waiting on DNS.
    for (auto &backend : _backends) {
        if (!net::resolve(backend->addr.host, backend->addr.port,
                          backend->peer, error))
            return false;
    }
    if (!listen(error))
        return false;

    // Dial every backend eagerly so the first SUBMIT usually finds a
    // populated ring; admission completes inside run()'s poll loop.
    for (auto &backend : _backends)
        startConnect(*backend);
    return true;
}

void
PsiRouter::run()
{
    serve();
    for (auto &backend : _backends) {
        backend->conn.reset();
        backend->state.store(BState::Ejected,
                             std::memory_order_release);
    }
}

void
PsiRouter::describe(metrics::Registry &r, std::uint64_t wallNs) const
{
    metrics().describe(r, wallNs);
}

int
PsiRouter::pollTimeoutMs() const
{
    Clock::time_point next = Clock::now() + std::chrono::seconds(1);
    for (const auto &backend : _backends) {
        switch (backend->state.load(std::memory_order_relaxed)) {
          case BState::Ejected:
            next = std::min(next, backend->nextProbeAt);
            break;
          case BState::Connecting:
            next = std::min(
                next, backend->connectStartAt +
                          std::chrono::nanoseconds(
                              _config.connectTimeoutNs));
            break;
          case BState::Admitted:
            next = std::min(
                next, backend->probeOutstanding
                          ? backend->probeSentAt +
                                std::chrono::nanoseconds(
                                    _config.probeTimeoutNs)
                          : backend->nextProbeAt);
            break;
        }
    }
    Clock::time_point now = Clock::now();
    if (next <= now)
        return 0;
    auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                  next - now)
                  .count();
    return static_cast<int>(std::min<long long>(ms + 1, 1000));
}

int
PsiRouter::preparePoll(std::vector<pollfd> &fds)
{
    serviceBackendTimers();
    _polled.clear();
    for (auto &backend : _backends) {
        BState state =
            backend->state.load(std::memory_order_relaxed);
        if (backend->conn.fd() < 0 || state == BState::Ejected)
            continue;
        short events = 0;
        if (state == BState::Connecting) {
            events = POLLOUT;
        } else {
            events = POLLIN;
            if (backend->conn.wantsWrite())
                events |= POLLOUT;
        }
        fds.push_back({backend->conn.fd(), events, 0});
        _polled.push_back(backend->index);
    }
    return pollTimeoutMs();
}

void
PsiRouter::servePoll(std::span<const pollfd> ready)
{
    for (std::size_t i = 0; i < _polled.size(); ++i) {
        Backend &backend = *_backends[_polled[i]];
        short revents = ready[i].revents;
        if (revents == 0)
            continue;
        BState state =
            backend.state.load(std::memory_order_relaxed);
        if (state == BState::Connecting) {
            if (revents & (POLLOUT | POLLERR | POLLHUP))
                finishConnect(backend);
            continue;
        }
        if (state != BState::Admitted || backend.conn.fd() < 0)
            continue; // ejected earlier in this pass
        bool ok = true;
        if (revents & (POLLERR | POLLNVAL))
            ok = false;
        if (ok && (revents & (POLLIN | POLLHUP)))
            ok = handleBackendReadable(backend);
        if (ok && (revents & POLLOUT))
            ok = backend.conn.flush();
        if (!ok &&
            backend.state.load(std::memory_order_relaxed) ==
                BState::Admitted)
            eject(backend, "connection lost");
    }
}

void
PsiRouter::submit(Conn &conn, net::SubmitMsg &&msg, std::uint64_t)
{
    auto refuse = [&](net::WireStatus status, std::string why) {
        net::ResultMsg refused;
        refused.tag = msg.tag;
        refused.status = status;
        refused.error = std::move(why);
        reply(conn, net::Message(std::move(refused)));
    };

    _submits.fetch_add(1, std::memory_order_relaxed);

    // Workload resolution happens here, not just on the backend: the
    // routing key is the program's *source-content* hash (the
    // ProgramCache key), so every alias of the same source rides the
    // same shard.
    const programs::BenchProgram *program =
        programs::findProgramById(msg.workload);
    if (program == nullptr) {
        _unknownWorkload.fetch_add(1, std::memory_order_relaxed);
        refuse(net::WireStatus::UnknownWorkload,
               "unknown workload '" + msg.workload +
                   "'; available: " + programs::programIdList());
        return;
    }

    Pending pending;
    pending.clientConnId = conn.id;
    pending.clientTag = msg.tag;
    pending.workload = std::move(msg.workload);
    pending.tenant = std::move(msg.tenant);
    pending.mode = msg.mode;
    pending.hasMode = msg.hasMode;
    pending.key = kl0::CompiledProgram::hashSource(program->source);
    if (msg.deadlineNs != 0) {
        pending.hasDeadline = true;
        pending.deadlineAt =
            Clock::now() + std::chrono::nanoseconds(msg.deadlineNs);
    }

    std::optional<std::uint32_t> target = _ring.owner(pending.key);
    if (!target) {
        _noBackend.fetch_add(1, std::memory_order_relaxed);
        refuse(net::WireStatus::Overloaded,
               "no backends available; retry later");
        return;
    }
    forwardToBackend(*target, std::move(pending));
}

void
PsiRouter::forwardToBackend(std::uint32_t target, Pending &&pending)
{
    Backend &backend = *_backends[target];
    std::uint64_t remainNs = 0;
    if (pending.hasDeadline) {
        remainNs = nsBetween(Clock::now(), pending.deadlineAt);
        if (remainNs == 0) {
            _routerTimeouts.fetch_add(1,
                                      std::memory_order_relaxed);
            refuseClient(pending, net::WireStatus::Timeout,
                         "deadline expired at router");
            return;
        }
    }

    // Affinity is judged against the *full* ring: a forward counts
    // as a hit only when it reaches the key's home backend, so
    // ejection diverts and refusal failovers show up as misses.
    if (!pending.isRetry) {
        auto home = _fullRing.owner(pending.key);
        if (home && *home == target)
            _affinityHits.fetch_add(1, std::memory_order_relaxed);
        else
            _affinityMisses.fetch_add(1,
                                      std::memory_order_relaxed);
        backend.routed.fetch_add(1, std::memory_order_relaxed);
    } else {
        backend.retried.fetch_add(1, std::memory_order_relaxed);
    }

    // A fresh router tag per attempt is what makes failover
    // exactly-once: a RESULT from a superseded attempt no longer
    // matches any pending entry and is dropped as stale.
    std::uint64_t routerTag = _nextRouterTag++;
    pending.backend = target;
    if (pending.tried.empty() || pending.tried.back() != target)
        pending.tried.push_back(target);
    backend.outstanding.insert(routerTag);

    net::SubmitBuilder fwd(routerTag, pending.workload);
    fwd.deadlineNs(remainNs);
    // The tenant rides through so backend-side fairness sees the
    // same tenant the client declared (v1 senders forward as the
    // default tenant).  The execution mode rides through the same
    // way, in the v2.2 form only when the client used it, so a
    // cluster of pre-v2.2 backends keeps serving fidelity traffic.
    fwd.tenant(pending.tenant);
    if (pending.hasMode)
        fwd.mode(pending.mode);
    _pending.emplace(routerTag, std::move(pending));

    backend.conn.queue(net::Message(std::move(fwd).build()));
    if (!backend.conn.flush())
        eject(backend, "send failed");
}

void
PsiRouter::respondToClient(const Pending &pending,
                           net::ResultMsg msg)
{
    Conn *conn = client(pending.clientConnId);
    if (conn == nullptr) {
        _clientGone.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    msg.tag = pending.clientTag;
    reply(*conn, net::Message(std::move(msg)));
}

void
PsiRouter::refuseClient(const Pending &pending,
                        net::WireStatus status, std::string why)
{
    net::ResultMsg msg;
    msg.status = status;
    msg.error = std::move(why);
    respondToClient(pending, std::move(msg));
}

// --------------------------------------------------------------------
// Backend lifecycle

void
PsiRouter::serviceBackendTimers()
{
    Clock::time_point now = Clock::now();
    for (auto &entry : _backends) {
        Backend &backend = *entry;
        switch (backend.state.load(std::memory_order_relaxed)) {
          case BState::Ejected:
            if (now >= backend.nextProbeAt)
                startConnect(backend);
            break;
          case BState::Connecting:
            if (nsBetween(backend.connectStartAt, now) >
                _config.connectTimeoutNs) {
                backend.conn.reset();
                scheduleRedial(backend);
            }
            break;
          case BState::Admitted:
            if (backend.probeOutstanding) {
                if (nsBetween(backend.probeSentAt, now) >
                    _config.probeTimeoutNs) {
                    backend.probeOutstanding = false;
                    if (++backend.failures >=
                        _config.ejectAfterFailures) {
                        eject(backend, "health probe timeout");
                        break;
                    }
                    // Re-probe immediately: the next timeout (or
                    // answer) keeps the consecutive count moving.
                    backend.probeOutstanding = true;
                    backend.probeSentAt = now;
                    backend.conn.queue(net::Message(net::StatsMsg{}));
                    if (!backend.conn.flush())
                        eject(backend, "probe send failed");
                }
            } else if (now >= backend.nextProbeAt) {
                backend.probeOutstanding = true;
                backend.probeSentAt = now;
                backend.conn.queue(net::Message(net::StatsMsg{}));
                if (!backend.conn.flush())
                    eject(backend, "probe send failed");
            }
            break;
        }
    }
}

void
PsiRouter::startConnect(Backend &backend)
{
    bool inProgress = false;
    int fd = net::dial(backend.peer, &inProgress);
    if (fd < 0) {
        scheduleRedial(backend);
        return;
    }
    backend.conn.reset(fd);
    if (!inProgress) {
        onBackendConnected(backend);
        return;
    }
    backend.state.store(BState::Connecting, std::memory_order_release);
    backend.connectStartAt = Clock::now();
}

bool
PsiRouter::finishConnect(Backend &backend)
{
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(backend.conn.fd(), SOL_SOCKET, SO_ERROR, &err,
                     &len) != 0 ||
        err != 0) {
        backend.conn.reset();
        scheduleRedial(backend);
        return false;
    }
    onBackendConnected(backend);
    return true;
}

void
PsiRouter::onBackendConnected(Backend &backend)
{
    backend.state.store(BState::Admitted,
                        std::memory_order_release);
    backend.failures = 0;
    backend.probeOutstanding = false;
    backend.backoff.reset();
    backend.nextProbeAt =
        Clock::now() +
        std::chrono::nanoseconds(_config.probeIntervalNs);
    _ring.add(backend.index);
    inform("psirouter: backend ", backend.addr.str(),
           " admitted (", _ring.size(), "/", _backends.size(),
           " in ring)");

    // Open with our own HELLO: a plain v2 server acks with the
    // intersection of features; the routing bit we offer is simply
    // absent from its reply.
    net::HelloMsg hello;
    hello.versionMajor = net::kProtocolMajor;
    hello.versionMinor = net::kProtocolMinor;
    hello.features = net::kSupportedFeatures |
                     net::kFeatureRouting;
    backend.conn.queue(net::Message(std::move(hello)));
    if (!backend.conn.flush())
        eject(backend, "hello send failed");
}

bool
PsiRouter::handleBackendReadable(Backend &backend)
{
    if (!backend.conn.readAvailable())
        return false; // backend closed

    net::Message msg;
    std::string derror;
    for (;;) {
        switch (backend.conn.next(msg, derror)) {
          case net::FramedConn::Next::NeedMore:
            return true;
          case net::FramedConn::Next::BadFrame:
            warn("psirouter: backend ", backend.addr.str(),
                 " sent an oversized or empty frame");
            return false;
          case net::FramedConn::Next::BadPayload:
            warn("psirouter: backend ", backend.addr.str(), ": ",
                 derror);
            return false;
          case net::FramedConn::Next::Message:
            break;
        }
        if (!handleBackendMessage(backend, std::move(msg)))
            return false;
    }
}

bool
PsiRouter::handleBackendMessage(Backend &backend,
                                net::Message &&msg)
{
    // Any frame is proof of life: consecutive-failure counting only
    // tracks a backend that has gone fully silent.
    backend.failures = 0;

    if (auto *result = std::get_if<net::ResultMsg>(&msg)) {
        auto it = _pending.find(result->tag);
        if (it == _pending.end()) {
            // A RESULT for a superseded tag: the request was already
            // failed over (and possibly answered) elsewhere.
            _staleDropped.fetch_add(1, std::memory_order_relaxed);
            return true;
        }
        Pending pending = std::move(it->second);
        _pending.erase(it);
        _backends[pending.backend]->outstanding.erase(result->tag);

        const bool refusal =
            !result->ran() &&
            (result->status == net::WireStatus::Overloaded ||
             result->status == net::WireStatus::Draining);
        if (refusal) {
            backend.refusals.fetch_add(1,
                                       std::memory_order_relaxed);
            // Try the remaining ring members once each before the
            // refusal reaches the client.
            if (!retryUntried(pending))
                respondToClient(pending, std::move(*result));
            return true;
        }

        backend.completed.fetch_add(1, std::memory_order_relaxed);
        respondToClient(pending, std::move(*result));
        return true;
    }
    if (std::get_if<net::StatsReplyMsg>(&msg) != nullptr) {
        backend.probeOutstanding = false;
        backend.nextProbeAt =
            Clock::now() +
            std::chrono::nanoseconds(_config.probeIntervalNs);
        return true;
    }
    if (std::get_if<net::HelloAckMsg>(&msg) != nullptr)
        return true;
    if (auto *err = std::get_if<net::ErrorMsg>(&msg)) {
        warn("psirouter: backend ", backend.addr.str(),
             " refused us: ", err->message);
        // A protocol-level refusal will repeat on reconnect; back
        // off harder than a plain connection loss.
        backend.backoff.raiseFloor(_config.readmission.maxNs);
        return false;
    }
    if (std::get_if<net::DrainAckMsg>(&msg) != nullptr)
        return true;
    warn("psirouter: backend ", backend.addr.str(),
         " sent unexpected message type ",
         static_cast<int>(net::messageType(msg)));
    return false;
}

void
PsiRouter::eject(Backend &backend, const std::string &why)
{
    if (backend.state.load(std::memory_order_relaxed) ==
        BState::Admitted)
        backend.ejections.fetch_add(1, std::memory_order_relaxed);
    warn("psirouter: ejecting backend ", backend.addr.str(), " (",
         why, "), ", backend.outstanding.size(),
         " requests to fail over");
    _ring.remove(backend.index);
    backend.conn.reset();
    backend.probeOutstanding = false;
    backend.failures = 0;
    scheduleRedial(backend);

    // Fail over exactly the unacknowledged requests.  Move the set
    // out first: forwardToBackend() below may recurse into eject()
    // on another backend, and each recursion shrinks the ring, so
    // the chain terminates.
    std::set<std::uint64_t> orphaned;
    orphaned.swap(backend.outstanding);
    for (std::uint64_t tag : orphaned) {
        auto it = _pending.find(tag);
        if (it == _pending.end())
            continue;
        Pending pending = std::move(it->second);
        _pending.erase(it);
        failover(std::move(pending));
    }
}

void
PsiRouter::failover(Pending &&pending)
{
    if (pending.hasDeadline &&
        Clock::now() >= pending.deadlineAt) {
        _routerTimeouts.fetch_add(1, std::memory_order_relaxed);
        refuseClient(pending, net::WireStatus::Timeout,
                     "deadline expired during failover");
        return;
    }
    // Ring successor: the preference list starts at the key's owner
    // on the *current* (post-ejection) ring, so the first member we
    // have not tried yet is the natural failover target.
    if (retryUntried(pending))
        return;
    // Every admitted backend was tried (or the ring is empty): allow
    // a full second lap before giving up only if membership changed;
    // otherwise refuse so the client's own submit(request, &policy)
    // retry takes over.
    auto owner = _ring.owner(pending.key);
    if (owner && pending.tried.size() < 2 * _backends.size()) {
        pending.isRetry = true;
        pending.tried.clear();
        forwardToBackend(*owner, std::move(pending));
        return;
    }
    _noBackend.fetch_add(1, std::memory_order_relaxed);
    refuseClient(pending, net::WireStatus::Overloaded,
                 "no backend available after failover; retry later");
}

bool
PsiRouter::retryUntried(Pending &pending)
{
    for (std::uint32_t candidate :
         _ring.preference(pending.key, _ring.size())) {
        if (std::find(pending.tried.begin(), pending.tried.end(),
                      candidate) != pending.tried.end())
            continue;
        pending.isRetry = true;
        forwardToBackend(candidate, std::move(pending));
        return true;
    }
    return false;
}

void
PsiRouter::scheduleRedial(Backend &backend)
{
    backend.state.store(BState::Ejected,
                        std::memory_order_release);
    backend.nextProbeAt =
        Clock::now() +
        std::chrono::nanoseconds(backend.backoff.nextDelayNs());
}

RouterMetrics
PsiRouter::metrics() const
{
    RouterMetrics m;
    for (const auto &entry : _backends) {
        const Backend &b = *entry;
        RouterMetrics::Backend out;
        out.addr = b.addr.str();
        out.admitted = b.state.load(std::memory_order_acquire) ==
                       BState::Admitted;
        out.routed = b.routed.load(std::memory_order_relaxed);
        out.completed = b.completed.load(std::memory_order_relaxed);
        out.retried = b.retried.load(std::memory_order_relaxed);
        out.refusals = b.refusals.load(std::memory_order_relaxed);
        out.ejections = b.ejections.load(std::memory_order_relaxed);
        m.backends.push_back(std::move(out));
    }
    m.clientConns = _connsAccepted.load(std::memory_order_relaxed);
    m.submits = _submits.load(std::memory_order_relaxed);
    m.affinityHits = _affinityHits.load(std::memory_order_relaxed);
    m.affinityMisses =
        _affinityMisses.load(std::memory_order_relaxed);
    m.unknownWorkload =
        _unknownWorkload.load(std::memory_order_relaxed);
    m.noBackend = _noBackend.load(std::memory_order_relaxed);
    m.routerTimeouts =
        _routerTimeouts.load(std::memory_order_relaxed);
    m.staleDropped = _staleDropped.load(std::memory_order_relaxed);
    m.clientGone = _clientGone.load(std::memory_order_relaxed);
    return m;
}

} // namespace router
} // namespace psi
