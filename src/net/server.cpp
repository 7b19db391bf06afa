#include "net/server.hpp"

#include <poll.h>

#include <cerrno>
#include <csignal>
#include <cstring>

#include "base/logging.hpp"
#include "base/metrics.hpp"
#include "base/trace.hpp"
#include "programs/registry.hpp"

namespace psi {
namespace net {

namespace {

/** Target of the SIGINT/SIGTERM drain handler. */
std::atomic<PsiServer *> g_signalServer{nullptr};

extern "C" void
drainSignalHandler(int)
{
    if (PsiServer *server = g_signalServer.load())
        server->requestDrain();
}

} // namespace

PsiServer::PsiServer() : PsiServer(Config()) {}

PsiServer::PsiServer(const Config &config)
    : _config(config),
      // A server-owned ProgramCache shared by every pool worker:
      // each distinct workload source is compiled once for the
      // lifetime of the server, and its hit/miss counters ride the
      // STATS reply with the rest of the metrics snapshot.
      _pool(service::EnginePool::Config{
          config.workers, config.queueCapacity,
          std::make_shared<service::ProgramCache>(),
          config.scheduler, config.sched}),
      _started(std::chrono::steady_clock::now())
{}

PsiServer::~PsiServer()
{
    if (g_signalServer.load() == this)
        g_signalServer.store(nullptr);
    // Drain the pool while the completion queue, its mutex and the
    // wake pipe are still alive: in-flight done-callbacks lock
    // _completionMutex and notify _wake, so letting member
    // destruction (reverse declaration order) reach them first
    // would hand the callbacks destroyed state.  Idempotent when
    // run() already shut the pool down.
    _pool.shutdown();
}

bool
PsiServer::start(std::string *error)
{
    if (!_wake.open(error))
        return false;
    if (!_listener.open(_config.bindAddr, _config.port,
                        _config.reusePort, error)) {
        _wake.close();
        return false;
    }
    return true;
}

void
PsiServer::requestDrain()
{
    _drain.store(true, std::memory_order_release);
    _wake.notify(); // async-signal-safe
}

void
PsiServer::installSignalHandlers()
{
    g_signalServer.store(this);
    struct sigaction sa{};
    sa.sa_handler = drainSignalHandler;
    sigemptyset(&sa.sa_mask);
    ::sigaction(SIGINT, &sa, nullptr);
    ::sigaction(SIGTERM, &sa, nullptr);
}

void
PsiServer::run()
{
    PSI_ASSERT(_listener.isOpen(), "PsiServer::run() before start()");
    while (!drainComplete())
        pollOnce();

    // A drain can win the race before the first poll ever runs, so
    // the listener may still be open here with connections parked in
    // its accept queue.  Close it: the kernel resets the parked
    // connections, turning a silent forever-hang into a clean
    // retryable error on the client side.
    _listener.close();
    _conns.clear();
    _pool.shutdown();
}

bool
PsiServer::drainComplete() const
{
    if (!_drain.load(std::memory_order_acquire))
        return false;
    if (_inFlight != 0)
        return false;
    {
        std::lock_guard<std::mutex> lock(_completionMutex);
        if (!_completions.empty())
            return false;
    }
    for (const auto &entry : _conns)
        if (entry.second.wantsWrite())
            return false;
    return true;
}

void
PsiServer::pollOnce()
{
    bool draining = _drain.load(std::memory_order_acquire);
    if (draining)
        _listener.close(); // stop accepting; run() owns the exit

    std::vector<pollfd> fds;
    fds.reserve(_conns.size() + 2);
    fds.push_back({_wake.readFd(), POLLIN, 0});
    std::size_t listenerSlot = 0;
    if (!draining && _listener.isOpen()) {
        listenerSlot = fds.size();
        fds.push_back({_listener.fd(), POLLIN, 0});
    }

    std::vector<std::uint64_t> order;
    order.reserve(_conns.size());
    for (auto &entry : _conns) {
        Conn &conn = entry.second;
        short events = POLLIN;
        if (conn.wantsWrite())
            events |= POLLOUT;
        fds.push_back({conn.fd(), events, 0});
        order.push_back(conn.id);
    }

    int ready = ::poll(fds.data(), fds.size(), -1);
    if (ready < 0) {
        if (errno == EINTR)
            return;
        panic("poll failed: ", std::strerror(errno));
    }

    // Data reported readable below was already pending at this
    // instant, so the first decode span of each connection's batch
    // starts here - the wait while the loop serves earlier
    // connections (head-of-line blocking) is attributed, not lost.
    const std::uint64_t pollWakeNs =
        trace::enabled() ? trace::nowNs() : 0;

    if (fds[0].revents & POLLIN)
        _wake.drain();
    if (!draining && _listener.isOpen() &&
        (fds[listenerSlot].revents & POLLIN))
        acceptConnections();

    std::size_t base = fds.size() - order.size();
    for (std::size_t i = 0; i < order.size(); ++i) {
        auto it = _conns.find(order[i]);
        if (it == _conns.end())
            continue;
        Conn &conn = it->second;
        short revents = fds[base + i].revents;
        bool ok = true;
        if (revents & (POLLERR | POLLHUP | POLLNVAL))
            ok = (revents & POLLIN) != 0; // drain final bytes first
        if (ok && (revents & POLLIN))
            ok = handleReadable(conn, pollWakeNs);
        if (ok && (revents & POLLOUT))
            ok = conn.flush();
        if (!ok)
            _closing.push_back(conn.id);
    }

    processCompletions();

    for (std::uint64_t id : _closing)
        _conns.erase(id);
    _closing.clear();
}

void
PsiServer::acceptConnections()
{
    const bool tracing = trace::enabled();
    std::uint64_t t0 = tracing ? trace::nowNs() : 0;
    int err = _listener.acceptAll([&](int fd) {
        std::uint64_t id = _nextConnId++;
        Conn &conn = _conns[id];
        conn.id = id;
        conn.reset(fd);
        _connsAccepted.fetch_add(1, std::memory_order_relaxed);
        // Connection accepts are not tied to a request yet; tag 0
        // marks them as connection-scoped events in the trace.
        if (tracing) {
            std::uint64_t t1 = trace::nowNs();
            trace::record(trace::Stage::Accept, 0, t0, t1);
            t0 = t1;
        }
    });
    if (err != 0)
        warn("psinet: accept failed: ", std::strerror(err));
}

bool
PsiServer::handleReadable(Conn &conn, std::uint64_t pollWakeNs)
{
    if (!conn.readAvailable())
        return false;

    Message msg;
    std::string derror;
    bool firstFrame = true;
    for (;;) {
        std::uint64_t decodeStartNs = 0;
        if (trace::enabled()) {
            decodeStartNs = firstFrame && pollWakeNs != 0
                                ? pollWakeNs
                                : trace::nowNs();
        }
        firstFrame = false;
        switch (conn.next(msg, derror)) {
          case FramedConn::Next::NeedMore:
            return true;
          case FramedConn::Next::BadFrame:
            warn("psinet: dropping connection ", conn.id,
                 " (oversized or empty frame)");
            _badFrames.fetch_add(1, std::memory_order_relaxed);
            _connsDropped.fetch_add(1, std::memory_order_relaxed);
            return false;
          case FramedConn::Next::BadPayload:
            warn("psinet: dropping connection ", conn.id, " (",
                 derror, ")");
            _decodeErrors.fetch_add(1, std::memory_order_relaxed);
            _connsDropped.fetch_add(1, std::memory_order_relaxed);
            return false;
          case FramedConn::Next::Message:
            break;
        }
        if (!handleMessage(conn, std::move(msg), decodeStartNs))
            return false;
    }
}

bool
PsiServer::handleMessage(Conn &conn, Message &&msg,
                         std::uint64_t decodeStartNs)
{
    if (auto *submit = std::get_if<SubmitMsg>(&msg)) {
        handleSubmit(conn, std::move(*submit), decodeStartNs);
        return true;
    }
    if (auto *hello = std::get_if<HelloMsg>(&msg)) {
        Message reply =
            answerHello(*hello, kSupportedFeatures, "server");
        if (std::holds_alternative<HelloAckMsg>(reply)) {
            queueReply(conn, reply);
            return conn.flush();
        }
        warn("psinet: rejecting connection ", conn.id,
             " (unsupported protocol major ", hello->versionMajor,
             ")");
        queueReply(conn, reply);
        conn.flush();
        _versionRejects.fetch_add(1, std::memory_order_relaxed);
        _connsDropped.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    if (std::get_if<StatsMsg>(&msg) != nullptr) {
        StatsReplyMsg reply;
        reply.json = metrics::describe(metrics(), nsSince(_started)).json();
        queueReply(conn, Message(std::move(reply)));
        return conn.flush();
    }
    if (std::get_if<TraceMsg>(&msg) != nullptr) {
        TraceReplyMsg reply;
        reply.json = trace::chromeJson(trace::collect());
        queueReply(conn, Message(std::move(reply)));
        return conn.flush();
    }
    if (std::get_if<MetricsMsg>(&msg) != nullptr) {
        MetricsReplyMsg reply;
        reply.text =
            metrics::describe(metrics(), nsSince(_started)).prometheus();
        queueReply(conn, Message(std::move(reply)));
        return conn.flush();
    }
    if (std::get_if<DrainMsg>(&msg) != nullptr) {
        // Flag first, ack second: a client that has seen DRAIN_ACK
        // must be able to observe draining() == true.
        requestDrain();
        queueReply(conn, Message(DrainAckMsg{}));
        return conn.flush();
    }
    // RESULT / STATS_REPLY / DRAIN_ACK / HELLO_ACK / ERROR /
    // TRACE_REPLY / METRICS_REPLY are server-to-client only.
    warn("psinet: dropping connection ", conn.id,
         " (unexpected client message type ",
         static_cast<int>(messageType(msg)), ")");
    _decodeErrors.fetch_add(1, std::memory_order_relaxed);
    _connsDropped.fetch_add(1, std::memory_order_relaxed);
    return false;
}

void
PsiServer::handleSubmit(Conn &conn, SubmitMsg &&msg,
                        std::uint64_t decodeStartNs)
{
    auto refuse = [&](WireStatus status, std::string why) {
        ResultMsg reply;
        reply.tag = msg.tag;
        reply.status = status;
        reply.error = std::move(why);
        queueReply(conn, Message(std::move(reply)));
        conn.flush();
    };

    if (_drain.load(std::memory_order_acquire)) {
        refuse(WireStatus::Draining, "server is draining");
        return;
    }

    const programs::BenchProgram *program =
        programs::findProgramById(msg.workload);
    if (program == nullptr) {
        refuse(WireStatus::UnknownWorkload,
               "unknown workload '" + msg.workload +
                   "'; available: " + programs::programIdList());
        return;
    }

    service::QueryJob job;
    job.program = *program;
    job.limits.deadlineNs = msg.deadlineNs;
    // v1 clients (hasTenant == false) carry an empty tenant and land
    // in the scheduler's shared default tenant.
    job.tenant = msg.tenant;
    // Pre-v2.2 clients (hasMode == false) run in fidelity mode.
    job.mode = msg.mode;
    if (trace::enabled()) {
        // The server-side tag is minted here and echoed back in the
        // RESULT so the client can stitch its own spans onto the
        // same request timeline.
        job.traceTag = trace::nextTag();
        trace::record(trace::Stage::Decode, job.traceTag,
                      decodeStartNs, trace::nowNs());
    }

    std::uint64_t connId = conn.id;
    std::uint64_t tag = msg.tag;
    auto done = [this, connId, tag](service::JobOutcome outcome) {
        const std::uint64_t enqueueNs =
            trace::enabled() && outcome.traceTag != 0
                ? trace::nowNs()
                : 0;
        {
            std::lock_guard<std::mutex> lock(_completionMutex);
            _completions.push_back(
                {connId, resultFromOutcome(tag, std::move(outcome)),
                 enqueueNs});
        }
        _wake.notify();
    };

    std::optional<service::SubmitError> refused =
        _pool.submitAsync(std::move(job), std::move(done),
                          _config.submitMode);
    if (!refused) {
        ++_inFlight;
        return;
    }
    switch (*refused) {
      case service::SubmitError::QueueFull:
        refuse(WireStatus::Overloaded,
               "queue full (" +
                   std::to_string(_pool.queueCapacity()) +
                   " jobs); retry later");
        break;
      case service::SubmitError::TenantQuota:
        refuse(WireStatus::Overloaded,
               "tenant over queue quota; retry later");
        break;
      case service::SubmitError::ShutDown:
        refuse(WireStatus::Draining, "server is draining");
        break;
    }
}

void
PsiServer::queueReply(Conn &conn, const Message &msg)
{
    if (!conn.queue(msg, _config.maxWriteBuffer)) {
        warn("psinet: dropping slow consumer connection ", conn.id);
        _connsDropped.fetch_add(1, std::memory_order_relaxed);
        _closing.push_back(conn.id);
    }
}

void
PsiServer::processCompletions()
{
    std::vector<Completion> batch;
    {
        std::lock_guard<std::mutex> lock(_completionMutex);
        batch.swap(_completions);
    }
    for (auto &completion : batch) {
        PSI_ASSERT(_inFlight > 0, "completion without in-flight job");
        --_inFlight;
        auto it = _conns.find(completion.connId);
        if (it == _conns.end())
            continue; // client went away; drop the reply
        const std::uint64_t traceTag = completion.msg.traceTag;
        const bool tracing = trace::enabled() && traceTag != 0;
        // Encode starts at the worker's hand-off, so the completion
        // queue + wake latency shows up in the timeline.
        std::uint64_t t0 = tracing ? (completion.enqueueNs != 0
                                          ? completion.enqueueNs
                                          : trace::nowNs())
                                   : 0;
        queueReply(it->second, Message(std::move(completion.msg)));
        std::uint64_t t1 = tracing ? trace::nowNs() : 0;
        if (tracing)
            trace::record(trace::Stage::Encode, traceTag, t0, t1);
        bool ok = it->second.flush();
        if (tracing)
            trace::record(trace::Stage::Reply, traceTag, t1,
                          trace::nowNs());
        if (!ok)
            _closing.push_back(completion.connId);
    }
}

} // namespace net
} // namespace psi
