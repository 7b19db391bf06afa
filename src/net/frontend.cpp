#include "net/frontend.hpp"

#include <cerrno>
#include <csignal>
#include <cstring>

#include "base/logging.hpp"
#include "base/metrics.hpp"
#include "base/trace.hpp"

namespace psi {
namespace net {

namespace {

/** Target of the SIGINT/SIGTERM drain handler. */
std::atomic<Frontend *> g_signalTarget{nullptr};

extern "C" void
drainSignalHandler(int)
{
    if (Frontend *target = g_signalTarget.load())
        target->requestDrain();
}

} // namespace

Frontend::Frontend(const ListenConfig &listen, const char *role,
                   const char *logName, std::uint64_t features)
    : _listen(listen),
      _role(role),
      _logName(logName),
      _features(features),
      _started(std::chrono::steady_clock::now())
{}

Frontend::~Frontend()
{
    if (g_signalTarget.load() == this)
        g_signalTarget.store(nullptr);
}

bool
Frontend::listen(std::string *error)
{
    if (!_wake.open(error))
        return false;
    if (!_listener.open(_listen.bindAddr, _listen.port,
                        _listen.reusePort, error)) {
        _wake.close();
        return false;
    }
    return true;
}

void
Frontend::requestDrain()
{
    _drain.store(true, std::memory_order_release);
    _wake.notify(); // async-signal-safe
}

void
Frontend::installSignalHandlers()
{
    g_signalTarget.store(this);
    struct sigaction sa{};
    sa.sa_handler = drainSignalHandler;
    sigemptyset(&sa.sa_mask);
    ::sigaction(SIGINT, &sa, nullptr);
    ::sigaction(SIGTERM, &sa, nullptr);
}

void
Frontend::serve()
{
    PSI_ASSERT(_listener.isOpen(), "run() before start()");
    while (!drainComplete())
        pollOnce();

    // A drain can win the race before the first poll ever runs, so
    // the listener may still be open here with connections parked in
    // its accept queue.  Close it: the kernel resets the parked
    // connections, turning a silent forever-hang into a clean
    // retryable error on the client side.
    _listener.close();
    _conns.clear();
}

bool
Frontend::drainComplete() const
{
    if (!draining() || busy())
        return false;
    for (const auto &entry : _conns)
        if (entry.second.wantsWrite())
            return false;
    return true;
}

void
Frontend::pollOnce()
{
    if (draining())
        _listener.close(); // stop accepting; serve() owns the exit
    const bool listening = _listener.isOpen();

    std::vector<pollfd> fds;
    fds.reserve(_conns.size() + 2);
    fds.push_back({_wake.readFd(), POLLIN, 0});
    if (listening)
        fds.push_back({_listener.fd(), POLLIN, 0});
    const std::size_t ownerBase = fds.size();
    const int timeoutMs = preparePoll(fds);

    const std::size_t connBase = fds.size();
    std::vector<std::uint64_t> order;
    order.reserve(_conns.size());
    for (auto &[id, conn] : _conns) {
        short events = POLLIN;
        if (conn.wantsWrite())
            events |= POLLOUT;
        fds.push_back({conn.fd(), events, 0});
        order.push_back(id);
    }

    if (::poll(fds.data(), fds.size(), timeoutMs) < 0) {
        if (errno == EINTR)
            return;
        panic(_logName, ": poll failed: ", std::strerror(errno));
    }

    // Data reported readable below was already pending at this
    // instant, so the first decode span of each connection's batch
    // starts here - the wait while the loop serves earlier
    // connections (head-of-line blocking) is attributed, not lost.
    const std::uint64_t pollWakeNs =
        trace::enabled() ? trace::nowNs() : 0;

    if (fds[0].revents & POLLIN)
        _wake.drain();
    if (listening && (fds[1].revents & POLLIN))
        acceptClients();
    servePoll(std::span<const pollfd>(fds).subspan(
        ownerBase, connBase - ownerBase));

    for (std::size_t i = 0; i < order.size(); ++i) {
        Conn *conn = client(order[i]);
        if (conn == nullptr)
            continue;
        short revents = fds[connBase + i].revents;
        bool ok = true;
        if (revents & (POLLERR | POLLHUP | POLLNVAL))
            ok = (revents & POLLIN) != 0; // drain final bytes first
        if (ok && (revents & POLLIN))
            ok = readFrames(*conn, pollWakeNs);
        if (ok && (revents & POLLOUT))
            ok = conn->flush();
        if (!ok)
            conn->dropped = true;
    }
    std::erase_if(_conns,
                  [](const auto &entry) { return entry.second.dropped; });
}

void
Frontend::acceptClients()
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
        warn(_logName, ": accept failed: ", std::strerror(err));
}

bool
Frontend::readFrames(Conn &conn, std::uint64_t pollWakeNs)
{
    if (!conn.readAvailable())
        return false;

    Message msg;
    std::string derror;
    for (bool first = true;; first = false) {
        std::uint64_t decodeStartNs = 0;
        if (trace::enabled())
            decodeStartNs =
                first && pollWakeNs != 0 ? pollWakeNs : trace::nowNs();
        switch (conn.next(msg, derror)) {
          case FramedConn::Next::NeedMore:
            return true;
          case FramedConn::Next::BadFrame:
            return drop(conn, _badFrames, "oversized or empty frame");
          case FramedConn::Next::BadPayload:
            return drop(conn, _decodeErrors, derror);
          case FramedConn::Next::Message:
            break;
        }
        if (!handle(conn, std::move(msg), decodeStartNs))
            return false;
    }
}

bool
Frontend::handle(Conn &conn, Message &&msg, std::uint64_t decodeStartNs)
{
    if (auto *submitMsg = std::get_if<SubmitMsg>(&msg)) {
        if (!draining()) {
            submit(conn, std::move(*submitMsg), decodeStartNs);
            return !conn.dropped;
        }
        ResultMsg refused;
        refused.tag = submitMsg->tag;
        refused.status = WireStatus::Draining;
        refused.error = std::string(_role) + " is draining";
        return reply(conn, Message(std::move(refused)));
    }
    if (auto *hello = std::get_if<HelloMsg>(&msg)) {
        Message answer = answerHello(*hello, _features, _role);
        if (std::holds_alternative<HelloAckMsg>(answer))
            return reply(conn, answer);
        warn(_logName, ": rejecting connection ", conn.id,
             " (unsupported protocol major ", hello->versionMajor, ")");
        reply(conn, answer);
        _versionRejects.fetch_add(1, std::memory_order_relaxed);
        _connsDropped.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    const bool stats = std::holds_alternative<StatsMsg>(msg);
    if (stats || std::holds_alternative<MetricsMsg>(msg)) {
        metrics::Registry r;
        describe(r, nsSince(_started));
        return stats ? reply(conn, StatsReplyMsg{r.json()})
                     : reply(conn, MetricsReplyMsg{r.prometheus()});
    }
    if (std::holds_alternative<TraceMsg>(msg))
        return reply(conn,
                     TraceReplyMsg{trace::chromeJson(trace::collect())});
    if (std::holds_alternative<DrainMsg>(msg)) {
        // Flag first, ack second: a client that has seen DRAIN_ACK
        // must be able to observe draining() == true.
        requestDrain();
        return reply(conn, DrainAckMsg{});
    }
    // RESULT / STATS_REPLY / DRAIN_ACK / HELLO_ACK / ERROR /
    // TRACE_REPLY / METRICS_REPLY flow from a front end, not to it.
    return drop(conn, _decodeErrors,
                "unexpected client message type " +
                    std::to_string(static_cast<int>(messageType(msg))));
}

bool
Frontend::drop(Conn &conn, std::atomic<std::uint64_t> &counter,
               const std::string &why)
{
    warn(_logName, ": dropping connection ", conn.id, " (", why, ")");
    counter.fetch_add(1, std::memory_order_relaxed);
    _connsDropped.fetch_add(1, std::memory_order_relaxed);
    conn.dropped = true;
    return false;
}

bool
Frontend::reply(Conn &conn, const Message &msg, std::uint64_t traceTag,
                std::uint64_t encodeStartNs)
{
    if (conn.dropped)
        return false;
    const bool traced = traceTag != 0 && trace::enabled();
    const std::uint64_t t0 =
        traced && encodeStartNs == 0 ? trace::nowNs() : encodeStartNs;
    if (!conn.queue(msg, _listen.maxWriteBuffer)) {
        warn(_logName, ": dropping slow consumer connection ", conn.id);
        _connsDropped.fetch_add(1, std::memory_order_relaxed);
        conn.dropped = true;
        return false;
    }
    const std::uint64_t t1 = traced ? trace::nowNs() : 0;
    if (traced)
        trace::record(trace::Stage::Encode, traceTag, t0, t1);
    if (!conn.flush())
        conn.dropped = true;
    if (traced)
        trace::record(trace::Stage::Reply, traceTag, t1, trace::nowNs());
    return !conn.dropped;
}

Frontend::Conn *
Frontend::client(std::uint64_t id)
{
    auto it = _conns.find(id);
    return it == _conns.end() || it->second.dropped ? nullptr
                                                     : &it->second;
}

} // namespace net
} // namespace psi
