/**
 * @file
 * PsiServer: the psinet TCP front end over a service::EnginePool.
 *
 * Single-threaded poll(2) event loop plus the pool's worker threads:
 *
 *     client conns ──► poll loop ──► EnginePool (N workers)
 *        ▲   read state machine          │ completion callback
 *        │   (buffer -> frames)          ▼
 *        └── write state machine ◄── completion queue + wake pipe
 *            (frames -> buffer)
 *
 * Every socket is non-blocking.  Each connection is a FramedConn
 * (net/conn.hpp): a read buffer that bytes accumulate into until
 * complete frames are cut off the front, and a write buffer that
 * encoded replies drain from whenever the socket is writable - the
 * loop never blocks on a peer.
 *
 * Backpressure is surfaced, not absorbed: a SUBMIT that meets a full
 * job queue in fail-fast mode gets an OVERLOADED reply immediately
 * instead of stalling the accept path (Submit::Block retains the
 * old behavior for single-tenant use).
 *
 * Graceful drain (SIGINT / SIGTERM / a DRAIN message /
 * requestDrain()): stop accepting connections, refuse new SUBMITs
 * with DRAINING, finish every accepted job, flush every reply, then
 * shut the pool down and return from run().
 *
 * Observability: a HELLO opener negotiates the protocol version
 * (unknown majors get a structured ERROR and a close; clients that
 * skip HELLO are treated as v1), TRACE returns the accumulated
 * psitrace spans as Chrome trace-event JSON, and METRICS returns the
 * metrics snapshot as Prometheus text.  When tracing is enabled the
 * loop itself records accept/decode/encode/reply spans under each
 * request's trace tag so a request's timeline stitches across the
 * loop and worker threads.
 */

#ifndef PSI_NET_SERVER_HPP
#define PSI_NET_SERVER_HPP

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "net/conn.hpp"
#include "net/wire.hpp"
#include "service/engine_pool.hpp"

namespace psi {
namespace net {

/** Non-blocking TCP server exposing an EnginePool. */
class PsiServer
{
  public:
    struct Config
    {
        std::string bindAddr = "127.0.0.1";
        std::uint16_t port = 0;  ///< 0 = ephemeral (see port())
        unsigned workers = 4;
        std::size_t queueCapacity = 64;
        /** Full-queue policy: FailFast -> OVERLOADED replies. */
        service::Submit submitMode = service::Submit::FailFast;
        /** A connection buffering more reply bytes than this is a
         *  slow consumer and gets dropped. */
        std::size_t maxWriteBuffer = 8u << 20;
        /** Opt into SO_REUSEPORT on the listener so several server
         *  processes (or future multi-reactor routers) can share one
         *  port, kernel-balancing accepts between them. */
        bool reusePort = false;
        /** Pool dispatch policy (see sched/scheduler.hpp);
         *  Affinity is the production default. */
        sched::SchedKind scheduler = sched::SchedKind::Affinity;
        /** Fairness/affinity knobs; sched.capacity is ignored
         *  (queueCapacity is the global bound). */
        sched::SchedConfig sched = {};
    };

    PsiServer();
    explicit PsiServer(const Config &config);
    ~PsiServer();

    PsiServer(const PsiServer &) = delete;
    PsiServer &operator=(const PsiServer &) = delete;

    /**
     * Bind + listen (the pool is already running).
     * @return false with @p error set when the address is unusable.
     */
    bool start(std::string *error = nullptr);

    /** Actual listening port (after an ephemeral bind). */
    std::uint16_t port() const { return _listener.port(); }

    /** Event loop; returns after a drain completes. */
    void run();

    /**
     * Begin graceful drain.  Async-signal-safe: callable from a
     * SIGINT/SIGTERM handler (installSignalHandlers() does exactly
     * that) or from any thread.
     */
    void requestDrain();

    bool draining() const
    {
        return _drain.load(std::memory_order_acquire);
    }

    /** Route SIGINT and SIGTERM to this server's requestDrain(). */
    void installSignalHandlers();

    /** Pool metrics plus this server's wire-level counters. */
    service::MetricsSnapshot metrics() const
    {
        service::MetricsSnapshot snap = _pool.metrics();
        snap.netConnsAccepted =
            _connsAccepted.load(std::memory_order_relaxed);
        snap.netConnsDropped =
            _connsDropped.load(std::memory_order_relaxed);
        snap.netBadFrames =
            _badFrames.load(std::memory_order_relaxed);
        snap.netDecodeErrors =
            _decodeErrors.load(std::memory_order_relaxed);
        snap.netVersionRejects =
            _versionRejects.load(std::memory_order_relaxed);
        return snap;
    }

  private:
    struct Conn : FramedConn
    {
        std::uint64_t id = 0;
    };

    struct Completion
    {
        std::uint64_t connId;
        ResultMsg msg;
        /** Trace clock at worker hand-off (0 = untraced).  The
         *  request's encode span starts here so the completion
         *  queue + wake-pipe latency is attributed, not lost. */
        std::uint64_t enqueueNs = 0;
    };

    void pollOnce();
    void acceptConnections();
    /** @p pollWakeNs: trace clock when poll() reported this conn
     *  readable (0 when tracing is off); the batch's first decode
     *  span starts there so head-of-line wait is attributed. */
    bool handleReadable(Conn &conn, std::uint64_t pollWakeNs);
    /** @p decodeStartNs: trace clock before this message's frame was
     *  cut + decoded (0 when tracing is off); becomes the request's
     *  decode span for SUBMITs. */
    bool handleMessage(Conn &conn, Message &&msg,
                       std::uint64_t decodeStartNs);
    void handleSubmit(Conn &conn, SubmitMsg &&msg,
                      std::uint64_t decodeStartNs);
    /** Queue @p msg; a slow consumer is dropped (maxWriteBuffer). */
    void queueReply(Conn &conn, const Message &msg);
    void processCompletions();
    bool drainComplete() const;

    Config _config;
    service::EnginePool _pool;
    Listener _listener;
    WakePipe _wake;
    std::uint64_t _nextConnId = 1;
    std::map<std::uint64_t, Conn> _conns;
    std::vector<std::uint64_t> _closing;

    mutable std::mutex _completionMutex;
    std::vector<Completion> _completions;
    /** Jobs accepted by the pool whose RESULT is not yet queued. */
    std::size_t _inFlight = 0;

    std::atomic<bool> _drain{false};
    std::chrono::steady_clock::time_point _started;

    /** @name Wire-level counters (see metrics())
     *  Atomics only because metrics() may be read from another
     *  thread; the loop thread is the sole writer. */
    /// @{
    std::atomic<std::uint64_t> _connsAccepted{0};
    std::atomic<std::uint64_t> _connsDropped{0};  ///< server-initiated
    std::atomic<std::uint64_t> _badFrames{0};     ///< framing rejected
    std::atomic<std::uint64_t> _decodeErrors{0};  ///< body rejected
    std::atomic<std::uint64_t> _versionRejects{0};///< HELLO refused
    /// @}
};

} // namespace net
} // namespace psi

#endif // PSI_NET_SERVER_HPP
