/**
 * @file
 * net::Frontend: the client side that PsiServer and PsiRouter share.
 *
 * One poll(2) loop over the wake pipe, the listener, the owner's own
 * descriptors and the client connections.  Each pass accepts (a
 * tag-0 Accept span per connection when tracing), serves the owner's
 * work, then reads every readable client into frames.  The front end
 * answers HELLO, STATS, METRICS, TRACE and DRAIN itself and hands a
 * SUBMIT to the owner, except after a drain began, when it refuses
 * it with DRAINING.  A client is dropped and counted when it sends
 * an oversized or empty frame, a payload the decoder rejects, an
 * unsupported HELLO or a message only a server sends, and when more
 * than maxWriteBuffer reply bytes wait for it (a slow consumer).
 *
 * A drain (SIGINT / SIGTERM / a DRAIN message / requestDrain())
 * closes the listener; the loop returns once the owner owes no
 * RESULT and every reply is flushed.
 *
 * The owner keeps, through five hooks: its SUBMIT handling, what its
 * STATS and METRICS describe, whether a request is still owed a
 * RESULT, and its own descriptors and work in each pass.
 */

#ifndef PSI_NET_FRONTEND_HPP
#define PSI_NET_FRONTEND_HPP

#include <poll.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "net/conn.hpp"
#include "net/wire.hpp"

namespace psi {
namespace metrics {
class Registry;
}

namespace net {

/** Where a front end listens and how much it buffers per client. */
struct ListenConfig
{
    std::string bindAddr = "127.0.0.1";
    std::uint16_t port = 0; ///< 0 = ephemeral (see port())
    /** A client buffering more reply bytes than this is a slow
     *  consumer and gets dropped. */
    std::size_t maxWriteBuffer = 8u << 20;
    /** SO_REUSEPORT on the listener, so several processes can share
     *  one port and the kernel balances accepts between them. */
    bool reusePort = false;
};

/** The listener, client connections and poll loop of a front end. */
class Frontend
{
  public:
    Frontend(const Frontend &) = delete;
    Frontend &operator=(const Frontend &) = delete;
    virtual ~Frontend();

    /** Actual listening port (after an ephemeral bind). */
    std::uint16_t port() const { return _listener.port(); }

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

    /** Route SIGINT and SIGTERM to this front end's requestDrain(). */
    void installSignalHandlers();

  protected:
    struct Conn : FramedConn
    {
        std::uint64_t id = 0;
        bool dropped = false; ///< closed at the end of this poll pass
    };

    /** @p role names this side in a HELLO refusal and a DRAINING
     *  reply, @p logName prefixes its warnings, and a HELLO_ACK
     *  grants the offered bits of @p features. */
    Frontend(const ListenConfig &listen, const char *role,
             const char *logName, std::uint64_t features);

    /** Open the wake pipe and the listener; false with @p error set
     *  and nothing left open. */
    bool listen(std::string *error);
    /** Serve until a drain completes, then close the listener and
     *  every client connection. */
    void serve();

    /**
     * Queue @p msg on @p conn and flush it.  With a nonzero
     * @p traceTag, while tracing, the queueing is recorded as an
     * Encode span from @p encodeStartNs (0: now) and the flush as a
     * Reply span.  @return false, with the connection dropped, when
     * more than maxWriteBuffer bytes wait or the send failed.
     */
    bool reply(Conn &conn, const Message &msg,
               std::uint64_t traceTag = 0,
               std::uint64_t encodeStartNs = 0);
    /** The open client connection @p id, or nullptr. */
    Conn *client(std::uint64_t id);
    /** Wake the poll loop; callable from any thread. */
    void wake() const { _wake.notify(); }

    /** Answer a SUBMIT that @p conn sent while not draining;
     *  @p decodeStartNs is the trace clock before its frame was cut
     *  (0 when tracing is off). */
    virtual void submit(Conn &conn, SubmitMsg &&msg,
                        std::uint64_t decodeStartNs) = 0;
    /** Declare what STATS and METRICS report; @p wallNs is the
     *  front end's uptime. */
    virtual void describe(metrics::Registry &r,
                          std::uint64_t wallNs) const = 0;
    /** True while a request is still owed a RESULT. */
    virtual bool busy() const = 0;
    /** Append the owner's descriptors for this pass to @p fds.
     *  @return the poll timeout in ms (-1: none). */
    virtual int preparePoll(std::vector<pollfd> &fds) = 0;
    /** Serve the owner's work, after accept and before the clients;
     *  @p ready holds the descriptors preparePoll() appended. */
    virtual void servePoll(std::span<const pollfd> ready) = 0;

    /** @name Client counters
     *  Atomics only because metrics() may be read from another
     *  thread; the loop thread is the sole writer. */
    /// @{
    std::atomic<std::uint64_t> _connsAccepted{0};
    std::atomic<std::uint64_t> _connsDropped{0};  ///< by this side
    std::atomic<std::uint64_t> _badFrames{0};     ///< framing rejected
    std::atomic<std::uint64_t> _decodeErrors{0};  ///< body rejected
    std::atomic<std::uint64_t> _versionRejects{0};///< HELLO refused
    /// @}

  private:
    void pollOnce();
    void acceptClients();
    /** @p pollWakeNs: trace clock when poll() returned (0 when
     *  tracing is off); the batch's first decode starts there so
     *  head-of-line wait is attributed. */
    bool readFrames(Conn &conn, std::uint64_t pollWakeNs);
    bool handle(Conn &conn, Message &&msg, std::uint64_t decodeStartNs);
    /** Warn, count under @p counter and drop @p conn; false. */
    bool drop(Conn &conn, std::atomic<std::uint64_t> &counter,
              const std::string &why);
    bool drainComplete() const;

    ListenConfig _listen;
    const char *_role;
    const char *_logName;
    std::uint64_t _features;
    Listener _listener;
    WakePipe _wake;
    std::uint64_t _nextConnId = 1;
    std::map<std::uint64_t, Conn> _conns;
    std::atomic<bool> _drain{false};
    std::chrono::steady_clock::time_point _started;
};

} // namespace net
} // namespace psi

#endif // PSI_NET_FRONTEND_HPP
