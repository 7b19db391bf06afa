/**
 * @file
 * PsiClient: blocking client library for the psinet wire protocol.
 *
 * One instance owns one TCP connection.  Two usage models:
 *
 *  - Request/response: submit(Request) sends a SUBMIT and blocks
 *    until the matching RESULT arrives; stats(), traceJson(),
 *    metricsText() and drain() likewise.  Passing a RetryPolicy
 *    makes the same call resilient: reconnect on a dead connection,
 *    exponential backoff with seeded jitter, OVERLOADED/DRAINING
 *    treated as retryable backpressure, and a deadline-aware budget
 *    that is never exceeded by retries.  Resubmission is
 *    idempotent-safe: only a request whose RESULT never arrived
 *    (connection died, or the server refused it) is sent again, each
 *    attempt under a fresh tag, and a stale RESULT for a superseded
 *    attempt is detected by its echoed tag and dropped, so no
 *    solution is ever delivered twice.
 *
 *  - Pipelined: sendSubmit() queues requests without waiting and
 *    recvResult() collects RESULTs as they complete (completion
 *    order, not submission order - correlate by tag).  One sender
 *    thread and one receiver thread may use the same client
 *    concurrently; that split is exactly what the open-loop load
 *    generator (bench/net_throughput) does.
 *
 * hello() optionally opens the connection with a version/feature
 * handshake; servers too old to know HELLO close the connection,
 * servers too new for this client answer with a structured ERROR.
 *
 * Every receive path takes a timeout in milliseconds (-1 = wait
 * forever); on timeout the call fails without consuming a partial
 * frame, so the connection stays usable.  A timeout on a *live*
 * connection is deliberately not retried by submit(request,
 * &policy): the request is still outstanding and a resubmit would
 * run it twice.
 *
 * The retry paths (connect(), submit(request, &policy)) are
 * single-threaded APIs - don't mix them with the concurrent
 * sender/receiver split.
 */

#ifndef PSI_NET_CLIENT_HPP
#define PSI_NET_CLIENT_HPP

#include <atomic>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>

#include "base/backoff.hpp"
#include "net/wire.hpp"

namespace psi {
namespace net {

/** Reconnect/retry policy for connect() and submit(request,
 *  &policy). */
struct RetryPolicy
{
    /** submit(request, &policy): total tries per request (1 = no
     *  retry). */
    unsigned maxAttempts = 4;
    /** connect(): dial attempts before giving up (1 = no retry).
     *  Name-resolution failures and transient connect errors
     *  (ECONNREFUSED and friends) are retried alike. */
    unsigned connectAttempts = 3;

    /** First backoff ceiling; it doubles after each delay, up to
     *  backoffMaxNs. */
    std::uint64_t backoffBaseNs = 5'000'000;
    std::uint64_t backoffMaxNs = 500'000'000;  ///< ceiling cap
    /** An OVERLOADED reply raises the backoff ceiling to at least
     *  this: server backpressure backs off harder than a flaky
     *  link does. */
    std::uint64_t overloadedFloorNs = 50'000'000;
    std::uint64_t seed = 1; ///< jitter PRNG seed (deterministic)
};

/** What the retry machinery did (single-threaded counters). */
struct RetryStats
{
    std::uint64_t connectDials = 0;      ///< dial attempts, total
    std::uint64_t connectRetries = 0;    ///< dials after a failure
    std::uint64_t reconnects = 0;        ///< re-dials in submit()
    std::uint64_t resubmits = 0;         ///< SUBMITs sent again
    std::uint64_t overloadedRetries = 0; ///< OVERLOADED then retried
    std::uint64_t drainingRetries = 0;   ///< DRAINING then retried
    std::uint64_t duplicatesDropped = 0; ///< stale-tag RESULTs dropped
    std::uint64_t backoffNs = 0;         ///< total time backing off
    std::uint64_t exhausted = 0;         ///< gave up (attempts/budget)
};

/** One query as the client submits it. */
struct Request
{
    std::string workload;         ///< registry workload id
    std::uint64_t deadlineNs = 0; ///< whole-request budget; 0 = none
    int timeoutMs = -1;           ///< client-side wait; -1 = forever
    /** Scheduling tenant (server-side fairness + quota unit);
     *  "" = the shared default tenant. */
    std::string tenant = {};
    /** Execution mode.  Fast requests ride the v2.2 SUBMIT form
     *  (mode byte after the tenant); Fidelity requests keep the
     *  v2.1 form so pre-v2.2 servers interop unchanged. */
    interp::ExecMode mode = interp::ExecMode::Fidelity;
};

/** Blocking connection to a PsiServer. */
class PsiClient
{
  public:
    PsiClient() = default;
    ~PsiClient();

    PsiClient(const PsiClient &) = delete;
    PsiClient &operator=(const PsiClient &) = delete;

    /**
     * Connect to @p host : @p port (IPv4 dotted quad or name),
     * retrying transient failures per the RetryPolicy (jittered
     * backoff between dials).  On final failure the error string
     * carries the attempt count.
     */
    bool connect(const std::string &host, std::uint16_t port,
                 std::string *error = nullptr);

    /**
     * Tear down the connection and clear buffered state.  Not safe
     * concurrently with the receiver half: only the receiving thread
     * (or a single-threaded owner) may call it.  The sender half
     * never closes - on a send failure it shuts the socket down and
     * lets the receiver observe EOF and do the teardown.
     */
    void close();
    bool connected() const
    {
        return _fd.load(std::memory_order_acquire) >= 0 &&
               !_sendFailed.load(std::memory_order_acquire);
    }

    /**
     * Submit one Request and wait for its RESULT.
     *
     * With @p retry null this is a single attempt: any failure
     * (dead connection, OVERLOADED, timeout) surfaces immediately.
     *
     * With a RetryPolicy the call survives connection failures and
     * server backpressure:
     *
     *  - A dead connection (reset, truncation, EOF, refused dial)
     *    reconnects with backoff and resubmits - the outstanding
     *    request is unacknowledged, so the resubmit cannot
     *    duplicate a delivered result.
     *  - OVERLOADED and DRAINING RESULTs are retryable refusals;
     *    OVERLOADED raises the backoff ceiling (the server asked
     *    for air, give it more than a jittery link would get).
     *  - Request::deadlineNs budgets the *whole* call: backoff
     *    sleeps never extend past the remaining budget and each
     *    resubmit carries only the remainder to the server.
     *  - A recv timeout on a live connection fails without retry:
     *    the request is still in flight server-side and running it
     *    again could hand back a duplicate.
     *
     * Single-threaded API (no concurrent sender/receiver split).
     */
    std::optional<ResultMsg>
    submit(const Request &request,
           const RetryPolicy *retry = nullptr,
           std::string *error = nullptr);

    /**
     * Negotiate the protocol version (optional opener; servers treat
     * connections that skip it as v1).  On success returns the
     * server's HELLO_ACK carrying its version and the feature-bit
     * intersection.  A structured ERROR reply (unsupported major)
     * sets @p error from its code/message and closes the
     * connection.
     */
    std::optional<HelloAckMsg>
    hello(std::uint64_t features = kSupportedFeatures,
          int timeoutMs = -1, std::string *error = nullptr);

    /** Policy for connect()/submit(Request, &policy); also reseeds
     *  the jitter. */
    void setRetryPolicy(const RetryPolicy &policy);
    const RetryPolicy &retryPolicy() const { return _policy; }

    /** Counters accumulated by the retry paths (never reset). */
    const RetryStats &retryStats() const { return _retryStats; }

    /**
     * Pipelined send half: queue one SUBMIT and return immediately.
     * @param tagOut receives the correlation tag of this request.
     */
    bool sendSubmit(const std::string &workload,
                    std::uint64_t deadlineNs = 0,
                    std::uint64_t *tagOut = nullptr,
                    std::string *error = nullptr,
                    const std::string &tenant = std::string(),
                    interp::ExecMode mode =
                        interp::ExecMode::Fidelity);

    /** Pipelined receive half: next RESULT in completion order. */
    std::optional<ResultMsg> recvResult(int timeoutMs = -1,
                                        std::string *error = nullptr);

    /** Fetch the server's aggregated metrics JSON. */
    std::optional<std::string> stats(int timeoutMs = -1,
                                     std::string *error = nullptr);

    /** Fetch the server's psitrace spans as Chrome trace JSON. */
    std::optional<std::string>
    traceJson(int timeoutMs = -1, std::string *error = nullptr);

    /** Fetch the server's metrics as Prometheus text exposition. */
    std::optional<std::string>
    metricsText(int timeoutMs = -1, std::string *error = nullptr);

    /** Ask the server to drain; true once DRAIN_ACK arrives. */
    bool drain(int timeoutMs = -1, std::string *error = nullptr);

  private:
    bool sendAll(const std::string &bytes, std::string *error);
    std::optional<Message> recvMessage(int timeoutMs,
                                       std::string *error);
    /**
     * Send the control message @p request and return the first reply
     * of one of the @p Replies types, parking the pipelined RESULTs
     * that pass by for recvResult().  Any other reply closes the
     * connection with "unexpected reply (wanted @p wanted)".
     */
    template <typename... Replies>
    std::optional<Message> awaitReply(const Message &request,
                                      const char *wanted,
                                      int timeoutMs,
                                      std::string *error);
    /** One SUBMIT, one matching RESULT, no retries. */
    std::optional<ResultMsg> submitOnce(const Request &request,
                                        std::string *error);
    /** The resilient submit loop, parameterized by @p policy. */
    std::optional<ResultMsg> submitWithRetry(const Request &request,
                                             const RetryPolicy &policy,
                                             std::string *error);
    /** One dial, no retry loop. */
    bool connectOnce(const std::string &host, std::uint16_t port,
                     std::string *error);
    /** Jittered sleep of at most @p capNs; returns ns slept. */
    std::uint64_t backoffSleep(Backoff &backoff,
                               std::uint64_t capNs);

    RetryPolicy _policy;
    RetryStats _retryStats;
    /** Last connect() target, for submit(request, &policy)
     *  reconnects. */
    std::string _host;
    std::uint16_t _port = 0;

    std::atomic<int> _fd{-1};
    /** Set by the sender half on a send failure; the receiver (or a
     *  single-threaded owner) sees EOF and performs the close(). */
    std::atomic<bool> _sendFailed{false};
    std::string _rbuf;
    std::uint64_t _nextTag = 1;
    /** RESULTs that arrived while a control reply (STATS_REPLY,
     *  DRAIN_ACK) or another tag was awaited; recvResult() serves
     *  these before reading the socket, so pipelined results are
     *  never dropped. */
    std::deque<ResultMsg> _pending;
};

} // namespace net
} // namespace psi

#endif // PSI_NET_CLIENT_HPP
