/**
 * @file
 * PsiRouter: a shared-nothing cluster front end for psinet.
 *
 * One router process fronts N independent PsiServer backends:
 *
 *     clients ──► poll loop ──► consistent-hash ring ──► backend 0
 *        ▲         (frames,        (program source        backend 1
 *        │          routing)        content hash)         ...
 *        └────────── RESULTs forwarded back ◄─────────────┘
 *
 * Sharding is by the program's source-content hash - the same key
 * the backends' ProgramCache uses - so every request for one program
 * lands on the one backend whose compiled image and warm engines
 * already hold it.  Membership changes remap only the dead backend's
 * shard (consistent hashing), so a failure never flushes the
 * survivors' caches.
 *
 * The client side is a net::Frontend (net/frontend.hpp), the same
 * front end as PsiServer's: listener, client connections, poll loop,
 * the HELLO / STATS / METRICS / TRACE / DRAIN answers, the
 * slow-consumer rule and the drain.  The router keeps its SUBMIT
 * routing, the RouterMetrics that STATS and METRICS describe, the
 * pending table that says a client is still owed a RESULT, and in
 * each poll pass its backend legs, their timers and the poll timeout
 * those set.
 *
 * The router speaks protocol v2 on both sides: clients may HELLO
 * (the ack carries kFeatureRouting so a client can tell a router
 * from a plain server), and the router opens every backend
 * connection with its own HELLO.  SUBMITs are forwarded with
 * router-minted tags (per-backend pipelining, many in flight);
 * RESULTs are mapped back to the originating client connection and
 * its original tag.  STATS / METRICS / TRACE answer with the
 * *router's* view (per-backend routed/retried/ejected counters and
 * the shard-affinity hit ratio); clients that want a backend's
 * engine metrics ask that backend directly.
 *
 * Failure handling mirrors the retry contract of the client
 * library's submit(request, &policy), applied per backend
 * connection:
 *
 *  - health: a periodic STATS probe rides each backend connection;
 *    consecutive probe timeouts (or any transport error) eject the
 *    backend from the ring, and a jittered-backoff reconnect loop
 *    re-admits it when it answers again;
 *  - failover: when a backend dies, exactly its *unacknowledged*
 *    requests (forwarded, no RESULT yet) are resubmitted to the
 *    ring successor under fresh tags; a RESULT bearing a superseded
 *    tag is dropped, never double-delivered, so a backend killed
 *    mid-batch loses zero requests and duplicates none;
 *  - backpressure: an OVERLOADED / DRAINING refusal from the owner
 *    is retried once per remaining ring member before the refusal
 *    is passed through to the client.
 *
 * Deadlines are anchored at the router: each forward (and each
 * failover resubmit) carries only the remaining budget, and a
 * request whose budget dies during failover is answered Timeout by
 * the router itself.
 */

#ifndef PSI_ROUTER_ROUTER_HPP
#define PSI_ROUTER_ROUTER_HPP

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/backoff.hpp"
#include "net/frontend.hpp"
#include "net/wire.hpp"
#include "router/hash_ring.hpp"

namespace psi {
namespace metrics {
class Registry;
}

namespace router {

/** One backend address, parsed from "host:port". */
struct BackendAddr
{
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;

    /** Parse "host:port" (or ":port" / bare "port" for loopback);
     *  nullopt with @p error set on bad input. */
    static std::optional<BackendAddr>
    parse(const std::string &spec, std::string *error = nullptr);

    std::string str() const;
};

/** Point-in-time router counters (see PsiRouter::metrics()). */
struct RouterMetrics
{
    struct Backend
    {
        std::string addr;
        bool admitted = false;       ///< currently in the ring
        std::uint64_t routed = 0;    ///< SUBMITs forwarded here
        std::uint64_t completed = 0; ///< RESULTs relayed from here
        std::uint64_t retried = 0;   ///< failover resubmits sent here
        std::uint64_t refusals = 0;  ///< OVERLOADED/DRAINING received
        std::uint64_t ejections = 0; ///< times removed from the ring
    };

    std::vector<Backend> backends;
    std::uint64_t clientConns = 0;   ///< client connections accepted
    std::uint64_t submits = 0;       ///< SUBMITs received
    std::uint64_t affinityHits = 0;  ///< forwards to the home backend
    std::uint64_t affinityMisses = 0;///< forwards diverted elsewhere
    std::uint64_t unknownWorkload = 0;
    std::uint64_t noBackend = 0;     ///< refused: ring was empty
    std::uint64_t routerTimeouts = 0;///< budget died during failover
    std::uint64_t staleDropped = 0;  ///< RESULTs for superseded tags
    std::uint64_t clientGone = 0;    ///< RESULTs for closed clients

    /** Fraction of forwards that reached the key's home backend
     *  (the full-membership ring owner), in [0, 1]. */
    double affinityRatio() const;

    /** Declare every router metric to @p r; @p wall_ns is the
     *  router's uptime. */
    void describe(metrics::Registry &r, std::uint64_t wall_ns = 0) const;
};

/** Non-blocking TCP router in front of N PsiServer backends. */
class PsiRouter : public net::Frontend
{
  public:
    struct Config : net::ListenConfig
    {
        std::vector<BackendAddr> backends;
        /** Ring points per backend (balance knob). */
        unsigned vnodes = 128;
        /** Idle gap between health probes on a live backend. */
        std::uint64_t probeIntervalNs = 200'000'000;
        /** A probe unanswered this long counts one failure. */
        std::uint64_t probeTimeoutNs = 1'000'000'000;
        /** Consecutive probe failures before ejection (transport
         *  errors eject immediately regardless). */
        unsigned ejectAfterFailures = 3;
        /** Non-blocking connect attempts older than this fail. */
        std::uint64_t connectTimeoutNs = 1'000'000'000;
        /** Reconnect backoff for ejected backends. */
        Backoff::Config readmission{50'000'000, 2'000'000'000, 2.0,
                                    1};
    };

    PsiRouter();
    explicit PsiRouter(const Config &config);

    /**
     * Resolve every backend, bind + listen and begin dialing the
     * backends (admission completes inside run()).
     * @return false with @p error set when no backends were
     *         configured, a backend host does not resolve or the
     *         listen address is unusable.
     */
    bool start(std::string *error = nullptr);

    /** Event loop; returns after a drain completes (every forwarded
     *  request answered, every reply flushed) and the backend legs
     *  are closed. */
    void run();

    RouterMetrics metrics() const;

  private:
    /** Backend connection lifecycle. */
    enum class BState : std::uint8_t
    {
        Ejected,    ///< down; reconnect scheduled
        Connecting, ///< non-blocking connect in flight
        Admitted,   ///< connected and in the ring
    };

    using Clock = std::chrono::steady_clock;

    struct Backend
    {
        BackendAddr addr;
        net::Peer peer; ///< addr, resolved by start()
        std::uint32_t index = 0;
        std::atomic<BState> state{BState::Ejected};
        /** The backend leg; open while Connecting or Admitted. */
        net::FramedConn conn;
        /** Router tags forwarded here, RESULT not yet seen. */
        std::set<std::uint64_t> outstanding;
        unsigned failures = 0;        ///< consecutive probe failures
        bool probeOutstanding = false;
        Clock::time_point probeSentAt{};
        Clock::time_point nextProbeAt{};  ///< next probe / redial
        Clock::time_point connectStartAt{};
        Backoff backoff;

        /** @name Counters (loop thread writes, metrics() reads) */
        /// @{
        std::atomic<std::uint64_t> routed{0};
        std::atomic<std::uint64_t> completed{0};
        std::atomic<std::uint64_t> retried{0};
        std::atomic<std::uint64_t> refusals{0};
        std::atomic<std::uint64_t> ejections{0};
        /// @}
    };

    /** One client request in flight toward some backend. */
    struct Pending
    {
        std::uint64_t clientConnId = 0;
        std::uint64_t clientTag = 0;
        std::string workload;
        std::string tenant;           ///< forwarded fairness unit
        /** Forwarded execution mode (v2.2 fast dispatch). */
        interp::ExecMode mode = interp::ExecMode::Fidelity;
        bool hasMode = false;         ///< mode byte was on the wire
        std::uint64_t key = 0;        ///< source-content hash
        std::uint32_t backend = 0;    ///< current target
        std::vector<std::uint32_t> tried;
        bool hasDeadline = false;
        Clock::time_point deadlineAt{};
        bool isRetry = false;         ///< next forward is a failover
    };

    void submit(Conn &conn, net::SubmitMsg &&msg,
                std::uint64_t decodeStartNs) override;
    void describe(metrics::Registry &r,
                  std::uint64_t wallNs) const override;
    bool busy() const override { return !_pending.empty(); }
    /** Run the backend timers and poll every open backend leg, at
     *  most until the next timer is due. */
    int preparePoll(std::vector<pollfd> &fds) override;
    /** Connect, read and flush the backend legs. */
    void servePoll(std::span<const pollfd> ready) override;
    /** Forward @p pending to @p target under a fresh router tag. */
    void forwardToBackend(std::uint32_t target, Pending &&pending);
    /** Reply to the pending request's client (drops when gone). */
    void respondToClient(const Pending &pending, net::ResultMsg msg);
    void refuseClient(const Pending &pending, net::WireStatus status,
                      std::string why);

    void serviceBackendTimers();
    void startConnect(Backend &backend);
    void onBackendConnected(Backend &backend);
    bool finishConnect(Backend &backend);
    bool handleBackendReadable(Backend &backend);
    bool handleBackendMessage(Backend &backend, net::Message &&msg);
    /** Drop the connection, leave the ring, fail over every
     *  outstanding request, schedule a reconnect. */
    void eject(Backend &backend, const std::string &why);
    /** Resubmit one orphaned pending request to the ring successor
     *  (or refuse it when the ring is exhausted/empty). */
    void failover(Pending &&pending);
    /** Forward @p pending, as a retry, to the first member of its
     *  key's preference list it has not tried yet.  False, leaving
     *  @p pending untouched, when every ring member was tried. */
    bool retryUntried(Pending &pending);
    void scheduleRedial(Backend &backend);

    int pollTimeoutMs() const;

    static std::uint64_t
    nsBetween(Clock::time_point from, Clock::time_point to)
    {
        return to <= from
            ? 0
            : static_cast<std::uint64_t>(
                  std::chrono::duration_cast<std::chrono::nanoseconds>(
                      to - from)
                      .count());
    }

    Config _config;
    std::uint64_t _nextRouterTag = 1;
    std::vector<std::unique_ptr<Backend>> _backends;
    /** Backends preparePoll() polled, in descriptor order. */
    std::vector<std::uint32_t> _polled;
    std::unordered_map<std::uint64_t, Pending> _pending;
    HashRing _ring;     ///< admitted members only (routing)
    HashRing _fullRing; ///< full membership (affinity accounting)

    /** @name Router-level counters (loop writes, metrics() reads) */
    /// @{
    std::atomic<std::uint64_t> _submits{0};
    std::atomic<std::uint64_t> _affinityHits{0};
    std::atomic<std::uint64_t> _affinityMisses{0};
    std::atomic<std::uint64_t> _unknownWorkload{0};
    std::atomic<std::uint64_t> _noBackend{0};
    std::atomic<std::uint64_t> _routerTimeouts{0};
    std::atomic<std::uint64_t> _staleDropped{0};
    std::atomic<std::uint64_t> _clientGone{0};
    /// @}
};

} // namespace router
} // namespace psi

#endif // PSI_ROUTER_ROUTER_HPP
