/**
 * @file
 * faultnet: a deterministic, seedable fault-injection TCP proxy.
 *
 * FaultProxy sits between a PsiClient and a PsiServer on loopback
 * and mangles the byte stream according to a scripted FaultSchedule:
 *
 *     client ──TCP──► FaultProxy ──TCP──► PsiServer
 *                      │ split / coalesce / delay / truncate+reset
 *
 * Faults are applied at the byte level, below the framing layer, so
 * they exercise exactly the paths a hostile network does: frames
 * arriving one byte at a time, several frames coalesced into one
 * segment, replies cut off mid-body, and connections hard-reset
 * (RST, not FIN) in the middle of a pipelined batch.
 *
 * Determinism: every probabilistic choice draws from one SplitMix64
 * seeded by the schedule, so a chaos-test failure reproduces from
 * its spec string alone.  The same spec drives the chaos tests
 * (tests/test_net.cpp) and `net_throughput --fault-schedule`.
 *
 * The proxy runs one background thread (poll(2) over every leg);
 * setUpstream() re-points new connections at a different server
 * port, which is how the chaos suite survives a mid-batch server
 * kill-and-restart.
 */

#ifndef PSI_NET_FAULTNET_HPP
#define PSI_NET_FAULTNET_HPP

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "base/backoff.hpp"
#include "net/conn.hpp"

namespace psi {
namespace net {

/**
 * One scripted fault schedule, parsed from a "key=value,..." spec:
 *
 *     seed=N         PRNG seed (default 1)
 *     split=P        probability [0,1] a forwarded chunk is chopped
 *                    into tiny pieces delivered separately
 *     coalesce=P     probability a chunk is held and delivered glued
 *                    to the following bytes
 *     delay_us=A..B  uniform per-chunk forwarding delay (or one value)
 *     reset_after=N  hard-reset the connection after ~N forwarded
 *                    bytes, repeating every N bytes; the frame in
 *                    flight is truncated to a random prefix first
 *
 * An empty spec is a transparent proxy.
 */
struct FaultSchedule
{
    std::uint64_t seed = 1;
    double splitProb = 0.0;
    double coalesceProb = 0.0;
    std::uint64_t delayMinUs = 0;
    std::uint64_t delayMaxUs = 0;
    std::uint64_t resetAfterBytes = 0; ///< 0 = never reset

    bool
    enabled() const
    {
        return splitProb > 0 || coalesceProb > 0 || delayMaxUs > 0 ||
               resetAfterBytes > 0;
    }

    /** Parse a spec string; nullopt with @p error set on bad input. */
    static std::optional<FaultSchedule>
    parse(const std::string &spec, std::string *error = nullptr);

    /** Normalized spec string (for logs and banners). */
    std::string str() const;
};

/** What the proxy did to the traffic (all monotonically increasing). */
struct FaultStats
{
    std::uint64_t connections = 0;    ///< client connections accepted
    std::uint64_t upstreamFailed = 0; ///< dials the server refused
    std::uint64_t bytesForwarded = 0; ///< after truncation
    std::uint64_t splits = 0;         ///< chunks chopped into pieces
    std::uint64_t coalesces = 0;      ///< chunks held back to glue
    std::uint64_t delays = 0;         ///< chunks delayed
    std::uint64_t resets = 0;         ///< connections hard-reset
    std::uint64_t truncatedBytes = 0; ///< bytes dropped by resets
};

/** Fault-injecting TCP proxy in front of one upstream address. */
class FaultProxy
{
  public:
    FaultProxy(std::string upstreamHost, std::uint16_t upstreamPort,
               FaultSchedule schedule);
    ~FaultProxy();

    FaultProxy(const FaultProxy &) = delete;
    FaultProxy &operator=(const FaultProxy &) = delete;

    /** Resolve the upstream host, bind an ephemeral loopback port
     *  and start the relay thread. */
    bool start(std::string *error = nullptr);

    /** The port clients should connect to. */
    std::uint16_t port() const { return _listener.port(); }

    /** Re-point *new* connections at @p upstreamPort (server
     *  restarted on a different port mid-batch). */
    void setUpstream(std::uint16_t upstreamPort);

    /** Close the listener and every leg, then join the thread. */
    void stop();

    FaultStats stats() const;

  private:
    /** One direction of one proxied connection. */
    struct Leg
    {
        int fd = -1;
        bool eof = false; ///< this socket's peer finished sending
        /** Mutated bytes scheduled for delivery to fd.  A coalesced
         *  chunk merges into the last not-yet-released segment, so
         *  held bytes always carry a release time and can't stall. */
        struct Segment
        {
            std::string bytes;
            std::size_t off = 0;
            std::chrono::steady_clock::time_point releaseAt;
        };
        std::deque<Segment> out;
    };

    struct Pair
    {
        Leg client;   ///< delivery leg toward the client
        Leg upstream; ///< delivery leg toward the server
        bool closing = false; ///< flush remaining bytes, then close
    };

    void relayMain();
    void acceptOne();
    /** Read from @p from and schedule mutated bytes onto @p to. */
    bool pump(Leg &from, Leg &to);
    void scheduleChunk(Leg &to, std::string chunk);
    bool flushLeg(Leg &leg);
    void injectReset(Pair &pair);
    static void hardClose(int fd);

    std::string _upstreamHost;
    Peer _upstream; ///< _upstreamHost, resolved by start()
    std::atomic<int> _upstreamPort;
    FaultSchedule _schedule;
    SplitMix64 _rng;
    std::uint64_t _sinceReset = 0; ///< forwarded bytes since a reset

    Listener _listener;
    WakePipe _wake;
    std::thread _thread;
    std::atomic<bool> _stop{false};

    std::map<std::uint64_t, Pair> _pairs;
    std::uint64_t _nextPairId = 1;

    mutable std::mutex _statsMutex;
    FaultStats _stats;
};

} // namespace net
} // namespace psi

#endif // PSI_NET_FAULTNET_HPP
