/**
 * @file
 * PsiServer: the psinet TCP front end over a service::EnginePool.
 *
 * A net::Frontend (net/frontend.hpp) poll loop plus the pool's worker
 * threads:
 *
 *     client conns ──► Frontend poll loop ──► EnginePool (N workers)
 *        ▲   frames, HELLO, STATS,                │ completion callback
 *        │   METRICS, TRACE, DRAIN                ▼
 *        └── replies ◄──────────────── completion queue + wake pipe
 *
 * The front end owns the listener, the client connections, the
 * frame loop, the control messages, the slow-consumer rule and the
 * drain.  The server keeps what is its own: a SUBMIT becomes a pool
 * job, the STATS and METRICS replies describe the pool's metrics
 * snapshot, a request is owed a RESULT while its job is in flight,
 * and each poll pass replies with the completions the workers
 * queued.
 *
 * Backpressure is surfaced, not absorbed: a SUBMIT that meets a full
 * job queue gets an OVERLOADED reply immediately, so the poll loop
 * never waits for a worker.
 *
 * Graceful drain (SIGINT / SIGTERM / a DRAIN message /
 * requestDrain()): stop accepting connections, refuse new SUBMITs
 * with DRAINING, finish every accepted job, flush every reply, then
 * shut the pool down and return from run().
 *
 * Observability: TRACE returns the accumulated psitrace spans as
 * Chrome trace-event JSON, and METRICS returns the metrics snapshot
 * as Prometheus text.  When tracing is enabled the server mints a
 * trace tag for each SUBMIT as it decodes, records decode/encode/
 * reply spans under it and echoes it in the RESULT, refusals
 * included, so a request's timeline stitches across the loop and
 * worker threads and onto the client's own spans.
 */

#ifndef PSI_NET_SERVER_HPP
#define PSI_NET_SERVER_HPP

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "net/frontend.hpp"
#include "service/engine_pool.hpp"

namespace psi {
namespace net {

/** Non-blocking TCP server exposing an EnginePool. */
class PsiServer : public Frontend
{
  public:
    struct Config : ListenConfig
    {
        unsigned workers = 4;
        std::size_t queueCapacity = 64;
        /** Pool dispatch policy (see sched/scheduler.hpp);
         *  Affinity is the production default. */
        sched::SchedKind scheduler = sched::SchedKind::Affinity;
        /** Fairness/affinity knobs; sched.capacity is ignored
         *  (queueCapacity is the global bound). */
        sched::SchedConfig sched = {};
    };

    PsiServer();
    explicit PsiServer(const Config &config);
    ~PsiServer() override;

    /**
     * Bind + listen (the pool is already running).
     * @return false with @p error set when the address is unusable.
     */
    bool start(std::string *error = nullptr) { return listen(error); }

    /** Event loop; returns after a drain completes and the pool has
     *  shut down. */
    void run();

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
    struct Completion
    {
        std::uint64_t connId;
        ResultMsg msg;
        /** Trace clock at worker hand-off (0 = untraced).  The
         *  request's encode span starts here so the completion
         *  queue + wake-pipe latency is attributed, not lost. */
        std::uint64_t enqueueNs = 0;
    };

    void submit(Conn &conn, SubmitMsg &&msg,
                std::uint64_t decodeStartNs) override;
    void describe(metrics::Registry &r,
                  std::uint64_t wallNs) const override;
    bool busy() const override { return _inFlight != 0; }
    int preparePoll(std::vector<pollfd> &) override { return -1; }
    /** Reply with the completions the workers queued. */
    void servePoll(std::span<const pollfd>) override;

    service::EnginePool _pool;

    std::mutex _completionMutex;
    std::vector<Completion> _completions;
    /** Jobs accepted by the pool whose RESULT is not yet queued. */
    std::size_t _inFlight = 0;
};

} // namespace net
} // namespace psi

#endif // PSI_NET_SERVER_HPP
