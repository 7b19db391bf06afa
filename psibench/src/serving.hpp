/**
 * @file
 * The serving workloads.  Untraced runs replay the schedule through
 * the layers in-process (replay.hpp); traced runs also drive the
 * loopback stack -- an in-process PsiServer, or a PsiRouter in front
 * of PsiServer backends -- from a one-process load generator over
 * one connection with a sender and a receiver thread.
 */

#ifndef PSIBENCH_SERVING_HPP
#define PSIBENCH_SERVING_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "base/reqlog.hpp"
#include "common.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"
#include "oracle.hpp"
#include "router/router.hpp"
#include "schedule.hpp"

namespace psibench {

/** The system under test, each event loop on its own thread. */
class Stack
{
  public:
    explicit Stack(const ServingSpec &spec);
    /** Drains the router, then the servers, and joins every loop. */
    ~Stack();

    Stack(const Stack &) = delete;
    Stack &operator=(const Stack &) = delete;

    /** Port clients connect to (the router's when routed). */
    std::uint16_t port() const;

    /** Spin (yielding, never sleeping) until the router has
     *  admitted every backend; false after @p timeoutS. */
    bool waitAdmitted(double timeoutS) const;

    std::vector<psi::service::MetricsSnapshot> backendMetrics() const;
    bool routed() const { return _router != nullptr; }
    psi::router::RouterMetrics routerMetrics() const;

  private:
    std::vector<std::unique_ptr<psi::net::PsiServer>> _servers;
    std::unique_ptr<psi::router::PsiRouter> _router;
    std::vector<std::thread> _loops;
};

/**
 * One blocking loopback connection that has exchanged HELLO.  Unlike
 * net::PsiClient it sends under the caller's tag (the request's
 * schedule index), so the receiver thread attributes every RESULT
 * without sharing any state with the sender thread.
 */
class Client
{
  public:
    explicit Client(std::uint16_t port);
    ~Client();

    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    /** Encode and write one message; false on a transport error. */
    bool send(const psi::net::Message &msg);

    /** Next RESULT; false on EOF, error or @p timeoutMs silence. */
    bool recvResult(psi::net::ResultMsg &out, int timeoutMs);

  private:
    bool recvMessage(psi::net::Message &out, int timeoutMs);

    int _fd = -1;
    std::string _rbuf;
};

/** One open-loop request, from schedule to RESULT. */
struct Sample
{
    std::uint64_t dueNs = 0;  ///< scheduled send time
    std::uint64_t sentNs = 0; ///< actual send time
    std::uint64_t recvNs = 0; ///< RESULT received (0 = lost)
    bool ok = false;          ///< oracle-checked correct
    bool refused = false;     ///< OVERLOADED / DRAINING
    std::uint64_t serverLatencyNs = 0; ///< RESULT latencyNs
    std::uint64_t queueNs = 0;         ///< RESULT queueNs
    std::uint64_t execNs = 0;          ///< RESULT execNs
};

/**
 * Send every entry of @p log at its scheduled offset (open loop) and
 * check each RESULT.  Entry i travels under tag @p tagBase + i.  With
 * @p traceSends each send is recorded as a psitrace Send span.
 */
std::vector<Sample> runOpenLoop(Client &client,
                                const psi::reqlog::Log &log,
                                const Oracle &oracle, bool traceSends,
                                std::uint64_t tagBase = 0);

/** Tally an open-loop phase: a wrong answer, a refusal, a timeout
 *  and a lost reply each count as one failed operation. */
void countSamples(const std::vector<Sample> &samples, Tally &tally);

/** One closed-loop phase. */
struct ClosedLoop
{
    Tally tally;
    std::uint64_t correct = 0;
    std::uint64_t wallNs = 0; ///< first send to last RESULT
    std::uint64_t cpuNs = 0;  ///< process CPU over the same span
};

/**
 * Keep @p inflight requests outstanding for @p seconds, cycling
 * through @p log's entries, then collect the stragglers.
 */
ClosedLoop runClosedLoop(Client &client, const psi::reqlog::Log &log,
                         const Oracle &oracle, double seconds,
                         unsigned inflight);

/** Run one serving workload and fill @p report. */
void runServing(const ServingSpec &spec, const Args &args,
                Report &report);

} // namespace psibench

#endif // PSIBENCH_SERVING_HPP
