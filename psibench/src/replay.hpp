/**
 * @file
 * In-process replay of serving requests: one request at a time, on
 * the calling thread, through the public entry point of every layer
 * a loopback request crosses -- SUBMIT encode and decode (net),
 * ProgramCache::get (service), FastEngine or Engine load and solve
 * (fast / interp, with query compile), resultFromOutcome plus RESULT
 * encode and decode (net).  It is the per-request work of the
 * loopback stack without its sockets and thread hand-offs.
 */

#ifndef PSIBENCH_REPLAY_HPP
#define PSIBENCH_REPLAY_HPP

#include <cstdint>

#include "base/reqlog.hpp"
#include "fast/fast_engine.hpp"
#include "interp/engine.hpp"
#include "oracle.hpp"
#include "service/program_cache.hpp"
#include "spans.hpp"

namespace psibench {

/** Exact counts and byte totals over the replayed requests. */
struct ReplayCounters
{
    double indexHits = 0, clauseTries = 0;     ///< fast engine
    double steps = 0, modelNs = 0, stallNs = 0; ///< fidelity runs
    double cacheHits = 0, cacheAccesses = 0;   ///< fidelity cache model
    double solveCpuNs = 0;                     ///< fidelity solve CPU
    double submitBytes = 0, resultBytes = 0;   ///< frames on the wire
};

class Replayer
{
  public:
    /** A fresh program cache and fresh engines; with @p spans, one
     *  span per layer call under one request span. */
    explicit Replayer(const Oracle &oracle, SpanLog *spans = nullptr)
        : _oracle(oracle), _spans(spans)
    {}

    Replayer(const Replayer &) = delete;
    Replayer &operator=(const Replayer &) = delete;

    /** Compile every distinct source of @p log into the cache. */
    void warm(const psi::reqlog::Log &log);

    /** Serve @p e as request @p req; true when the RESULT that comes
     *  back is correct by the oracle. */
    bool run(const psi::reqlog::Entry &e, std::uint64_t req);

    const ReplayCounters &counters() const { return _c; }

  private:
    const Oracle &_oracle;
    SpanLog *_spans;
    psi::service::ProgramCache _cache;
    psi::fast::FastEngine _fast;
    psi::interp::Engine _engine;
    ReplayCounters _c;
};

} // namespace psibench

#endif // PSIBENCH_REPLAY_HPP
