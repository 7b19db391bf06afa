/**
 * @file
 * psitrace: low-overhead request-span recording.
 *
 * The service layers (psid's EnginePool, psinet's PsiServer, the
 * client-side load generators) record one Span per request stage -
 * decode, queue wait, program-cache compile / hit, engine setup,
 * solve, encode, reply - each carrying the request's trace tag, so a
 * whole request's timeline stitches back together across the threads
 * it crossed.  Spans export as Chrome trace-event JSON (loads in
 * chrome://tracing and Perfetto) via chromeJson().
 *
 * Design constraints, in order:
 *
 *  - Near-zero cost when disabled.  Every record path starts with a
 *    single relaxed atomic load (enabled()); nothing else runs, no
 *    clock is read, no buffer is touched.  Tracing is off by
 *    default.
 *
 *  - Lock-free recording when enabled.  Each recording thread owns a
 *    fixed-capacity append-only buffer registered once (the only
 *    lock, taken once per thread's lifetime).  The owner publishes
 *    each span with a release store of the buffer head; collect()
 *    acquires the head and reads only the published prefix, so a
 *    concurrent snapshot is race-free without a seqlock.  A full
 *    buffer drops new spans (counted) instead of overwriting old
 *    ones - overwrite would race the collector.
 *
 *  - One clock.  All timestamps are steady-clock nanoseconds since a
 *    process-wide trace epoch (nowNs() / toNs()), so spans recorded
 *    on different threads order correctly on one timeline.
 *
 * reset() is the one non-concurrent operation: it must not race
 * active recorders (call it while the traced system is quiescent -
 * between bench rounds, between tests).
 */

#ifndef PSI_BASE_TRACE_HPP
#define PSI_BASE_TRACE_HPP

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace psi {
namespace trace {

/** Request stages, one span name each (see stageName()). */
enum class Stage : std::uint8_t
{
    Request = 0, ///< client: scheduled send -> RESULT received
    Accept,      ///< server: connection accepted
    Decode,      ///< bytes -> message (server SUBMIT / client RESULT)
    Queue,       ///< pool: submit -> worker pickup
    CacheHit,    ///< worker: program served from the ProgramCache
    Compile,     ///< worker: program compiled on this request
    Setup,       ///< worker: program fetch + image load
    Solve,       ///< worker: query compile + run
    Encode,      ///< server: outcome -> RESULT frame bytes
    Reply,       ///< server: frame bytes -> socket / write buffer
    Send,        ///< client: SUBMIT encode + send syscall
    /** @name Scheduling-class attribution of the queue wait.
     *  The pool records exactly one of these alongside each Queue
     *  span, covering the same interval, so traces show whether the
     *  request dispatched in fair order, rode an affinity batch, or
     *  was rescued by the anti-starvation age cap. */
    /// @{
    SchedFair,
    SchedAffinity,
    SchedAged,
    /// @}
    NumStages,
};

const char *stageName(Stage s);

/** One recorded interval on one thread. */
struct Span
{
    std::uint64_t tag = 0;     ///< request trace tag (0 = none)
    std::uint64_t startNs = 0; ///< trace-epoch-relative, monotonic
    std::uint64_t durNs = 0;
    std::uint32_t tid = 0;     ///< recording thread (dense index)
    Stage stage = Stage::Request;
};

namespace detail {
extern std::atomic<bool> g_enabled;
void recordSlow(Stage stage, std::uint64_t tag,
                std::uint64_t startNs, std::uint64_t endNs);
} // namespace detail

/** The global fast-path gate: one relaxed load. */
inline bool
enabled()
{
    return detail::g_enabled.load(std::memory_order_relaxed);
}

/** Turn recording on/off (also anchors the trace epoch). */
void setEnabled(bool on);

/** Monotonic nanoseconds since the process trace epoch. */
std::uint64_t nowNs();

/** Convert a steady_clock time point onto the trace timeline. */
std::uint64_t toNs(std::chrono::steady_clock::time_point tp);

/**
 * Record one span.  A no-op (single relaxed load) when tracing is
 * disabled; when enabled, appends to the calling thread's buffer.
 */
inline void
record(Stage stage, std::uint64_t tag, std::uint64_t startNs,
       std::uint64_t endNs)
{
    if (enabled())
        detail::recordSlow(stage, tag, startNs, endNs);
}

/**
 * Allocate a process-unique request trace tag (never 0).  The server
 * stamps one on each SUBMIT and echoes it in the RESULT, so client
 * and server spans of the same request share a tag.
 */
std::uint64_t nextTag();

/** Snapshot every thread's published spans (safe while recording). */
std::vector<Span> collect();

/** Spans lost to full thread buffers since the last reset(). */
std::uint64_t droppedSpans();

/**
 * Drop all recorded spans (enabled state is untouched).  NOT safe
 * concurrently with active recorders or collect(); call it only
 * while the traced system is quiescent.
 */
void reset();

/** Render spans as Chrome trace-event JSON ("X" complete events). */
std::string chromeJson(const std::vector<Span> &spans);

} // namespace trace
} // namespace psi

#endif // PSI_BASE_TRACE_HPP
