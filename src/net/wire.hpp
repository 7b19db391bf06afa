/**
 * @file
 * psinet wire protocol: length-prefixed framed messages.
 *
 * Every message travels in one frame:
 *
 *     +-------------------+---------+----------------+
 *     | u32 payload bytes | u8 type | type body ...  |
 *     +-------------------+---------+----------------+
 *       big-endian          ^------- payload -------^
 *
 * The length covers the payload (type byte included) and is capped at
 * kMaxFramePayload; a peer announcing a larger frame is a protocol
 * error and the connection is dropped without buffering the payload.
 * Integers are fixed-width big-endian, strings and arrays carry a u32
 * count before their elements.  Each message body is declared once,
 * in its layout() in wire.cpp, which encode() and decode() both walk,
 * so every message round-trips byte-exactly; the bytes themselves are
 * pinned by tests/golden/wire_frames.txt.
 *
 * Message flow (see docs/PROTOCOL.md for the full layout):
 *
 *   client                         server
 *     HELLO(version, features)   ->            [optional; v1 implied]
 *                                <- HELLO_ACK  (or ERROR + close)
 *     SUBMIT(tag, workload, ddl) ->
 *                                <- RESULT(tag, status, answer, stats)
 *     STATS                      ->
 *                                <- STATS_REPLY(metrics json)
 *     TRACE                      ->
 *                                <- TRACE_REPLY(chrome trace json)
 *     METRICS                    ->
 *                                <- METRICS_REPLY(prometheus text)
 *     DRAIN                      ->
 *                                <- DRAIN_ACK, then graceful drain
 *
 * Requests are correlated by the client-chosen tag, so a connection
 * may pipeline many SUBMITs; RESULTs come back in completion order,
 * not submission order.
 */

#ifndef PSI_NET_WIRE_HPP
#define PSI_NET_WIRE_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "interp/machine.hpp"
#include "mem/cache.hpp"
#include "micro/sequencer.hpp"

namespace psi {
namespace service {
struct JobOutcome;
}

namespace net {

/** Hard cap on one frame's payload (type byte + body). */
constexpr std::uint32_t kMaxFramePayload = 4u << 20;

/** Bytes of frame header (the big-endian payload length). */
constexpr std::size_t kFrameHeaderBytes = 4;

/** @name Protocol version + feature negotiation (HELLO/HELLO_ACK)
 *
 * A client may open with HELLO(version, features).  The server
 * accepts major versions 1 (the pre-HELLO protocol; also implied
 * when the first frame is not a HELLO) and kProtocolMajor; any other
 * major is answered with a structured ERROR and the connection is
 * closed.  Minor versions and feature bits never cause rejection -
 * the HELLO_ACK carries the server's version and the intersection of
 * the offered and supported feature bits, so each side knows what
 * the other actually speaks.
 */
/// @{
constexpr std::uint32_t kProtocolMajor = 2;
constexpr std::uint32_t kProtocolMinor = 2;
constexpr std::uint64_t kFeatureTrace = 1u << 0;   ///< TRACE msgs
constexpr std::uint64_t kFeatureMetrics = 1u << 1; ///< METRICS msgs
/** Peer is a psirouter (forwarding frames for a cluster), not an
 *  engine-owning server.  Advertised only by routers - deliberately
 *  NOT part of kSupportedFeatures, so a plain PsiServer's HELLO_ACK
 *  never carries it and a client can tell the two tiers apart. */
constexpr std::uint64_t kFeatureRouting = 1u << 2;
/** SUBMIT carries a tenant id (v2.1 scheduler fairness unit). */
constexpr std::uint64_t kFeatureTenant = 1u << 3;
/** SUBMIT carries an execution-mode byte (v2.2 fast dispatch). */
constexpr std::uint64_t kFeatureFastMode = 1u << 4;
constexpr std::uint64_t kSupportedFeatures =
    kFeatureTrace | kFeatureMetrics | kFeatureTenant |
    kFeatureFastMode;
/// @}

/** ERROR codes (the `code` field of ErrorMsg). */
constexpr std::uint32_t kErrUnsupportedVersion = 1;

/** Payload type byte: the Message variant index + 1 (wire.cpp pins
 *  the two orders together). */
enum class MsgType : std::uint8_t
{
    Submit = 1,      ///< client -> server: run one workload
    Result = 2,      ///< server -> client: outcome + statistics
    Stats = 3,       ///< client -> server: request service metrics
    StatsReply = 4,  ///< server -> client: metrics JSON
    Drain = 5,       ///< client -> server: start graceful drain
    DrainAck = 6,    ///< server -> client: drain acknowledged
    Hello = 7,       ///< client -> server: version + feature bits
    HelloAck = 8,    ///< server -> client: negotiated reply
    Error = 9,       ///< server -> client: structured refusal
    Trace = 10,      ///< client -> server: request the span dump
    TraceReply = 11, ///< server -> client: chrome trace-event JSON
    Metrics = 12,    ///< client -> server: request live metrics
    MetricsReply = 13, ///< server -> client: prometheus text
};

/**
 * Status of one RESULT.  The first three values mirror
 * interp::RunStatus (the job ran on an engine); the rest are
 * service-level refusals that never reached an engine.
 */
enum class WireStatus : std::uint8_t
{
    Ok = 0,              ///< ran to completion
    StepLimit = 1,       ///< RunLimits::maxSteps exhausted
    Timeout = 2,         ///< deadline budget spent
    EngineError = 16,    ///< FatalError from the engine (see error)
    UnknownWorkload = 17,///< workload id not in the registry
    Overloaded = 18,     ///< fail-fast queue rejection (backpressure)
    Draining = 19,       ///< server is draining, no new work
};

const char *wireStatusName(WireStatus s);

/** Map an engine run status onto the wire. */
WireStatus wireStatus(interp::RunStatus s);

/** SUBMIT body.  Three self-canonical forms share the type byte:
 *  the v1/v2.0 body ends after deadlineNs, the v2.1 body appends a
 *  tenant string, and the v2.2 body appends an execution-mode byte
 *  after the tenant (so hasMode implies hasTenant).  The decoder
 *  distinguishes the forms by exhaustion and re-encodes each one
 *  byte-identically (the fuzz suite's round-trip property), so old
 *  clients interop unchanged.  The layout is declared once, in the
 *  SUBMIT layout() in wire.cpp, where each tail field is one tail()
 *  line that encode and decode share - appending a future field is
 *  one more line there; tests/golden/wire_frames.txt pins the bytes
 *  of all three forms.  Construct outgoing SUBMITs through
 *  SubmitBuilder rather than by hand: the builder keeps the presence
 *  flags consistent with the prefix rule. */
struct SubmitMsg
{
    std::uint64_t tag = 0;        ///< client-chosen correlation id
    std::string workload;         ///< registry id, e.g. "queens1"
    std::uint64_t deadlineNs = 0; ///< per-request budget; 0 = none
    /** Scheduling tenant (fairness + quota unit); "" = the shared
     *  default tenant.  Only on the wire when hasTenant. */
    std::string tenant = {};
    /** False for frames in the tenant-less v1/v2.0 form; such
     *  requests run as the shared default tenant. */
    bool hasTenant = true;
    /** Execution mode (v2.2); only on the wire when hasMode.  The
     *  decoder rejects mode bytes it does not know, so a future
     *  mode never silently degrades to Fidelity mid-cluster. */
    interp::ExecMode mode = interp::ExecMode::Fidelity;
    /** False for frames in the v1/v2.0/v2.1 forms; such requests
     *  run in Fidelity mode. */
    bool hasMode = true;
};

/**
 * Fluent constructor for outgoing SUBMITs - the one place client
 * code builds a SubmitMsg.  A fresh builder produces the smallest
 * form (v1/v2.0: tag + workload + deadline); each setter that
 * touches an appended tail field upgrades the frame just far enough
 * to carry it, so the presence flags always satisfy the prefix rule
 * that the SUBMIT layout() in wire.cpp encodes by (mode() implies
 * the tenant field is on the wire) and a Fidelity request without a
 * tenant still interops with pre-v2.1 servers:
 *
 *     encode(SubmitBuilder(tag, "queens1")
 *                .deadlineNs(budget)
 *                .tenant("team-a")
 *                .mode(interp::ExecMode::Fast)
 *                .build());
 */
class SubmitBuilder
{
  public:
    SubmitBuilder(std::uint64_t tag, std::string workload)
    {
        _m.tag = tag;
        _m.workload = std::move(workload);
        _m.hasTenant = false;
        _m.hasMode = false;
    }

    /** Per-request budget in nanoseconds (0 = none). */
    SubmitBuilder &
    deadlineNs(std::uint64_t ns)
    {
        _m.deadlineNs = ns;
        return *this;
    }

    /** Scheduling tenant; upgrades the frame to the v2.1 form. */
    SubmitBuilder &
    tenant(std::string t)
    {
        _m.tenant = std::move(t);
        _m.hasTenant = true;
        return *this;
    }

    /** Execution mode; upgrades the frame to the v2.2 form (which
     *  carries the tenant field too - "" = default tenant).  Leave
     *  unset for Fidelity requests that must reach v2.1 servers. */
    SubmitBuilder &
    mode(interp::ExecMode m)
    {
        _m.mode = m;
        _m.hasMode = true;
        _m.hasTenant = true;
        return *this;
    }

    SubmitMsg
    build() &&
    {
        return std::move(_m);
    }

    SubmitMsg
    build() const &
    {
        return _m;
    }

  private:
    SubmitMsg _m;
};

/** RESULT body: the full JobOutcome, serialized. */
struct ResultMsg
{
    std::uint64_t tag = 0;
    WireStatus status = WireStatus::Ok;
    std::string error;            ///< refusal / engine error text

    std::vector<std::string> solutions; ///< rendered bindings
    std::string output;           ///< text written by write/nl/tab

    std::uint64_t inferences = 0; ///< user-predicate calls
    std::uint64_t steps = 0;      ///< microinstruction steps
    std::uint64_t modelNs = 0;    ///< model clock (steps + stalls)
    std::uint64_t stallNs = 0;    ///< memory stall share
    micro::SeqStats seq{};        ///< firmware statistics
    CacheStats cache{};           ///< cache statistics

    std::uint64_t queueNs = 0;    ///< server: submit -> worker pickup
    std::uint64_t execNs = 0;     ///< server: consult + solve
    std::uint64_t latencyNs = 0;  ///< server: submit -> completion
    /** Server-assigned psitrace tag (0 = tracing disabled): the tag
     *  every server-side span of this request carries, so a client
     *  can stitch its own observations onto the server timeline. */
    std::uint64_t traceTag = 0;

    /** True when the job reached an engine (statistics are valid). */
    bool
    ran() const
    {
        return status == WireStatus::Ok ||
               status == WireStatus::StepLimit ||
               status == WireStatus::Timeout;
    }
};

struct StatsMsg
{};

struct StatsReplyMsg
{
    std::string json; ///< metrics::Registry::json() of the peer
};

struct DrainMsg
{};

struct DrainAckMsg
{};

/** HELLO body: the client's protocol version and feature bits. */
struct HelloMsg
{
    std::uint32_t versionMajor = kProtocolMajor;
    std::uint32_t versionMinor = kProtocolMinor;
    std::uint64_t features = kSupportedFeatures;
};

/** HELLO_ACK body: the server's version and the agreed features. */
struct HelloAckMsg
{
    std::uint32_t versionMajor = kProtocolMajor;
    std::uint32_t versionMinor = kProtocolMinor;
    std::uint64_t features = 0; ///< offered AND supported
};

/** ERROR body: a structured refusal (the connection closes after). */
struct ErrorMsg
{
    std::uint32_t code = 0; ///< kErr* constant
    std::string message;    ///< human-readable detail
};

struct TraceMsg
{};

struct TraceReplyMsg
{
    std::string json; ///< trace::chromeJson() of the server's spans
};

struct MetricsMsg
{};

struct MetricsReplyMsg
{
    std::string text; ///< Prometheus text exposition
};

using Message =
    std::variant<SubmitMsg, ResultMsg, StatsMsg, StatsReplyMsg,
                 DrainMsg, DrainAckMsg, HelloMsg, HelloAckMsg,
                 ErrorMsg, TraceMsg, TraceReplyMsg, MetricsMsg,
                 MetricsReplyMsg>;

MsgType messageType(const Message &msg);

/** Encode @p msg as one complete frame (header + payload). */
std::string encode(const Message &msg);

/** Outcome of scanning a receive buffer for one frame. */
enum class FrameResult : std::uint8_t
{
    Frame,    ///< one payload extracted and consumed
    NeedMore, ///< incomplete; buffer untouched, read more bytes
    Bad,      ///< oversized or empty frame announced: drop the peer
};

/**
 * Cut one complete frame's payload off the front of @p buffer.
 * On Frame, @p payload holds the type byte + body and the frame is
 * consumed from @p buffer; otherwise @p buffer is left untouched.
 */
FrameResult extractFrame(std::string &buffer, std::string &payload);

/**
 * Decode one frame payload.
 * @return the message, or std::nullopt with @p error set when the
 *         payload is truncated, trailing-garbage or of unknown type.
 */
std::optional<Message> decode(std::string_view payload,
                              std::string *error = nullptr);

/** Build the RESULT for a finished pool job. */
ResultMsg resultFromOutcome(std::uint64_t tag,
                            const service::JobOutcome &outcome);

} // namespace net
} // namespace psi

#endif // PSI_NET_WIRE_HPP
