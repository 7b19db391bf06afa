#include "net/wire.hpp"

#include <array>
#include <type_traits>
#include <utility>

#include "service/engine_pool.hpp"

namespace psi {
namespace net {

const char *
wireStatusName(WireStatus s)
{
    switch (s) {
      case WireStatus::Ok:              return "ok";
      case WireStatus::StepLimit:       return "step-limit";
      case WireStatus::Timeout:         return "timeout";
      case WireStatus::EngineError:     return "engine-error";
      case WireStatus::UnknownWorkload: return "unknown-workload";
      case WireStatus::Overloaded:      return "overloaded";
      case WireStatus::Draining:        return "draining";
    }
    return "?";
}

WireStatus
wireStatus(interp::RunStatus s)
{
    switch (s) {
      case interp::RunStatus::Ok:        return WireStatus::Ok;
      case interp::RunStatus::StepLimit: return WireStatus::StepLimit;
      case interp::RunStatus::Timeout:   return WireStatus::Timeout;
    }
    return WireStatus::EngineError;
}

namespace {

// The type byte is the Message variant index + 1, so the order of the
// variant's alternatives in wire.hpp is the wire numbering; this pins
// each MsgType to its alternative.
template <MsgType T, typename M>
constexpr bool kTypeIs = std::is_same_v<
    std::variant_alternative_t<static_cast<std::size_t>(T) - 1, Message>,
    M>;
static_assert(kTypeIs<MsgType::Submit, SubmitMsg> &&
              kTypeIs<MsgType::Result, ResultMsg> &&
              kTypeIs<MsgType::Stats, StatsMsg> &&
              kTypeIs<MsgType::StatsReply, StatsReplyMsg> &&
              kTypeIs<MsgType::Drain, DrainMsg> &&
              kTypeIs<MsgType::DrainAck, DrainAckMsg> &&
              kTypeIs<MsgType::Hello, HelloMsg> &&
              kTypeIs<MsgType::HelloAck, HelloAckMsg> &&
              kTypeIs<MsgType::Error, ErrorMsg> &&
              kTypeIs<MsgType::Trace, TraceMsg> &&
              kTypeIs<MsgType::TraceReply, TraceReplyMsg> &&
              kTypeIs<MsgType::Metrics, MetricsMsg> &&
              kTypeIs<MsgType::MetricsReply, MetricsReplyMsg> &&
              std::variant_size_v<Message> ==
                  static_cast<std::size_t>(MsgType::MetricsReply));

// ---------------------------------------------------------------------
// Writer and Reader: the two walkers of a layout
// ---------------------------------------------------------------------
// Integers are big-endian; strings, string lists and arrays carry a
// u32 count first, matrices their u32 rows and columns.  Both walkers
// offer the same calls, so one layout() per message serves encode and
// decode.

/** Appends each field to @p out. */
struct Writer
{
    std::string &out;
    bool tailOpen = true; ///< no SUBMIT tail field was absent yet

    void
    big(std::uint64_t v, int bytes)
    {
        for (int shift = 8 * (bytes - 1); shift >= 0; shift -= 8)
            out.push_back(static_cast<char>((v >> shift) & 0xff));
    }

    void u8(std::uint8_t v) { big(v, 1); }
    void u32(std::uint32_t v) { big(v, 4); }
    void u64(std::uint64_t v) { big(v, 8); }
    void count(std::size_t n) { u32(static_cast<std::uint32_t>(n)); }

    template <typename E>
    void
    enum8(E v, E = E{})
    {
        u8(static_cast<std::uint8_t>(v));
    }

    void
    str(const std::string &s)
    {
        count(s.size());
        out.append(s);
    }

    void
    strings(const std::vector<std::string> &v)
    {
        count(v.size());
        for (const std::string &s : v)
            str(s);
    }

    /** Encode a tail field only while every one before it was
     *  present: the encoder stops at the first absent field. */
    bool
    tail(bool present)
    {
        return tailOpen = tailOpen && present;
    }

    template <typename A>
    void
    array(const A &a)
    {
        count(a.size());
        for (std::uint64_t v : a)
            u64(v);
    }

    template <typename M>
    void
    matrix(const M &m)
    {
        count(m.size());
        count(std::tuple_size_v<typename M::value_type>);
        for (const auto &row : m)
            for (std::uint64_t v : row)
                u64(v);
    }
};

/** Fills each field from @p data, bounds-checked: the first read
 *  past the end, or the first value out of range, clears ok() and
 *  turns every later read into a no-op. */
class Reader
{
  public:
    explicit Reader(std::string_view data) : _data(data) {}

    bool ok() const { return _ok; }
    bool done() const { return _pos == _data.size(); }

    void u8(std::uint8_t &v) { v = static_cast<std::uint8_t>(big(1)); }
    void u32(std::uint32_t &v) { v = static_cast<std::uint32_t>(big(4)); }
    void u64(std::uint64_t &v) { v = big(8); }
    void count(std::size_t n) { check(big(4) == n); }

    /** Values above @p max are an error, not a silent fallback. */
    template <typename E>
    void
    enum8(E &v, E max = static_cast<E>(0xff))
    {
        const std::uint64_t b = big(1);
        check(b <= static_cast<std::uint8_t>(max));
        v = static_cast<E>(b);
    }

    void
    str(std::string &s)
    {
        const std::uint64_t n = big(4);
        if (check(n <= _data.size() - _pos)) {
            s.assign(_data.substr(_pos, n));
            _pos += n;
        }
    }

    void
    strings(std::vector<std::string> &v)
    {
        // An untrusted count: each string needs at least its 4-byte
        // length prefix, so more than remaining/4 cannot decode.
        // Checking before resize() keeps a tiny malicious frame from
        // forcing a multi-GB allocation.
        const std::uint64_t n = big(4);
        if (!check(n <= (_data.size() - _pos) / 4))
            return;
        v.resize(n);
        for (std::string &s : v)
            str(s);
    }

    /** A tail field is present while bytes remain; once the frame
     *  runs dry every later field is absent and keeps its default,
     *  which is what lets a re-encode reproduce the sender's bytes. */
    bool
    tail(bool &present)
    {
        return present = !done();
    }

    template <typename A>
    void
    array(A &a)
    {
        count(a.size());
        for (std::uint64_t &v : a)
            u64(v);
    }

    template <typename M>
    void
    matrix(M &m)
    {
        count(m.size());
        count(std::tuple_size_v<typename M::value_type>);
        for (auto &row : m)
            for (std::uint64_t &v : row)
                u64(v);
    }

  private:
    bool
    check(bool cond)
    {
        return _ok = _ok && cond;
    }

    /** The next @p bytes bytes as a big-endian integer (0 once a
     *  read has failed). */
    std::uint64_t
    big(std::size_t bytes)
    {
        if (!check(bytes <= _data.size() - _pos))
            return 0;
        std::uint64_t v = 0;
        for (std::size_t i = 0; i < bytes; ++i)
            v = (v << 8) | static_cast<std::uint8_t>(_data[_pos++]);
        return v;
    }

    std::string_view _data;
    std::size_t _pos = 0;
    bool _ok = true;
};

// ---------------------------------------------------------------------
// Message layouts: each body declared once, for both walkers
// ---------------------------------------------------------------------
// M is the message type, const when encoding.

template <typename M, typename... T>
concept Of = (std::is_same_v<std::remove_const_t<M>, T> || ...);

/** STATS, DRAIN, DRAIN_ACK, TRACE and METRICS: the type byte only.
 *  A message with fields needs its own layout below. */
template <typename IO, typename M>
void
layout(IO &, M &)
{
    static_assert(std::is_empty_v<M>, "message without a layout");
}

/** The SUBMIT body grew by appending one optional field per minor
 *  revision, and a frame is self-canonical: it ends after the last
 *  field its sender knew.  tail() enforces the prefix rule (a mode
 *  byte cannot ride without the tenant field before it); a v2.3
 *  field is one more tail() line. */
template <typename IO, Of<SubmitMsg> M>
void
layout(IO &io, M &m)
{
    io.u64(m.tag);
    io.str(m.workload);
    io.u64(m.deadlineNs);
    if (io.tail(m.hasTenant)) // v2.1: "" = the shared default tenant
        io.str(m.tenant);
    // v2.2: a mode this build does not implement must not run as
    // something else, so an unknown mode byte is a decode error.
    if (io.tail(m.hasMode))
        io.enum8(m.mode, interp::ExecMode::Fast);
}

template <typename IO, Of<ResultMsg> M>
void
layout(IO &io, M &m)
{
    io.u64(m.tag);
    io.enum8(m.status);
    io.str(m.error);
    io.strings(m.solutions);
    io.str(m.output);
    io.u64(m.inferences);
    io.u64(m.steps);
    io.u64(m.modelNs);
    io.u64(m.stallNs);
    io.array(m.seq.moduleSteps);
    io.array(m.seq.branchOps);
    io.matrix(m.seq.wfModes);
    io.array(m.seq.cacheSteps);
    io.matrix(m.cache.accesses);
    io.matrix(m.cache.hits);
    io.u64(m.cache.readIns);
    io.u64(m.cache.writeBacks);
    io.u64(m.cache.stackAllocs);
    io.u64(m.cache.throughWrites);
    io.u64(m.queueNs);
    io.u64(m.execNs);
    io.u64(m.latencyNs);
    io.u64(m.traceTag);
}

template <typename IO, Of<StatsReplyMsg, TraceReplyMsg> M>
void
layout(IO &io, M &m)
{
    io.str(m.json);
}

template <typename IO, Of<MetricsReplyMsg> M>
void
layout(IO &io, M &m)
{
    io.str(m.text);
}

template <typename IO, Of<HelloMsg, HelloAckMsg> M>
void
layout(IO &io, M &m)
{
    io.u32(m.versionMajor);
    io.u32(m.versionMinor);
    io.u64(m.features);
}

template <typename IO, Of<ErrorMsg> M>
void
layout(IO &io, M &m)
{
    io.u32(m.code);
    io.str(m.message);
}

template <typename T>
std::optional<Message>
decodeAs(Reader &r, std::string *error)
{
    std::optional<Message> out(std::in_place, std::in_place_type<T>);
    layout(r, std::get<T>(*out));
    const char *why = !r.ok()     ? "truncated message body"
                      : !r.done() ? "trailing bytes after message body"
                                  : nullptr;
    if (why == nullptr)
        return out;
    if (error)
        *error = why;
    return std::nullopt;
}

using Decoder = std::optional<Message> (*)(Reader &, std::string *);

/** decodeAs<T> for every alternative, indexed by type byte - 1. */
template <std::size_t... I>
constexpr std::array<Decoder, sizeof...(I)>
decoders(std::index_sequence<I...>)
{
    return {&decodeAs<std::variant_alternative_t<I, Message>>...};
}

constexpr auto kDecoders =
    decoders(std::make_index_sequence<std::variant_size_v<Message>>{});

} // namespace

MsgType
messageType(const Message &msg)
{
    return static_cast<MsgType>(msg.index() + 1);
}

std::string
encode(const Message &msg)
{
    // Reserve the length header, walk the payload, then fill it in.
    std::string frame(kFrameHeaderBytes, '\0');
    Writer w{frame};
    w.u8(static_cast<std::uint8_t>(messageType(msg)));
    std::visit([&w](const auto &m) { layout(w, m); }, msg);

    std::string header;
    Writer{header}.u32(
        static_cast<std::uint32_t>(frame.size() - kFrameHeaderBytes));
    frame.replace(0, kFrameHeaderBytes, header);
    return frame;
}

FrameResult
extractFrame(std::string &buffer, std::string &payload)
{
    if (buffer.size() < kFrameHeaderBytes)
        return FrameResult::NeedMore;
    std::uint32_t length = 0;
    Reader(buffer).u32(length);
    if (length == 0 || length > kMaxFramePayload)
        return FrameResult::Bad;
    if (buffer.size() < kFrameHeaderBytes + length)
        return FrameResult::NeedMore;
    payload.assign(buffer, kFrameHeaderBytes, length);
    buffer.erase(0, kFrameHeaderBytes + length);
    return FrameResult::Frame;
}

std::optional<Message>
decode(std::string_view payload, std::string *error)
{
    Reader r(payload);
    std::uint8_t type = 0;
    r.u8(type);
    if (!r.ok()) {
        if (error)
            *error = "empty payload";
        return std::nullopt;
    }
    if (type == 0 || type > kDecoders.size()) {
        if (error)
            *error = "unknown message type " + std::to_string(type);
        return std::nullopt;
    }
    return kDecoders[type - 1](r, error);
}

ResultMsg
resultFromOutcome(std::uint64_t tag,
                  const service::JobOutcome &outcome)
{
    ResultMsg msg;
    msg.tag = tag;
    if (!outcome.ok()) {
        msg.status = WireStatus::EngineError;
        msg.error = outcome.error;
    } else {
        msg.status = wireStatus(outcome.status());
    }

    const interp::RunResult &r = outcome.run.result;
    msg.solutions.reserve(r.solutions.size());
    for (const auto &s : r.solutions)
        msg.solutions.push_back(s.str());
    msg.output = r.output;
    msg.inferences = r.inferences;
    msg.steps = r.steps;
    msg.modelNs = r.timeNs;
    msg.stallNs = outcome.run.stallNs;
    msg.seq = outcome.run.seq;
    msg.cache = outcome.run.cache;
    msg.queueNs = outcome.queueNs;
    msg.execNs = outcome.execNs;
    msg.latencyNs = outcome.latencyNs;
    msg.traceTag = outcome.traceTag;
    return msg;
}

} // namespace net
} // namespace psi
