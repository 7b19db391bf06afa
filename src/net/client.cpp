#include "net/client.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "base/logging.hpp"
#include "base/trace.hpp"
#include "net/conn.hpp"

namespace psi {
namespace net {

namespace {

void
setError(std::string *error, const std::string &what)
{
    if (error)
        *error = what;
}

} // namespace

PsiClient::~PsiClient()
{
    close();
}

void
PsiClient::close()
{
    int fd = _fd.exchange(-1, std::memory_order_acq_rel);
    if (fd >= 0)
        ::close(fd);
    _sendFailed.store(false, std::memory_order_release);
    _rbuf.clear();
    _pending.clear();
}

void
PsiClient::setRetryPolicy(const RetryPolicy &policy)
{
    _policy = policy;
    if (_policy.maxAttempts == 0)
        _policy.maxAttempts = 1;
    if (_policy.connectAttempts == 0)
        _policy.connectAttempts = 1;
}

std::uint64_t
PsiClient::backoffSleep(Backoff &backoff, std::uint64_t capNs)
{
    std::uint64_t delay = backoff.nextDelayNs();
    if (delay > capNs)
        delay = capNs;
    if (delay > 0)
        std::this_thread::sleep_for(std::chrono::nanoseconds(delay));
    _retryStats.backoffNs += delay;
    return delay;
}

bool
PsiClient::connect(const std::string &host, std::uint16_t port,
                   std::string *error)
{
    _host = host;
    _port = port;

    Backoff backoff({.baseNs = _policy.backoffBaseNs,
                     .maxNs = _policy.backoffMaxNs,
                     .seed = _policy.seed + _retryStats.connectDials});
    std::string lastError;
    for (unsigned attempt = 1;; ++attempt) {
        ++_retryStats.connectDials;
        if (connectOnce(host, port, &lastError))
            return true;
        if (attempt >= _policy.connectAttempts)
            break;
        ++_retryStats.connectRetries;
        backoffSleep(backoff, UINT64_MAX);
    }
    setError(error, lastError + " (after " +
                        std::to_string(_policy.connectAttempts) +
                        (_policy.connectAttempts == 1 ? " attempt)"
                                                      : " attempts)"));
    return false;
}

bool
PsiClient::connectOnce(const std::string &host, std::uint16_t port,
                       std::string *error)
{
    close();
    Peer peer;
    if (!resolve(host, port, peer, error))
        return false;
    int fd = dial(peer);
    if (fd < 0) {
        setError(error, "connect " + host + ":" + std::to_string(port) +
                            ": " + std::strerror(errno));
        return false;
    }
    _fd.store(fd, std::memory_order_release);
    return true;
}

bool
PsiClient::sendAll(const std::string &bytes, std::string *error)
{
    int fd = _fd.load(std::memory_order_acquire);
    if (fd < 0 || _sendFailed.load(std::memory_order_acquire)) {
        setError(error, "not connected");
        return false;
    }
    std::size_t off = 0;
    while (off < bytes.size()) {
        ssize_t n = ::send(fd, bytes.data() + off,
                           bytes.size() - off, MSG_NOSIGNAL);
        if (n > 0) {
            off += static_cast<std::size_t>(n);
            continue;
        }
        if (errno == EINTR)
            continue;
        setError(error,
                 std::string("send: ") + std::strerror(errno));
        // Don't close() from the sender half: the receiver thread may
        // be reading _rbuf / polling _fd right now.  Shut the socket
        // down so the receiver observes EOF and does the teardown.
        _sendFailed.store(true, std::memory_order_release);
        ::shutdown(fd, SHUT_RDWR);
        return false;
    }
    return true;
}

std::optional<Message>
PsiClient::recvMessage(int timeoutMs, std::string *error)
{
    int fd = _fd.load(std::memory_order_acquire);
    if (fd < 0) {
        setError(error, "not connected");
        return std::nullopt;
    }

    using clock = std::chrono::steady_clock;
    auto deadline = clock::now() + std::chrono::milliseconds(
                                       timeoutMs < 0 ? 0 : timeoutMs);

    std::string payload;
    // Client-side decode span: ioStartNs re-stamps after every poll
    // wake-up, so it covers recv + frame extraction + decode of the
    // message but never the idle wait for the server (that interval
    // belongs to the server's own spans on the shared timeline).
    std::uint64_t ioStartNs =
        trace::enabled() ? trace::nowNs() : 0;
    for (;;) {
        switch (extractFrame(_rbuf, payload)) {
          case FrameResult::Frame: {
            std::string derror;
            std::optional<Message> msg = decode(payload, &derror);
            if (!msg) {
                setError(error, "protocol error: " + derror);
                close();
            } else if (ioStartNs != 0) {
                if (auto *r = std::get_if<ResultMsg>(&*msg);
                    r != nullptr && r->traceTag != 0)
                    trace::record(trace::Stage::Decode, r->traceTag,
                                  ioStartNs, trace::nowNs());
            }
            return msg;
          }
          case FrameResult::Bad:
            setError(error, "protocol error: bad frame from server");
            close();
            return std::nullopt;
          case FrameResult::NeedMore:
            break;
        }

        int wait = -1;
        if (timeoutMs >= 0) {
            auto left =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    deadline - clock::now())
                    .count();
            if (left <= 0) {
                setError(error, "timed out waiting for reply");
                return std::nullopt;
            }
            wait = static_cast<int>(left);
        }

        pollfd pfd{fd, POLLIN, 0};
        int ready = ::poll(&pfd, 1, wait);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            setError(error,
                     std::string("poll: ") + std::strerror(errno));
            close();
            return std::nullopt;
        }
        if (ready == 0) {
            setError(error, "timed out waiting for reply");
            return std::nullopt;
        }

        if (ioStartNs != 0)
            ioStartNs = trace::nowNs(); // wait is over; restart span

        char chunk[64 * 1024];
        ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n > 0) {
            _rbuf.append(chunk, static_cast<std::size_t>(n));
        } else if (n == 0) {
            setError(error, "connection closed by server");
            close();
            return std::nullopt;
        } else if (errno != EINTR) {
            setError(error,
                     std::string("recv: ") + std::strerror(errno));
            close();
            return std::nullopt;
        }
    }
}

bool
PsiClient::sendSubmit(const std::string &workload,
                      std::uint64_t deadlineNs,
                      std::uint64_t *tagOut, std::string *error,
                      const std::string &tenant,
                      interp::ExecMode mode)
{
    SubmitBuilder builder(_nextTag++, workload);
    builder.deadlineNs(deadlineNs).tenant(tenant);
    // Fidelity requests keep the v2.1 two-field form so pre-v2.2
    // servers (which reject trailing bytes) interop unchanged; only
    // a fast request needs the mode byte on the wire.
    if (mode != interp::ExecMode::Fidelity)
        builder.mode(mode);
    SubmitMsg msg = std::move(builder).build();
    if (tagOut)
        *tagOut = msg.tag;
    return sendAll(encode(Message(std::move(msg))), error);
}

std::optional<ResultMsg>
PsiClient::recvResult(int timeoutMs, std::string *error)
{
    if (!_pending.empty()) {
        ResultMsg result = std::move(_pending.front());
        _pending.pop_front();
        return result;
    }
    std::optional<Message> msg = recvMessage(timeoutMs, error);
    if (!msg)
        return std::nullopt;
    if (auto *result = std::get_if<ResultMsg>(&*msg))
        return std::move(*result);
    setError(error, "unexpected reply (wanted RESULT)");
    close();
    return std::nullopt;
}

std::optional<ResultMsg>
PsiClient::submit(const Request &request, const RetryPolicy *retry,
                  std::string *error)
{
    if (retry == nullptr)
        return submitOnce(request, error);
    RetryPolicy policy = *retry;
    if (policy.maxAttempts == 0)
        policy.maxAttempts = 1;
    if (policy.connectAttempts == 0)
        policy.connectAttempts = 1;
    return submitWithRetry(request, policy, error);
}

std::optional<ResultMsg>
PsiClient::submitOnce(const Request &request, std::string *error)
{
    std::uint64_t tag = 0;
    if (!sendSubmit(request.workload, request.deadlineNs, &tag, error,
                    request.tenant, request.mode))
        return std::nullopt;
    for (;;) {
        std::optional<ResultMsg> result =
            recvResult(request.timeoutMs, error);
        if (!result)
            return std::nullopt;
        if (result->tag == tag)
            return result;
        // An earlier pipelined reply; park it for recvResult().
        _pending.push_back(std::move(*result));
    }
}

std::optional<ResultMsg>
PsiClient::submitWithRetry(const Request &request,
                           const RetryPolicy &policy,
                           std::string *error)
{
    using clock = std::chrono::steady_clock;
    const std::uint64_t deadlineNs = request.deadlineNs;
    const auto start = clock::now();
    auto elapsedNs = [&] {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                clock::now() - start)
                .count());
    };

    Backoff backoff({.baseNs = policy.backoffBaseNs,
                     .maxNs = policy.backoffMaxNs,
                     .seed = policy.seed + _nextTag});
    std::string lastError = "not connected";

    for (unsigned attempt = 1; attempt <= policy.maxAttempts;
         ++attempt) {
        std::uint64_t spent = elapsedNs();
        if (deadlineNs != 0 && spent >= deadlineNs)
            break; // budget gone: never retry past the deadline

        if (attempt > 1)
            backoffSleep(backoff, deadlineNs == 0
                                      ? UINT64_MAX
                                      : deadlineNs - spent);

        // Reconnect if the previous attempt killed the connection.
        if (!connected()) {
            if (_host.empty()) {
                setError(error, "not connected (no prior connect())");
                return std::nullopt;
            }
            ++_retryStats.connectDials;
            if (!connectOnce(_host, _port, &lastError))
                continue; // dial refused: next attempt, more backoff
            if (attempt > 1)
                ++_retryStats.reconnects;
        }

        // Each attempt runs under the *remaining* budget and a fresh
        // tag; any RESULT still echoing a superseded tag is a
        // duplicate and must be dropped, not delivered.
        spent = elapsedNs();
        if (deadlineNs != 0 && spent >= deadlineNs)
            break;
        std::uint64_t remainingNs =
            deadlineNs == 0 ? 0 : deadlineNs - spent;

        std::uint64_t tag = 0;
        if (!sendSubmit(request.workload, remainingNs, &tag,
                        &lastError, request.tenant, request.mode))
            continue; // send failed: connection is dead, retry
        if (attempt > 1)
            ++_retryStats.resubmits;

        for (;;) {
            int waitMs = request.timeoutMs;
            if (deadlineNs != 0) {
                std::uint64_t el = elapsedNs();
                std::uint64_t left =
                    el >= deadlineNs ? 0 : deadlineNs - el;
                int leftMs =
                    static_cast<int>(left / 1'000'000u) + 1;
                if (waitMs < 0 || leftMs < waitMs)
                    waitMs = leftMs;
            }
            std::optional<ResultMsg> result =
                recvResult(waitMs, &lastError);
            if (!result) {
                if (connected()) {
                    // A live connection timed out: the request is
                    // still in flight; resubmitting could deliver
                    // its solutions twice.  Fail, don't retry.
                    if (deadlineNs != 0 &&
                        elapsedNs() >= deadlineNs)
                        break; // budget exhausted, stop retrying
                    setError(error,
                             "timed out with request in flight "
                             "(attempt " +
                                 std::to_string(attempt) + "): " +
                                 lastError);
                    return std::nullopt;
                }
                break; // connection died: unacknowledged, retry
            }
            if (result->tag != tag) {
                // Echo of a superseded attempt (or an unrelated
                // pipelined call, which this single-threaded API
                // does not support): drop it.
                ++_retryStats.duplicatesDropped;
                continue;
            }
            if (result->status == WireStatus::Overloaded) {
                ++_retryStats.overloadedRetries;
                backoff.raiseFloor(policy.overloadedFloorNs);
                lastError = "server overloaded: " + result->error;
                break; // retryable backpressure
            }
            if (result->status == WireStatus::Draining) {
                ++_retryStats.drainingRetries;
                lastError = "server draining: " + result->error;
                break; // retryable: a restarted server may be back
            }
            return result;
        }
    }

    ++_retryStats.exhausted;
    setError(error,
             "gave up after " + std::to_string(policy.maxAttempts) +
                 " attempts" +
                 (deadlineNs != 0 ? " (deadline budget)" : "") +
                 ": " + lastError);
    return std::nullopt;
}

template <typename... Replies>
std::optional<Message>
PsiClient::awaitReply(const Message &request, const char *wanted,
                      int timeoutMs, std::string *error)
{
    if (!sendAll(encode(request), error))
        return std::nullopt;
    for (;;) {
        std::optional<Message> msg = recvMessage(timeoutMs, error);
        if (!msg)
            return std::nullopt;
        if ((std::holds_alternative<Replies>(*msg) || ...))
            return msg;
        if (auto *result = std::get_if<ResultMsg>(&*msg)) {
            _pending.push_back(std::move(*result));
            continue; // pipelined RESULT passing by
        }
        setError(error, std::string("unexpected reply (wanted ") +
                            wanted + ")");
        close();
        return std::nullopt;
    }
}

std::optional<std::string>
PsiClient::stats(int timeoutMs, std::string *error)
{
    std::optional<Message> reply = awaitReply<StatsReplyMsg>(
        StatsMsg{}, "STATS_REPLY", timeoutMs, error);
    if (!reply)
        return std::nullopt;
    return std::move(std::get<StatsReplyMsg>(*reply).json);
}

std::optional<HelloAckMsg>
PsiClient::hello(std::uint64_t features, int timeoutMs,
                 std::string *error)
{
    HelloMsg msg;
    msg.features = features;
    std::optional<Message> reply = awaitReply<HelloAckMsg, ErrorMsg>(
        msg, "HELLO_ACK", timeoutMs, error);
    if (!reply)
        return std::nullopt;
    if (auto *err = std::get_if<ErrorMsg>(&*reply)) {
        setError(error, "server rejected hello (code " +
                            std::to_string(err->code) + "): " +
                            err->message);
        close();
        return std::nullopt;
    }
    return std::move(std::get<HelloAckMsg>(*reply));
}

std::optional<std::string>
PsiClient::traceJson(int timeoutMs, std::string *error)
{
    std::optional<Message> reply = awaitReply<TraceReplyMsg>(
        TraceMsg{}, "TRACE_REPLY", timeoutMs, error);
    if (!reply)
        return std::nullopt;
    return std::move(std::get<TraceReplyMsg>(*reply).json);
}

std::optional<std::string>
PsiClient::metricsText(int timeoutMs, std::string *error)
{
    std::optional<Message> reply = awaitReply<MetricsReplyMsg>(
        MetricsMsg{}, "METRICS_REPLY", timeoutMs, error);
    if (!reply)
        return std::nullopt;
    return std::move(std::get<MetricsReplyMsg>(*reply).text);
}

bool
PsiClient::drain(int timeoutMs, std::string *error)
{
    return awaitReply<DrainAckMsg>(DrainMsg{}, "DRAIN_ACK", timeoutMs,
                                   error)
        .has_value();
}

} // namespace net
} // namespace psi
