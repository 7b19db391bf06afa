#include "net/faultnet.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <vector>

#include "base/logging.hpp"
#include "base/strutil.hpp"
#include "net/conn.hpp"

namespace psi {
namespace net {

namespace {

using clock_type = std::chrono::steady_clock;

bool
parseProb(const std::string &value, double *out)
{
    char *end = nullptr;
    double v = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0' || v < 0.0 || v > 1.0)
        return false;
    *out = v;
    return true;
}

bool
parseU64Field(const std::string &value, std::uint64_t *out)
{
    if (value.empty())
        return false;
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(value.c_str(), &end, 10);
    if (end == value.c_str() || *end != '\0' || errno == ERANGE)
        return false;
    *out = v;
    return true;
}

} // namespace

// ---------------------------------------------------------------------
// FaultSchedule
// ---------------------------------------------------------------------

std::optional<FaultSchedule>
FaultSchedule::parse(const std::string &spec, std::string *error)
{
    auto fail = [&](const std::string &what) {
        if (error)
            *error = what;
        return std::nullopt;
    };

    FaultSchedule schedule;
    for (const std::string &field : strutil::split(spec, ',')) {
        std::string part = strutil::trim(field);
        if (part.empty())
            continue;
        std::size_t eq = part.find('=');
        if (eq == std::string::npos)
            return fail("fault schedule: '" + part +
                        "' is not key=value");
        std::string key = part.substr(0, eq);
        std::string value = part.substr(eq + 1);

        if (key == "seed") {
            if (!parseU64Field(value, &schedule.seed))
                return fail("fault schedule: bad seed '" + value +
                            "'");
        } else if (key == "split") {
            if (!parseProb(value, &schedule.splitProb))
                return fail("fault schedule: split wants a "
                            "probability in [0,1], got '" +
                            value + "'");
        } else if (key == "coalesce") {
            if (!parseProb(value, &schedule.coalesceProb))
                return fail("fault schedule: coalesce wants a "
                            "probability in [0,1], got '" +
                            value + "'");
        } else if (key == "delay_us") {
            std::size_t dots = value.find("..");
            std::string lo = dots == std::string::npos
                                 ? value
                                 : value.substr(0, dots);
            std::string hi = dots == std::string::npos
                                 ? value
                                 : value.substr(dots + 2);
            if (!parseU64Field(lo, &schedule.delayMinUs) ||
                !parseU64Field(hi, &schedule.delayMaxUs) ||
                schedule.delayMaxUs < schedule.delayMinUs)
                return fail("fault schedule: delay_us wants "
                            "N or A..B with A <= B, got '" +
                            value + "'");
        } else if (key == "reset_after") {
            if (!parseU64Field(value, &schedule.resetAfterBytes) ||
                schedule.resetAfterBytes == 0)
                return fail("fault schedule: reset_after wants a "
                            "positive byte count, got '" +
                            value + "'");
        } else {
            return fail("fault schedule: unknown key '" + key +
                        "' (known: seed, split, coalesce, "
                        "delay_us, reset_after)");
        }
    }
    return schedule;
}

std::string
FaultSchedule::str() const
{
    std::ostringstream os;
    os << "seed=" << seed;
    if (splitProb > 0)
        os << ",split=" << splitProb;
    if (coalesceProb > 0)
        os << ",coalesce=" << coalesceProb;
    if (delayMaxUs > 0)
        os << ",delay_us=" << delayMinUs << ".." << delayMaxUs;
    if (resetAfterBytes > 0)
        os << ",reset_after=" << resetAfterBytes;
    return os.str();
}

// ---------------------------------------------------------------------
// FaultProxy
// ---------------------------------------------------------------------

FaultProxy::FaultProxy(std::string upstreamHost,
                       std::uint16_t upstreamPort,
                       FaultSchedule schedule)
    : _upstreamHost(std::move(upstreamHost)),
      _upstreamPort(upstreamPort),
      _schedule(schedule),
      _rng(schedule.seed)
{}

FaultProxy::~FaultProxy()
{
    stop();
}

bool
FaultProxy::start(std::string *error)
{
    // Resolve once: the relay thread dials without waiting on DNS.
    if (!resolve(_upstreamHost, 0, _upstream, error) ||
        !_wake.open(error) ||
        !_listener.open("127.0.0.1", 0, false, error)) {
        _wake.close();
        if (error)
            *error = "faultnet: " + *error;
        return false;
    }
    _stop.store(false, std::memory_order_release);
    _thread = std::thread([this] { relayMain(); });
    return true;
}

void
FaultProxy::setUpstream(std::uint16_t upstreamPort)
{
    _upstreamPort.store(upstreamPort, std::memory_order_release);
}

void
FaultProxy::stop()
{
    if (!_thread.joinable())
        return;
    _stop.store(true, std::memory_order_release);
    _wake.notify();
    _thread.join();
    for (auto &entry : _pairs) {
        closeFd(entry.second.client.fd);
        closeFd(entry.second.upstream.fd);
    }
    _pairs.clear();
    _listener.close();
    _wake.close();
}

FaultStats
FaultProxy::stats() const
{
    std::lock_guard<std::mutex> lock(_statsMutex);
    return _stats;
}

void
FaultProxy::hardClose(int fd)
{
    if (fd < 0)
        return;
    // SO_LINGER with zero timeout turns close() into an RST: the
    // peer observes ECONNRESET, not an orderly FIN.
    linger lg{1, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
    ::close(fd);
}

void
FaultProxy::acceptOne()
{
    _listener.acceptAll([this](int cfd) {
        Peer upstream = _upstream;
        upstream.port = static_cast<std::uint16_t>(
            _upstreamPort.load(std::memory_order_acquire));
        int ufd = dial(upstream);
        bool dialed = ufd >= 0;
        {
            std::lock_guard<std::mutex> lock(_statsMutex);
            ++_stats.connections;
            if (!dialed)
                ++_stats.upstreamFailed;
        }
        if (!dialed || !setNonBlocking(ufd)) {
            // No server behind the proxy: the client sees an
            // immediate close, which its retry policy treats as a
            // transient connection failure.
            closeFd(ufd);
            ::close(cfd);
            return;
        }

        Pair pair;
        pair.client.fd = cfd;
        pair.upstream.fd = ufd;
        _pairs.emplace(_nextPairId++, std::move(pair));
    });
}

/**
 * Mutate @p chunk per the schedule and append it to @p to's delivery
 * queue as one or more timed segments.
 */
void
FaultProxy::scheduleChunk(Leg &to, std::string chunk)
{
    auto now = clock_type::now();
    auto delay = [&]() {
        return std::chrono::microseconds(_rng.range(
            _schedule.delayMinUs, _schedule.delayMaxUs));
    };

    {
        std::lock_guard<std::mutex> lock(_statsMutex);
        _stats.bytesForwarded += chunk.size();
    }
    _sinceReset += chunk.size();

    bool delayed = _schedule.delayMaxUs > 0;
    if (delayed) {
        std::lock_guard<std::mutex> lock(_statsMutex);
        ++_stats.delays;
    }

    // Coalesce: glue onto the last not-yet-released segment so this
    // chunk and its neighbor arrive in one recv() at the far side.
    if (_schedule.coalesceProb > 0 &&
        _rng.unit() < _schedule.coalesceProb && !to.out.empty() &&
        to.out.back().releaseAt > now) {
        to.out.back().bytes.append(chunk);
        std::lock_guard<std::mutex> lock(_statsMutex);
        ++_stats.coalesces;
        return;
    }

    // Split: chop into a few pieces released a hair apart, so the
    // far side reassembles the frame across many tiny recv()s.
    if (_schedule.splitProb > 0 && chunk.size() > 1 &&
        _rng.unit() < _schedule.splitProb) {
        std::uint64_t pieces =
            _rng.range(2, chunk.size() < 8 ? chunk.size() : 8);
        auto releaseAt = now + delay();
        std::size_t off = 0;
        for (std::uint64_t p = 0; p < pieces && off < chunk.size();
             ++p) {
            std::size_t rest = chunk.size() - off;
            std::size_t take =
                p + 1 == pieces
                    ? rest
                    : static_cast<std::size_t>(_rng.range(
                          1, rest - (pieces - 1 - p)));
            Leg::Segment seg;
            seg.bytes = chunk.substr(off, take);
            seg.releaseAt = releaseAt;
            releaseAt += std::chrono::microseconds(
                _rng.range(50, 300));
            to.out.push_back(std::move(seg));
            off += take;
        }
        std::lock_guard<std::mutex> lock(_statsMutex);
        ++_stats.splits;
        return;
    }

    Leg::Segment seg;
    seg.bytes = std::move(chunk);
    seg.releaseAt = delayed ? now + delay() : now;
    to.out.push_back(std::move(seg));
}

/** Read whatever @p from's socket has and schedule it toward @p to.
 *  @return false when the pair should start closing. */
bool
FaultProxy::pump(Leg &from, Leg &to)
{
    char chunk[64 * 1024];
    for (;;) {
        ssize_t n = ::recv(from.fd, chunk, sizeof(chunk), 0);
        if (n > 0) {
            scheduleChunk(to, std::string(
                                  chunk, static_cast<std::size_t>(n)));
            if (n < static_cast<ssize_t>(sizeof(chunk)))
                return true;
            continue;
        }
        if (n == 0) {
            from.eof = true;
            return false;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            return true;
        if (errno == EINTR)
            continue;
        from.eof = true;
        return false;
    }
}

/** Deliver released segments. @return false on a dead socket. */
bool
FaultProxy::flushLeg(Leg &leg)
{
    auto now = clock_type::now();
    while (!leg.out.empty()) {
        Leg::Segment &seg = leg.out.front();
        if (seg.releaseAt > now)
            return true; // not yet due
        while (seg.off < seg.bytes.size()) {
            ssize_t n = ::send(leg.fd, seg.bytes.data() + seg.off,
                               seg.bytes.size() - seg.off,
                               MSG_NOSIGNAL);
            if (n > 0) {
                seg.off += static_cast<std::size_t>(n);
                continue;
            }
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return true;
            if (errno == EINTR)
                continue;
            return false;
        }
        leg.out.pop_front();
    }
    return true;
}

/** Truncate whatever is in flight and hard-reset both sockets. */
void
FaultProxy::injectReset(Pair &pair)
{
    std::uint64_t dropped = 0;
    for (Leg *leg : {&pair.client, &pair.upstream}) {
        for (const Leg::Segment &seg : leg->out) {
            // Deliver a random prefix of the first pending segment
            // so the victim sees a frame cut off mid-body, then
            // nothing but the reset.
            if (&seg == &leg->out.front() && seg.off == 0 &&
                !seg.bytes.empty()) {
                std::size_t keep = static_cast<std::size_t>(
                    _rng.below(seg.bytes.size()));
                if (keep > 0)
                    [[maybe_unused]] ssize_t n =
                        ::send(leg->fd, seg.bytes.data(), keep,
                               MSG_NOSIGNAL);
                dropped += seg.bytes.size() - keep;
            } else {
                dropped += seg.bytes.size() - seg.off;
            }
        }
        leg->out.clear();
    }
    hardClose(pair.client.fd);
    hardClose(pair.upstream.fd);
    pair.client.fd = -1;
    pair.upstream.fd = -1;
    {
        std::lock_guard<std::mutex> lock(_statsMutex);
        ++_stats.resets;
        _stats.truncatedBytes += dropped;
    }
    _sinceReset = 0;
}

void
FaultProxy::relayMain()
{
    while (!_stop.load(std::memory_order_acquire)) {
        std::vector<pollfd> fds;
        std::vector<std::pair<std::uint64_t, bool>> slots; // id, isClient
        fds.push_back({_wake.readFd(), POLLIN, 0});
        fds.push_back({_listener.fd(), POLLIN, 0});

        auto now = clock_type::now();
        int timeoutMs = 100; // re-check stop / releases regardless
        auto due = [&](const Leg &leg) {
            if (leg.out.empty())
                return;
            auto waitMs =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    leg.out.front().releaseAt - now)
                    .count();
            int w = waitMs <= 0 ? 0 : static_cast<int>(waitMs) + 1;
            if (w < timeoutMs)
                timeoutMs = w;
        };

        for (auto &entry : _pairs) {
            Pair &pair = entry.second;
            for (bool isClient : {true, false}) {
                Leg &leg = isClient ? pair.client : pair.upstream;
                short events = 0;
                if (!leg.eof && !pair.closing)
                    events |= POLLIN;
                if (!leg.out.empty() &&
                    leg.out.front().releaseAt <= now)
                    events |= POLLOUT;
                due(leg);
                fds.push_back({leg.fd, events, 0});
                slots.push_back({entry.first, isClient});
            }
        }

        int ready = ::poll(fds.data(), fds.size(), timeoutMs);
        if (ready < 0 && errno != EINTR)
            break;

        if (fds[0].revents & POLLIN)
            _wake.drain();
        if (fds[1].revents & POLLIN)
            acceptOne();

        now = clock_type::now();
        std::vector<std::uint64_t> dead;
        for (std::size_t i = 0; i < slots.size(); ++i) {
            auto it = _pairs.find(slots[i].first);
            if (it == _pairs.end())
                continue;
            Pair &pair = it->second;
            if (pair.client.fd < 0) {
                dead.push_back(it->first); // reset already fired
                continue;
            }
            Leg &leg = slots[i].second ? pair.client : pair.upstream;
            Leg &other = slots[i].second ? pair.upstream : pair.client;
            short revents = fds[i + 2].revents;

            if ((revents & POLLIN) && !pair.closing) {
                // Bytes read off this socket are delivered to the
                // *other* side of the pair.
                if (!pump(leg, other))
                    pair.closing = true;
            }
            if (revents & (POLLERR | POLLNVAL))
                pair.closing = true;
            if ((revents & POLLHUP) && !(revents & POLLIN))
                pair.closing = true;

            // A scheduled reset fires on the forwarded-byte budget.
            if (_schedule.resetAfterBytes > 0 &&
                _sinceReset >= _schedule.resetAfterBytes) {
                injectReset(pair);
                dead.push_back(it->first);
                continue;
            }

            if (pair.closing) {
                // Flush everything still pending without further
                // delay, then let the drain below close the pair.
                for (Leg *l : {&pair.client, &pair.upstream})
                    for (Leg::Segment &seg : l->out)
                        seg.releaseAt = now;
            }
            if (!flushLeg(leg) || !flushLeg(other))
                pair.closing = true;
            if (pair.closing && pair.client.out.empty() &&
                pair.upstream.out.empty())
                dead.push_back(it->first);
        }

        for (std::uint64_t id : dead) {
            auto it = _pairs.find(id);
            if (it == _pairs.end())
                continue;
            closeFd(it->second.client.fd);
            closeFd(it->second.upstream.fd);
            _pairs.erase(it);
        }
    }
}

} // namespace net
} // namespace psi
