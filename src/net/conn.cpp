#include "net/conn.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace psi {
namespace net {

bool
setNonBlocking(int fd)
{
    int flags = ::fcntl(fd, F_GETFL, 0);
    return flags >= 0 &&
           ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

bool
prepareStream(int fd)
{
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return setNonBlocking(fd);
}

void
closeFd(int &fd)
{
    if (fd >= 0) {
        ::close(fd);
        fd = -1;
    }
}

std::uint64_t
nsSince(std::chrono::steady_clock::time_point from)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - from)
            .count());
}

bool
resolve(const std::string &host, std::uint16_t port, Peer &out,
        std::string *error)
{
    addrinfo hints{};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo *result = nullptr;
    int rc = ::getaddrinfo(host.c_str(), nullptr, &hints, &result);
    if (rc != 0) {
        if (error)
            *error = "resolve " + host + ": " + ::gai_strerror(rc);
        return false;
    }
    out.ip = reinterpret_cast<const sockaddr_in *>(result->ai_addr)
                 ->sin_addr.s_addr;
    out.port = port;
    ::freeaddrinfo(result);
    return true;
}

int
dial(const Peer &peer, bool *inProgress)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(peer.port);
    addr.sin_addr.s_addr = peer.ip;
    if ((inProgress == nullptr || setNonBlocking(fd)) &&
        ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) == 0) {
        if (inProgress)
            *inProgress = false;
        return fd;
    }
    if (inProgress && errno == EINPROGRESS) {
        *inProgress = true;
        return fd;
    }
    int err = errno;
    ::close(fd);
    errno = err;
    return -1;
}

Message
answerHello(const HelloMsg &hello, std::uint64_t features,
            const char *name)
{
    // v1 peers (which never send HELLO) stay wire-compatible, so a
    // v1 HELLO is accepted too; minor versions and unknown feature
    // bits never cause rejection.
    if (hello.versionMajor == 1 ||
        hello.versionMajor == kProtocolMajor)
        return HelloAckMsg{kProtocolMajor, kProtocolMinor,
                           hello.features & features};
    return ErrorMsg{kErrUnsupportedVersion,
                    "unsupported protocol major " +
                        std::to_string(hello.versionMajor) + "; " +
                        name + " speaks " +
                        std::to_string(kProtocolMajor) +
                        " (and accepts 1)"};
}

bool
Listener::open(const std::string &bindAddr, std::uint16_t port,
               bool reusePort, std::string *error)
{
    auto fail = [&](const std::string &what) {
        if (error)
            *error = what + ": " + std::strerror(errno);
        close();
        return false;
    };

    _fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (_fd < 0)
        return fail("socket");
    int one = 1;
    ::setsockopt(_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (reusePort &&
        ::setsockopt(_fd, SOL_SOCKET, SO_REUSEPORT, &one,
                     sizeof(one)) != 0)
        return fail("setsockopt(SO_REUSEPORT)");

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, bindAddr.c_str(), &addr.sin_addr) != 1) {
        if (error)
            *error = "bad bind address '" + bindAddr + "'";
        close();
        return false;
    }
    if (::bind(_fd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0)
        return fail("bind " + bindAddr + ":" + std::to_string(port));
    if (::listen(_fd, 128) != 0)
        return fail("listen");
    if (!setNonBlocking(_fd))
        return fail("fcntl(listener)");

    socklen_t len = sizeof(addr);
    if (::getsockname(_fd, reinterpret_cast<sockaddr *>(&addr),
                      &len) != 0)
        return fail("getsockname");
    _port = ntohs(addr.sin_port);
    return true;
}

int
Listener::acceptAll(const std::function<void(int fd)> &onAccept)
{
    for (;;) {
        int fd = ::accept(_fd, nullptr, nullptr);
        if (fd < 0)
            return errno == EAGAIN || errno == EWOULDBLOCK ||
                           errno == EINTR
                       ? 0
                       : errno;
        if (prepareStream(fd))
            onAccept(fd);
        else
            ::close(fd);
    }
}

bool
WakePipe::open(std::string *error)
{
    int fds[2];
    if (::pipe(fds) == 0) {
        _read = fds[0];
        _write = fds[1];
        if (setNonBlocking(_read) && setNonBlocking(_write))
            return true;
    }
    if (error)
        *error = std::string(_read < 0 ? "pipe" : "fcntl(wake pipe)") +
                 ": " + std::strerror(errno);
    close();
    return false;
}

void
WakePipe::close()
{
    closeFd(_read);
    closeFd(_write);
}

void
WakePipe::notify() const
{
    if (_write >= 0) {
        char byte = 'w';
        [[maybe_unused]] ssize_t n = ::write(_write, &byte, 1);
    }
}

void
WakePipe::drain() const
{
    char buf[256];
    while (::read(_read, buf, sizeof(buf)) > 0) {
    }
}

void
FramedConn::reset(int fd)
{
    closeFd(_fd);
    _fd = fd;
    _rbuf.clear();
    _wbuf.clear();
    _woff = 0;
}

bool
FramedConn::readAvailable()
{
    char chunk[64 * 1024];
    for (;;) {
        ssize_t n = ::recv(_fd, chunk, sizeof(chunk), 0);
        if (n > 0) {
            _rbuf.append(chunk, static_cast<std::size_t>(n));
            if (n < static_cast<ssize_t>(sizeof(chunk)))
                return true;
            continue;
        }
        if (n == 0)
            return false; // peer closed
        if (errno == EINTR)
            continue;
        return errno == EAGAIN || errno == EWOULDBLOCK;
    }
}

FramedConn::Next
FramedConn::next(Message &msg, std::string &error)
{
    switch (extractFrame(_rbuf, _payload)) {
      case FrameResult::NeedMore:
        return Next::NeedMore;
      case FrameResult::Bad:
        return Next::BadFrame;
      case FrameResult::Frame:
        break;
    }
    std::optional<Message> decoded = decode(_payload, &error);
    if (!decoded)
        return Next::BadPayload;
    msg = std::move(*decoded);
    return Next::Message;
}

bool
FramedConn::queue(const Message &msg, std::size_t limit)
{
    _wbuf.append(encode(msg));
    return _wbuf.size() - _woff <= limit;
}

bool
FramedConn::flush()
{
    if (_fd < 0)
        return false;
    while (_woff < _wbuf.size()) {
        ssize_t n = ::send(_fd, _wbuf.data() + _woff,
                           _wbuf.size() - _woff, MSG_NOSIGNAL);
        if (n > 0)
            _woff += static_cast<std::size_t>(n);
        else if (errno == EAGAIN || errno == EWOULDBLOCK)
            break;
        else if (errno != EINTR)
            return false;
    }
    if (_woff == _wbuf.size()) {
        _wbuf.clear();
        _woff = 0;
    } else if (_woff > (1u << 20)) {
        _wbuf.erase(0, _woff);
        _woff = 0;
    }
    return true;
}

} // namespace net
} // namespace psi
