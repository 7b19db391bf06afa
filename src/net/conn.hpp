/**
 * @file
 * The connection layer of net::Frontend (the client side of
 * PsiServer and PsiRouter), the router's backend legs, FaultProxy and
 * PsiClient: the one place that resolves and dials a peer, listens,
 * accepts, wakes a poll loop, reads a non-blocking socket into frames
 * and flushes queued messages.  Nothing here logs or counts: the
 * front end (net/frontend.hpp) owns the poll loop, message handling,
 * log text and counters of both front ends' clients, and the proxy
 * keeps its own.  The classes are used on one loop thread, except
 * WakePipe::notify(); the free functions on any thread.
 */

#ifndef PSI_NET_CONN_HPP
#define PSI_NET_CONN_HPP

#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>

#include "net/wire.hpp"

namespace psi {
namespace net {

bool setNonBlocking(int fd);
/** O_NONBLOCK plus TCP_NODELAY; false when fcntl fails. */
bool prepareStream(int fd);
/** Close @p fd when open and set it to -1. */
void closeFd(int &fd);
std::uint64_t nsSince(std::chrono::steady_clock::time_point from);

/** A resolved IPv4 TCP peer. */
struct Peer
{
    std::uint32_t ip = 0;   ///< network byte order
    std::uint16_t port = 0; ///< host byte order
};

/** Resolve @p host, a dotted quad or a host name, to its first IPv4
 *  address; false with @p error set to "resolve HOST: reason".  May
 *  block on DNS, so poll loops resolve once, before they run. */
bool resolve(const std::string &host, std::uint16_t port, Peer &out,
             std::string *error);

/**
 * Open a TCP_NODELAY socket to @p peer and connect it: blocking, or
 * non-blocking when @p inProgress is given, where *inProgress is set
 * while the connect is still in flight (wait for POLLOUT, then read
 * SO_ERROR).  @return the fd, or -1 with errno set.
 */
int dial(const Peer &peer, bool *inProgress = nullptr);

/**
 * The HELLO_ACK for a peer's HELLO of major 1 or kProtocolMajor
 * (features: the offered bits AND @p features), else the
 * kErrUnsupportedVersion ERROR naming this side as @p name.
 */
Message answerHello(const HelloMsg &hello, std::uint64_t features,
                    const char *name);

/** A bound, listening, non-blocking TCP socket. */
class Listener
{
  public:
    Listener() = default;
    Listener(const Listener &) = delete;
    Listener &operator=(const Listener &) = delete;
    ~Listener() { close(); }

    /** Address reuse, SO_REUSEPORT when @p reusePort (its failure
     *  fails the open), bind, listen(128); false with @p error set
     *  and nothing left open. */
    bool open(const std::string &bindAddr, std::uint16_t port,
              bool reusePort, std::string *error);
    /** Stop listening; port() keeps the bound port. */
    void close() { closeFd(_fd); }

    int fd() const { return _fd; }
    bool isOpen() const { return _fd >= 0; }
    std::uint16_t port() const { return _port; }

    /** Accept until the queue is empty, prepareStream() each fd and
     *  hand it to @p onAccept, which owns it.  @return 0, or the
     *  errno of a failed accept. */
    int acceptAll(const std::function<void(int fd)> &onAccept);

  private:
    int _fd = -1;
    std::uint16_t _port = 0;
};

/** Self-pipe that wakes a poll loop. */
class WakePipe
{
  public:
    WakePipe() = default;
    WakePipe(const WakePipe &) = delete;
    WakePipe &operator=(const WakePipe &) = delete;
    ~WakePipe() { close(); }

    bool open(std::string *error);
    void close();
    int readFd() const { return _read; }
    /** Async-signal-safe and callable from any thread; a no-op
     *  before open(). */
    void notify() const;
    void drain() const;

  private:
    int _read = -1;
    int _write = -1;
};

/** One non-blocking framed stream; owns its fd. */
class FramedConn
{
  public:
    enum class Next : std::uint8_t
    {
        Message,    ///< one message decoded and consumed
        NeedMore,   ///< no complete frame yet
        BadFrame,   ///< oversized or empty frame announced
        BadPayload, ///< the decoder rejected the frame
    };

    FramedConn() = default;
    FramedConn(const FramedConn &) = delete;
    FramedConn &operator=(const FramedConn &) = delete;
    ~FramedConn() { closeFd(_fd); }

    int fd() const { return _fd; }
    /** Close the socket, drop both buffers, adopt @p fd. */
    void reset(int fd = -1);

    /** recv() 64 KiB chunks until EAGAIN or a short read; false
     *  when the peer closed or the socket failed. */
    bool readAvailable();
    /** Cut and decode the next frame into @p msg; on BadPayload
     *  @p error holds the decoder's reason. */
    Next next(Message &msg, std::string &error);

    /** Append @p msg's frame; false when the unsent bytes now
     *  exceed @p limit. */
    bool queue(const Message &msg,
               std::size_t limit =
                   std::numeric_limits<std::size_t>::max());
    /** send() until done or EAGAIN, compacting a sent prefix past
     *  1 MiB; false on a socket error or a closed connection. */
    bool flush();
    bool wantsWrite() const { return _woff < _wbuf.size(); }

  private:
    int _fd = -1;
    std::string _rbuf;     ///< bytes read, not yet framed
    std::string _wbuf;     ///< encoded messages, not yet sent
    std::size_t _woff = 0; ///< sent prefix of _wbuf
    std::string _payload;  ///< next()'s frame scratch
};

} // namespace net
} // namespace psi

#endif // PSI_NET_CONN_HPP
