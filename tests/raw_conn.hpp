/**
 * @file
 * RawConn: a bare loopback TCP socket for tests that speak to a
 * psinet front end below the client library - hostile HELLOs,
 * oversized length prefixes, unknown message types - and then
 * check whether the peer answered or closed.
 */

#ifndef PSI_TESTS_RAW_CONN_HPP
#define PSI_TESTS_RAW_CONN_HPP

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <optional>
#include <string>

#include "net/wire.hpp"

namespace psi {
namespace tests {

/** A frame header announcing one byte past kMaxFramePayload. */
inline std::string
oversizedPrefix()
{
    const std::uint32_t len = net::kMaxFramePayload + 1;
    return {static_cast<char>(len >> 24), static_cast<char>(len >> 16),
            static_cast<char>(len >> 8), static_cast<char>(len)};
}

/** Raw loopback socket with a receive timeout. */
struct RawConn
{
    int fd = -1;

    explicit RawConn(std::uint16_t port, timeval tv = {5, 0})
    {
        fd = ::socket(AF_INET, SOCK_STREAM, 0);
        EXPECT_GE(fd, 0);
        ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
        EXPECT_EQ(::connect(fd,
                            reinterpret_cast<sockaddr *>(&addr),
                            sizeof(addr)),
                  0);
    }

    ~RawConn()
    {
        if (fd >= 0)
            ::close(fd);
    }

    RawConn(const RawConn &) = delete;
    RawConn &operator=(const RawConn &) = delete;

    bool
    sendAll(const std::string &bytes)
    {
        std::size_t off = 0;
        while (off < bytes.size()) {
            ssize_t n = ::send(fd, bytes.data() + off,
                               bytes.size() - off, MSG_NOSIGNAL);
            if (n <= 0)
                return false;
            off += static_cast<std::size_t>(n);
        }
        return true;
    }

    /**
     * Read until one frame decodes, EOF, or the receive timeout.
     * @return the decoded message, or nullopt on EOF/timeout/garbage
     *         with @p eof telling the two apart.
     */
    std::optional<net::Message>
    readMessage(bool *eof)
    {
        *eof = false;
        std::string buffer, payload;
        char chunk[4096];
        for (;;) {
            net::FrameResult r =
                net::extractFrame(buffer, payload);
            if (r == net::FrameResult::Frame)
                return net::decode(payload);
            if (r == net::FrameResult::Bad)
                return std::nullopt;
            ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
            if (n == 0)
                *eof = true;
            if (n <= 0)
                return std::nullopt;
            buffer.append(chunk, static_cast<std::size_t>(n));
        }
    }
};

} // namespace tests
} // namespace psi

#endif // PSI_TESTS_RAW_CONN_HPP
