/**
 * @file
 * FramedConn unit tests on a socketpair(AF_UNIX, SOCK_STREAM):
 *
 *  - frames arriving coalesced in one write, and one frame arriving
 *    a byte at a time over several reads, come out in order
 *  - an oversized length prefix is a bad frame; an unknown message
 *    type is a bad payload carrying the decoder's reason
 *  - with a small send buffer and a stalled peer, queueing past the
 *    limit reports it, and once the peer reads, repeated flushes
 *    deliver every byte exactly once, in order, past the write
 *    buffer's 1 MiB compaction point
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <string>

#include "net/conn.hpp"
#include "raw_conn.hpp"

namespace {

using namespace psi;
using net::FramedConn;
using net::Message;

/** A FramedConn on one end of a socketpair; the test is the peer. */
struct ConnPair
{
    FramedConn conn;
    int peer = -1;

    ConnPair()
    {
        int fds[2];
        EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
        EXPECT_TRUE(net::setNonBlocking(fds[0]));
        conn.reset(fds[0]);
        peer = fds[1];
    }

    ~ConnPair() { net::closeFd(peer); }

    void
    send(const std::string &bytes)
    {
        ASSERT_EQ(::write(peer, bytes.data(), bytes.size()),
                  static_cast<ssize_t>(bytes.size()));
    }
};

std::string
submitFrame(std::uint64_t tag)
{
    return net::encode(
        Message(net::SubmitBuilder(tag, "nreverse30").build()));
}

TEST(FramedConn, CoalescedAndByteAtATimeFramesComeOutInOrder)
{
    ConnPair pair;
    Message msg;
    std::string error;

    pair.send(submitFrame(1) + submitFrame(2) + submitFrame(3));
    ASSERT_TRUE(pair.conn.readAvailable());
    for (std::uint64_t tag = 1; tag <= 3; ++tag) {
        ASSERT_EQ(pair.conn.next(msg, error),
                  FramedConn::Next::Message)
            << error;
        EXPECT_EQ(std::get<net::SubmitMsg>(msg).tag, tag);
    }
    EXPECT_EQ(pair.conn.next(msg, error), FramedConn::Next::NeedMore);

    const std::string fourth = submitFrame(4);
    for (std::size_t i = 0; i + 1 < fourth.size(); ++i) {
        pair.send(fourth.substr(i, 1));
        ASSERT_TRUE(pair.conn.readAvailable());
        ASSERT_EQ(pair.conn.next(msg, error),
                  FramedConn::Next::NeedMore)
            << "after byte " << i;
    }
    pair.send(fourth.substr(fourth.size() - 1));
    ASSERT_TRUE(pair.conn.readAvailable());
    ASSERT_EQ(pair.conn.next(msg, error), FramedConn::Next::Message)
        << error;
    EXPECT_EQ(std::get<net::SubmitMsg>(msg).tag, 4u);

    net::closeFd(pair.peer);
    EXPECT_FALSE(pair.conn.readAvailable()) << "EOF not reported";
}

TEST(FramedConn, OversizedPrefixIsBadFrameUnknownTypeIsBadPayload)
{
    Message msg;
    std::string error;

    ConnPair oversized;
    oversized.send(tests::oversizedPrefix());
    ASSERT_TRUE(oversized.conn.readAvailable());
    EXPECT_EQ(oversized.conn.next(msg, error),
              FramedConn::Next::BadFrame);

    ConnPair unknownType;
    unknownType.send(std::string("\0\0\0\x01\x63", 5));
    ASSERT_TRUE(unknownType.conn.readAvailable());
    EXPECT_EQ(unknownType.conn.next(msg, error),
              FramedConn::Next::BadPayload);
    EXPECT_FALSE(error.empty());
}

TEST(FramedConn, PartialSendsDeliverEveryByteOnceAcrossCompaction)
{
    ConnPair pair;
    int small = 4096;
    ASSERT_EQ(::setsockopt(pair.conn.fd(), SOL_SOCKET, SO_SNDBUF,
                           &small, sizeof(small)),
              0);

    // 64 KiB frames, each filled with its own letter, so a byte sent
    // twice, dropped or reordered shows in the comparison below.
    auto frame = [](int i) {
        net::StatsReplyMsg reply;
        reply.json.assign(64 * 1024, static_cast<char>('a' + i % 26));
        return Message(std::move(reply));
    };

    // The peer does not read: unsent bytes pile up past the limit.
    constexpr std::size_t kLimit = 256 * 1024;
    std::string expected;
    int frames = 0;
    bool overLimit = false;
    while (!overLimit) {
        ASSERT_LT(frames, 16) << "limit never reported";
        expected += net::encode(frame(frames));
        overLimit = !pair.conn.queue(frame(frames), kLimit);
        ++frames;
        ASSERT_TRUE(pair.conn.flush());
    }
    EXPECT_GT(frames, 1) << "first frame alone exceeded the limit";
    EXPECT_TRUE(pair.conn.wantsWrite());

    // Queue well past the 1 MiB compaction point, then let the peer
    // read while the connection flushes a few KiB at a time.
    for (; expected.size() < (3u << 20); ++frames) {
        expected += net::encode(frame(frames));
        pair.conn.queue(frame(frames));
    }
    ASSERT_TRUE(net::setNonBlocking(pair.peer));
    std::string received;
    std::size_t sentAtLastPartial = 0;
    char buf[16 * 1024];
    for (int round = 0; received.size() < expected.size(); ++round) {
        ASSERT_LT(round, 1'000'000) << "flush made no progress";
        ASSERT_TRUE(pair.conn.flush());
        const bool partial = pair.conn.wantsWrite();
        ssize_t n;
        while ((n = ::read(pair.peer, buf, sizeof(buf))) > 0)
            received.append(buf, static_cast<std::size_t>(n));
        ASSERT_TRUE(n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            << "peer read failed";
        if (partial)
            sentAtLastPartial = received.size();
    }
    EXPECT_FALSE(pair.conn.wantsWrite());
    // A flush that stopped short after more than 1 MiB had gone out
    // ran with the sent prefix past the compaction point.
    EXPECT_GT(sentAtLastPartial, std::size_t{1} << 20);
    ASSERT_EQ(received.size(), expected.size());
    EXPECT_TRUE(received == expected) << "bytes reordered or repeated";
}

} // namespace
