/**
 * @file
 * psinet tests: wire-protocol framing and the TCP loopback path.
 *
 *  - property-style encode/decode round-trips for every message kind
 *  - truncated-frame and oversized-frame rejection
 *  - loopback integration: answers and engine statistics over TCP
 *    are byte-identical to sequential runOnPsi() for the full
 *    workload registry, deadlines propagate as RunStatus::Timeout,
 *    and fail-fast queue saturation surfaces as OVERLOADED replies
 *  - graceful drain: DRAIN ack, event-loop exit, refused reconnect
 *
 * The binary carries the `net` ctest label so the group runs under
 * ThreadSanitizer alongside `service`:
 *
 *     cmake -B build-tsan -S . -DPSI_SANITIZE=thread
 *     cmake --build build-tsan -j
 *     ctest --test-dir build-tsan -L "service|net"
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <map>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "psi.hpp"
#include "raw_conn.hpp"

namespace {

using namespace psi;
using psi::tests::oversizedPrefix;
using psi::tests::RawConn;
using net::DrainAckMsg;
using net::DrainMsg;
using net::FrameResult;
using net::Message;
using net::ResultMsg;
using net::StatsMsg;
using net::StatsReplyMsg;
using net::SubmitMsg;
using net::WireStatus;

// ---------------------------------------------------------------------
// Wire protocol: round trips
// ---------------------------------------------------------------------

std::string
randomString(std::mt19937_64 &rng, std::size_t maxLen)
{
    std::uniform_int_distribution<std::size_t> len(0, maxLen);
    std::uniform_int_distribution<int> byte(0, 255);
    std::string s(len(rng), '\0');
    for (char &c : s)
        c = static_cast<char>(byte(rng));
    return s;
}

SubmitMsg
randomSubmit(std::mt19937_64 &rng)
{
    SubmitMsg m;
    m.tag = rng();
    m.workload = randomString(rng, 64);
    m.deadlineNs = rng();
    return m;
}

ResultMsg
randomResult(std::mt19937_64 &rng)
{
    ResultMsg m;
    m.tag = rng();
    m.status = static_cast<WireStatus>(rng() % 20);
    m.error = randomString(rng, 128);
    std::uniform_int_distribution<std::size_t> nsol(0, 5);
    m.solutions.resize(nsol(rng));
    for (auto &s : m.solutions)
        s = randomString(rng, 200);
    m.output = randomString(rng, 300);
    m.inferences = rng();
    m.steps = rng();
    m.modelNs = rng();
    m.stallNs = rng();
    for (auto &v : m.seq.moduleSteps)
        v = rng();
    for (auto &v : m.seq.branchOps)
        v = rng();
    for (auto &row : m.seq.wfModes)
        for (auto &v : row)
            v = rng();
    for (auto &v : m.seq.cacheSteps)
        v = rng();
    for (auto &row : m.cache.accesses)
        for (auto &v : row)
            v = rng();
    for (auto &row : m.cache.hits)
        for (auto &v : row)
            v = rng();
    m.cache.readIns = rng();
    m.cache.writeBacks = rng();
    m.cache.stackAllocs = rng();
    m.cache.throughWrites = rng();
    m.queueNs = rng();
    m.execNs = rng();
    m.latencyNs = rng();
    m.traceTag = rng();
    return m;
}

void
expectEq(const SubmitMsg &a, const SubmitMsg &b)
{
    EXPECT_EQ(a.tag, b.tag);
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.deadlineNs, b.deadlineNs);
}

void
expectEq(const ResultMsg &a, const ResultMsg &b)
{
    EXPECT_EQ(a.tag, b.tag);
    EXPECT_EQ(a.status, b.status);
    EXPECT_EQ(a.error, b.error);
    EXPECT_EQ(a.solutions, b.solutions);
    EXPECT_EQ(a.output, b.output);
    EXPECT_EQ(a.inferences, b.inferences);
    EXPECT_EQ(a.steps, b.steps);
    EXPECT_EQ(a.modelNs, b.modelNs);
    EXPECT_EQ(a.stallNs, b.stallNs);
    EXPECT_EQ(a.seq.moduleSteps, b.seq.moduleSteps);
    EXPECT_EQ(a.seq.branchOps, b.seq.branchOps);
    EXPECT_EQ(a.seq.wfModes, b.seq.wfModes);
    EXPECT_EQ(a.seq.cacheSteps, b.seq.cacheSteps);
    EXPECT_EQ(a.cache.accesses, b.cache.accesses);
    EXPECT_EQ(a.cache.hits, b.cache.hits);
    EXPECT_EQ(a.cache.readIns, b.cache.readIns);
    EXPECT_EQ(a.cache.writeBacks, b.cache.writeBacks);
    EXPECT_EQ(a.cache.stackAllocs, b.cache.stackAllocs);
    EXPECT_EQ(a.cache.throughWrites, b.cache.throughWrites);
    EXPECT_EQ(a.queueNs, b.queueNs);
    EXPECT_EQ(a.execNs, b.execNs);
    EXPECT_EQ(a.latencyNs, b.latencyNs);
    EXPECT_EQ(a.traceTag, b.traceTag);
}

/** encode -> frame extraction -> decode, returning the message. */
Message
roundTrip(const Message &msg)
{
    std::string buffer = net::encode(msg);
    std::string payload;
    EXPECT_EQ(net::extractFrame(buffer, payload),
              FrameResult::Frame);
    EXPECT_TRUE(buffer.empty());
    std::string error;
    std::optional<Message> out = net::decode(payload, &error);
    EXPECT_TRUE(out.has_value()) << error;
    return out.value_or(Message(StatsMsg{}));
}

TEST(Wire, SubmitRoundTripsProperty)
{
    std::mt19937_64 rng(20260805);
    for (int i = 0; i < 100; ++i) {
        SubmitMsg msg = randomSubmit(rng);
        Message out = roundTrip(Message(msg));
        ASSERT_TRUE(std::holds_alternative<SubmitMsg>(out));
        expectEq(msg, std::get<SubmitMsg>(out));
    }
}

TEST(Wire, ResultRoundTripsProperty)
{
    std::mt19937_64 rng(42);
    for (int i = 0; i < 50; ++i) {
        ResultMsg msg = randomResult(rng);
        Message out = roundTrip(Message(msg));
        ASSERT_TRUE(std::holds_alternative<ResultMsg>(out));
        expectEq(msg, std::get<ResultMsg>(out));
    }
}

TEST(Wire, ControlMessagesRoundTrip)
{
    EXPECT_TRUE(std::holds_alternative<StatsMsg>(
        roundTrip(Message(StatsMsg{}))));
    EXPECT_TRUE(std::holds_alternative<DrainMsg>(
        roundTrip(Message(DrainMsg{}))));
    EXPECT_TRUE(std::holds_alternative<DrainAckMsg>(
        roundTrip(Message(DrainAckMsg{}))));

    StatsReplyMsg stats;
    stats.json = "{\"completed\": 7}";
    Message out = roundTrip(Message(stats));
    ASSERT_TRUE(std::holds_alternative<StatsReplyMsg>(out));
    EXPECT_EQ(std::get<StatsReplyMsg>(out).json, stats.json);
}

// ---------------------------------------------------------------------
// Wire protocol: framing rejection
// ---------------------------------------------------------------------

TEST(Wire, PartialFrameNeedsMoreAndLeavesBufferIntact)
{
    std::mt19937_64 rng(7);
    std::string frame = net::encode(Message(randomResult(rng)));

    // Every proper prefix is an incomplete frame, never an error.
    for (std::size_t cut : {std::size_t(0), std::size_t(1),
                            std::size_t(3), frame.size() / 2,
                            frame.size() - 1}) {
        std::string buffer = frame.substr(0, cut);
        std::string payload;
        EXPECT_EQ(net::extractFrame(buffer, payload),
                  FrameResult::NeedMore)
            << "cut=" << cut;
        EXPECT_EQ(buffer, frame.substr(0, cut));
    }
}

TEST(Wire, ChunkedDeliveryReassembles)
{
    std::mt19937_64 rng(11);
    ResultMsg msg = randomResult(rng);
    std::string frame = net::encode(Message(msg));

    // Deliver 3 bytes at a time, as a slow TCP peer would.
    std::string buffer, payload;
    for (std::size_t off = 0; off < frame.size(); off += 3) {
        buffer.append(frame.substr(off, 3));
        FrameResult r = net::extractFrame(buffer, payload);
        if (off + 3 < frame.size())
            ASSERT_EQ(r, FrameResult::NeedMore);
        else
            ASSERT_EQ(r, FrameResult::Frame);
    }
    std::optional<Message> out = net::decode(payload);
    ASSERT_TRUE(out.has_value());
    expectEq(msg, std::get<ResultMsg>(*out));
}

TEST(Wire, TruncatedPayloadRejectedAtEveryCut)
{
    std::mt19937_64 rng(13);
    std::string frame = net::encode(Message(randomResult(rng)));
    std::string payload = frame.substr(net::kFrameHeaderBytes);

    for (std::size_t cut = 1; cut < payload.size(); ++cut) {
        std::string error;
        EXPECT_FALSE(
            net::decode(payload.substr(0, cut), &error).has_value())
            << "cut=" << cut;
        EXPECT_FALSE(error.empty());
    }
    // The untruncated payload still decodes (sanity).
    EXPECT_TRUE(net::decode(payload).has_value());
}

TEST(Wire, TrailingGarbageRejected)
{
    std::string frame = net::encode(Message(StatsMsg{}));
    std::string payload = frame.substr(net::kFrameHeaderBytes);
    payload.push_back('x');
    std::string error;
    EXPECT_FALSE(net::decode(payload, &error).has_value());
    EXPECT_NE(error.find("trailing"), std::string::npos);
}

TEST(Wire, OversizedFrameRejected)
{
    std::uint32_t huge = net::kMaxFramePayload + 1;
    std::string buffer;
    for (int shift = 24; shift >= 0; shift -= 8)
        buffer.push_back(static_cast<char>((huge >> shift) & 0xff));
    buffer.append("payload bytes that must never be buffered");
    std::string payload;
    EXPECT_EQ(net::extractFrame(buffer, payload), FrameResult::Bad);
}

TEST(Wire, EmptyFrameRejected)
{
    std::string buffer(net::kFrameHeaderBytes, '\0'); // length 0
    std::string payload;
    EXPECT_EQ(net::extractFrame(buffer, payload), FrameResult::Bad);
}

TEST(Wire, UnknownMessageTypeRejected)
{
    std::string payload(1, static_cast<char>(0x63));
    std::string error;
    EXPECT_FALSE(net::decode(payload, &error).has_value());
    EXPECT_NE(error.find("unknown message type"), std::string::npos);
}

TEST(Wire, MaliciousSolutionCountRejectedWithoutAllocation)
{
    // A ~18-byte RESULT payload claiming 2^32-1 solutions: decode()
    // must reject it from the count/remaining-bytes check instead of
    // attempting a multi-GB vector resize.
    std::string payload;
    payload.push_back(
        static_cast<char>(net::MsgType::Result)); // type
    payload.append(8, '\0');                      // tag u64
    payload.push_back('\0');                      // status u8
    payload.append(4, '\0');                      // error len = 0
    payload.append(4, '\xff');                    // nsolutions = 2^32-1

    std::string error;
    EXPECT_FALSE(net::decode(payload, &error).has_value());
    EXPECT_NE(error.find("truncated"), std::string::npos);

    // Same with a count that fits a u32 but not the payload.
    payload.resize(payload.size() - 4);
    payload.append({'\0', '\0', '\x01', '\0'}); // nsolutions = 256
    payload.append(16, '\0');                   // only 4 fit
    EXPECT_FALSE(net::decode(payload, &error).has_value());
}

// ---------------------------------------------------------------------
// Loopback integration
// ---------------------------------------------------------------------

/** A PsiServer running its event loop on a background thread. */
struct ServerHarness
{
    net::PsiServer server;
    std::thread loop;

    explicit ServerHarness(const net::PsiServer::Config &config)
        : server(config)
    {
        std::string error;
        if (!server.start(&error))
            throw std::runtime_error("server start: " + error);
        loop = std::thread([this] { server.run(); });
    }

    ~ServerHarness()
    {
        server.requestDrain();
        if (loop.joinable())
            loop.join();
    }

    std::uint16_t port() const { return server.port(); }
};

net::PsiServer::Config
serverConfig(unsigned workers, std::size_t capacity,
             std::uint16_t port = 0)
{
    net::PsiServer::Config config;
    config.port = port; // 0 = ephemeral
    config.workers = workers;
    config.queueCapacity = capacity;
    return config;
}

/** A fast-paced retry policy for loopback chaos (real defaults would
 *  make the suite sleep for seconds on every injected fault). */
net::RetryPolicy
testRetryPolicy(unsigned maxAttempts, unsigned connectAttempts)
{
    net::RetryPolicy policy;
    policy.maxAttempts = maxAttempts;
    policy.connectAttempts = connectAttempts;
    policy.backoffBaseNs = 1'000'000;  // 1 ms
    policy.backoffMaxNs = 50'000'000;  // 50 ms
    policy.overloadedFloorNs = 10'000'000;
    policy.seed = 20260805;
    return policy;
}

/** Opt-in SO_REUSEPORT: two servers bind the same port concurrently
 *  (the kernel balances accepts between them), while the default
 *  config still refuses the second bind. */
TEST(Loopback, ReusePortAllowsTwoConcurrentListeners)
{
    net::PsiServer::Config first = serverConfig(1, 8);
    first.reusePort = true;
    ServerHarness one(first);

    net::PsiServer::Config second =
        serverConfig(1, 8, one.port());
    second.reusePort = true;
    ServerHarness two(second); // same port: must NOT throw
    EXPECT_EQ(two.port(), one.port());

    // Both listeners are live: a connection reaches one of them and
    // serves a real request.
    net::PsiClient client;
    std::string error;
    ASSERT_TRUE(client.connect("127.0.0.1", one.port(), &error))
        << error;
    auto result =
        client.submit(net::Request{"nreverse30"}, nullptr, &error);
    ASSERT_TRUE(result.has_value()) << error;
    EXPECT_EQ(result->status, net::WireStatus::Ok);

    // Without the opt-in, the same double bind still fails.
    net::PsiServer third(serverConfig(1, 8, one.port()));
    EXPECT_FALSE(third.start(&error));
    EXPECT_NE(error.find("bind"), std::string::npos);
}

/** Full registry over TCP == sequential execution, bit for bit. */
TEST(Loopback, RegistryMatchesSequentialByteForByte)
{
    ServerHarness harness(serverConfig(4, 32));
    net::PsiClient client;
    std::string error;
    ASSERT_TRUE(client.connect("127.0.0.1", harness.port(), &error))
        << error;

    for (const auto &program : programs::allPrograms()) {
        SCOPED_TRACE(program.id);
        PsiRun want = runOnPsi(program);
        auto got =
            client.submit(net::Request{program.id}, nullptr, &error);
        ASSERT_TRUE(got.has_value()) << error;

        EXPECT_EQ(got->status, net::wireStatus(want.result.status));
        ASSERT_EQ(got->solutions.size(),
                  want.result.solutions.size());
        for (std::size_t i = 0; i < got->solutions.size(); ++i)
            EXPECT_EQ(got->solutions[i],
                      want.result.solutions[i].str());
        EXPECT_EQ(got->output, want.result.output);

        EXPECT_EQ(got->inferences, want.result.inferences);
        EXPECT_EQ(got->steps, want.result.steps);
        EXPECT_EQ(got->modelNs, want.result.timeNs);
        EXPECT_EQ(got->stallNs, want.stallNs);
        EXPECT_EQ(got->seq.moduleSteps, want.seq.moduleSteps);
        EXPECT_EQ(got->seq.branchOps, want.seq.branchOps);
        EXPECT_EQ(got->seq.wfModes, want.seq.wfModes);
        EXPECT_EQ(got->seq.cacheSteps, want.seq.cacheSteps);
        EXPECT_EQ(got->cache.accesses, want.cache.accesses);
        EXPECT_EQ(got->cache.hits, want.cache.hits);
        EXPECT_EQ(got->cache.readIns, want.cache.readIns);
        EXPECT_EQ(got->cache.writeBacks, want.cache.writeBacks);
        EXPECT_EQ(got->cache.stackAllocs, want.cache.stackAllocs);
        EXPECT_EQ(got->cache.throughWrites,
                  want.cache.throughWrites);
        EXPECT_GT(got->latencyNs, 0u);
    }
}

/**
 * Fast mode over TCP: the v2.2 mode flag reaches the pool, answers
 * stay byte-identical to fidelity, the skipped accounting reads
 * zero, and the per-mode counter surfaces in STATS.
 */
TEST(Loopback, FastModeMatchesFidelityAnswersOverWire)
{
    ServerHarness harness(serverConfig(2, 16));
    net::PsiClient client;
    std::string error;
    ASSERT_TRUE(client.connect("127.0.0.1", harness.port(), &error))
        << error;

    for (const char *id : {"nreverse30", "trail40", "permall6"}) {
        SCOPED_TRACE(id);
        PsiRun want = runOnPsi(programs::programById(id));

        net::Request request{id};
        request.mode = interp::ExecMode::Fast;
        auto got = client.submit(request, nullptr, &error);
        ASSERT_TRUE(got.has_value()) << error;

        EXPECT_EQ(got->status, net::wireStatus(want.result.status));
        ASSERT_EQ(got->solutions.size(),
                  want.result.solutions.size());
        for (std::size_t i = 0; i < got->solutions.size(); ++i)
            EXPECT_EQ(got->solutions[i],
                      want.result.solutions[i].str());
        EXPECT_EQ(got->output, want.result.output);
        EXPECT_EQ(got->inferences, want.result.inferences);
        // Fast mode reports no model clock or hardware stats.
        EXPECT_EQ(got->steps, 0u);
        EXPECT_EQ(got->modelNs, 0u);
        EXPECT_EQ(got->cache.readIns, 0u);
    }

    auto statsJson = client.stats(-1, &error);
    ASSERT_TRUE(statsJson.has_value()) << error;
    EXPECT_NE(statsJson->find("\"completed_fast\": 3"),
              std::string::npos)
        << *statsJson;
}

/** An expired per-request deadline comes back as Timeout. */
TEST(Loopback, DeadlinePropagatesAsTimeout)
{
    ServerHarness harness(serverConfig(1, 8));
    net::PsiClient client;
    std::string error;
    ASSERT_TRUE(client.connect("127.0.0.1", harness.port(), &error))
        << error;

    // 1 ns: the budget starts at submit, so it is already spent by
    // the time a worker picks the job up - the RESULT carries
    // Timeout with zero statistics (the engine never ran).
    auto result =
        client.submit(net::Request{"bup3", 1}, nullptr, &error);
    ASSERT_TRUE(result.has_value()) << error;
    EXPECT_EQ(result->status, WireStatus::Timeout);
    EXPECT_EQ(result->steps, 0u);
    EXPECT_EQ(result->inferences, 0u);

    // 50 ms against a ~900 ms workload: the job starts (queue wait
    // is microseconds here) and expires mid-run, so the RESULT
    // carries Timeout plus the partial statistics.
    result = client.submit(net::Request{"lisp_tarai", 50'000'000},
                           nullptr, &error);
    ASSERT_TRUE(result.has_value()) << error;
    EXPECT_EQ(result->status, WireStatus::Timeout);
    EXPECT_GT(result->steps, 0u);
    EXPECT_GT(result->inferences, 0u);
}

TEST(Loopback, SaturatedQueueRepliesOverloaded)
{
    // One worker, one queue slot, fail-fast: a burst of pipelined
    // submits must overflow and the overflow must be surfaced as
    // OVERLOADED replies, not an accept stall.
    ServerHarness harness(serverConfig(1, 1));
    net::PsiClient client;
    std::string error;
    ASSERT_TRUE(client.connect("127.0.0.1", harness.port(), &error))
        << error;

    constexpr int kBurst = 8;
    constexpr std::uint64_t kDeadlineNs = 200'000'000; // bound runtime
    for (int i = 0; i < kBurst; ++i)
        ASSERT_TRUE(client.sendSubmit("bup3", kDeadlineNs, nullptr,
                                      &error))
            << error;

    int overloaded = 0, ran = 0;
    for (int i = 0; i < kBurst; ++i) {
        auto result = client.recvResult(-1, &error);
        ASSERT_TRUE(result.has_value()) << error;
        if (result->status == WireStatus::Overloaded) {
            ++overloaded;
            EXPECT_NE(result->error.find("queue full"),
                      std::string::npos);
        } else {
            ++ran;
            EXPECT_TRUE(result->ran());
        }
    }
    // The worker can hold one job and the queue one more; the rest
    // of the burst (sent faster than any consult can finish) must
    // have been refused.
    EXPECT_GE(overloaded, kBurst - 2);
    EXPECT_GE(ran, 1);

    auto snap = harness.server.metrics();
    EXPECT_EQ(snap.rejected,
              static_cast<std::uint64_t>(overloaded));
}

TEST(Loopback, UnknownWorkloadIsActionable)
{
    ServerHarness harness(serverConfig(1, 4));
    net::PsiClient client;
    std::string error;
    ASSERT_TRUE(client.connect("127.0.0.1", harness.port(), &error))
        << error;

    auto result = client.submit(net::Request{"no_such_workload"},
                                nullptr, &error);
    ASSERT_TRUE(result.has_value()) << error;
    EXPECT_EQ(result->status, WireStatus::UnknownWorkload);
    EXPECT_NE(result->error.find("no_such_workload"),
              std::string::npos);
    EXPECT_NE(result->error.find("available"), std::string::npos);
    EXPECT_NE(result->error.find("nreverse30"), std::string::npos);
}

/** A framing error and a body the decoder rejects each cost only
 *  their own connection, and each is counted under its own name. */
TEST(Loopback, BadFrameAndBadPayloadDropOnlyThatConnection)
{
    ServerHarness harness(serverConfig(1, 4));

    RawConn oversized(harness.port());
    ASSERT_TRUE(oversized.sendAll(oversizedPrefix()));
    // One well-framed payload byte: a message type nothing has.
    RawConn unknownType(harness.port());
    ASSERT_TRUE(
        unknownType.sendAll(std::string("\0\0\0\x01\x63", 5)));

    bool eof = false;
    EXPECT_FALSE(oversized.readMessage(&eof).has_value());
    EXPECT_TRUE(eof) << "oversized frame did not close its connection";
    EXPECT_FALSE(unknownType.readMessage(&eof).has_value());
    EXPECT_TRUE(eof) << "unknown type did not close its connection";

    net::PsiClient client;
    std::string error;
    ASSERT_TRUE(client.connect("127.0.0.1", harness.port(), &error))
        << error;
    auto result =
        client.submit(net::Request{"nreverse30"}, nullptr, &error);
    ASSERT_TRUE(result.has_value()) << error;
    EXPECT_EQ(result->status, WireStatus::Ok);

    auto snap = harness.server.metrics();
    EXPECT_EQ(snap.netBadFrames, 1u);
    EXPECT_EQ(snap.netDecodeErrors, 1u);
    EXPECT_EQ(snap.netConnsDropped, 2u);
}

TEST(Loopback, StatsReplyCarriesServiceMetricsJson)
{
    ServerHarness harness(serverConfig(2, 8));
    net::PsiClient client;
    std::string error;
    ASSERT_TRUE(client.connect("127.0.0.1", harness.port(), &error))
        << error;

    auto result =
        client.submit(net::Request{"nreverse30"}, nullptr, &error);
    ASSERT_TRUE(result.has_value()) << error;
    EXPECT_EQ(result->status, WireStatus::Ok);

    auto json = client.stats(-1, &error);
    ASSERT_TRUE(json.has_value()) << error;
    EXPECT_NE(json->find("\"completed\": 1"), std::string::npos);
    EXPECT_NE(json->find("\"workers\": 2"), std::string::npos);
    EXPECT_NE(json->find("\"aggregate_lips\""), std::string::npos);
}

TEST(Loopback, DrainFinishesInFlightAndStopsAccepting)
{
    auto harness = std::make_unique<ServerHarness>(serverConfig(2, 8));
    std::uint16_t port = harness->port();

    net::PsiClient client;
    std::string error;
    ASSERT_TRUE(client.connect("127.0.0.1", port, &error)) << error;

    // Pipeline work, then ask for drain before collecting it: the
    // drain must still deliver every in-flight RESULT.
    ASSERT_TRUE(client.sendSubmit("nreverse30", 0, nullptr, &error))
        << error;
    ASSERT_TRUE(client.sendSubmit("queens1", 0, nullptr, &error))
        << error;
    ASSERT_TRUE(client.drain(-1, &error)) << error;
    EXPECT_TRUE(harness->server.draining());

    int completed = 0;
    for (int i = 0; i < 2; ++i) {
        auto result = client.recvResult(-1, &error);
        ASSERT_TRUE(result.has_value()) << error;
        EXPECT_TRUE(result->ran());
        ++completed;
    }
    EXPECT_EQ(completed, 2);

    // The event loop exits once everything is flushed...
    harness.reset();

    // ... and the listener is gone: reconnecting is refused.
    net::PsiClient after;
    EXPECT_FALSE(after.connect("127.0.0.1", port, &error));
}

// ---------------------------------------------------------------------
// Connect retry
// ---------------------------------------------------------------------

/** Grab a loopback port nothing is listening on right now. */
std::uint16_t
freeLoopbackPort()
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = 0;
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr *>(&addr),
                     sizeof(addr)),
              0);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr *>(&addr),
                            &len),
              0);
    ::close(fd);
    return ntohs(addr.sin_port);
}

TEST(ConnectRetry, FailureReportsAttemptCount)
{
    net::PsiClient client;
    client.setRetryPolicy(testRetryPolicy(4, 3));
    std::string error;
    EXPECT_FALSE(
        client.connect("127.0.0.1", freeLoopbackPort(), &error));
    EXPECT_NE(error.find("(after 3 attempts)"), std::string::npos)
        << error;
    EXPECT_EQ(client.retryStats().connectDials, 3u);
    EXPECT_EQ(client.retryStats().connectRetries, 2u);
}

TEST(ConnectRetry, LateStartingServerEventuallyAccepts)
{
    // The server comes up ~200 ms after the client starts dialing:
    // the early ECONNREFUSED dials must be retried, not fatal.
    std::uint16_t port = freeLoopbackPort();
    std::unique_ptr<ServerHarness> harness;
    std::thread starter([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
        harness = std::make_unique<ServerHarness>(
            serverConfig(1, 4, port));
    });

    net::PsiClient client;
    client.setRetryPolicy(testRetryPolicy(4, 50));
    std::string error;
    bool ok = client.connect("127.0.0.1", port, &error);
    starter.join();
    ASSERT_TRUE(ok) << error;
    EXPECT_GT(client.retryStats().connectRetries, 0u);

    auto result =
        client.submit(net::Request{"nreverse30"}, nullptr, &error);
    ASSERT_TRUE(result.has_value()) << error;
    EXPECT_EQ(result->status, WireStatus::Ok);
}

// ---------------------------------------------------------------------
// Retrying submits
// ---------------------------------------------------------------------

TEST(Retry, OverloadedBackpressureRetriesUntilCapacityFrees)
{
    // One worker, one queue slot: park two bounded jobs so the pool
    // is saturated, then submit(request, &policy) a third from a
    // second client.
    // Its early attempts are refused OVERLOADED; the retry loop must
    // back off and land the job once the parked work drains.
    // lisp_tarai runs for several hundred ms, so its 300 ms deadline
    // sets how long each parked job stays in the pool, whatever the
    // engine's speed: the first still runs when the second queues.
    ServerHarness harness(serverConfig(1, 1));
    std::string error;

    // Wait (bounded) until the pool holds @p running jobs on the
    // worker and @p queued in the queue.  Sent back to back, both
    // SUBMITs can reach the event loop before the worker pops the
    // first; the second is then refused itself and the pool never
    // saturates.  So the second goes out only once the first runs.
    auto waitForPool = [&](std::uint64_t running, std::uint64_t queued) {
        auto until =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        for (;;) {
            service::MetricsSnapshot m = harness.server.metrics();
            if (m.queueDepth == queued &&
                m.submitted - m.queueDepth - m.total.completed ==
                    running) {
                return true;
            }
            if (std::chrono::steady_clock::now() > until)
                return false;
            std::this_thread::yield();
        }
    };

    net::PsiClient pipeline;
    ASSERT_TRUE(
        pipeline.connect("127.0.0.1", harness.port(), &error))
        << error;
    for (std::uint64_t i = 0; i < 2; ++i) {
        ASSERT_TRUE(pipeline.sendSubmit("lisp_tarai", 300'000'000ull,
                                        nullptr, &error))
            << error;
        ASSERT_TRUE(waitForPool(1, i)) << "pool never held job " << i;
    }

    net::PsiClient client;
    client.setRetryPolicy(testRetryPolicy(100, 3));
    ASSERT_TRUE(client.connect("127.0.0.1", harness.port(), &error))
        << error;
    auto result = client.submit(net::Request{"nreverse30", 0, 10'000},
                                &client.retryPolicy(), &error);
    ASSERT_TRUE(result.has_value()) << error;
    EXPECT_EQ(result->status, WireStatus::Ok);
    EXPECT_GT(client.retryStats().overloadedRetries, 0u);
    EXPECT_EQ(client.retryStats().exhausted, 0u);

    for (int i = 0; i < 2; ++i)
        ASSERT_TRUE(pipeline.recvResult(-1, &error)) << error;
}

TEST(Retry, DeadlineBudgetBoundsTheWholeCall)
{
    // No server at all: every attempt fails to dial.  The call must
    // give up within the deadline budget instead of burning through
    // maxAttempts worth of backoff.
    net::PsiClient client;
    net::RetryPolicy policy = testRetryPolicy(1000, 1);
    policy.backoffBaseNs = 20'000'000; // 20 ms per retry
    client.setRetryPolicy(policy);
    std::string error;
    EXPECT_FALSE(
        client.connect("127.0.0.1", freeLoopbackPort(), &error));

    auto start = std::chrono::steady_clock::now();
    auto result =
        client.submit(net::Request{"nreverse30", 200'000'000ull},
                      &client.retryPolicy(), &error);
    auto elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_FALSE(result.has_value());
    EXPECT_EQ(client.retryStats().exhausted, 1u);
    // Bounded by the 200 ms budget, not the 1000-attempt policy
    // (generous margin: one in-flight backoff may finish late).
    EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(
                  elapsed)
                  .count(),
              2000);
}

// ---------------------------------------------------------------------
// Chaos: the full registry through a hostile network
// ---------------------------------------------------------------------

/**
 * The tentpole chaos run: every registry workload is submitted
 * through a fault proxy that splits, coalesces, delays, truncates
 * and hard-resets the byte stream on a fixed seed, and the server is
 * killed and restarted in the middle of the batch.  The retrying
 * client must complete the whole batch with zero hangs and zero
 * duplicated solutions, and every delivered RESULT must be
 * byte-identical to a fault-free sequential run.
 */
TEST(Chaos, FullRegistryThroughFaultsMatchesByteForByte)
{
    auto harness =
        std::make_unique<ServerHarness>(serverConfig(2, 16));

    // reset_after must exceed the largest RESULT frame (~17 KB for
    // window3) or that frame could never be delivered; 20 KB still
    // fires several resets across the ~50 KB registry run.
    std::string spec = "seed=20260805,split=0.35,coalesce=0.2,"
                       "delay_us=0..200,reset_after=20000";
    std::string error;
    auto schedule = net::FaultSchedule::parse(spec, &error);
    ASSERT_TRUE(schedule.has_value()) << error;
    EXPECT_EQ(schedule->str(), spec);

    net::FaultProxy proxy("127.0.0.1", harness->port(), *schedule);
    ASSERT_TRUE(proxy.start(&error)) << error;

    net::PsiClient client;
    client.setRetryPolicy(testRetryPolicy(25, 10));
    ASSERT_TRUE(client.connect("127.0.0.1", proxy.port(), &error))
        << error;

    const auto &all = programs::allPrograms();
    const std::size_t killAt = all.size() / 2;
    for (std::size_t i = 0; i < all.size(); ++i) {
        if (i == killAt) {
            // Mid-batch kill-and-restart: drain the old server,
            // bring up a fresh one on a new port, re-point the
            // proxy.  The client only ever sees its proxy address.
            harness.reset();
            harness = std::make_unique<ServerHarness>(
                serverConfig(2, 16));
            proxy.setUpstream(harness->port());
        }

        const auto &program = all[i];
        SCOPED_TRACE(program.id);
        PsiRun want = runOnPsi(program);
        // Generous per-request receive timeout: a live-connection
        // timeout is deliberately not retried (duplicate risk), and
        // the slow registry programs can take tens of seconds under
        // TSan with the rest of the suite running alongside.
        auto got =
            client.submit(net::Request{program.id, 0, 180'000},
                          &client.retryPolicy(), &error);
        ASSERT_TRUE(got.has_value()) << error;

        EXPECT_EQ(got->status, net::wireStatus(want.result.status));
        ASSERT_EQ(got->solutions.size(),
                  want.result.solutions.size());
        for (std::size_t s = 0; s < got->solutions.size(); ++s)
            EXPECT_EQ(got->solutions[s],
                      want.result.solutions[s].str());
        EXPECT_EQ(got->output, want.result.output);
        EXPECT_EQ(got->inferences, want.result.inferences);
        EXPECT_EQ(got->steps, want.result.steps);
        EXPECT_EQ(got->modelNs, want.result.timeNs);
        EXPECT_EQ(got->stallNs, want.stallNs);
        EXPECT_EQ(got->seq.moduleSteps, want.seq.moduleSteps);
        EXPECT_EQ(got->seq.branchOps, want.seq.branchOps);
        EXPECT_EQ(got->seq.wfModes, want.seq.wfModes);
        EXPECT_EQ(got->seq.cacheSteps, want.seq.cacheSteps);
        EXPECT_EQ(got->cache.accesses, want.cache.accesses);
        EXPECT_EQ(got->cache.hits, want.cache.hits);
        EXPECT_EQ(got->cache.readIns, want.cache.readIns);
        EXPECT_EQ(got->cache.writeBacks, want.cache.writeBacks);
        EXPECT_EQ(got->cache.stackAllocs, want.cache.stackAllocs);
        EXPECT_EQ(got->cache.throughWrites,
                  want.cache.throughWrites);
    }

    // The run was actually chaotic: faults fired, the client had to
    // recover, and it never ran out of retries.
    net::FaultStats faults = proxy.stats();
    EXPECT_GT(faults.resets, 0u);
    EXPECT_GT(faults.splits, 0u);
    EXPECT_GT(faults.truncatedBytes, 0u);
    const net::RetryStats &retries = client.retryStats();
    EXPECT_GT(retries.reconnects + retries.resubmits, 0u);
    EXPECT_EQ(retries.exhausted, 0u);

    proxy.stop();
}

/**
 * DRAIN racing a pipelined batch: every request ends in exactly one
 * RESULT or one clean connection-level error - never a hang, never a
 * duplicate.  (Submits the server read before the drain finished get
 * a RESULT - completed or a DRAINING refusal; submits still in the
 * socket buffer when the loop exits are reset with the connection,
 * which the client observes as a retryable dead link.)
 */
TEST(Chaos, DrainUnderPipelinedLoadGivesEachRequestOneOutcome)
{
    ServerHarness harness(serverConfig(2, 8));
    net::PsiClient client;
    std::string error;
    ASSERT_TRUE(client.connect("127.0.0.1", harness.port(), &error))
        << error;

    constexpr int kBatch = 12;
    std::vector<std::uint64_t> tags;
    for (int i = 0; i < kBatch; ++i) {
        std::uint64_t tag = 0;
        ASSERT_TRUE(client.sendSubmit("nreverse30", 0, &tag, &error))
            << error;
        tags.push_back(tag);
    }

    std::map<std::uint64_t, int> outcomes;
    // The first RESULT proves the batch is genuinely in flight; the
    // drain then races the remaining eleven.
    auto first = client.recvResult(20'000, &error);
    ASSERT_TRUE(first.has_value()) << error;
    ++outcomes[first->tag];
    harness.server.requestDrain();

    bool died = false;
    for (int i = 1; i < kBatch && !died; ++i) {
        auto result = client.recvResult(20'000, &error);
        if (!result.has_value()) {
            // Must be a clean connection death (unread submits are
            // reset when the drained loop exits), never a timeout
            // with the link still up - that would be a hang.
            EXPECT_FALSE(client.connected()) << error;
            died = true;
            break;
        }
        ++outcomes[result->tag];
        EXPECT_TRUE(result->ran() ||
                    result->status == WireStatus::Draining ||
                    result->status == WireStatus::Overloaded)
            << net::wireStatusName(result->status);
    }

    // At most one outcome per request, and only requests we sent.
    int delivered = 0;
    for (std::uint64_t tag : tags) {
        auto it = outcomes.find(tag);
        if (it == outcomes.end())
            continue;
        EXPECT_EQ(it->second, 1) << "tag " << tag;
        delivered += it->second;
        outcomes.erase(it);
    }
    EXPECT_TRUE(outcomes.empty()) << "unsolicited RESULT tags";
    if (!died) {
        EXPECT_EQ(delivered, kBatch);
    }
}

TEST(Loopback, DrainingServerRefusesNewSubmits)
{
    ServerHarness harness(serverConfig(1, 4));
    net::PsiClient client;
    std::string error;
    ASSERT_TRUE(client.connect("127.0.0.1", harness.port(), &error))
        << error;

    // Park a long job so the drain has something in flight, then
    // drain and immediately submit again on the same connection.
    // lisp_tarai runs for several hundred ms, so its 200 ms deadline
    // sets how long it stays in flight, whatever the engine's speed;
    // a Timeout still counts as ran().
    ASSERT_TRUE(client.sendSubmit("lisp_tarai", 200'000'000ull, nullptr,
                                  &error))
        << error;
    ASSERT_TRUE(client.drain(-1, &error)) << error;
    ASSERT_TRUE(client.sendSubmit("queens1", 0, nullptr, &error))
        << error;

    bool sawDraining = false, sawFirstJob = false;
    for (int i = 0; i < 2; ++i) {
        auto result = client.recvResult(-1, &error);
        ASSERT_TRUE(result.has_value()) << error;
        if (result->status == WireStatus::Draining)
            sawDraining = true;
        else if (result->ran())
            sawFirstJob = true;
    }
    EXPECT_TRUE(sawDraining);
    EXPECT_TRUE(sawFirstJob);
}

} // namespace
