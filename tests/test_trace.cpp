/**
 * @file
 * psitrace + protocol-v2 tests: span recording, cross-thread request
 * stitching, the HELLO version handshake, and the TRACE/METRICS
 * observability round-trips.
 *
 *  - disabled tracing records nothing (the acceptance gate for the
 *    "off by default, near-zero cost" contract)
 *  - EnginePool workers record queue/compile-or-cache-hit/setup/solve
 *    spans under the job's trace tag, and a whole pipelined loopback
 *    run stitches per-request timelines across the server's poll
 *    thread and worker threads
 *  - HELLO negotiation: feature intersection on success, structured
 *    ERROR + connection close on an unsupported major, and fuzzed
 *    version bytes never wedge the server (fresh connections still
 *    served afterwards)
 *  - METRICS returns the Prometheus families EXPERIMENTS.md and CI
 *    grep for
 *
 * Trace state is process-global, so every test here runs under a
 * guard that resets the span buffers and restores the disabled
 * default; servers/pools are declared after the guard so they
 * quiesce before the destructor's reset().
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "fuzz_util.hpp"
#include "psi.hpp"
#include "raw_conn.hpp"

namespace {

using namespace psi;
using net::ErrorMsg;
using net::HelloAckMsg;
using net::HelloMsg;
using net::Message;
using net::WireStatus;
using psi::tests::FrameMutator;
using psi::tests::RawConn;

/** Reset spans on entry; restore the disabled default on exit. */
struct TraceGuard
{
    TraceGuard() { trace::reset(); }
    ~TraceGuard()
    {
        trace::setEnabled(false);
        trace::reset();
    }
};

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

    ~ServerHarness() { drain(); }

    /** Drain and join now (makes the trace buffers quiescent). */
    void
    drain()
    {
        server.requestDrain();
        if (loop.joinable())
            loop.join();
    }

    std::uint16_t port() const { return server.port(); }
};

net::PsiServer::Config
serverConfig(unsigned workers, std::size_t capacity)
{
    net::PsiServer::Config config;
    config.port = 0; // ephemeral
    config.workers = workers;
    config.queueCapacity = capacity;
    return config;
}

/** Spans of one tag, keyed by stage, for stitching assertions. */
std::map<trace::Stage, std::vector<trace::Span>>
spansByStage(const std::vector<trace::Span> &spans,
             std::uint64_t tag)
{
    std::map<trace::Stage, std::vector<trace::Span>> out;
    for (const trace::Span &s : spans)
        if (s.tag == tag)
            out[s.stage].push_back(s);
    return out;
}

// ---------------------------------------------------------------------
// Core recording
// ---------------------------------------------------------------------

TEST(TraceCore, DisabledRecordsNothing)
{
    TraceGuard guard;
    ASSERT_FALSE(trace::enabled());

    // A direct record() and a fully traced pool job: both no-ops.
    trace::record(trace::Stage::Solve, trace::nextTag(), 10, 20);
    {
        service::EnginePool::Config config;
        config.workers = 1;
        config.queueCapacity = 2;
        service::EnginePool pool(config);
        service::QueryJob job{programs::programById("nreverse30"),
                              CacheConfig::psi(),
                              interp::RunLimits()};
        job.traceTag = trace::nextTag();
        auto fut = pool.submit(std::move(job));
        ASSERT_TRUE(fut.has_value());
        service::JobOutcome out = fut->get();
        EXPECT_TRUE(out.ok()) << out.error;
    }

    EXPECT_TRUE(trace::collect().empty());
    EXPECT_EQ(trace::droppedSpans(), 0u);
}

TEST(TraceCore, PoolStagesStitchUnderOneTag)
{
    TraceGuard guard;
    trace::setEnabled(true);

    std::uint64_t firstTag = 0, secondTag = 0;
    {
        service::EnginePool::Config config;
        config.workers = 1;
        config.queueCapacity = 2;
        service::EnginePool pool(config);

        // Same workload twice: the first request compiles into the
        // program cache, the second must be served from it.
        for (std::uint64_t *tag : {&firstTag, &secondTag}) {
            service::QueryJob job{
                programs::programById("nreverse30"),
                CacheConfig::psi(), interp::RunLimits()};
            *tag = trace::nextTag();
            job.traceTag = *tag;
            service::JobOutcome out =
                pool.submit(std::move(job))->get();
            ASSERT_TRUE(out.ok()) << out.error;
            EXPECT_EQ(out.traceTag, *tag);
        }
    } // pool joined: recorders quiescent

    std::vector<trace::Span> spans = trace::collect();

    auto first = spansByStage(spans, firstTag);
    for (trace::Stage want :
         {trace::Stage::Queue, trace::Stage::Compile,
          trace::Stage::Setup, trace::Stage::Solve}) {
        EXPECT_EQ(first[want].size(), 1u)
            << "stage " << trace::stageName(want);
    }
    EXPECT_TRUE(first[trace::Stage::CacheHit].empty());

    auto second = spansByStage(spans, secondTag);
    EXPECT_EQ(second[trace::Stage::CacheHit].size(), 1u);
    EXPECT_TRUE(second[trace::Stage::Compile].empty());
    ASSERT_EQ(second[trace::Stage::Queue].size(), 1u);
    ASSERT_EQ(second[trace::Stage::Setup].size(), 1u);
    ASSERT_EQ(second[trace::Stage::Solve].size(), 1u);

    // One timeline: queue wait precedes setup precedes solve.
    const trace::Span &queue = second[trace::Stage::Queue][0];
    const trace::Span &setup = second[trace::Stage::Setup][0];
    const trace::Span &solve = second[trace::Stage::Solve][0];
    EXPECT_LE(queue.startNs, setup.startNs);
    EXPECT_LE(setup.startNs, solve.startNs);
    EXPECT_LE(setup.startNs + setup.durNs, solve.startNs + solve.durNs);
}

TEST(TraceCore, ChromeJsonCarriesStageNamesAndTags)
{
    TraceGuard guard;
    trace::setEnabled(true);

    trace::record(trace::Stage::Solve, 77, 1000, 251'000);
    trace::record(trace::Stage::Queue, 78, 2000, 3500);
    std::string json = trace::chromeJson(trace::collect());

    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"name\": \"solve\""), std::string::npos);
    EXPECT_NE(json.find("\"name\": \"queue\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(json.find("\"tag\": 77"), std::string::npos);
    // ns -> us with three fractional digits: 1000 ns = 1.000 us,
    // duration 250000 ns = 250.000 us.
    EXPECT_NE(json.find("\"ts\": 1.000"), std::string::npos);
    EXPECT_NE(json.find("\"dur\": 250.000"), std::string::npos);
}

// ---------------------------------------------------------------------
// HELLO negotiation
// ---------------------------------------------------------------------

TEST(Hello, NegotiatesVersionAndFeatureIntersection)
{
    ServerHarness harness(serverConfig(1, 4));
    std::string error;

    net::PsiClient all;
    ASSERT_TRUE(all.connect("127.0.0.1", harness.port(), &error))
        << error;
    auto ack = all.hello(net::kSupportedFeatures, -1, &error);
    ASSERT_TRUE(ack.has_value()) << error;
    EXPECT_EQ(ack->versionMajor, net::kProtocolMajor);
    EXPECT_EQ(ack->features, net::kSupportedFeatures);

    // A client offering a subset gets exactly that subset back.
    net::PsiClient subset;
    ASSERT_TRUE(subset.connect("127.0.0.1", harness.port(), &error))
        << error;
    ack = subset.hello(net::kFeatureTrace, -1, &error);
    ASSERT_TRUE(ack.has_value()) << error;
    EXPECT_EQ(ack->features, net::kFeatureTrace);

    // The negotiated connection still serves work.
    auto result =
        all.submit(net::Request{"nreverse30"}, nullptr, &error);
    ASSERT_TRUE(result.has_value()) << error;
    EXPECT_EQ(result->status, WireStatus::Ok);
}

TEST(Hello, UnsupportedMajorGetsStructuredErrorAndClose)
{
    ServerHarness harness(serverConfig(1, 4));

    RawConn conn(harness.port());
    HelloMsg bad;
    bad.versionMajor = 99;
    ASSERT_TRUE(conn.sendAll(net::encode(Message(bad))));

    bool eof = false;
    auto reply = conn.readMessage(&eof);
    ASSERT_TRUE(reply.has_value()) << "no ERROR before close";
    ASSERT_TRUE(std::holds_alternative<ErrorMsg>(*reply));
    const auto &err = std::get<ErrorMsg>(*reply);
    EXPECT_EQ(err.code, net::kErrUnsupportedVersion);
    EXPECT_NE(err.message.find("unsupported protocol major 99"),
              std::string::npos)
        << err.message;

    // The connection is closed after the refusal.
    reply = conn.readMessage(&eof);
    EXPECT_FALSE(reply.has_value());
    EXPECT_TRUE(eof) << "server kept a refused connection open";

    // The reject is counted and the server still serves others.
    net::PsiClient client;
    std::string error;
    ASSERT_TRUE(client.connect("127.0.0.1", harness.port(), &error))
        << error;
    ASSERT_TRUE(client.hello(net::kSupportedFeatures, -1, &error))
        << error;
    auto snap = harness.server.metrics();
    EXPECT_EQ(snap.netVersionRejects, 1u);
}

TEST(Hello, FuzzedVersionBytesNeverWedgeTheServer)
{
    ServerHarness harness(serverConfig(1, 8));

    // A corpus of HELLOs whose version/feature words the mutator
    // scrambles: whatever arrives, the server must answer (ack or
    // error) or drop - and keep serving fresh connections.
    std::vector<std::string> corpus;
    corpus.push_back(net::encode(Message(HelloMsg{})));
    HelloMsg v1;
    v1.versionMajor = 1;
    v1.versionMinor = 7;
    v1.features = 0;
    corpus.push_back(net::encode(Message(v1)));
    HelloMsg future;
    future.versionMajor = 0xffffffffu;
    future.versionMinor = 0xffffffffu;
    future.features = 0xffffffffffffffffull;
    corpus.push_back(net::encode(Message(future)));

    FrameMutator mutator(20260805, corpus);
    for (int i = 0; i < 60; ++i) {
        SCOPED_TRACE(i);
        // Short read timeout: a length-lying mutant leaves the
        // server legitimately waiting for more bytes, and waiting
        // out the full timeout on each would dominate the test.
        RawConn conn(harness.port(), {0, 200'000});
        ASSERT_TRUE(conn.sendAll(mutator.mutate()));
        // Nudge the framer with a trailing valid HELLO so a
        // truncated mutant is not just an eternal NeedMore.
        conn.sendAll(net::encode(Message(HelloMsg{})));
        bool eof = false;
        conn.readMessage(&eof); // ack, error, or clean close - all fine
    }

    net::PsiClient client;
    std::string error;
    ASSERT_TRUE(client.connect("127.0.0.1", harness.port(), &error))
        << error;
    ASSERT_TRUE(client.hello(net::kSupportedFeatures, -1, &error))
        << error;
    auto result =
        client.submit(net::Request{"nreverse30"}, nullptr, &error);
    ASSERT_TRUE(result.has_value()) << error;
    EXPECT_EQ(result->status, WireStatus::Ok);
}

// ---------------------------------------------------------------------
// Loopback observability: TRACE / METRICS round-trips, stitching
// ---------------------------------------------------------------------

TEST(Observability, TraceReplyStitchesPipelinedConnections)
{
    TraceGuard guard;
    trace::setEnabled(true);

    std::vector<std::uint64_t> traceTags;
    std::string traceJson;
    {
        ServerHarness harness(serverConfig(2, 16));
        std::string error;

        // Two connections, four pipelined requests each: the spans
        // must stitch per request across the poll thread and both
        // workers, not per connection.
        net::PsiClient a, b;
        ASSERT_TRUE(a.connect("127.0.0.1", harness.port(), &error))
            << error;
        ASSERT_TRUE(b.connect("127.0.0.1", harness.port(), &error))
            << error;
        constexpr int kPerConn = 4;
        for (int i = 0; i < kPerConn; ++i) {
            ASSERT_TRUE(
                a.sendSubmit("nreverse30", 0, nullptr, &error))
                << error;
            ASSERT_TRUE(
                b.sendSubmit("qsort50", 0, nullptr, &error))
                << error;
        }
        for (net::PsiClient *client : {&a, &b}) {
            for (int i = 0; i < kPerConn; ++i) {
                auto result = client->recvResult(20'000, &error);
                ASSERT_TRUE(result.has_value()) << error;
                ASSERT_EQ(result->status, WireStatus::Ok);
                EXPECT_NE(result->traceTag, 0u)
                    << "tracing on but RESULT carries no tag";
                traceTags.push_back(result->traceTag);
            }
        }

        // The TRACE message serves the same spans over the wire.
        auto json = a.traceJson(-1, &error);
        ASSERT_TRUE(json.has_value()) << error;
        traceJson = *json;

        harness.drain(); // quiesce before collect()
    }

    // Each request's tag is unique and owns a complete timeline:
    // decode -> queue -> setup -> solve -> encode -> reply, plus a
    // second decode recorded by the client for its RESULT.
    std::set<std::uint64_t> unique(traceTags.begin(),
                                   traceTags.end());
    EXPECT_EQ(unique.size(), traceTags.size());

    std::vector<trace::Span> spans = trace::collect();
    for (std::uint64_t tag : traceTags) {
        SCOPED_TRACE(tag);
        auto stages = spansByStage(spans, tag);
        for (trace::Stage want :
             {trace::Stage::Queue, trace::Stage::Setup,
              trace::Stage::Solve, trace::Stage::Encode,
              trace::Stage::Reply}) {
            EXPECT_EQ(stages[want].size(), 1u)
                << "stage " << trace::stageName(want);
        }
        // Server SUBMIT decode + client RESULT decode.
        EXPECT_EQ(stages[trace::Stage::Decode].size(), 2u);
        // Exactly one of compile / cache-hit, never both.
        EXPECT_EQ(stages[trace::Stage::Compile].size() +
                      stages[trace::Stage::CacheHit].size(),
                  1u);
        // The earlier decode is the server's; it precedes the queue.
        EXPECT_LE(std::min(stages[trace::Stage::Decode][0].startNs,
                           stages[trace::Stage::Decode][1].startNs),
                  stages[trace::Stage::Queue][0].startNs);
    }

    // The wire dump is the same data: every stage name appears.
    for (const char *name :
         {"decode", "queue", "setup", "solve", "encode", "reply"})
        EXPECT_NE(traceJson.find(std::string("\"name\": \"") + name),
                  std::string::npos)
            << name;
}

/** A refused SUBMIT is traced like an admitted one: its RESULT
 *  echoes the tag minted as the SUBMIT decoded, and the server's
 *  Decode, Encode and Reply spans and the client's Decode span all
 *  sit under that tag. */
TEST(Observability, RefusedSubmitsEchoTheirTraceTag)
{
    TraceGuard guard;
    trace::setEnabled(true);

    std::vector<std::uint64_t> refusedTags;
    {
        // One worker, one queue slot: a pipelined burst overflows,
        // as in Loopback.SaturatedQueueRepliesOverloaded.
        ServerHarness harness(serverConfig(1, 1));
        net::PsiClient client;
        std::string error;
        ASSERT_TRUE(
            client.connect("127.0.0.1", harness.port(), &error))
            << error;

        auto unknown = client.submit(net::Request{"no_such_workload"},
                                     nullptr, &error);
        ASSERT_TRUE(unknown.has_value()) << error;
        ASSERT_EQ(unknown->status, WireStatus::UnknownWorkload);
        refusedTags.push_back(unknown->traceTag);

        constexpr int kBurst = 8;
        constexpr std::uint64_t kDeadlineNs = 200'000'000;
        for (int i = 0; i < kBurst; ++i)
            ASSERT_TRUE(client.sendSubmit("bup3", kDeadlineNs, nullptr,
                                          &error))
                << error;
        int overloaded = 0;
        for (int i = 0; i < kBurst; ++i) {
            auto result = client.recvResult(-1, &error);
            ASSERT_TRUE(result.has_value()) << error;
            if (result->status == WireStatus::Overloaded) {
                ++overloaded;
                refusedTags.push_back(result->traceTag);
            }
        }
        EXPECT_GE(overloaded, kBurst - 2);

        harness.drain(); // quiesce before collect()
    }

    std::vector<trace::Span> spans = trace::collect();
    for (std::uint64_t tag : refusedTags) {
        SCOPED_TRACE(tag);
        ASSERT_NE(tag, 0u) << "refusal carries no trace tag";
        auto stages = spansByStage(spans, tag);
        // Server SUBMIT decode + client RESULT decode.
        EXPECT_EQ(stages[trace::Stage::Decode].size(), 2u);
        EXPECT_EQ(stages[trace::Stage::Encode].size(), 1u);
        EXPECT_EQ(stages[trace::Stage::Reply].size(), 1u);
        EXPECT_TRUE(stages[trace::Stage::Queue].empty())
            << "a refused request never reached the pool";
    }
}

TEST(Observability, MetricsReplyCarriesPrometheusFamilies)
{
    ServerHarness harness(serverConfig(1, 4));
    net::PsiClient client;
    std::string error;
    ASSERT_TRUE(client.connect("127.0.0.1", harness.port(), &error))
        << error;
    for (int i = 0; i < 2; ++i) {
        auto result =
            client.submit(net::Request{"nreverse30"}, nullptr,
                          &error);
        ASSERT_TRUE(result.has_value()) << error;
        ASSERT_EQ(result->status, WireStatus::Ok);
    }

    auto text = client.metricsText(-1, &error);
    ASSERT_TRUE(text.has_value()) << error;

    for (const char *family :
         {"# TYPE psi_jobs_completed_total counter",
          "psi_jobs_completed_total 2",
          "psi_request_stage_seconds{stage=\"queue\",quantile=\"0.5\"}",
          "psi_request_stage_seconds{stage=\"solve\",quantile=\"0.99\"}",
          "psi_firmware_module_steps_total{module=",
          "psi_cache_command_steps_total{cmd=",
          "psi_cache_accesses_total{area=",
          "psi_cache_hits_total{area=",
          "psi_program_cache_hits_total 1",
          "psi_program_cache_misses_total 1",
          "psi_net_conns_accepted_total"})
        EXPECT_NE(text->find(family), std::string::npos) << family;
}

TEST(Observability, TracingDisabledYieldsNoSpansOverLoopback)
{
    TraceGuard guard;
    ASSERT_FALSE(trace::enabled());
    {
        ServerHarness harness(serverConfig(1, 4));
        net::PsiClient client;
        std::string error;
        ASSERT_TRUE(
            client.connect("127.0.0.1", harness.port(), &error))
            << error;
        auto result = client.submit(net::Request{"nreverse30"},
                                    nullptr, &error);
        ASSERT_TRUE(result.has_value()) << error;
        EXPECT_EQ(result->status, WireStatus::Ok);
        EXPECT_EQ(result->traceTag, 0u)
            << "RESULT carries a tag with tracing off";

        // The TRACE surface stays available; it just has no spans.
        auto json = client.traceJson(-1, &error);
        ASSERT_TRUE(json.has_value()) << error;
        EXPECT_EQ(json->find("\"ph\": \"X\""), std::string::npos);
    }
    EXPECT_TRUE(trace::collect().empty());
}

} // namespace
