/**
 * @file
 * psinet wire bytes, pinned: one frame of every message type (all
 * three SUBMIT forms, and a RESULT with a distinct non-zero value in
 * every SeqStats/CacheStats cell) in hex, plus decode()'s verdict on
 * the inputs a hostile or older peer sends - an empty payload,
 * unknown type bytes, every frame cut short by one byte or carrying
 * one trailing byte, and an unknown SUBMIT mode byte - compared with
 * tests/golden/wire_frames.txt.
 *
 * The round-trip and fuzz suites accept any codec that agrees with
 * itself; this file is what notices a field moved, resized or
 * reordered in both directions at once.  A deliberate wire change
 * edits the golden file in the same change.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "net/wire.hpp"

#ifndef PSI_GOLDEN_DIR
#error "PSI_GOLDEN_DIR must name tests/golden"
#endif

using namespace psi;
using namespace psi::net;

namespace {

/** Distinct, non-zero and eight bytes wide, so a swapped, dropped
 *  or byte-reversed field changes the frame. */
std::uint64_t
cell(std::uint64_t k)
{
    return 0x0102030405060708ull + (k << 40) + k;
}

ResultMsg
countersResult()
{
    ResultMsg m;
    std::uint64_t k = 0;
    m.tag = cell(++k);
    m.status = WireStatus::Timeout;
    m.error = "deadline 5 ms";
    m.solutions = {"X = 1", "X = [a,b]"};
    m.output = "hello\n";
    m.inferences = cell(++k);
    m.steps = cell(++k);
    m.modelNs = cell(++k);
    m.stallNs = cell(++k);
    for (auto &v : m.seq.moduleSteps)
        v = cell(++k);
    for (auto &v : m.seq.branchOps)
        v = cell(++k);
    for (auto &row : m.seq.wfModes)
        for (auto &v : row)
            v = cell(++k);
    for (auto &v : m.seq.cacheSteps)
        v = cell(++k);
    for (auto &row : m.cache.accesses)
        for (auto &v : row)
            v = cell(++k);
    for (auto &row : m.cache.hits)
        for (auto &v : row)
            v = cell(++k);
    m.cache.readIns = cell(++k);
    m.cache.writeBacks = cell(++k);
    m.cache.stackAllocs = cell(++k);
    m.cache.throughWrites = cell(++k);
    m.queueNs = cell(++k);
    m.execNs = cell(++k);
    m.latencyNs = cell(++k);
    m.traceTag = cell(++k);
    return m;
}

/** One frame per message type, each SUBMIT form separately. */
std::vector<std::pair<std::string, Message>>
messages()
{
    std::vector<std::pair<std::string, Message>> out;
    out.emplace_back("submit.v1", SubmitBuilder(42, "queens1")
                                      .deadlineNs(5'000'000'000ull)
                                      .build());
    out.emplace_back("submit.v2.1", SubmitBuilder(43, "qsort50")
                                        .deadlineNs(1'000'000ull)
                                        .tenant("team-a")
                                        .build());
    out.emplace_back("submit.v2.2", SubmitBuilder(44, "nreverse30")
                                        .tenant("team-b")
                                        .mode(interp::ExecMode::Fast)
                                        .build());
    out.emplace_back("result", countersResult());
    out.emplace_back("stats", StatsMsg{});
    out.emplace_back("stats_reply", StatsReplyMsg{"{\"completed\": 3}"});
    out.emplace_back("drain", DrainMsg{});
    out.emplace_back("drain_ack", DrainAckMsg{});
    out.emplace_back("hello", HelloMsg{2, 7, 0x1bull});
    out.emplace_back("hello_ack", HelloAckMsg{2, 2, 0x0bull});
    out.emplace_back("error",
                     ErrorMsg{kErrUnsupportedVersion,
                              "unsupported protocol major 99"});
    out.emplace_back("trace", TraceMsg{});
    out.emplace_back("trace_reply",
                     TraceReplyMsg{"{\"traceEvents\": []}"});
    out.emplace_back("metrics", MetricsMsg{});
    out.emplace_back("metrics_reply",
                     MetricsReplyMsg{"psi_workers 4\n"});
    return out;
}

std::string
hex(const std::string &bytes)
{
    static const char digits[] = "0123456789abcdef";
    std::string out;
    for (unsigned char c : bytes) {
        out.push_back(digits[c >> 4]);
        out.push_back(digits[c & 0xf]);
    }
    return out;
}

/** decode()'s verdict: the decoder's error, or the type byte the
 *  decoded message re-encodes under. */
std::string
verdict(const std::string &payload)
{
    std::string error;
    std::optional<Message> msg = decode(payload, &error);
    if (!msg)
        return "error: " + error;
    const std::string frame = encode(*msg);
    return "ok, type " +
           std::to_string(static_cast<unsigned char>(
               frame[kFrameHeaderBytes]));
}

std::string
renderAll()
{
    std::ostringstream out;
    std::vector<std::pair<std::string, std::string>> frames;
    out << "== frames (hex, length header included)\n";
    for (const auto &[name, msg] : messages()) {
        frames.emplace_back(name, encode(msg));
        out << name << ' ' << hex(frames.back().second) << '\n';
    }

    out << "== decode verdicts\n";
    out << "empty payload: " << verdict("") << '\n';
    for (int type : {0, 14})
        out << "type byte " << type << ": "
            << verdict(std::string(1, static_cast<char>(type)))
            << '\n';
    for (const auto &[name, frame] : frames) {
        const std::string payload = frame.substr(kFrameHeaderBytes);
        out << name << " cut by one byte: "
            << verdict(payload.substr(0, payload.size() - 1)) << '\n';
    }
    for (const auto &[name, frame] : frames) {
        const std::string payload = frame.substr(kFrameHeaderBytes);
        out << name << " plus one 00 byte: "
            << verdict(payload + '\0') << '\n';
    }
    // The v2.2 mode byte is the payload's last byte; 2 is one past
    // ExecMode::Fast.
    std::string badMode = frames[2].second.substr(kFrameHeaderBytes);
    badMode.back() = 0x02;
    out << "submit.v2.2 mode byte 2: " << verdict(badMode) << '\n';
    return out.str();
}

TEST(Wire, FramesMatchGolden)
{
    std::ifstream in(PSI_GOLDEN_DIR "/wire_frames.txt");
    ASSERT_TRUE(in) << "cannot read " PSI_GOLDEN_DIR "/wire_frames.txt";
    std::ostringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(renderAll(), golden.str());
}

} // namespace
