#include "replay.hpp"

#include <memory>
#include <optional>

#include "common.hpp"
#include "net/wire.hpp"
#include "programs/registry.hpp"
#include "schedule.hpp"
#include "service/engine_pool.hpp"

namespace psibench {

using namespace psi;

void
Replayer::warm(const reqlog::Log &log)
{
    for (const reqlog::Entry &e : log.entries)
        _cache.get(programs::programById(e.workload).source);
}

bool
Replayer::run(const reqlog::Entry &e, std::uint64_t req)
{
    std::unique_ptr<SpanScope> root;
    if (_spans)
        root = std::make_unique<SpanScope>(*_spans, "request",
                                           SpanLog::kNoParent, req);
    auto span = [&](const char *layer) -> std::unique_ptr<SpanScope> {
        if (!_spans)
            return nullptr;
        return std::make_unique<SpanScope>(*_spans, layer, root->id(),
                                           req);
    };
    auto decodeFrame = [&](std::string frame) {
        auto s = span("net.decode");
        std::string payload;
        if (net::extractFrame(frame, payload) != net::FrameResult::Frame)
            return std::optional<net::Message>();
        return net::decode(payload);
    };

    std::string submit;
    {
        auto s = span("net.encode");
        submit = net::encode(net::Message(submitFor(e, req)));
    }
    _c.submitBytes += static_cast<double>(submit.size());
    std::optional<net::Message> in = decodeFrame(std::move(submit));
    const auto *msg = in ? std::get_if<net::SubmitMsg>(&*in) : nullptr;
    if (msg == nullptr)
        return false;
    const programs::BenchProgram &p = programs::programById(msg->workload);

    service::ProgramCache::ProgramPtr image;
    {
        auto s = span("service.cache_get");
        image = _cache.get(p.source);
    }
    service::JobOutcome out;
    out.mode = msg->mode;
    if (msg->mode == interp::ExecMode::Fast) {
        {
            auto s = span("fast.load");
            _fast.load(*image);
        }
        {
            auto s = span("fast.solve");
            out.run.result = _fast.solve(p.query);
        }
        _c.indexHits += static_cast<double>(_fast.indexHits());
        _c.clauseTries += static_cast<double>(_fast.clauseTries());
    } else {
        {
            auto s = span("interp.load");
            _engine.load(*image, CacheConfig::psi());
        }
        {
            auto s = span("interp.solve");
            std::uint64_t cpu = threadCpuNs();
            out.run.result = _engine.solve(p.query);
            _c.solveCpuNs += static_cast<double>(threadCpuNs() - cpu);
        }
        out.run.seq = _engine.seq().stats();
        out.run.cache = _engine.mem().cache().stats();
        out.run.stallNs = _engine.mem().stallNs();
        _c.steps += static_cast<double>(out.run.result.steps);
        _c.modelNs += static_cast<double>(out.run.result.timeNs);
        _c.stallNs += static_cast<double>(out.run.stallNs);
        _c.cacheHits += static_cast<double>(out.run.cache.totalHits());
        _c.cacheAccesses +=
            static_cast<double>(out.run.cache.totalAccesses());
    }
    std::string result;
    {
        auto s = span("net.encode");
        result = net::encode(
            net::Message(net::resultFromOutcome(msg->tag, out)));
    }
    _c.resultBytes += static_cast<double>(result.size());
    std::optional<net::Message> back = decodeFrame(std::move(result));
    const auto *r = back ? std::get_if<net::ResultMsg>(&*back) : nullptr;
    return r != nullptr && _oracle.check(e.workload, e.mode, *r);
}

} // namespace psibench
