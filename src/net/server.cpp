#include "net/server.hpp"

#include "base/logging.hpp"
#include "base/trace.hpp"
#include "programs/registry.hpp"

namespace psi {
namespace net {

PsiServer::PsiServer() : PsiServer(Config()) {}

PsiServer::PsiServer(const Config &config)
    : Frontend(config, "server", "psinet", kSupportedFeatures),
      // A server-owned ProgramCache shared by every pool worker:
      // each distinct workload source is compiled once for the
      // lifetime of the server, and its hit/miss counters ride the
      // STATS reply with the rest of the metrics snapshot.
      _pool(service::EnginePool::Config{
          config.workers, config.queueCapacity,
          std::make_shared<service::ProgramCache>(),
          config.scheduler, config.sched})
{}

PsiServer::~PsiServer()
{
    // Drain the pool while the completion queue, its mutex and the
    // wake pipe are still alive: in-flight done-callbacks lock
    // _completionMutex and wake the loop, so letting member
    // destruction (reverse declaration order) reach them first
    // would hand the callbacks destroyed state.  Idempotent when
    // run() already shut the pool down.
    _pool.shutdown();
}

void
PsiServer::run()
{
    serve();
    _pool.shutdown();
}

void
PsiServer::describe(metrics::Registry &r, std::uint64_t wallNs) const
{
    metrics().describe(r, wallNs);
}

void
PsiServer::submit(Conn &conn, SubmitMsg &&msg,
                  std::uint64_t decodeStartNs)
{
    // The tag is minted as soon as the SUBMIT decodes and echoed in
    // its RESULT, a refusal's too, so the client can stitch its own
    // spans onto the same request timeline.
    std::uint64_t traceTag = 0;
    if (trace::enabled()) {
        traceTag = trace::nextTag();
        trace::record(trace::Stage::Decode, traceTag, decodeStartNs,
                      trace::nowNs());
    }
    auto refuse = [&](WireStatus status, std::string why) {
        ResultMsg refused;
        refused.tag = msg.tag;
        refused.status = status;
        refused.error = std::move(why);
        refused.traceTag = traceTag;
        reply(conn, Message(std::move(refused)), traceTag);
    };

    const programs::BenchProgram *program =
        programs::findProgramById(msg.workload);
    if (program == nullptr) {
        refuse(WireStatus::UnknownWorkload,
               "unknown workload '" + msg.workload +
                   "'; available: " + programs::programIdList());
        return;
    }

    service::QueryJob job;
    job.program = *program;
    job.limits.deadlineNs = msg.deadlineNs;
    // v1 clients (hasTenant == false) carry an empty tenant and land
    // in the scheduler's shared default tenant.
    job.tenant = msg.tenant;
    // Pre-v2.2 clients (hasMode == false) run in fidelity mode.
    job.mode = msg.mode;
    job.traceTag = traceTag;

    std::uint64_t connId = conn.id;
    std::uint64_t tag = msg.tag;
    auto done = [this, connId, tag](service::JobOutcome outcome) {
        const std::uint64_t enqueueNs =
            trace::enabled() && outcome.traceTag != 0
                ? trace::nowNs()
                : 0;
        {
            std::lock_guard<std::mutex> lock(_completionMutex);
            _completions.push_back(
                {connId, resultFromOutcome(tag, std::move(outcome)),
                 enqueueNs});
        }
        wake();
    };

    std::optional<service::SubmitError> refused =
        _pool.submitAsync(std::move(job), std::move(done));
    if (!refused) {
        ++_inFlight;
        return;
    }
    switch (*refused) {
      case service::SubmitError::QueueFull:
        refuse(WireStatus::Overloaded,
               "queue full (" +
                   std::to_string(_pool.queueCapacity()) +
                   " jobs); retry later");
        break;
      case service::SubmitError::TenantQuota:
        refuse(WireStatus::Overloaded,
               "tenant over queue quota; retry later");
        break;
      case service::SubmitError::ShutDown:
        refuse(WireStatus::Draining, "server is draining");
        break;
    }
}

void
PsiServer::servePoll(std::span<const pollfd>)
{
    std::vector<Completion> batch;
    {
        std::lock_guard<std::mutex> lock(_completionMutex);
        batch.swap(_completions);
    }
    for (auto &completion : batch) {
        PSI_ASSERT(_inFlight > 0, "completion without in-flight job");
        --_inFlight;
        // A client that went away gets no reply.  Encode starts at
        // the worker's hand-off, so the completion queue + wake
        // latency shows up in the timeline.
        if (Conn *conn = client(completion.connId)) {
            const std::uint64_t traceTag = completion.msg.traceTag;
            reply(*conn, Message(std::move(completion.msg)), traceTag,
                  completion.enqueueNs);
        }
    }
}

} // namespace net
} // namespace psi
