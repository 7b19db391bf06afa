/**
 * @file
 * psid engine pool: N worker threads serving batch queries.
 *
 * Architecture (one box per worker):
 *
 *     submit() ──> sched::Scheduler<Job> ──> worker 0 [warm Engine]
 *        │          (WFQ + EDF + affinity    worker 1 [warm Engine]
 *        └─ std::future<JobOutcome>  batching)  ...  [metrics shard]
 *                                          │
 *                               shared ProgramCache
 *                            (compile once per source)
 *
 * Dispatch is pull-based: each worker asks the scheduler for its
 * next job, passing the affinity key of the image its warm engine
 * currently holds, so the scheduler can batch same-image requests
 * onto the worker that already has the image resident (see
 * sched/scheduler.hpp for the fairness/affinity/age policy).  The
 * default AffinityScheduler reorders dispatch but never results:
 * Engine::load() still fully resets the machine per job, so results
 * and hardware statistics stay byte-identical to sequential
 * runOnPsi() under any dispatch order.  SchedKind::Fifo restores
 * the original strict arrival order.
 *
 * PSI engines are stateful and non-reentrant (heap image, work file,
 * cache), so the pool never shares one between threads.  Each worker
 * keeps one long-lived private Engine; per job it fetches the
 * immutable kl0::CompiledProgram from the shared ProgramCache
 * (compiling only on the first sight of a source) and installs it
 * with Engine::load(), which fully resets machine, memory, cache and
 * statistics state.  The reset/replay path reproduces the physical
 * memory layout of a fresh consult exactly, so a concurrent batch
 * still produces byte-identical per-program results and hardware
 * statistics to sequential runOnPsi() - the property the service
 * tests pin down - while keeping parse/normalize/codegen off the
 * per-request hot path.
 *
 * Deadlines ride in RunLimits::deadlineNs and cover the whole
 * request, starting at submit: queue wait is charged against the
 * budget, a job that expires while queued completes as
 * RunStatus::Timeout without touching an engine, and a runaway query
 * returns RunStatus::Timeout with partial statistics so its worker
 * moves on instead of wedging.
 */

#ifndef PSI_SERVICE_ENGINE_POOL_HPP
#define PSI_SERVICE_ENGINE_POOL_HPP

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "interp/machine.hpp"
#include "mem/cache.hpp"
#include "programs/registry.hpp"
#include "sched/scheduler.hpp"
#include "service/metrics.hpp"
#include "service/program_cache.hpp"
#include "system.hpp"

namespace psi {
namespace service {

/** One batch query: a workload plus its machine configuration. */
struct QueryJob
{
    programs::BenchProgram program;
    CacheConfig cache = CacheConfig::psi();
    interp::RunLimits limits;   ///< includes the deadlineNs budget
    /** psitrace request tag (trace::nextTag()); 0 = don't trace.
     *  Workers record queue/compile/setup/solve spans under it. */
    std::uint64_t traceTag = 0;
    /** Scheduling tenant (fairness + quota unit).  "" = the shared
     *  default tenant every v1 (tenant-less) client lands in. */
    std::string tenant = {};
    /** Execution mode.  Fidelity runs the microcoded interpreter and
     *  fills the hardware statistics (the paper's Tables 2-7); Fast
     *  runs the same firmware on flat storage, byte-identical in
     *  answers but reporting zero steps/model-time/cache stats. */
    interp::ExecMode mode = interp::ExecMode::Fidelity;
    /** Image compile options (first-argument indexing, builtin
     *  specialization).  Folded into the program-cache key, so jobs
     *  with different options never share an image. */
    kl0::CompileOptions compile = {};
};

/** What the pool hands back through the job's future. */
struct JobOutcome
{
    std::string id;             ///< program id, for correlation
    PsiRun run;                 ///< result + hardware statistics
    std::string error;          ///< FatalError text; empty = ran
    std::uint64_t queueNs = 0;  ///< host: submit -> worker pickup
    std::uint64_t execNs = 0;   ///< host: setup + solve
    std::uint64_t setupNs = 0;  ///< host: program fetch + load
    std::uint64_t solveNs = 0;  ///< host: query compile + run
    std::uint64_t latencyNs = 0;///< host: submit -> completion
    std::uint64_t traceTag = 0; ///< echo of QueryJob::traceTag
    /** Echo of QueryJob::mode (which engine served the job). */
    interp::ExecMode mode = interp::ExecMode::Fidelity;
    /** Calls dispatched through a first-argument index. */
    std::uint64_t indexHits = 0;
    /** Indexed calls that fell back to the linear clause chain. */
    std::uint64_t indexFallbacks = 0;
    /** True when the deadline budget was exhausted by queue wait
     *  alone; the job completed as Timeout without running. */
    bool expired = false;

    bool ok() const { return error.empty(); }
    interp::RunStatus status() const { return run.result.status; }
};

/** Submission policy when the queue is full. */
enum class Submit
{
    Block,    ///< wait for space (backpressure onto the producer)
    FailFast, ///< refuse immediately; the pool counts the rejection
};

/**
 * Why a submission was refused.  Network front ends map QueueFull
 * and TenantQuota to an OVERLOADED reply (backpressure surfaced to
 * the client) and ShutDown to a DRAINING reply.
 */
enum class SubmitError : std::uint8_t
{
    QueueFull,   ///< fail-fast submission against a full queue
    TenantQuota, ///< fail-fast: the job's tenant is over quota
    ShutDown,    ///< the pool is draining / shut down
};

/** Fixed-size pool of isolated PSI engine workers. */
class EnginePool
{
  public:
    struct Config
    {
        unsigned workers = 4;
        std::size_t queueCapacity = 64;
        /** Compiled-program cache shared by the workers.  Leave null
         *  and the pool creates a private one; inject an instance to
         *  share compiles across pools (or to pre-warm it). */
        std::shared_ptr<ProgramCache> programCache;
        /** Dispatch policy; Affinity is the production default,
         *  Fifo restores the original strict arrival order. */
        sched::SchedKind scheduler = sched::SchedKind::Affinity;
        /** Fairness/affinity knobs.  sched.capacity is ignored: the
         *  pool always uses queueCapacity as the global bound. */
        sched::SchedConfig sched = {};
    };

    EnginePool();
    explicit EnginePool(const Config &config);
    ~EnginePool();

    EnginePool(const EnginePool &) = delete;
    EnginePool &operator=(const EnginePool &) = delete;

    /**
     * Submit one job.
     *
     * @return a future for the job's outcome, or std::nullopt when
     *         the job was refused (FailFast with a full queue, or
     *         the pool is shut down).
     */
    std::optional<std::future<JobOutcome>>
    submit(QueryJob job, Submit mode = Submit::Block);

    /**
     * Callback flavor of submit() for event-loop callers (psinet):
     * @p done runs on the worker thread that executed the job, so it
     * must be cheap and thread-safe (typically: push the outcome
     * onto a completion queue and wake the loop).
     *
     * @return std::nullopt when the job was accepted, otherwise the
     *         refusal reason so the caller can tell overload
     *         (QueueFull) from drain (ShutDown) apart.
     */
    std::optional<SubmitError>
    submitAsync(QueryJob job, std::function<void(JobOutcome)> done,
                Submit mode = Submit::FailFast);

    /**
     * Stop accepting jobs, drain the queue and join the workers.
     * Idempotent; also run by the destructor.  This is the graceful
     * drain: jobs already accepted still execute and complete their
     * futures/callbacks before the workers exit.
     */
    void shutdown();

    /** Merge every worker shard into one snapshot. */
    MetricsSnapshot metrics() const;

    /** The shared compiled-program cache (for tests and tools). */
    ProgramCache &programCache() { return *_programCache; }

    unsigned workers() const { return _config.workers; }
    std::size_t queueCapacity() const { return _sched->capacity(); }
    std::size_t queueDepth() const { return _sched->size(); }
    sched::SchedKind schedulerKind() const { return _sched->kind(); }

  private:
    struct Job
    {
        QueryJob query;
        std::promise<JobOutcome> promise;
        /** Set for submitAsync() jobs; used instead of the promise. */
        std::function<void(JobOutcome)> done;
        std::chrono::steady_clock::time_point submitted;
    };

    std::optional<SubmitError> enqueue(Job &&job, Submit mode);

    /** Per-worker metrics shard; the lock is shard-private, so
     *  workers never contend with each other, only with a
     *  concurrent metrics() reader. */
    struct Shard
    {
        mutable std::mutex m;
        WorkerMetrics wm;
    };

    void workerMain(unsigned index);

    Config _config;
    std::shared_ptr<ProgramCache> _programCache;
    std::unique_ptr<sched::Scheduler<Job>> _sched;
    std::vector<std::unique_ptr<Shard>> _shards;
    std::vector<std::thread> _threads;
    std::atomic<std::uint64_t> _submitted{0};
    std::atomic<std::uint64_t> _rejected{0};
    std::atomic<std::uint64_t> _peakDepth{0};
    std::atomic<bool> _shutdown{false};
};

} // namespace service
} // namespace psi

#endif // PSI_SERVICE_ENGINE_POOL_HPP
