/**
 * @file
 * psisched observability: the point-in-time snapshot a Scheduler
 * publishes and its metrics, declared once in describe() (the flat
 * STATS keys sched_* and tenant_*, the psi_sched_* Prometheus
 * families; see base/metrics.hpp).
 *
 * Kept separate from the scheduler templates so the service metrics
 * code can embed and describe a SchedSnapshot without instantiating
 * Scheduler<T>, and so tenant label sanitization lives in one .cpp
 * next to the policy it describes.
 *
 * Tenant cardinality is bounded by SchedConfig::maxTenants (overflow
 * tenants collapse into one "~other" bucket), so the per-tenant
 * families here cannot blow up the Prometheus surface no matter what
 * tenant ids clients send.
 */

#ifndef PSI_SCHED_METRICS_HPP
#define PSI_SCHED_METRICS_HPP

#include <cstdint>
#include <string>
#include <vector>

namespace psi {
namespace metrics {
class Registry;
}

namespace sched {

/** Which Scheduler implementation a pool runs. */
enum class SchedKind : std::uint8_t
{
    Fifo,     ///< the original single arrival-order queue
    Affinity, ///< WFQ + EDF + cache-affinity batching (production)
};

const char *schedKindName(SchedKind kind);

/** Parse a --sched flag value; @return false on unknown name. */
bool parseSchedKind(const std::string &name, SchedKind &out);

/**
 * Why the scheduler picked a particular job for a worker.  Recorded
 * per dispatch and attributed to the psitrace queue span so traces
 * show whether a request waited for fairness or rode a warm image.
 */
enum class DispatchClass : std::uint8_t
{
    Fair,     ///< head of the weighted-fair (EDF tie-broken) order
    Affinity, ///< batched behind the worker's loaded image
    Aged,     ///< anti-starvation override: oldest job hit the age cap
};

const char *dispatchClassName(DispatchClass cls);

/** One tenant's slice of the scheduler counters. */
struct TenantSnapshot
{
    std::string name;
    std::uint64_t weight = 1;        ///< WFQ share
    std::uint64_t depth = 0;         ///< queued right now
    std::uint64_t admitted = 0;      ///< accepted into the queue
    std::uint64_t rejected = 0;      ///< refused: queue full
    std::uint64_t quotaRejected = 0; ///< refused: per-tenant quota
    std::uint64_t dispatched = 0;    ///< handed to a worker
    std::uint64_t waitNs = 0;        ///< total submit -> dispatch wait

    double meanWaitNs() const
    {
        return dispatched == 0
            ? 0.0
            : static_cast<double>(waitNs) /
                  static_cast<double>(dispatched);
    }
};

/** Point-in-time scheduler counters (all monotonic except depth). */
struct SchedSnapshot
{
    SchedKind kind = SchedKind::Fifo;
    std::uint64_t affinityHits = 0;   ///< dispatch key == loaded image
    std::uint64_t affinityMisses = 0; ///< dispatch forced an image swap
    std::uint64_t agedDispatches = 0; ///< age-cap overrides
    std::uint64_t fairDispatches = 0; ///< fair-order dispatches
    std::uint64_t affinityDispatches = 0; ///< batched dispatches
    std::uint64_t batches = 0;        ///< same-key runs started
    std::uint64_t batchJobs = 0;      ///< jobs dispatched inside runs
    std::uint64_t maxBatchRun = 0;    ///< longest same-key run seen
    std::uint64_t quotaRejects = 0;   ///< sum of tenant quota refusals
    std::vector<TenantSnapshot> tenants; ///< stable intern order

    std::uint64_t dispatches() const
    {
        return affinityHits + affinityMisses;
    }
    double affinityHitRatio() const
    {
        std::uint64_t d = dispatches();
        return d == 0 ? 0.0
                      : static_cast<double>(affinityHits) /
                            static_cast<double>(d);
    }
    /** Declare every scheduler metric to @p r. */
    void describe(metrics::Registry &r) const;
};

/**
 * Clamp a client-supplied tenant id to a safe metrics label:
 * [A-Za-z0-9_.-] pass through, anything else (including '~', which
 * is reserved for the fold bucket) becomes '_', length is capped,
 * and an empty id maps to "default" (the v1 shared tenant).  The
 * output never needs escaping as a JSON key or a Prometheus label
 * value, and can never equal kOverflowTenant.
 */
std::string sanitizeTenantName(const std::string &name);

/** The bucket absorbing tenants past SchedConfig::maxTenants.
 *  Interned verbatim by the scheduler, never via
 *  sanitizeTenantName(), so client names cannot collide with it. */
extern const char *const kOverflowTenant;

/** The shared tenant v1 (tenant-less) clients land in. */
extern const char *const kDefaultTenant;

} // namespace sched
} // namespace psi

#endif // PSI_SCHED_METRICS_HPP
