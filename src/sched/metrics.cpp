#include "sched/metrics.hpp"

#include <algorithm>

#include "base/metrics.hpp"

namespace psi {
namespace sched {

const char *const kOverflowTenant = "~other";
const char *const kDefaultTenant = "default";

const char *
schedKindName(SchedKind kind)
{
    switch (kind) {
      case SchedKind::Fifo:
        return "fifo";
      case SchedKind::Affinity:
        return "affinity";
    }
    return "?";
}

bool
parseSchedKind(const std::string &name, SchedKind &out)
{
    if (name == "fifo") {
        out = SchedKind::Fifo;
        return true;
    }
    if (name == "affinity") {
        out = SchedKind::Affinity;
        return true;
    }
    return false;
}

const char *
dispatchClassName(DispatchClass cls)
{
    switch (cls) {
      case DispatchClass::Fair:
        return "fair";
      case DispatchClass::Affinity:
        return "affinity";
      case DispatchClass::Aged:
        return "aged";
    }
    return "?";
}

std::string
sanitizeTenantName(const std::string &name)
{
    if (name.empty())
        return kDefaultTenant;
    // '~' is reserved for the scheduler's own fold bucket "~other"
    // (interned verbatim, never through this function): mapping it
    // to '_' here means no client-declared tenant - including a
    // hostile literal "~other" - can collide with that bucket and
    // silently merge its counters into the overflow row.
    static const std::size_t kMaxLen = 48;
    std::string out;
    out.reserve(std::min(name.size(), kMaxLen));
    for (char c : name) {
        if (out.size() >= kMaxLen)
            break;
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '_' || c == '.' ||
                  c == '-';
        out.push_back(ok ? c : '_');
    }
    return out;
}

void
SchedSnapshot::describe(metrics::Registry &r) const
{
    const char *policy = schedKindName(kind);
    r.add("sched_policy", r.gauge("psi_sched_policy"),
          metrics::text(policy), {{"policy", policy}});
    r.add("sched_affinity_hits", r.counter("psi_sched_affinity_hits_total"),
          affinityHits);
    r.add("sched_affinity_misses",
          r.counter("psi_sched_affinity_misses_total"), affinityMisses);
    r.add("sched_affinity_hit_ratio", {},
          metrics::fixed(affinityHitRatio(), 4));
    r.add("", r.gauge("psi_sched_affinity_hit_ratio"),
          metrics::fixed(affinityHitRatio(), 6));
    // STATS lists the aged count first, METRICS last in its family.
    r.add("sched_aged_dispatches", {}, agedDispatches);
    const auto dispatches = r.counter("psi_sched_dispatches_total");
    r.add("sched_fair_dispatches", dispatches, fairDispatches,
          {{"class", dispatchClassName(DispatchClass::Fair)}});
    r.add("sched_affinity_dispatches", dispatches, affinityDispatches,
          {{"class", dispatchClassName(DispatchClass::Affinity)}});
    r.add("", dispatches, agedDispatches,
          {{"class", dispatchClassName(DispatchClass::Aged)}});
    r.add("sched_batches", r.counter("psi_sched_batches_total"), batches);
    r.add("sched_batch_jobs", r.counter("psi_sched_batch_jobs_total"),
          batchJobs);
    r.add("sched_max_batch_run", r.gauge("psi_sched_max_batch_run"),
          maxBatchRun);
    r.add("sched_quota_rejects",
          r.counter("psi_sched_quota_rejects_total"), quotaRejects);
    r.add("sched_tenants", {}, tenants.size());

    // Declared before the loop: an idle scheduler still lists them.
    const auto depth = r.gauge("psi_sched_tenant_depth");
    const auto weight = r.gauge("psi_sched_tenant_weight");
    const auto admitted = r.counter("psi_sched_tenant_admitted_total");
    const auto rejected = r.counter("psi_sched_tenant_rejected_total");
    const auto dispatched =
        r.counter("psi_sched_tenant_dispatched_total");
    const auto wait = r.counter("psi_sched_tenant_wait_seconds_total");
    for (const auto &ten : tenants) {
        const std::string p = "tenant_" + ten.name + "_";
        const metrics::Labels l = {{"tenant", ten.name}};
        r.add(p + "depth", depth, ten.depth, l);
        r.add("", weight, ten.weight, l);
        r.add(p + "admitted", admitted, ten.admitted, l);
        r.add(p + "rejected", {}, ten.rejected + ten.quotaRejected);
        r.add("", rejected, ten.rejected,
              {{"tenant", ten.name}, {"reason", "queue_full"}});
        r.add("", rejected, ten.quotaRejected,
              {{"tenant", ten.name}, {"reason", "quota"}});
        r.add(p + "dispatched", dispatched, ten.dispatched, l);
        r.add(p + "wait_ns", wait, metrics::nanos(ten.waitNs), l);
        r.add(p + "mean_wait_ns", {}, metrics::fixed(ten.meanWaitNs(), 0));
    }
}

} // namespace sched
} // namespace psi
