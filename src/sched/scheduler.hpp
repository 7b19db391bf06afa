/**
 * @file
 * psisched: pluggable scheduling for the engine pool.
 *
 * Drained as one bounded FIFO queue, the pool lets a burst of one
 * tenant's heavy queries starve everyone else, and requests sharing
 * a compiled image land on arbitrary workers, wasting the warm
 * per-worker engine layout.  Scheduler<T> puts a policy object in
 * place of that queue; two implementations ship:
 *
 *  - FifoScheduler: the original arrival-order queue, kept so legacy
 *    behavior stays selectable and differential-testable.
 *
 *  - AffinityScheduler (production): three cooperating orders over
 *    one job set.
 *
 *      fairness   weighted-fair queuing across tenants.  Each tenant
 *                 carries a virtual finish tag advanced by
 *                 kVirtualScale/weight per admitted job; the fair
 *                 order is (vfinish, deadline, seq), so equal-tag
 *                 jobs break ties earliest-deadline-first (EDF) and
 *                 a tenant with weight w gets ~w/Σw of dispatches
 *                 under contention while an idle tenant's first job
 *                 jumps near the head (its tag snaps up to the
 *                 global virtual clock).
 *
 *      affinity   per-image queues keyed by CompiledProgram source
 *                 hash.  A worker whose warm engine already holds
 *                 image K prefers the oldest queued job with key K,
 *                 up to maxBatch consecutive dispatches, amortizing
 *                 image setup across the batch.
 *
 *      age        the anti-starvation invariant: whenever the oldest
 *                 queued job has waited >= ageCapNs, it dispatches
 *                 next regardless of fairness tags or affinity.  So
 *                 affinity can reorder within the cap but can never
 *                 hold a job back longer than the cap while workers
 *                 are dispatching.
 *
 *    Admission is bounded twice: a global capacity and a per-tenant
 *    quota (fail-fast OVERLOADED on breach), so one tenant cannot
 *    own the whole queue.  Tenant cardinality is capped; overflow
 *    tenants share the "~other" bucket.
 *
 * Scheduler<T> is a class template because the pool's Job type is
 * private and move-only; the pool instantiates Scheduler<Job> and
 * hands the scheduler full ownership of queued jobs.
 */

#ifndef PSI_SCHED_SCHEDULER_HPP
#define PSI_SCHED_SCHEDULER_HPP

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <limits>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sched/metrics.hpp"

namespace psi {
namespace sched {

using SchedClock = std::chrono::steady_clock;

/** Policy knobs; defaults reproduce single-tenant pool behavior. */
struct SchedConfig
{
    /** Global queue bound (jobs waiting, all tenants). */
    std::size_t capacity = 64;
    /** Per-tenant queued-job bound; 0 = capacity (no extra bound),
     *  so a single-tenant deployment behaves exactly like one bounded
     *  FIFO queue.  Breach refuses fail-fast (OVERLOADED). */
    std::size_t tenantQuota = 0;
    /** Max consecutive same-image dispatches to one worker before
     *  the fair order takes back over. */
    std::uint32_t maxBatch = 8;
    /** Anti-starvation bound: a job older than this dispatches next
     *  regardless of affinity or fairness.  0 disables the cap.
     *  Keep it several service times long - once typical queue
     *  waits exceed the cap, every dispatch is an age override and
     *  the policy degenerates to FIFO. */
    std::uint64_t ageCapNs = 500'000'000;
    /** Per-tenant WFQ shares (higher = more dispatch share); a
     *  tenant absent from the map weighs 1. */
    std::map<std::string, std::uint64_t> weights;
    /** Tenant table bound; later tenants share kOverflowTenant. */
    std::size_t maxTenants = 64;
};

/** Scheduling-relevant facts about one job, supplied at push. */
struct TaskInfo
{
    std::string tenant;             ///< "" = the shared v1 tenant
    std::uint64_t affinityKey = 0;  ///< program source hash; 0 = none
    std::uint64_t deadlineNs = 0;   ///< budget from submit; 0 = none
    SchedClock::time_point submitted{};
};

/** Admission verdict. */
enum class PushResult : std::uint8_t
{
    Ok,
    QueueFull,     ///< global capacity reached (fail-fast only)
    QuotaExceeded, ///< per-tenant quota reached (fail-fast only)
    Closed,        ///< scheduler is draining / shut down
};

/** One dispatch: the job plus why it was chosen now. */
template <typename T>
struct Dispatched
{
    T item;
    DispatchClass cls = DispatchClass::Fair;
    std::uint64_t waitNs = 0; ///< submit -> dispatch
};

/**
 * The pool-facing scheduling interface.  Thread-safe; push blocks
 * while the queue is full and pop while it is empty, and close()
 * lets the workers drain what is queued before end-of-stream.
 */
template <typename T>
class Scheduler
{
  public:
    virtual ~Scheduler() = default;

    /** Fail-fast admission; @p item is left untouched on refusal. */
    virtual PushResult tryPush(const TaskInfo &info, T &item) = 0;

    /** Blocking admission: waits for capacity (and tenant quota);
     *  returns Closed when the scheduler shuts down while waiting.
     *  @p item is left untouched on refusal. */
    virtual PushResult push(const TaskInfo &info, T &item) = 0;

    /**
     * Dispatch one job to @p worker, blocking while empty.
     * @p loadedKey is the affinity key of the image the worker's
     * engine currently holds (0 = none); the scheduler uses it for
     * affinity batching and hit accounting.
     * @return nullopt once closed and drained (end of stream).
     */
    virtual std::optional<Dispatched<T>>
    pop(unsigned worker, std::uint64_t loadedKey) = 0;

    /** Stop admitting; queued jobs still drain.  Idempotent. */
    virtual void close() = 0;
    virtual bool closed() const = 0;

    virtual std::size_t size() const = 0;
    virtual std::size_t capacity() const = 0;
    virtual SchedKind kind() const = 0;
    virtual SchedSnapshot snapshot() const = 0;
};

namespace detail {

/** Tenant state: WFQ tag + quota depth + counters. */
struct Tenant
{
    std::string name;
    std::uint64_t weight = 1;
    std::uint64_t vfinish = 0; ///< last assigned virtual finish tag
    std::uint64_t depth = 0;
    std::uint64_t admitted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t quotaRejected = 0;
    std::uint64_t dispatched = 0;
    std::uint64_t waitNs = 0;
};

inline std::uint64_t
elapsedNs(SchedClock::time_point from, SchedClock::time_point to)
{
    return to <= from
        ? 0
        : static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  to - from)
                  .count());
}

} // namespace detail

/**
 * Shared implementation core: the lock, the tenant table, the
 * dispatch/admission counters and the snapshot.  Derived classes
 * own the actual job containers.
 */
template <typename T>
class SchedulerBase : public Scheduler<T>
{
  public:
    explicit SchedulerBase(const SchedConfig &config)
        : _config(config)
    {
        if (_config.capacity == 0)
            _config.capacity = 1;
        if (_config.tenantQuota == 0 ||
            _config.tenantQuota > _config.capacity)
            _config.tenantQuota = _config.capacity;
        if (_config.maxTenants < 2)
            _config.maxTenants = 2;
    }

    void close() override
    {
        {
            std::lock_guard<std::mutex> lock(_m);
            _closed = true;
        }
        _nonEmpty.notify_all();
        _notFull.notify_all();
    }

    bool closed() const override
    {
        std::lock_guard<std::mutex> lock(_m);
        return _closed;
    }

    std::size_t size() const override
    {
        std::lock_guard<std::mutex> lock(_m);
        return _size;
    }

    std::size_t capacity() const override
    {
        return _config.capacity;
    }

    SchedSnapshot snapshot() const override
    {
        std::lock_guard<std::mutex> lock(_m);
        SchedSnapshot snap;
        snap.kind = this->kind();
        snap.affinityHits = _affinityHits;
        snap.affinityMisses = _affinityMisses;
        snap.agedDispatches = _agedDispatches;
        snap.fairDispatches = _fairDispatches;
        snap.affinityDispatches = _affinityDispatches;
        snap.batches = _batches;
        snap.batchJobs = _batchJobs;
        snap.maxBatchRun = _maxBatchRun;
        snap.quotaRejects = _quotaRejects;
        snap.tenants.reserve(_tenants.size());
        for (const auto &t : _tenants) {
            TenantSnapshot ts;
            ts.name = t.name;
            ts.weight = t.weight;
            ts.depth = t.depth;
            ts.admitted = t.admitted;
            ts.rejected = t.rejected;
            ts.quotaRejected = t.quotaRejected;
            ts.dispatched = t.dispatched;
            ts.waitNs = t.waitNs;
            snap.tenants.push_back(std::move(ts));
        }
        return snap;
    }

  protected:
    /** Fixed-point scale of the WFQ virtual clock: one weight-1 job
     *  advances a tenant's tag by this much. */
    static constexpr std::uint64_t kVirtualScale = 1u << 16;

    /** Intern @p name (sanitized) into the tenant table; tenants
     *  past maxTenants share the overflow bucket.  Only the
     *  scheduler's own fold-bucket intern (@p raw) bypasses
     *  sanitization: client names always pass through it, and since
     *  it maps '~' to '_', no client-declared name - not even a
     *  literal "~other" - can intern into the bucket's table slot. */
    std::uint32_t internTenantLocked(const std::string &name,
                                     bool raw = false)
    {
        std::string key = raw ? name : sanitizeTenantName(name);
        auto it = _tenantIndex.find(key);
        if (it != _tenantIndex.end())
            return it->second;
        if (_tenants.size() + 1 >= _config.maxTenants &&
            key != kOverflowTenant) {
            // Table full: everyone new shares the overflow bucket.
            return internTenantLocked(kOverflowTenant,
                                      /*raw=*/true);
        }
        detail::Tenant t;
        t.name = key;
        auto w = _config.weights.find(key);
        t.weight = w != _config.weights.end() && w->second > 0
            ? w->second
            : 1;
        // A tenant arriving late starts at the current virtual
        // clock, not zero, so it cannot claim an unbounded backlog
        // of "credit" and lock out established tenants.
        t.vfinish = _vnow;
        _tenants.push_back(std::move(t));
        std::uint32_t idx =
            static_cast<std::uint32_t>(_tenants.size() - 1);
        _tenantIndex.emplace(std::move(key), idx);
        return idx;
    }

    /** Assign the next WFQ finish tag for one admitted job. */
    std::uint64_t nextVFinishLocked(detail::Tenant &t)
    {
        t.vfinish = std::max(t.vfinish, _vnow) +
            kVirtualScale / t.weight;
        return t.vfinish;
    }

    /** Admission bookkeeping after a job is queued. */
    void chargeAdmitLocked(detail::Tenant &t)
    {
        ++t.depth;
        ++t.admitted;
        ++_size;
    }

    /** Dispatch bookkeeping: fairness clock, affinity hit/miss,
     *  batch runs, tenant wait. */
    void chargeDispatchLocked(detail::Tenant &t, std::uint64_t vfinish,
                              std::uint64_t key,
                              std::uint64_t loadedKey,
                              DispatchClass cls, std::uint64_t waitNs,
                              unsigned worker)
    {
        --t.depth;
        ++t.dispatched;
        t.waitNs += waitNs;
        --_size;
        _vnow = std::max(_vnow, vfinish);
        if (key != 0 && key == loadedKey)
            ++_affinityHits;
        else
            ++_affinityMisses;
        switch (cls) {
          case DispatchClass::Fair:
            ++_fairDispatches;
            break;
          case DispatchClass::Affinity:
            ++_affinityDispatches;
            break;
          case DispatchClass::Aged:
            ++_agedDispatches;
            break;
        }
        if (_batchRuns.size() <= worker)
            _batchRuns.resize(worker + 1);
        BatchRun &run = _batchRuns[worker];
        if (key != 0 && key == run.key) {
            ++run.length;
            // A "batch" is a same-image run of length >= 2; count it
            // once at the 1 -> 2 transition, then per extra job.
            _batchJobs += run.length == 2 ? 2 : 1;
            if (run.length == 2)
                ++_batches;
        } else {
            run.key = key;
            run.length = 1;
        }
        _maxBatchRun = std::max<std::uint64_t>(_maxBatchRun,
                                               run.length);
    }

    /** Current same-image run length for @p worker (batch bound). */
    std::uint64_t batchRunLocked(unsigned worker,
                                 std::uint64_t key) const
    {
        if (worker >= _batchRuns.size())
            return 0;
        const BatchRun &run = _batchRuns[worker];
        return key != 0 && run.key == key ? run.length : 0;
    }

    struct BatchRun
    {
        std::uint64_t key = 0;
        std::uint64_t length = 0;
    };

    SchedConfig _config;
    mutable std::mutex _m;
    std::condition_variable _nonEmpty;
    std::condition_variable _notFull;
    bool _closed = false;
    std::size_t _size = 0;
    std::uint64_t _vnow = 0;
    std::uint64_t _seq = 0;
    std::vector<detail::Tenant> _tenants;
    std::unordered_map<std::string, std::uint32_t> _tenantIndex;
    std::vector<BatchRun> _batchRuns;
    std::uint64_t _affinityHits = 0;
    std::uint64_t _affinityMisses = 0;
    std::uint64_t _agedDispatches = 0;
    std::uint64_t _fairDispatches = 0;
    std::uint64_t _affinityDispatches = 0;
    std::uint64_t _batches = 0;
    std::uint64_t _batchJobs = 0;
    std::uint64_t _maxBatchRun = 0;
    std::uint64_t _quotaRejects = 0;
};

/**
 * The original pool order: strict arrival sequence, no quotas, no
 * reordering.  Tenant and affinity-hit counters are still recorded
 * so FIFO-vs-affinity runs compare on identical metrics.
 */
template <typename T>
class FifoScheduler final : public SchedulerBase<T>
{
    using Base = SchedulerBase<T>;

  public:
    explicit FifoScheduler(const SchedConfig &config) : Base(config) {}

    SchedKind kind() const override { return SchedKind::Fifo; }

    PushResult tryPush(const TaskInfo &info, T &item) override
    {
        std::lock_guard<std::mutex> lock(this->_m);
        if (this->_closed)
            return PushResult::Closed;
        if (this->_size >= this->_config.capacity) {
            std::uint32_t idx = this->internTenantLocked(info.tenant);
            ++this->_tenants[idx].rejected;
            return PushResult::QueueFull;
        }
        admitLocked(info, item);
        this->_nonEmpty.notify_one();
        return PushResult::Ok;
    }

    PushResult push(const TaskInfo &info, T &item) override
    {
        std::unique_lock<std::mutex> lock(this->_m);
        this->_notFull.wait(lock, [this] {
            return this->_closed ||
                this->_size < this->_config.capacity;
        });
        if (this->_closed)
            return PushResult::Closed;
        admitLocked(info, item);
        lock.unlock();
        this->_nonEmpty.notify_one();
        return PushResult::Ok;
    }

    std::optional<Dispatched<T>>
    pop(unsigned worker, std::uint64_t loadedKey) override
    {
        std::unique_lock<std::mutex> lock(this->_m);
        this->_nonEmpty.wait(lock, [this] {
            return this->_closed || !_queue.empty();
        });
        if (_queue.empty())
            return std::nullopt;
        Entry e = std::move(_queue.front());
        _queue.pop_front();
        Dispatched<T> out;
        out.item = std::move(e.item);
        out.cls = DispatchClass::Fair;
        out.waitNs = detail::elapsedNs(e.submitted,
                                       SchedClock::now());
        this->chargeDispatchLocked(this->_tenants[e.tenant],
                                   e.vfinish, e.key, loadedKey,
                                   out.cls, out.waitNs, worker);
        lock.unlock();
        this->_notFull.notify_one();
        return out;
    }

  private:
    struct Entry
    {
        T item;
        std::uint32_t tenant = 0;
        std::uint64_t key = 0;
        std::uint64_t vfinish = 0;
        SchedClock::time_point submitted{};
    };

    void admitLocked(const TaskInfo &info, T &item)
    {
        Entry e;
        std::uint32_t idx = this->internTenantLocked(info.tenant);
        detail::Tenant &t = this->_tenants[idx];
        e.item = std::move(item);
        e.tenant = idx;
        e.key = info.affinityKey;
        e.vfinish = this->nextVFinishLocked(t);
        e.submitted = info.submitted;
        _queue.push_back(std::move(e));
        this->chargeAdmitLocked(t);
    }

    std::deque<Entry> _queue;
};

/**
 * The production scheduler: WFQ + EDF fairness, per-image affinity
 * batching, per-tenant quotas and the age-cap starvation bound.  See
 * the file comment for the policy; everything below is the three
 * index structures kept in lockstep over one job list.
 */
template <typename T>
class AffinityScheduler final : public SchedulerBase<T>
{
    using Base = SchedulerBase<T>;

  public:
    explicit AffinityScheduler(const SchedConfig &config)
        : Base(config)
    {
    }

    SchedKind kind() const override { return SchedKind::Affinity; }

    PushResult tryPush(const TaskInfo &info, T &item) override
    {
        std::lock_guard<std::mutex> lock(this->_m);
        if (this->_closed)
            return PushResult::Closed;
        std::uint32_t idx = this->internTenantLocked(info.tenant);
        detail::Tenant &t = this->_tenants[idx];
        if (this->_size >= this->_config.capacity) {
            ++t.rejected;
            return PushResult::QueueFull;
        }
        if (t.depth >= this->_config.tenantQuota) {
            ++t.quotaRejected;
            ++this->_quotaRejects;
            return PushResult::QuotaExceeded;
        }
        admitLocked(idx, info, item);
        this->_nonEmpty.notify_one();
        return PushResult::Ok;
    }

    PushResult push(const TaskInfo &info, T &item) override
    {
        std::unique_lock<std::mutex> lock(this->_m);
        std::uint32_t idx = this->internTenantLocked(info.tenant);
        this->_notFull.wait(lock, [this, idx] {
            return this->_closed ||
                (this->_size < this->_config.capacity &&
                 this->_tenants[idx].depth <
                     this->_config.tenantQuota);
        });
        if (this->_closed)
            return PushResult::Closed;
        admitLocked(idx, info, item);
        lock.unlock();
        this->_nonEmpty.notify_one();
        return PushResult::Ok;
    }

    std::optional<Dispatched<T>>
    pop(unsigned worker, std::uint64_t loadedKey) override
    {
        std::unique_lock<std::mutex> lock(this->_m);
        this->_nonEmpty.wait(lock, [this] {
            return this->_closed || !_jobs.empty();
        });
        if (_jobs.empty())
            return std::nullopt;

        auto now = SchedClock::now();
        It choice = _jobs.end();
        DispatchClass cls = DispatchClass::Fair;

        // 1. Affinity: prefer the oldest job sharing the worker's
        //    loaded image, unless the worker exhausted its batch.
        if (loadedKey != 0 &&
            this->batchRunLocked(worker, loadedKey) <
                this->_config.maxBatch) {
            auto byKey = _byKey.find(loadedKey);
            if (byKey != _byKey.end() && !byKey->second.empty()) {
                choice = byKey->second.front();
                cls = DispatchClass::Affinity;
            }
        }
        // 2. Fairness: otherwise the WFQ/EDF head.
        if (choice == _jobs.end()) {
            choice = _fair.begin()->second;
            cls = DispatchClass::Fair;
        }
        // 3. Age cap: the oldest waiting job overrides everything
        //    once it has waited past the cap (anti-starvation).
        if (this->_config.ageCapNs != 0) {
            It oldest = _jobs.begin();
            if (oldest != choice &&
                detail::elapsedNs(oldest->submitted, now) >=
                    this->_config.ageCapNs) {
                choice = oldest;
                cls = DispatchClass::Aged;
            }
        }

        Dispatched<T> out;
        out.cls = cls;
        out.waitNs = detail::elapsedNs(choice->submitted, now);
        out.item = std::move(choice->item);
        this->chargeDispatchLocked(this->_tenants[choice->tenant],
                                   choice->vfinish, choice->key,
                                   loadedKey, cls, out.waitNs,
                                   worker);
        eraseLocked(choice);
        lock.unlock();
        this->_notFull.notify_all();
        return out;
    }

  private:
    struct Entry
    {
        T item;
        std::uint32_t tenant = 0;
        std::uint64_t key = 0;
        std::uint64_t vfinish = 0;
        std::uint64_t deadlineAt = 0; ///< UINT64_MAX = none
        std::uint64_t seq = 0;
        SchedClock::time_point submitted{};
    };
    using It = typename std::list<Entry>::iterator;
    /** Fair order: virtual finish, then EDF, then arrival. */
    using FairKey =
        std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>;

    static FairKey fairKeyOf(const Entry &e)
    {
        return FairKey(e.vfinish, e.deadlineAt, e.seq);
    }

    void admitLocked(std::uint32_t idx, const TaskInfo &info,
                     T &item)
    {
        detail::Tenant &t = this->_tenants[idx];
        Entry e;
        e.item = std::move(item);
        e.tenant = idx;
        e.key = info.affinityKey;
        e.vfinish = this->nextVFinishLocked(t);
        e.seq = ++this->_seq;
        e.submitted = info.submitted;
        e.deadlineAt = info.deadlineNs == 0
            ? std::numeric_limits<std::uint64_t>::max()
            : static_cast<std::uint64_t>(
                  std::chrono::duration_cast<
                      std::chrono::nanoseconds>(
                      info.submitted.time_since_epoch())
                      .count()) +
                info.deadlineNs;
        _jobs.push_back(std::move(e));
        It it = std::prev(_jobs.end());
        _fair.emplace(fairKeyOf(*it), it);
        if (it->key != 0)
            _byKey[it->key].push_back(it);
        this->chargeAdmitLocked(t);
    }

    /** Remove @p it from the fair map, its key queue and the job
     *  list (counters are the caller's job). */
    void eraseLocked(It it)
    {
        _fair.erase(fairKeyOf(*it));
        if (it->key != 0) {
            auto byKey = _byKey.find(it->key);
            if (byKey != _byKey.end()) {
                auto &q = byKey->second;
                q.erase(std::find(q.begin(), q.end(), it));
                if (q.empty())
                    _byKey.erase(byKey);
            }
        }
        _jobs.erase(it);
    }

    std::list<Entry> _jobs; ///< arrival order (age-cap scans front)
    std::map<FairKey, It> _fair;
    std::unordered_map<std::uint64_t, std::deque<It>> _byKey;
};

/** Factory: the pool configures by kind, not by concrete type. */
template <typename T>
std::unique_ptr<Scheduler<T>>
makeScheduler(SchedKind kind, const SchedConfig &config)
{
    if (kind == SchedKind::Fifo)
        return std::make_unique<FifoScheduler<T>>(config);
    return std::make_unique<AffinityScheduler<T>>(config);
}

} // namespace sched
} // namespace psi

#endif // PSI_SCHED_SCHEDULER_HPP
