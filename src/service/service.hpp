/**
 * @file
 * Umbrella header for psid, the concurrent batch-query service:
 *
 *  - service::EnginePool      worker threads with warm engines
 *  - service::ProgramCache    memoized KL0 compilation (shared)
 *  - service::WorkerMetrics   mergeable per-worker statistics
 *  - service::MetricsSnapshot aggregated service report (table/JSON)
 *  - service::LatencyHistogram p50/p95/p99 latency tracking
 */

#ifndef PSI_SERVICE_SERVICE_HPP
#define PSI_SERVICE_SERVICE_HPP

#include "service/engine_pool.hpp"
#include "service/histogram.hpp"
#include "service/metrics.hpp"
#include "service/program_cache.hpp"

#endif // PSI_SERVICE_SERVICE_HPP
