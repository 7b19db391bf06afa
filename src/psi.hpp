/**
 * @file
 * Umbrella header: the public API of the PSI machine reproduction.
 *
 * Components:
 *  - interp::Engine        the microprogrammed PSI interpreter
 *  - fast::FastEngine      psifast - the same firmware on flat
 *                          storage (byte-identical answers, no
 *                          per-step hardware accounting)
 *  - baseline::WamEngine   the DEC-10-compiled-code stand-in
 *  - programs::            the paper's benchmark workloads
 *  - tools::               COLLECT / MAP / PMMS analysis tools
 *  - service::             psid - the concurrent batch-query service
 *  - net::                 psinet - psid on the wire (TCP server,
 *                          framed protocol, client library)
 *  - trace::               psitrace - per-request span recording
 *                          with Chrome trace-event export
 *  - runOnPsi/runOnBaseline  one-call workload execution
 */

#ifndef PSI_PSI_HPP
#define PSI_PSI_HPP

#include "base/backoff.hpp"
#include "base/flags.hpp"
#include "base/json.hpp"
#include "base/logging.hpp"
#include "base/metrics.hpp"
#include "base/stats.hpp"
#include "base/table.hpp"
#include "base/trace.hpp"
#include "baseline/wam_machine.hpp"
#include "fast/fast_engine.hpp"
#include "interp/engine.hpp"
#include "kl0/program.hpp"
#include "kl0/reader.hpp"
#include "mem/cache.hpp"
#include "mem/memory_system.hpp"
#include "micro/sequencer.hpp"
#include "net/net.hpp"
#include "programs/registry.hpp"
#include "router/hash_ring.hpp"
#include "router/router.hpp"
#include "service/service.hpp"
#include "system.hpp"
#include "tools/collect.hpp"
#include "tools/disasm.hpp"
#include "tools/map.hpp"
#include "tools/pmms.hpp"

#endif // PSI_PSI_HPP
