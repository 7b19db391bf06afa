/**
 * @file
 * High-level convenience API over the two engines.
 *
 * Bench binaries, examples and integration tests run benchmark
 * workloads through these helpers: one call loads a program into a
 * fresh engine, executes the query, and returns the result together
 * with the hardware statistics the paper's tables are built from.
 */

#ifndef PSI_SYSTEM_HPP
#define PSI_SYSTEM_HPP

#include <memory>
#include <string>
#include <vector>

#include "baseline/wam_machine.hpp"
#include "interp/engine.hpp"
#include "mem/cache.hpp"
#include "micro/sequencer.hpp"
#include "programs/registry.hpp"

namespace psi {

/** Outcome of one PSI-engine workload run, with hardware stats. */
struct PsiRun
{
    interp::RunResult result;
    micro::SeqStats seq;       ///< module / branch / WF statistics
    CacheStats cache;          ///< per-area cache statistics
    std::uint64_t stallNs = 0; ///< memory stall time
};

/** Run @p program on a fresh PSI engine. */
PsiRun runOnPsi(const programs::BenchProgram &program,
                const CacheConfig &cache = CacheConfig::psi(),
                const interp::RunLimits &limits = interp::RunLimits());

/**
 * Run @p query against a precompiled image on @p engine, reusing the
 * engine's machine via Engine::load().  Byte-identical in results
 * and hardware statistics to runOnPsi() over the image's source -
 * the warm-engine/ProgramCache hot path, exposed here so tests and
 * tools can exercise it directly.
 */
PsiRun runCompiledOnPsi(interp::Engine &engine,
                        const kl0::CompiledProgram &image,
                        const std::string &query,
                        const CacheConfig &cache = CacheConfig::psi(),
                        const interp::RunLimits &limits =
                            interp::RunLimits());

/** Run @p program on a fresh baseline (DEC-model) engine. */
interp::RunResult
runOnBaseline(const programs::BenchProgram &program,
              const interp::RunLimits &limits = interp::RunLimits());

} // namespace psi

#endif // PSI_SYSTEM_HPP
