/**
 * @file
 * The fidelity engine: consult, incremental load and cache
 * reconfiguration over the shared core.  This translation unit
 * instantiates Core<Modeled>, so the main loop's calls into the core
 * can be inlined.
 */

#include "interp/engine.hpp"

#include "interp/core_arith.hpp"
#include "interp/core_builtins.hpp"
#include "interp/core_control.hpp"
#include "interp/core_process.hpp"
#include "interp/core_term.hpp"
#include "interp/core_unify.hpp"
#include "kl0/normalize.hpp"

namespace psi {
namespace interp {

template class Core<Modeled>;

Engine::Engine(const CacheConfig &config, const FirmwareOptions &fw)
    : Core(config, fw)
{}

void
Engine::load(const kl0::Program &program)
{
    _codegen.compile(kl0::normalize(program));
}

void
Engine::consult(const std::string &text)
{
    if (_codegen.heapTop() == kl0::kCodeBase) {
        // Fresh machine: the single compile entry point, sharing the
        // image-replay path with the warm-engine loads.
        load(kl0::CompiledProgram::compile(text, _codegen.options()));
        return;
    }
    // Machine already holds code: append incrementally (REPL path).
    kl0::Program p;
    p.consult(text);
    load(p);
}

void
Engine::load(const kl0::CompiledProgram &image,
             const CacheConfig &cache)
{
    mem().reconfigure(cache);
    load(image);
}

} // namespace interp
} // namespace psi
