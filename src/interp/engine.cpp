/**
 * @file
 * The fidelity engine: consult, load, machine reset and the run's
 * step and model-time report over the shared core.  This translation
 * unit instantiates Core<Modeled>, so the main loop's calls into the
 * core can be inlined.
 */

#include "interp/engine.hpp"

#include "interp/core_arith.hpp"
#include "interp/core_builtins.hpp"
#include "interp/core_control.hpp"
#include "interp/core_process.hpp"
#include "interp/core_term.hpp"
#include "interp/core_unify.hpp"
#include "kl0/normalize.hpp"
#include "kl0/reader.hpp"

namespace psi {
namespace interp {

template class Core<Modeled>;

Engine::Engine(const CacheConfig &config, const FirmwareOptions &fw)
    : Core(config, fw), _codegen(_acc.mem(), _syms)
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
Engine::resetMachine()
{
    mem().reset();
    seq().reset();
    _syms = kl0::SymbolTable();
    _codegen.restore(kl0::CodeGen::Snapshot{});
    resetImageState();
}

void
Engine::load(const kl0::CompiledProgram &image)
{
    resetMachine();
    _syms = image.symbols();
    _codegen.restore(image.codegen());
    _codegen.setOptions(image.options());
    // Replay in emission order so pages are touched (and physical
    // frames allocated) exactly as the original compile touched them.
    for (const PokeRecord &p : image.image())
        mem().poke(p.addr, p.word);
}

void
Engine::load(const kl0::CompiledProgram &image,
             const CacheConfig &cache)
{
    mem().reconfigure(cache);
    load(image);
}

RunResult
Engine::solve(const std::string &query_text, const RunLimits &limits)
{
    return solve(kl0::parseTerm(query_text), limits);
}

RunResult
Engine::solve(const kl0::TermPtr &goal, const RunLimits &limits)
{
    kl0::QueryCode qc = _codegen.compileQuery(goal);
    return run(qc, limits);
}

RunResult
Engine::run(const kl0::QueryCode &qc, const RunLimits &limits)
{
    // Reset after query compilation, so the statistics and the cache
    // cover execution only.
    mem().resetStats();
    seq().resetStats();
    RunResult result = runQuery(qc, limits);
    result.steps = seq().totalSteps();
    result.timeNs = seq().timeNs();
    return result;
}

} // namespace interp
} // namespace psi
