/**
 * @file
 * The fidelity engine: the step-accounted main loop over the shared
 * core, plus consult, load and machine reset.  This translation unit
 * instantiates Core<Modeled>, so the loop's calls into the core can
 * be inlined.
 */

#include "interp/engine.hpp"

#include "base/logging.hpp"
#include "interp/core_arith.hpp"
#include "interp/core_builtins.hpp"
#include "interp/core_control.hpp"
#include "interp/core_process.hpp"
#include "interp/core_term.hpp"
#include "interp/core_unify.hpp"
#include "kl0/builtin_defs.hpp"
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
    RunResult result;
    if (startQuery(qc, limits))
        mainLoop(qc, result, limits);
    finishRun(result);
    result.steps = seq().totalSteps();
    result.timeNs = seq().timeNs();
    return result;
}

void
Engine::mainLoop(const kl0::QueryCode &qc, RunResult &result,
                 const RunLimits &limits)
{
    const Deadline deadline(limits.deadlineNs);
    std::uint32_t poll = 0;
    for (;;) {
        if (_acc.ticks() > limits.maxSteps) {
            result.status = RunStatus::StepLimit;
            return;
        }
        // Wall-clock deadline, polled every 4096 dispatches so the
        // clock read is amortized away.
        if (deadline.armed() && (++poll & 0xfffu) == 0 &&
            deadline.expired()) {
            result.status = RunStatus::Timeout;
            return;
        }

        if (_failFlag) {
            _failFlag = false;
            if (!backtrack())
                return;
            continue;
        }

        TaggedWord w = _acc.readMem(Module::Control,
                                    LogicalAddr(Area::Heap, _cp),
                                    BranchOp::T1CaseIrOpcode);
        ++_cp;
        _acc.texture(Module::Control, kFetchDecode);

        switch (w.tag) {
          case Tag::Call:
          case Tag::CallLast: {
            std::uint32_t goal_cp = _cp - 1;
            std::uint32_t f = w.data;
            loadArgs(_syms.functorArity(f), Module::Control);
            if (!doCall(f, goal_cp, w.tag == Tag::CallLast))
                _failFlag = true;
            break;
          }
          case Tag::CallBuiltin: {
            auto b = static_cast<kl0::Builtin>(w.data);
            loadArgs(kl0::builtinArity(b), Module::GetArg);
            if (!execBuiltin(b))
                _failFlag = true;
            break;
          }
          case Tag::CallIs: {
            // Specialized entry: one dispatch step, none of the
            // generic builtin staging texture.
            loadArgs(2, Module::GetArg);
            _acc.step(Module::Built, BranchOp::T1GotoJr, kScr, kNoWf,
                      kNoWf);
            if (!execIs())
                _failFlag = true;
            break;
          }
          case Tag::CallCmp: {
            loadArgs(2, Module::GetArg);
            _acc.step(Module::Built, BranchOp::T1GotoJr, kScr, kNoWf,
                      kNoWf);
            if (!arithCompare(static_cast<kl0::Builtin>(w.data)))
                _failFlag = true;
            break;
          }
          case Tag::CutOp:
            doCut();
            break;
          case Tag::Proceed: {
            // Return-from-clause decision step.
            _acc.step(Module::Control, BranchOp::T1CondTrue, kScr,
                      kScr);
            if (_act.contEnv == kRootEnv) {
                extractSolution(qc, result);
                if (static_cast<int>(result.solutions.size()) >=
                    limits.maxSolutions) {
                    return;
                }
                _failFlag = true;
                break;
            }
            // Determinate local-frame reclamation.
            if (_act.frame.kind == FrameLoc::Kind::Stack &&
                _act.frame.addr + _act.nlocals == _lt &&
                _hl <= _act.frame.addr) {
                _acc.step(Module::Control, BranchOp::T1CondFalse,
                          kScr, kScr, kScr);
                _lt = _act.frame.addr;
            }
            _acc.texture(Module::Control, kReturnDecode);
            std::uint32_t rcp = _act.contCP;
            restoreEnv(_act.contEnv);
            _cp = rcp;
            break;
          }
          default:
            panic("bad instruction word tag '", tagName(w.tag),
                  "' at heap:", _cp - 1);
        }
    }
}

} // namespace interp
} // namespace psi
