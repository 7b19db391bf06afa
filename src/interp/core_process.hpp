/**
 * @file
 * Multi-process support (paper §2.1).
 *
 * The PSI runs multiple programs - user processes and interrupt
 * handling processes - concurrently: the heap area is shared by all
 * of them, while the four stack areas of each process are
 * independent logical spaces mapped through the hardware address
 * translation table.
 *
 * This model realizes that organization with per-process offset
 * windows (1 << 24 words) inside each stack area and a cooperative
 * `process_call(ProcId, PredAtom)` built-in that runs an arity-0
 * predicate to its first solution in the target process's areas.
 * Switching saves and restores the machine registers and the
 * work-file state, charging the control-frame traffic a real switch
 * costs; the distinct stack pages are what degrade cache locality in
 * the window-2/3 scenarios, as the paper observes.
 *
 * A small shared registry (global_set/global_get, heap-resident)
 * lets processes exchange atomic values and heap-vector handles -
 * the shared rewritable data of the PSI heap.
 */

#ifndef PSI_INTERP_CORE_PROCESS_HPP
#define PSI_INTERP_CORE_PROCESS_HPP

#include <array>

#include "base/logging.hpp"
#include "interp/core.hpp"

namespace psi {
namespace interp {

template <class Access>
bool
Core<Access>::builtinGlobal(kl0::Builtin b)
{
    Deref dk = deref(readA(0, Module::Built), Module::Built);
    if (dk.unbound || dk.word.tag != Tag::Int)
        return false;
    std::int32_t k = dk.word.asInt();
    if (k < 0 || k >= static_cast<std::int32_t>(kl0::kGlobalRegSlots))
        return false;
    LogicalAddr slot(Area::Heap,
                     kl0::kGlobalRegBase + static_cast<std::uint32_t>(k));

    if (b == kl0::Builtin::GlobalSet) {
        Deref dv = deref(readA(1, Module::Built), Module::Built);
        // Only process-lifetime values may be stored: atomic data and
        // heap-vector handles.  Stack references would dangle.
        if (dv.unbound ||
            (dv.word.tag != Tag::Atom && dv.word.tag != Tag::Int &&
             dv.word.tag != Tag::Nil && dv.word.tag != Tag::Vector)) {
            return false;
        }
        _acc.writeMem(Module::Built, slot, dv.word, BranchOp::T2Nop,
                      kReg);
        return true;
    }

    TaggedWord v = _acc.readMem(Module::Built, slot,
                                BranchOp::T1CondFalse, kScr, kReg);
    if (v.tag == Tag::Undef)
        return false;
    return unify(readA(1, Module::Built), v);
}

// process_call runs this loop, not mainLoop, because it charges less:
// no T1GotoJr step at CallIs and CallCmp, and no reclamation step and
// no return texture at Proceed.  It also stops at the first solution
// instead of exporting it.  window2 and window3 run process_call, and
// their counters in tests/golden/fidelity_counters.txt carry these
// charges; folding this loop into mainLoop would make the shared loop
// branch on its caller.
template <class Access>
bool
Core<Access>::runNested(std::uint32_t functor_idx)
{
    bool ok = doCall(functor_idx, 0, true);
    if (!ok)
        ok = backtrack();
    if (!ok)
        return false;

    for (;;) {
        _acc.tick();
        // The run's limits are this loop's only bound: one reached
        // fails the process_call, and mainLoop reports it on its
        // failure path.
        if (RunStatus st = _guard.check(_acc.ticks());
            st != RunStatus::Ok) {
            _limitHit = st;
            return false;
        }
        if (_failFlag) {
            _failFlag = false;
            if (!backtrack())
                return false;
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
            loadArgs(_syms.functorArity(w.data), Module::Control);
            if (!doCall(w.data, goal_cp, w.tag == Tag::CallLast))
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
          case Tag::CallIs:
            loadArgs(2, Module::GetArg);
            if (!execIs())
                _failFlag = true;
            break;
          case Tag::CallCmp:
            loadArgs(2, Module::GetArg);
            if (!arithCompare(static_cast<kl0::Builtin>(w.data)))
                _failFlag = true;
            break;
          case Tag::CutOp:
            doCut();
            break;
          case Tag::Proceed: {
            _acc.step(Module::Control, BranchOp::T1CondTrue, kScr,
                      kScr);
            if (_act.contEnv == kRootEnv)
                return true;  // first solution: the process yields
            if (_act.frame.kind == FrameLoc::Kind::Stack &&
                _act.frame.addr + _act.nlocals == _lt &&
                _hl <= _act.frame.addr) {
                _lt = _act.frame.addr;
            }
            std::uint32_t rcp = _act.contCP;
            restoreEnv(_act.contEnv);
            _cp = rcp;
            break;
          }
          default:
            panic("bad instruction word in nested run: ",
                  tagName(w.tag));
        }
    }
}

template <class Access>
bool
Core<Access>::builtinProcessCall()
{
    if (_inProcessCall) {
        warn("process_call: nesting is not supported");
        return false;
    }

    Deref dp = deref(readA(0, Module::Built), Module::Built);
    Deref df = deref(readA(1, Module::Built), Module::Built);
    if (dp.unbound || dp.word.tag != Tag::Int || df.unbound ||
        df.word.tag != Tag::Atom) {
        return false;
    }
    std::int32_t pid = dp.word.asInt();
    if (pid < 1 || pid >= static_cast<std::int32_t>(kProcesses))
        return false;
    std::uint32_t f =
        _syms.functor(_syms.atomName(df.word.data), 0);

    // ---- process switch: save the current machine state ------------
    // The control registers and the live work-file regions go to the
    // control stack (a 10-word frame of register state plus the
    // dirty frame buffer), as the PSI saved WF state "as necessary".
    _acc.texture(Module::Control, 12);
    for (int i = 0; i < 10; ++i) {
        _acc.pushMem(Module::Control,
                     LogicalAddr(Area::Control, _ct + i),
                     {Tag::Int, 0}, BranchOp::T3Nop, kReg);
    }

    struct Saved
    {
        std::uint32_t gt, lt, ct, memTT, b, hb, hl, cp;
        std::uint32_t trailBufCount;
        int curBuf;
        bool failFlag;
        Activation act;
        std::array<TaggedWord, 64> regs;
        std::array<TaggedWord, 2 * micro::kWfFrameBufWords> frames;
        std::array<TaggedWord, micro::kWfTrailBufWords> trail;
    } s;
    s.gt = _gt;
    s.lt = _lt;
    s.ct = _ct + 10;  // past the switch frame
    s.memTT = _memTT;
    s.b = _b;
    s.hb = _hb;
    s.hl = _hl;
    s.cp = _cp;
    s.trailBufCount = _trailBufCount;
    s.curBuf = _curBuf;
    s.failFlag = _failFlag;
    s.act = _act;
    for (std::uint16_t i = 0; i < 64; ++i)
        s.regs[i] = _acc.wfRead(i);
    for (std::uint16_t i = 0; i < 2 * micro::kWfFrameBufWords; ++i)
        s.frames[i] = _acc.wfRead(micro::kWfFrameBuf0 + i);
    for (std::uint16_t i = 0; i < micro::kWfTrailBufWords; ++i)
        s.trail[i] = _acc.wfRead(micro::kWfTrailBuf + i);

    // ---- enter the target process's areas --------------------------
    std::uint32_t base =
        static_cast<std::uint32_t>(pid) * kProcWindow + kStackBase;
    _gt = base;
    _lt = base;
    _ct = base;
    _memTT = base;
    _b = kNoChoice;
    _hb = _hl = 0;
    _trailBufCount = 0;
    _curBuf = 0;
    _failFlag = false;
    _act = Activation{};
    _act.globalBase = _gt;
    _inProcessCall = true;

    bool ok = runNested(f);

    // ---- switch back -------------------------------------------------
    _inProcessCall = false;
    _acc.texture(Module::Control, 12);
    _gt = s.gt;
    _lt = s.lt;
    _ct = s.ct - 10;
    _memTT = s.memTT;
    _b = s.b;
    _hb = s.hb;
    _hl = s.hl;
    _cp = s.cp;
    _trailBufCount = s.trailBufCount;
    _curBuf = s.curBuf;
    _failFlag = s.failFlag;
    _act = s.act;
    for (std::uint16_t i = 0; i < 64; ++i)
        _acc.wfWrite(i, s.regs[i]);
    for (std::uint16_t i = 0; i < 2 * micro::kWfFrameBufWords; ++i)
        _acc.wfWrite(micro::kWfFrameBuf0 + i, s.frames[i]);
    for (std::uint16_t i = 0; i < micro::kWfTrailBufWords; ++i)
        _acc.wfWrite(micro::kWfTrailBuf + i, s.trail[i]);
    for (int i = 0; i < 10; ++i) {
        _acc.readMem(Module::Control,
                     LogicalAddr(Area::Control, _ct + i),
                     BranchOp::T2Nop, WfMode::None, kReg);
    }
    return ok;
}

} // namespace interp
} // namespace psi

#endif // PSI_INTERP_CORE_PROCESS_HPP
