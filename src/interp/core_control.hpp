/**
 * @file
 * Core control firmware: image load and query solve, the main loop,
 * argument loading, calls, clause trial, environments, choice points,
 * backtracking, cut and solution export.  Steps are charged to the
 * control module, argument fetches to the caller's module (control or
 * get_arg).
 */

#ifndef PSI_INTERP_CORE_CONTROL_HPP
#define PSI_INTERP_CORE_CONTROL_HPP

#include "base/logging.hpp"
#include "interp/core.hpp"
#include "kl0/reader.hpp"

namespace psi {
namespace interp {

template <class Access>
void
Core<Access>::load(const kl0::CompiledProgram &image)
{
    _acc.reset();
    _syms = image.symbols();
    _codegen.restore(image.codegen());
    _codegen.setOptions(image.options());
    for (const PokeRecord &p : image.image())
        _acc.heap().poke(p.addr, p.word);
    resetImageState();
}

template <class Access>
RunResult
Core<Access>::solve(const std::string &query_text, const RunLimits &limits)
{
    return solve(kl0::parseTerm(query_text), limits);
}

template <class Access>
RunResult
Core<Access>::solve(const kl0::TermPtr &goal, const RunLimits &limits)
{
    return runQuery(_codegen.compileQuery(goal), limits);
}

template <class Access>
void
Core<Access>::resetRun()
{
    _gt = _lt = _ct = _memTT = kStackBase;
    _b = kNoChoice;
    _hb = _hl = 0;
    _cp = 0;
    _act = Activation{};
    _act.globalBase = _gt;
    _curBuf = 0;
    _trailBufCount = 0;
    _inferences = 0;
    _idxHits = 0;
    _idxFallbacks = 0;
    _clauseTries = 0;
    _out.clear();
    _failFlag = false;
    _limitHit = RunStatus::Ok;
}

template <class Access>
void
Core<Access>::resetImageState()
{
    resetRun();
    _vecTop = kl0::kVectorBase;
    _maxOutputBytes = 1 << 20;
    _inProcessCall = false;
    _warnedUndefined.clear();
    _arithOps.clear(); // functor indices are per-image
}

template <class Access>
RunResult
Core<Access>::runQuery(const kl0::QueryCode &qc, const RunLimits &limits)
{
    // After the query compile, so a run's statistics cover its
    // execution only.
    _acc.startRun();
    resetRun();
    _maxOutputBytes = limits.maxOutputBytes;
    _guard = RunGuard(limits);
    RunResult result;
    if (doCall(qc.functorIdx, 0, true) || backtrack())
        mainLoop(qc, result, limits.maxSolutions);
    result.inferences = _inferences;
    result.output = std::move(_out);
    _out.clear();
    _acc.finishRun(result);
    return result;
}

template <class Access>
void
Core<Access>::mainLoop(const kl0::QueryCode &qc, RunResult &result,
                       int max_solutions)
{
    // A local copy, so the limits stay in registers across the calls
    // into the firmware; runNested checks the core's copy.
    RunGuard guard = _guard;
    for (;;) {
        _acc.tick();
        if (RunStatus st = guard.check(_acc.ticks());
            st != RunStatus::Ok) {
            result.status = st;
            return;
        }

        if (_failFlag) {
            _failFlag = false;
            // A limit reached inside process_call failed it.
            if (_limitHit != RunStatus::Ok) {
                result.status = _limitHit;
                return;
            }
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
                    max_solutions) {
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

template <class Access>
void
Core<Access>::loadArgs(std::uint32_t arity, Module m)
{
    if (arity == 0)
        return;

    TaggedWord w = _acc.readMem(m, LogicalAddr(Area::Heap, _cp),
                                BranchOp::T1CaseTag);
    if (w.tag == Tag::PackedArgs) {
        ++_cp;
        for (std::uint32_t i = 0; i < arity; ++i) {
            std::uint32_t op = (w.data >> (8 * i)) & 0xff;
            std::uint32_t type = op >> 5;
            std::uint32_t idx = op & 0x1f;
            // Packed-operand dispatch (the `case (irn)` branch).
            _acc.step(m, BranchOp::T1CaseIrn, kScr, kNoWf, kReg);
            _acc.texture(m, kArgDecode - 1);
            TaggedWord a;
            switch (type) {
              case kl0::kPackLocalVar:
                a = fetchVarArg(VarSlot{false,
                                static_cast<std::uint16_t>(idx)}, m);
                break;
              case kl0::kPackGlobalVar:
                a = fetchVarArg(VarSlot{true,
                                static_cast<std::uint16_t>(idx)}, m);
                break;
              case kl0::kPackVoid:
                a = newGlobalCell(m);
                break;
              case kl0::kPackSmallInt:
                a = {Tag::Int, idx};
                break;
              default:
                panic("bad packed operand type ", type);
            }
            _acc.wfWrite(micro::kWfArgBase + i, a);
        }
        return;
    }

    for (std::uint32_t i = 0; i < arity; ++i) {
        TaggedWord d = _acc.readMem(m, LogicalAddr(Area::Heap, _cp),
                                    BranchOp::T1CaseTag, kNoWf,
                                    kReg);
        ++_cp;
        _acc.texture(m, kArgDecode);
        TaggedWord a;
        switch (d.tag) {
          case Tag::AConst:
            a = {Tag::Atom, d.data};
            break;
          case Tag::AInt:
            a = {Tag::Int, d.data};
            break;
          case Tag::ANil:
            a = {Tag::Nil, 0};
            break;
          case Tag::AVoid:
            a = newGlobalCell(m);
            break;
          case Tag::AVar:
            a = fetchVarArg(VarSlot::decode(d.data), m);
            break;
          case Tag::AList:
            a = instantiate(LogicalAddr::unpack(d.data).offset, true);
            break;
          case Tag::AStruct:
            a = instantiate(LogicalAddr::unpack(d.data).offset, false);
            break;
          case Tag::AGroundList:
            // Ground terms are shared from the heap image.
            a = {Tag::List, d.data};
            break;
          case Tag::AGroundStruct:
          case Tag::AExpr:
            a = {Tag::Struct, d.data};
            break;
          default:
            panic("bad argument descriptor '", tagName(d.tag), "'");
        }
        _acc.wfWrite(micro::kWfArgBase + i, a);
    }
}

template <class Access>
TaggedWord
Core<Access>::readLocal(std::uint32_t slot, Module m)
{
    switch (_act.frame.kind) {
      case FrameLoc::Kind::Buf0:
      case FrameLoc::Kind::Buf1:
        // Base-relative access through PDR/CDR.
        _acc.step(m, BranchOp::T1Nop, WfMode::BaseRelPdrCdr, kNoWf,
                  kReg);
        return _acc.wfRead(frameBufBase(_act.frame.kind) + slot);
      case FrameLoc::Kind::Stack:
        return _acc.readMem(
            m, LogicalAddr(Area::Local, _act.frame.addr + slot),
            BranchOp::T1Nop, kScr, kReg);
      default:
        panic("local access with no frame");
    }
}

template <class Access>
void
Core<Access>::writeLocal(std::uint32_t slot, const TaggedWord &w,
                         Module m)
{
    switch (_act.frame.kind) {
      case FrameLoc::Kind::Buf0:
      case FrameLoc::Kind::Buf1:
        _acc.step(m, BranchOp::T1Nop, kReg, kNoWf,
                  WfMode::BaseRelPdrCdr);
        _acc.wfWrite(frameBufBase(_act.frame.kind) + slot, w);
        return;
      case FrameLoc::Kind::Stack:
        _acc.writeMem(m,
                      LogicalAddr(Area::Local, _act.frame.addr + slot),
                      w, BranchOp::T1Nop, kReg);
        return;
      default:
        panic("local write with no frame");
    }
}

template <class Access>
TaggedWord
Core<Access>::fetchVarArg(const VarSlot &vs, Module m)
{
    _acc.texture(m, kVarFetchDecode);
    if (vs.global) {
        // A reference to the global cell is formed in one step.
        _acc.step(m, BranchOp::T1Nop, kScr, kNoWf, kReg);
        return {Tag::Ref,
                LogicalAddr(Area::Global,
                            _act.globalBase + vs.index).pack()};
    }
    TaggedWord v = readLocal(vs.index, m);
    if (v.tag == Tag::Undef) {
        // First use of an uninitialized local as an argument: the
        // variable is globalized so no reference into the work file
        // (or into a dying frame) can ever be created.
        TaggedWord ref = newGlobalCell(m);
        if (_act.frame.kind == FrameLoc::Kind::Stack) {
            // A flushed frame can be re-read by a choice-point retry,
            // so the slot initialization must be undoable: bind()
            // trails it conditionally, and trail unwinding restores
            // local-stack cells to the uninitialized state.
            bind(LogicalAddr(Area::Local, _act.frame.addr + vs.index),
                 ref, m);
        } else {
            writeLocal(vs.index, ref, m);
        }
        return ref;
    }
    return v;
}

template <class Access>
TaggedWord
Core<Access>::newGlobalCell(Module m)
{
    LogicalAddr cell(Area::Global, _gt);
    _acc.pushMem(m, cell, unboundAt(cell), BranchOp::T2Nop);
    ++_gt;
    return {Tag::Ref, cell.pack()};
}

template <class Access>
bool
Core<Access>::doCall(std::uint32_t functor_idx, std::uint32_t goal_cp,
                     bool last_call)
{
    ++_inferences;

    // Call entry: save the goal context, set up the predicate
    // descriptor fetch.
    _acc.step(Module::Control, BranchOp::T1Gosub, kScr, kScr, kScr);
    _acc.texture(Module::Control, kCallDecode);
    TaggedWord dir = _acc.readMem(
        Module::Control,
        LogicalAddr(Area::Heap, kl0::kDirBase + functor_idx),
        BranchOp::T1CondFalse, kScr);
    if (dir.tag == Tag::IndexRef)
        dir = {Tag::ClauseRef, resolveIndex(dir.data)};
    if (dir.tag != Tag::ClauseRef) {
        if (functor_idx >= _warnedUndefined.size())
            _warnedUndefined.resize(functor_idx + 1, false);
        if (!_warnedUndefined[functor_idx]) {
            _warnedUndefined[functor_idx] = true;
            warn("undefined predicate ",
                 _syms.functorName(functor_idx), "/",
                 _syms.functorArity(functor_idx));
        }
        return false;
    }

    std::uint32_t cont_cp;
    std::uint32_t cont_env;
    if (last_call) {
        // Tail-recursion optimization: the callee inherits this
        // activation's continuation; no environment is pushed.
        _acc.step(Module::Control, BranchOp::T1CondTrue, kScr, kScr);
        cont_cp = _act.contCP;
        cont_env = _act.contEnv;
    } else {
        _acc.step(Module::Control, BranchOp::T1CondFalse, kScr, kScr);
        if (_act.frame.inBuffer())
            flushFrame();
        // The current control information is saved to the control
        // stack for every continuation-creating call.
        pushEnvFrame();
        cont_cp = _cp;
        cont_env = _act.selfEnv;
    }

    return tryClauses(dir.data, goal_cp, cont_cp, cont_env, _b);
}

template <class Access>
std::uint32_t
Core<Access>::resolveIndex(std::uint32_t root)
{
    // Dereference A1 and switch on its tag (an index exists only for
    // predicates of arity > 0, so A1 is always loaded here).
    Deref d = deref(_acc.wfRead(micro::kWfArgBase), Module::Control);
    TaggedWord a1 =
        d.unbound ? TaggedWord{Tag::Ref, d.cell.pack()} : d.word;
    _acc.step(Module::Control, BranchOp::T1CaseTag, kScr, kScr);

    std::uint32_t slot;
    std::uint32_t key = 0;
    Tag key_tag = Tag::Undef;
    switch (a1.tag) {
      case Tag::Atom:
        slot = kl0::kIdxSlotAtom;
        key = a1.data;
        key_tag = Tag::Atom;
        break;
      case Tag::Int:
        slot = kl0::kIdxSlotInt;
        key = a1.data;
        key_tag = Tag::Int;
        break;
      case Tag::Nil:
        slot = kl0::kIdxSlotNil;
        break;
      case Tag::List:
        slot = kl0::kIdxSlotList;
        break;
      case Tag::Struct:
        slot = kl0::kIdxSlotStruct;
        key = _acc.readMem(Module::Control,
                           LogicalAddr::unpack(a1.data),
                           BranchOp::T1Nop, kScr)
                  .data;
        key_tag = Tag::Functor;
        break;
      default:
        // Unbound - or a tag the index does not cover (vectors):
        // walk the full linear chain.
        ++_idxFallbacks;
        return _acc.readMem(Module::Control,
                            LogicalAddr(Area::Heap, root),
                            BranchOp::T1Goto, kScr)
            .data;
    }
    ++_idxHits;

    TaggedWord w = _acc.readMem(Module::Control,
                                LogicalAddr(Area::Heap, root + slot),
                                BranchOp::T1CaseTag, kScr);
    if (w.tag == Tag::ClauseRef)
        return w.data;
    PSI_ASSERT(w.tag == Tag::IndexHash, "bad index slot word");

    std::uint32_t block = w.data;
    std::uint32_t nslots =
        _acc.readMem(Module::Control, LogicalAddr(Area::Heap, block),
                     BranchOp::T1Nop, kScr)
            .data;
    std::uint32_t h = kl0::indexKeyHash(key) & (nslots - 1);
    for (;;) {
        TaggedWord kw = _acc.readMem(
            Module::Control,
            LogicalAddr(Area::Heap, block + 2 + 2 * h),
            BranchOp::T1CaseTag, kScr);
        if (kw.tag == Tag::Undef) {
            // No clause mentions this key: only the variable-headed
            // clauses can match.
            return _acc.readMem(Module::Control,
                                LogicalAddr(Area::Heap, block + 1),
                                BranchOp::T1Goto, kScr)
                .data;
        }
        if (kw.tag == key_tag && kw.data == key) {
            return _acc.readMem(
                       Module::Control,
                       LogicalAddr(Area::Heap, block + 3 + 2 * h),
                       BranchOp::T1Goto, kScr)
                .data;
        }
        // Linear probe (load factor <= 1/2 guarantees an empty slot).
        h = (h + 1) & (nslots - 1);
    }
}

template <class Access>
bool
Core<Access>::tryClauses(std::uint32_t table_addr, std::uint32_t goal_cp,
                         std::uint32_t cont_cp, std::uint32_t cont_env,
                         std::uint32_t cut_b)
{
    // Caller context captured for the choice point (deep retries
    // reload arguments against this frame).
    FrameLoc caller_frame = _act.frame;
    std::uint32_t caller_gb = _act.globalBase;
    std::uint32_t caller_nlocals = _act.nlocals;

    // Trial snapshot, held in work-file registers: stack tops at
    // call time, so a failed head unification can be undone without
    // touching the control stack (shallow backtracking).
    std::uint32_t old_hb = _hb;
    std::uint32_t old_hl = _hl;
    std::uint32_t trial_gt = _gt;
    std::uint64_t trial_tt = trailTop();
    _acc.step(Module::Control, BranchOp::T1Nop, kScr, kScr, kScr);

    std::uint32_t pos = table_addr;
    TaggedWord cur = _acc.readMem(Module::Control,
                                  LogicalAddr(Area::Heap, pos),
                                  BranchOp::T1CondTrue, kScr);
    if (cur.tag != Tag::ClauseRef)
        return false;

    for (;;) {
        ++_clauseTries;
        TaggedWord next = _acc.readMem(Module::Control,
                                       LogicalAddr(Area::Heap, pos + 1),
                                       BranchOp::T1CondTrue, kScr);
        _acc.texture(Module::Control, kTrialDecode);
        bool has_next = next.tag == Tag::ClauseRef;

        // Bind conditionally against the trial snapshot so a failing
        // head unification is fully undoable.
        _hb = trial_gt;
        _hl = _lt;

        if (enterClause(cur.data, cont_cp, cont_env, cut_b)) {
            if (has_next) {
                // Commit with alternatives: only now does control
                // information go to the control stack.
                std::uint32_t cfe;
                if (caller_frame.inBuffer()) {
                    // Lazy flush: a deep retry must be able to
                    // re-read the caller's locals from memory.
                    std::uint16_t base = frameBufBase(caller_frame.kind);
                    std::uint32_t addr = _lt;
                    _acc.step(Module::Control, BranchOp::T1LoadJr,
                              kScr, kNoWf, kNoWf);
                    for (std::uint32_t i = 0; i < caller_nlocals;
                         ++i) {
                        _acc.pushMem(Module::Control,
                                     LogicalAddr(Area::Local, _lt + i),
                                     _acc.wfRead(base + i),
                                     BranchOp::T3Nop, WfMode::IndWfar1);
                    }
                    _lt += caller_nlocals;
                    cfe = FrameLoc{FrameLoc::Kind::Stack,
                                   addr}.encode();
                } else {
                    cfe = caller_frame.encode();
                }
                trailFlush();
                pushChoicePoint(goal_cp, cont_cp, cont_env, cfe,
                                caller_gb, trial_gt, _lt,
                                static_cast<std::uint32_t>(trial_tt),
                                cut_b, pos + 1);
                _hb = trial_gt;
                _hl = _lt;
            } else {
                _hb = old_hb;
                _hl = old_hl;
            }
            return true;
        }

        // Shallow retry from the work-file snapshot.
        _acc.step(Module::Control, BranchOp::T1CondFalse, kScr, kNoWf,
                  kScr);
        unwindTrail(trial_tt);
        _gt = trial_gt;
        // Reclaim any local frame the failed candidate allocated
        // (no-op with frame buffers: _hl is the trial-start local
        // top).
        _lt = _hl;
        if (!has_next) {
            _hb = old_hb;
            _hl = old_hl;
            return false;
        }
        pos += 1;
        cur = next;
    }
}

template <class Access>
void
Core<Access>::flushFrame()
{
    PSI_ASSERT(_act.frame.inBuffer(), "flush of a non-buffer frame");
    std::uint16_t base = frameBufBase(_act.frame.kind);
    std::uint32_t addr = _lt;
    // WFAR1 := buffer base (address-register setup step).
    _acc.step(Module::Control, BranchOp::T1LoadJr, kScr, kNoWf, kNoWf);
    for (std::uint32_t i = 0; i < _act.nlocals; ++i) {
        _acc.pushMem(Module::Control, LogicalAddr(Area::Local, _lt + i),
                     _acc.wfRead(base + i), BranchOp::T3Nop,
                     WfMode::IndWfar1);
    }
    _lt += _act.nlocals;
    _act.frame = FrameLoc{FrameLoc::Kind::Stack, addr};
}

template <class Access>
void
Core<Access>::pushEnvFrame()
{
    _acc.texture(Module::Control, kFramePush);
    std::uint32_t env = _ct;
    const std::uint32_t words[kFrameWords] = {
        _act.contCP,
        _act.contEnv,
        _act.frame.encode(),
        _act.globalBase,
        _act.cutB,
        _act.nlocals,
        _act.clauseAddr,
        0, 0, 0,
    };
    for (std::uint32_t i = 0; i < kFrameWords; ++i) {
        _acc.pushMem(Module::Control,
                     LogicalAddr(Area::Control, _ct + i),
                     {Tag::Int, words[i]}, BranchOp::T3Nop, kReg);
    }
    _ct += kFrameWords;
    _act.selfEnv = env;
}

template <class Access>
void
Core<Access>::restoreEnv(std::uint32_t env_addr)
{
    PSI_ASSERT(env_addr != kRootEnv && env_addr != 0,
               "bad environment address");
    _acc.texture(Module::Control, kEnvRestore);
    std::uint32_t w[7];
    for (int i = 0; i < 7; ++i) {
        w[i] = _acc.readMem(Module::Control,
                            LogicalAddr(Area::Control, env_addr + i),
                            i == 0 ? BranchOp::T2Goto : BranchOp::T2Nop,
                            kNoWf, kScr)
                   .data;
    }
    _act.contCP = w[kEnvContCP];
    _act.contEnv = w[kEnvContEnv];
    _act.frame = FrameLoc::decode(w[kEnvFrameLoc]);
    _act.globalBase = w[kEnvGlobalBase];
    _act.cutB = w[kEnvCutB];
    _act.nlocals = w[kEnvNLocals];
    _act.clauseAddr = w[kEnvClauseAddr];

    if (env_addr + kFrameWords == _ct &&
        (_b == kNoChoice || _b < env_addr)) {
        // Determinate return to the top frame: reclaim it.
        _ct = env_addr;
        _act.selfEnv = 0;
    } else {
        _act.selfEnv = env_addr;
    }
}

template <class Access>
void
Core<Access>::pushChoicePoint(std::uint32_t goal_cp,
                              std::uint32_t cont_cp,
                              std::uint32_t cont_env,
                              std::uint32_t caller_frame_enc,
                              std::uint32_t caller_global_base,
                              std::uint32_t saved_gt,
                              std::uint32_t saved_lt,
                              std::uint32_t saved_tt,
                              std::uint32_t saved_b,
                              std::uint32_t next_clause_addr)
{
    _acc.texture(Module::Control, kFramePush);
    std::uint32_t cp_addr = _ct;
    const std::uint32_t words[kFrameWords] = {
        goal_cp,
        caller_frame_enc,
        caller_global_base,
        cont_cp,
        cont_env,
        saved_gt,
        saved_lt,
        saved_tt,
        saved_b,
        next_clause_addr,
    };
    for (std::uint32_t i = 0; i < kFrameWords; ++i) {
        _acc.pushMem(Module::Control,
                     LogicalAddr(Area::Control, _ct + i),
                     {Tag::Int, words[i]}, BranchOp::T3Nop, kReg);
    }
    _ct += kFrameWords;
    _b = cp_addr;
}

template <class Access>
bool
Core<Access>::enterClause(std::uint32_t clause_addr,
                          std::uint32_t cont_cp, std::uint32_t cont_env,
                          std::uint32_t cut_b)
{
    TaggedWord hdr = _acc.readMem(Module::Control,
                                  LogicalAddr(Area::Heap, clause_addr),
                                  BranchOp::T1CaseTag, kNoWf,
                                  kScr);
    PSI_ASSERT(hdr.tag == Tag::ClauseHeader, "bad clause address");
    _acc.texture(Module::Control, kEnterDecode);
    std::uint32_t arity = hdr.data & 0xff;
    std::uint32_t nlocals = (hdr.data >> 8) & 0xff;
    std::uint32_t nglobals = (hdr.data >> 16) & 0xff;

    std::uint32_t global_base = _gt;
    for (std::uint32_t g = 0; g < nglobals; ++g) {
        LogicalAddr cell(Area::Global, _gt + g);
        _acc.pushMem(Module::Control, cell, unboundAt(cell),
                     BranchOp::T2Nop);
    }
    _gt += nglobals;

    FrameLoc frame;
    if (nlocals > 0 && _acc.frameBuffers()) {
        int nb = 1 - _curBuf;
        frame.kind = nb == 0 ? FrameLoc::Kind::Buf0
                             : FrameLoc::Kind::Buf1;
        std::uint16_t base = frameBufBase(frame.kind);
        // Initialize the frame through WFAR1 auto-increment.
        for (std::uint32_t i = 0; i < nlocals; ++i) {
            _acc.step(Module::Control, BranchOp::T3Nop, kNoWf, kNoWf,
                      WfMode::IndWfar1);
            _acc.wfWrite(base + i, TaggedWord{});
        }
        _curBuf = nb;
    } else if (nlocals > 0) {
        // Ablation: no frame buffers - the local frame is allocated
        // directly on the local stack.
        frame.kind = FrameLoc::Kind::Stack;
        frame.addr = _lt;
        for (std::uint32_t i = 0; i < nlocals; ++i) {
            _acc.pushMem(Module::Control,
                         LogicalAddr(Area::Local, _lt + i),
                         TaggedWord{}, BranchOp::T3Nop);
        }
        _lt += nlocals;
    }

    _act.contCP = cont_cp;
    _act.contEnv = cont_env;
    _act.frame = frame;
    _act.globalBase = global_base;
    _act.cutB = cut_b;
    _act.nlocals = nlocals;
    _act.clauseAddr = clause_addr;
    _act.selfEnv = 0;

    std::uint32_t dp = clause_addr + 1;
    for (std::uint32_t i = 0; i < arity; ++i) {
        TaggedWord desc = _acc.readMem(Module::Unify,
                                       LogicalAddr(Area::Heap, dp + i),
                                       BranchOp::T1CaseTag, kNoWf,
                                       kScr);
        TaggedWord arg = _acc.wfRead(micro::kWfArgBase + i);
        if (!unifyHead(desc, arg))
            return false;
    }
    // Activation setup completes only after the head has matched.
    _acc.texture(Module::Control, 5);
    _cp = dp + arity;
    return true;
}

template <class Access>
bool
Core<Access>::backtrack()
{
    for (;;) {
        if (_b == kNoChoice)
            return false;

        // Deep backtracking: restore the machine from the newest
        // choice-point frame.
        _acc.step(Module::Control, BranchOp::T2Goto, kScr, kNoWf,
                  kScr);
        _acc.texture(Module::Control, kBacktrackDecode);
        std::uint32_t w[kFrameWords];
        for (std::uint32_t i = 0; i < kFrameWords; ++i) {
            w[i] = _acc.readMem(Module::Control,
                                LogicalAddr(Area::Control, _b + i),
                                BranchOp::T2Nop, kNoWf, kScr)
                       .data;
        }

        unwindTrail(w[kCpSavedTT]);
        _gt = w[kCpSavedGT];
        _lt = w[kCpSavedLT];
        // The frame is consumed: remaining candidates run a fresh
        // trial loop, which pushes a new choice point only if one is
        // still needed.
        _ct = _b;
        _b = w[kCpSavedB];
        reloadTrailBounds(Module::Control);

        // Rebuild the caller context and reload the goal arguments
        // from the instruction code (DEC-10-interpreter style retry).
        _act.frame = FrameLoc::decode(w[kCpCallerFrame]);
        _act.globalBase = w[kCpCallerGlobal];

        std::uint32_t goal_cp = w[kCpGoalCP];
        if (goal_cp != 0) {
            TaggedWord call = _acc.readMem(
                Module::Control, LogicalAddr(Area::Heap, goal_cp),
                BranchOp::T1CaseIrOpcode, kNoWf, kScr);
            PSI_ASSERT(call.tag == Tag::Call ||
                           call.tag == Tag::CallLast,
                       "retry at a non-call word");
            _cp = goal_cp + 1;
            loadArgs(_syms.functorArity(call.data), Module::Control);
        }

        if (tryClauses(w[kCpNextClause], goal_cp, w[kCpContCP],
                       w[kCpContEnv], w[kCpSavedB])) {
            return true;
        }
        // Every remaining candidate failed; fail into the next
        // older choice point.
    }
}

template <class Access>
void
Core<Access>::reloadTrailBounds(Module m)
{
    if (_b == kNoChoice) {
        _hb = 0;
        _hl = 0;
        return;
    }
    _hb = _acc.readMem(m, LogicalAddr(Area::Control, _b + kCpSavedGT),
                       BranchOp::T2Nop, kNoWf, kScr)
              .data;
    _hl = _acc.readMem(m, LogicalAddr(Area::Control, _b + kCpSavedLT),
                       BranchOp::T2Nop, kNoWf, kScr)
              .data;
}

template <class Access>
void
Core<Access>::doCut()
{
    _acc.step(Module::Cut, BranchOp::T1CondTrue, kScr, kScr);
    _acc.texture(Module::Cut, kCutWork);
    if (_b != _act.cutB) {
        _b = _act.cutB;
        _acc.step(Module::Cut, BranchOp::T1CondFalse, kScr, kNoWf,
                  kScr);
        reloadTrailBounds(Module::Cut);
    }
}

template <class Access>
void
Core<Access>::extractSolution(const kl0::QueryCode &qc,
                              RunResult &result)
{
    Solution sol;
    for (const auto &kv : qc.vars) {
        const kl0::SlotRef &sr = kv.second;
        TaggedWord w;
        if (sr.global) {
            w = _acc.peek(LogicalAddr(Area::Global,
                                      _act.globalBase + sr.index));
        } else {
            switch (_act.frame.kind) {
              case FrameLoc::Kind::Stack:
                w = _acc.peek(LogicalAddr(Area::Local,
                                          _act.frame.addr + sr.index));
                break;
              case FrameLoc::Kind::Buf0:
              case FrameLoc::Kind::Buf1:
                w = _acc.wfRead(frameBufBase(_act.frame.kind) +
                                sr.index);
                break;
              default:
                w = TaggedWord{};
            }
        }
        if (w.tag == Tag::Undef) {
            sol.bindings[kv.first] = kl0::Term::var("_" + kv.first);
        } else {
            sol.bindings[kv.first] = exportTerm(w);
        }
    }
    result.solutions.push_back(std::move(sol));
}

template <class Access>
kl0::TermPtr
Core<Access>::exportTerm(const TaggedWord &w, int depth)
{
    if (depth > 100000)
        return kl0::Term::atom("...");

    TaggedWord cur = w;
    // Host-level dereference (no accounting: extraction is outside
    // the measured firmware).
    while (cur.tag == Tag::Ref) {
        LogicalAddr a = LogicalAddr::unpack(cur.data);
        TaggedWord inner = _acc.peek(a);
        if (inner.tag == Tag::Ref && inner.data == cur.data) {
            return kl0::Term::var("_G" + std::to_string(cur.data));
        }
        cur = inner;
    }

    switch (cur.tag) {
      case Tag::Undef:
        return kl0::Term::var("_U");
      case Tag::Atom:
        return kl0::Term::atom(_syms.atomName(cur.data));
      case Tag::Int:
        return kl0::Term::integer(cur.asInt());
      case Tag::Nil:
        return kl0::Term::nil();
      case Tag::List: {
        LogicalAddr a = LogicalAddr::unpack(cur.data);
        return kl0::Term::compound(
            ".", {exportTerm(_acc.peek(a), depth + 1),
                  exportTerm(_acc.peek(a.plus(1)), depth + 1)});
      }
      case Tag::Struct: {
        LogicalAddr a = LogicalAddr::unpack(cur.data);
        TaggedWord f = _acc.peek(a);
        PSI_ASSERT(f.tag == Tag::Functor, "bad structure word");
        std::uint32_t n = _syms.functorArity(f.data);
        std::vector<kl0::TermPtr> args;
        args.reserve(n);
        for (std::uint32_t i = 1; i <= n; ++i)
            args.push_back(exportTerm(_acc.peek(a.plus(i)), depth + 1));
        return kl0::Term::compound(_syms.functorName(f.data),
                                   std::move(args));
      }
      case Tag::Vector: {
        LogicalAddr a = LogicalAddr::unpack(cur.data);
        TaggedWord size = _acc.peek(a);
        return kl0::Term::compound(
            "$vector", {kl0::Term::integer(size.asInt())});
      }
      default:
        return kl0::Term::atom(std::string("$bad_") +
                               tagName(cur.tag));
    }
}

} // namespace interp
} // namespace psi

#endif // PSI_INTERP_CORE_CONTROL_HPP
