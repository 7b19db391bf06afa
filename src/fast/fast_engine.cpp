/**
 * @file
 * Fast-engine control core: load, token-threaded main loop, calls,
 * clause trial, choice points, environments, backtracking, solution
 * extraction.  Transliterated statement-for-statement from
 * interp/engine.cpp with the sequencer accounting removed; every
 * state transition (register updates, allocation order, frame and
 * trail decisions) is kept identical so answers are byte-identical.
 */

#include "fast/fast_engine.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <new>
#include <utility>

#include "base/logging.hpp"
#include "kl0/reader.hpp"

namespace psi {
namespace fast {

namespace {

/** Make the self-referencing word of an unbound cell. */
TaggedWord
unboundAt(const LogicalAddr &addr)
{
    return {Tag::Ref, addr.pack()};
}

TaggedWord
intWord(std::uint32_t v)
{
    return {Tag::Int, v};
}

/** Words a segment allocates on its first write (32 KB). */
constexpr std::uint32_t kMinSegmentWords = 1u << 12;

/** Area offsets are 28 bits: the last segment ends there. */
constexpr std::uint32_t kAreaWords = 1u << 28;

/** Stack-area segments: one per process_call window. */
std::vector<std::uint32_t>
processWindowBases()
{
    std::vector<std::uint32_t> bases;
    for (std::uint32_t p = 1; p < interp::kProcesses; ++p)
        bases.push_back(p * interp::kProcWindow);
    return bases;
}

} // namespace

void
FlatArea::FreeWords::operator()(TaggedWord *p) const
{
    std::free(p);
}

FlatArea::FlatArea(const std::vector<std::uint32_t> &high_bases)
    : _high(high_bases.size())
{
    Segment *prev = &_low;
    for (std::size_t i = 0; i < high_bases.size(); ++i) {
        PSI_ASSERT(high_bases[i] > prev->base,
                   "segment bases must ascend");
        _high[i].base = high_bases[i];
        prev->limit = high_bases[i] - prev->base;
        prev = &_high[i];
    }
    prev->limit = kAreaWords - prev->base;
}

void
FlatArea::Segment::grow(std::uint32_t need)
{
    PSI_ASSERT(need <= limit, "segment overflow");
    std::uint64_t n =
        std::max<std::uint64_t>(kMinSegmentWords, 2ull * size);
    while (n < need)
        n <<= 1;
    n = std::min<std::uint64_t>(n, limit);
    // calloc: all-zero bytes are the Undef word, and a large block
    // comes zero-mapped, so untouched words cost no resident memory.
    auto *fresh = static_cast<TaggedWord *>(
        std::calloc(n, sizeof(TaggedWord)));
    if (fresh == nullptr)
        throw std::bad_alloc();
    std::copy_n(words.get(), hwm, fresh);
    words.reset(fresh);
    size = static_cast<std::uint32_t>(n);
}

void
FlatArea::Segment::clear()
{
    // All-zero bytes are the Undef word; memset, because a fill of
    // TaggedWord{} compiles to a byte and a word store per element.
    if (hwm > 0)
        std::memset(static_cast<void *>(words.get()), 0,
                    std::size_t{hwm} * sizeof(TaggedWord));
    hwm = 0;
}

const FlatArea::Segment &
FlatArea::segmentFor(std::uint32_t off) const
{
    for (auto s = _high.rbegin(); s != _high.rend(); ++s) {
        if (off >= s->base)
            return *s;
    }
    return _low;
}

FlatArea::Segment &
FlatArea::segmentFor(std::uint32_t off)
{
    return const_cast<Segment &>(std::as_const(*this).segmentFor(off));
}

TaggedWord
FlatArea::readSlow(std::uint32_t off) const
{
    const Segment &s = segmentFor(off);
    std::uint32_t i = off - s.base;
    return i < s.size ? s.words[i] : TaggedWord{};
}

void
FlatArea::fill(std::uint32_t off, std::uint32_t n, const TaggedWord &w)
{
    Segment &s = segmentFor(off);
    std::uint32_t i = off - s.base;
    PSI_ASSERT(n <= s.limit - i, "fill crosses a segment end");
    if (i + n > s.size)
        s.grow(i + n);
    std::fill_n(s.words.get() + i, n, w);
    s.hwm = std::max(s.hwm, i + n);
}

void
FlatArea::clear()
{
    _low.clear();
    clearHigh();
}

void
FlatArea::clearHigh()
{
    for (Segment &s : _high)
        s.clear();
}

void
FlatHeap::clear()
{
    for (std::uint32_t off : _poked)
        _area->write(off, TaggedWord{});
    _poked.clear();
    _area->clearHigh();
}

FastEngine::FastEngine()
    : _area{FlatArea({kl0::kGlobalRegBase}),
            FlatArea(processWindowBases()),
            FlatArea(processWindowBases()),
            FlatArea(processWindowBases()),
            FlatArea(processWindowBases())},
      _heap(_area[static_cast<int>(Area::Heap)]),
      _codegen(_heap, _syms)
{
    static_assert(kNumAreas == 5 && static_cast<int>(Area::Heap) == 0,
                  "one FlatArea per logical area, heap first");
}

void
FastEngine::load(const kl0::CompiledProgram &image)
{
    _heap.clear();
    for (int a = 1; a < kNumAreas; ++a)
        _area[a].clear();
    _syms = image.symbols();
    _codegen.restore(image.codegen());
    // Query code compiled against this image must use the same
    // compile options (a $queryN/0 predicate is never indexed, but
    // the builtin specialization must agree with the image).
    _codegen.setOptions(image.options());
    for (const PokeRecord &p : image.image())
        _heap.poke(p.addr, p.word);
    resetRun();
    _vecTop = kl0::kVectorBase;
    _maxOutputBytes = 1 << 20;
    _inProcessCall = false;
    _warnedUndefined.clear();
    _arithOps.clear(); // functor indices are per-image
    _loaded = true;
}

interp::RunResult
FastEngine::solve(const std::string &query_text,
                  const RunLimits &limits)
{
    return solve(kl0::parseTerm(query_text), limits);
}

interp::RunResult
FastEngine::solve(const kl0::TermPtr &goal, const RunLimits &limits)
{
    // The shared CodeGen emits into the flat heap, so the query code,
    // clause table and directory entry land at the same logical
    // addresses the fidelity engine executes from.
    kl0::QueryCode qc = _codegen.compileQuery(goal);
    return run(qc, limits);
}

void
FastEngine::resetRun()
{
    _gt = _lt = _ct = _tt = interp::kStackBase;
    _b = interp::kNoChoice;
    _hb = _hl = 0;
    _cp = 0;
    _act = Activation{};
    _act.globalBase = _gt;
    _curBuf = 0;
    _inferences = 0;
    _idxHits = 0;
    _idxFallbacks = 0;
    _clauseTries = 0;
    _out.clear();
    _failFlag = false;
}

interp::RunResult
FastEngine::run(const kl0::QueryCode &qc, const RunLimits &limits)
{
    resetRun();
    _dispatches = 0;
    _maxOutputBytes = limits.maxOutputBytes;

    RunResult result;
    bool started = doCall(qc.functorIdx, 0, true);
    if (!started)
        started = backtrack();
    if (started)
        mainLoop(qc, result, limits);
    result.stepLimitHit = result.status == interp::RunStatus::StepLimit;

    result.inferences = _inferences;
    // No accounting in fast mode: steps and model time are zero.
    result.steps = 0;
    result.timeNs = 0;
    result.output = std::move(_out);
    _out.clear();
    return result;
}

void
FastEngine::mainLoop(const kl0::QueryCode &qc, RunResult &result,
                     const RunLimits &limits)
{
    const interp::Deadline deadline(limits.deadlineNs);
    std::uint32_t poll = 0;
    TaggedWord w;

#if defined(__GNUC__) || defined(__clang__)
    // Token-threaded dispatch: the instruction tag indexes a label
    // table directly, one indirect jump per body instruction word.
    // Indexed by Tag value; only the six instruction tokens are
    // executable, everything else is a corrupt-image panic.
    static const void *const kOp[static_cast<int>(Tag::NumTags)] = {
        &&op_bad, // Undef
        &&op_bad, // Ref
        &&op_bad, // Atom
        &&op_bad, // Int
        &&op_bad, // Nil
        &&op_bad, // List
        &&op_bad, // Struct
        &&op_bad, // Functor
        &&op_bad, // Vector
        &&op_bad, // SkelVar
        &&op_bad, // ClauseHeader
        &&op_bad, // ClauseRef
        &&op_bad, // EndClauses
        &&op_bad, // HConst
        &&op_bad, // HInt
        &&op_bad, // HNil
        &&op_bad, // HVarF
        &&op_bad, // HVarS
        &&op_bad, // HList
        &&op_bad, // HStruct
        &&op_bad, // HGroundList
        &&op_bad, // HGroundStruct
        &&op_bad, // HVoid
        &&op_call,    // Call
        &&op_call,    // CallLast
        &&op_builtin, // CallBuiltin
        &&op_bad, // PackedArgs
        &&op_bad, // AConst
        &&op_bad, // AInt
        &&op_bad, // ANil
        &&op_bad, // AVar
        &&op_bad, // AVoid
        &&op_bad, // AList
        &&op_bad, // AStruct
        &&op_bad, // AGroundList
        &&op_bad, // AGroundStruct
        &&op_bad, // AExpr
        &&op_cut,     // CutOp
        &&op_proceed, // Proceed
        &&op_bad, // IndexRef
        &&op_bad, // IndexRoot
        &&op_bad, // IndexHash
        &&op_is,  // CallIs
        &&op_cmp, // CallCmp
    };
#define PSI_FAST_DISPATCH() goto *kOp[static_cast<int>(w.tag)]
#else
#define PSI_FAST_DISPATCH()                                           \
    switch (w.tag) {                                                  \
      case Tag::Call:                                                 \
      case Tag::CallLast:                                             \
        goto op_call;                                                 \
      case Tag::CallBuiltin:                                          \
        goto op_builtin;                                              \
      case Tag::CallIs:                                               \
        goto op_is;                                                   \
      case Tag::CallCmp:                                              \
        goto op_cmp;                                                  \
      case Tag::CutOp:                                                \
        goto op_cut;                                                  \
      case Tag::Proceed:                                              \
        goto op_proceed;                                              \
      default:                                                        \
        goto op_bad;                                                  \
    }
#endif

next:
    // maxSteps is a dispatch-count safety valve here (the fidelity
    // engine counts microinstructions against the same field).
    if (++_dispatches > limits.maxSteps) {
        result.status = interp::RunStatus::StepLimit;
        return;
    }
    // Wall-clock deadline, polled every 4096 dispatches so the clock
    // read is amortized away (same granularity as the fidelity loop).
    if (deadline.armed() && (++poll & 0xfffu) == 0 &&
        deadline.expired()) {
        result.status = interp::RunStatus::Timeout;
        return;
    }

    if (_failFlag) {
        _failFlag = false;
        if (!backtrack())
            return;
        goto next;
    }

    w = heapRead(_cp);
    ++_cp;
    PSI_FAST_DISPATCH();

op_call: {
    std::uint32_t goal_cp = _cp - 1;
    std::uint32_t f = w.data;
    loadArgs(_syms.functorArity(f));
    if (!doCall(f, goal_cp, w.tag == Tag::CallLast))
        _failFlag = true;
    goto next;
}

op_builtin: {
    auto b = static_cast<kl0::Builtin>(w.data);
    loadArgs(kl0::builtinArity(b));
    if (!execBuiltin(b))
        _failFlag = true;
    goto next;
}

op_is: {
    loadArgs(2);
    if (!execIs())
        _failFlag = true;
    goto next;
}

op_cmp: {
    loadArgs(2);
    if (!arithCompare(static_cast<kl0::Builtin>(w.data)))
        _failFlag = true;
    goto next;
}

op_cut:
    doCut();
    goto next;

op_proceed: {
    if (_act.contEnv == interp::kRootEnv) {
        extractSolution(qc, result);
        if (static_cast<int>(result.solutions.size()) >=
            limits.maxSolutions) {
            return;
        }
        _failFlag = true;
        goto next;
    }
    // Determinate local-frame reclamation.
    if (_act.frame.kind == FrameLoc::Kind::Stack &&
        _act.frame.addr + _act.nlocals == _lt &&
        _hl <= _act.frame.addr) {
        _lt = _act.frame.addr;
    }
    std::uint32_t rcp = _act.contCP;
    restoreEnv(_act.contEnv);
    _cp = rcp;
    goto next;
}

op_bad:
    panic("bad instruction word tag '", tagName(w.tag),
          "' at heap:", _cp - 1);

#undef PSI_FAST_DISPATCH
}

void
FastEngine::loadArgs(std::uint32_t arity)
{
    if (arity == 0)
        return;

    TaggedWord w = heapRead(_cp);
    if (w.tag == Tag::PackedArgs) {
        ++_cp;
        for (std::uint32_t i = 0; i < arity; ++i) {
            std::uint32_t op = (w.data >> (8 * i)) & 0xff;
            std::uint32_t type = op >> 5;
            std::uint32_t idx = op & 0x1f;
            TaggedWord a;
            switch (type) {
              case kl0::kPackLocalVar:
                a = fetchVarArg(VarSlot{false,
                                static_cast<std::uint16_t>(idx)});
                break;
              case kl0::kPackGlobalVar:
                a = fetchVarArg(VarSlot{true,
                                static_cast<std::uint16_t>(idx)});
                break;
              case kl0::kPackVoid:
                a = newGlobalCell();
                break;
              case kl0::kPackSmallInt:
                a = intWord(idx);
                break;
              default:
                panic("bad packed operand type ", type);
            }
            _a[i] = a;
        }
        return;
    }

    for (std::uint32_t i = 0; i < arity; ++i) {
        TaggedWord d = heapRead(_cp);
        ++_cp;
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
            a = newGlobalCell();
            break;
          case Tag::AVar:
            a = fetchVarArg(VarSlot::decode(d.data));
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
        _a[i] = a;
    }
}

TaggedWord
FastEngine::readLocal(std::uint32_t slot)
{
    switch (_act.frame.kind) {
      case FrameLoc::Kind::Buf0:
        return _fbuf[0][slot];
      case FrameLoc::Kind::Buf1:
        return _fbuf[1][slot];
      case FrameLoc::Kind::Stack:
        return read(LogicalAddr(Area::Local, _act.frame.addr + slot));
      default:
        panic("local access with no frame");
    }
}

void
FastEngine::writeLocal(std::uint32_t slot, const TaggedWord &w)
{
    switch (_act.frame.kind) {
      case FrameLoc::Kind::Buf0:
        _fbuf[0][slot] = w;
        return;
      case FrameLoc::Kind::Buf1:
        _fbuf[1][slot] = w;
        return;
      case FrameLoc::Kind::Stack:
        write(LogicalAddr(Area::Local, _act.frame.addr + slot), w);
        return;
      default:
        panic("local write with no frame");
    }
}

TaggedWord
FastEngine::fetchVarArg(const VarSlot &vs)
{
    if (vs.global) {
        return {Tag::Ref,
                LogicalAddr(Area::Global,
                            _act.globalBase + vs.index).pack()};
    }
    TaggedWord v = readLocal(vs.index);
    if (v.tag == Tag::Undef) {
        // First use of an uninitialized local as an argument: the
        // variable is globalized so no reference into a frame buffer
        // (or into a dying frame) can ever be created.
        TaggedWord ref = newGlobalCell();
        if (_act.frame.kind == FrameLoc::Kind::Stack) {
            // A flushed frame can be re-read by a choice-point retry,
            // so the slot initialization must be undoable.
            bind(LogicalAddr(Area::Local, _act.frame.addr + vs.index),
                 ref);
        } else {
            writeLocal(vs.index, ref);
        }
        return ref;
    }
    return v;
}

TaggedWord
FastEngine::newGlobalCell()
{
    LogicalAddr cell(Area::Global, _gt);
    write(cell, unboundAt(cell));
    ++_gt;
    return {Tag::Ref, cell.pack()};
}

bool
FastEngine::doCall(std::uint32_t functor_idx, std::uint32_t goal_cp,
                   bool last_call)
{
    ++_inferences;

    TaggedWord dir = heapRead(kl0::kDirBase + functor_idx);
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
        cont_cp = _act.contCP;
        cont_env = _act.contEnv;
    } else {
        if (_act.frame.inBuffer())
            flushFrame();
        pushEnvFrame();
        cont_cp = _cp;
        cont_env = _act.selfEnv;
    }

    return tryClauses(dir.data, goal_cp,
                      _syms.functorArity(functor_idx), cont_cp,
                      cont_env, _b);
}

std::uint32_t
FastEngine::resolveIndex(std::uint32_t root)
{
    // Same walk as interp::Engine::resolveIndex, minus the sequencer
    // accounting: dereference A1, pick the class slot, and hash the
    // principal constant/functor to a pre-built ClauseRef chain (an
    // index exists only for predicates of arity > 0, so A1 is always
    // loaded here).
    Deref d = deref(_a[0]);
    TaggedWord a1 =
        d.unbound ? TaggedWord{Tag::Ref, d.cell.pack()} : d.word;

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
        key = read(LogicalAddr::unpack(a1.data)).data;
        key_tag = Tag::Functor;
        break;
      default:
        // Unbound - or a tag the index does not cover (vectors):
        // walk the full linear chain.
        ++_idxFallbacks;
        return heapRead(root).data;
    }
    ++_idxHits;

    TaggedWord w = heapRead(root + slot);
    if (w.tag == Tag::ClauseRef)
        return w.data;
    PSI_ASSERT(w.tag == Tag::IndexHash, "bad index slot word");

    std::uint32_t block = w.data;
    std::uint32_t nslots = heapRead(block).data;
    std::uint32_t h = kl0::indexKeyHash(key) & (nslots - 1);
    for (;;) {
        TaggedWord kw = heapRead(block + 2 + 2 * h);
        if (kw.tag == Tag::Undef) {
            // No clause mentions this key: only the variable-headed
            // clauses can match.
            return heapRead(block + 1).data;
        }
        if (kw.tag == key_tag && kw.data == key)
            return heapRead(block + 3 + 2 * h).data;
        // Linear probe (load factor <= 1/2 guarantees an empty slot).
        h = (h + 1) & (nslots - 1);
    }
}

bool
FastEngine::tryClauses(std::uint32_t table_addr, std::uint32_t goal_cp,
                       std::uint32_t arity, std::uint32_t cont_cp,
                       std::uint32_t cont_env, std::uint32_t cut_b)
{
    (void)arity;
    // Caller context captured for the choice point (deep retries
    // reload arguments against this frame).
    FrameLoc caller_frame = _act.frame;
    std::uint32_t caller_gb = _act.globalBase;
    std::uint32_t caller_nlocals = _act.nlocals;

    // Trial snapshot: stack tops at call time, so a failed head
    // unification can be undone without touching the control stack
    // (shallow backtracking).
    std::uint32_t old_hb = _hb;
    std::uint32_t old_hl = _hl;
    std::uint32_t trial_gt = _gt;
    std::uint64_t trial_tt = trailTop();

    std::uint32_t pos = table_addr;
    TaggedWord cur = heapRead(pos);
    if (cur.tag != Tag::ClauseRef)
        return false;

    for (;;) {
        ++_clauseTries;
        TaggedWord next = heapRead(pos + 1);
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
                    const TaggedWord *buf =
                        _fbuf[caller_frame.kind == FrameLoc::Kind::Buf0
                                  ? 0
                                  : 1];
                    std::uint32_t addr = _lt;
                    for (std::uint32_t i = 0; i < caller_nlocals;
                         ++i) {
                        write(LogicalAddr(Area::Local, _lt + i),
                              buf[i]);
                    }
                    _lt += caller_nlocals;
                    cfe = FrameLoc{FrameLoc::Kind::Stack,
                                   addr}.encode();
                } else {
                    cfe = caller_frame.encode();
                }
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

        // Shallow retry from the trial snapshot.
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

void
FastEngine::flushFrame()
{
    PSI_ASSERT(_act.frame.inBuffer(), "flush of a non-buffer frame");
    const TaggedWord *buf =
        _fbuf[_act.frame.kind == FrameLoc::Kind::Buf0 ? 0 : 1];
    std::uint32_t addr = _lt;
    for (std::uint32_t i = 0; i < _act.nlocals; ++i)
        write(LogicalAddr(Area::Local, _lt + i), buf[i]);
    _lt += _act.nlocals;
    _act.frame = FrameLoc{FrameLoc::Kind::Stack, addr};
}

void
FastEngine::pushEnvFrame()
{
    std::uint32_t env = _ct;
    const std::uint32_t words[interp::kFrameWords] = {
        _act.contCP,
        _act.contEnv,
        _act.frame.encode(),
        _act.globalBase,
        _act.cutB,
        _act.nlocals,
        _act.clauseAddr,
        0, 0, 0,
    };
    for (std::uint32_t i = 0; i < interp::kFrameWords; ++i)
        write(LogicalAddr(Area::Control, _ct + i), intWord(words[i]));
    _ct += interp::kFrameWords;
    _act.selfEnv = env;
}

void
FastEngine::restoreEnv(std::uint32_t env_addr)
{
    PSI_ASSERT(env_addr != interp::kRootEnv && env_addr != 0,
               "bad environment address");
    std::uint32_t w[7];
    for (int i = 0; i < 7; ++i)
        w[i] = read(LogicalAddr(Area::Control, env_addr + i)).data;
    _act.contCP = w[interp::kEnvContCP];
    _act.contEnv = w[interp::kEnvContEnv];
    _act.frame = FrameLoc::decode(w[interp::kEnvFrameLoc]);
    _act.globalBase = w[interp::kEnvGlobalBase];
    _act.cutB = w[interp::kEnvCutB];
    _act.nlocals = w[interp::kEnvNLocals];
    _act.clauseAddr = w[interp::kEnvClauseAddr];

    if (env_addr + interp::kFrameWords == _ct &&
        (_b == interp::kNoChoice || _b < env_addr)) {
        // Determinate return to the top frame: reclaim it.
        _ct = env_addr;
        _act.selfEnv = 0;
    } else {
        _act.selfEnv = env_addr;
    }
}

void
FastEngine::pushChoicePoint(std::uint32_t goal_cp,
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
    std::uint32_t cp_addr = _ct;
    const std::uint32_t words[interp::kFrameWords] = {
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
    for (std::uint32_t i = 0; i < interp::kFrameWords; ++i)
        write(LogicalAddr(Area::Control, _ct + i), intWord(words[i]));
    _ct += interp::kFrameWords;
    _b = cp_addr;
}

bool
FastEngine::enterClause(std::uint32_t clause_addr,
                        std::uint32_t cont_cp, std::uint32_t cont_env,
                        std::uint32_t cut_b)
{
    TaggedWord hdr = heapRead(clause_addr);
    PSI_ASSERT(hdr.tag == Tag::ClauseHeader, "bad clause address");
    std::uint32_t arity = hdr.data & 0xff;
    std::uint32_t nlocals = (hdr.data >> 8) & 0xff;
    std::uint32_t nglobals = (hdr.data >> 16) & 0xff;

    std::uint32_t global_base = _gt;
    for (std::uint32_t g = 0; g < nglobals; ++g) {
        LogicalAddr cell(Area::Global, _gt + g);
        write(cell, unboundAt(cell));
    }
    _gt += nglobals;

    FrameLoc frame;
    if (nlocals > 0) {
        int nb = 1 - _curBuf;
        frame.kind = nb == 0 ? FrameLoc::Kind::Buf0
                             : FrameLoc::Kind::Buf1;
        TaggedWord *buf = _fbuf[nb];
        for (std::uint32_t i = 0; i < nlocals; ++i)
            buf[i] = TaggedWord{};
        _curBuf = nb;
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
        TaggedWord desc = heapRead(dp + i);
        if (!unifyHead(desc, _a[i]))
            return false;
    }
    _cp = dp + arity;
    return true;
}

bool
FastEngine::backtrack()
{
    for (;;) {
        if (_b == interp::kNoChoice)
            return false;

        // Deep backtracking: restore the machine from the newest
        // choice-point frame.
        std::uint32_t w[interp::kFrameWords];
        for (std::uint32_t i = 0; i < interp::kFrameWords; ++i)
            w[i] = read(LogicalAddr(Area::Control, _b + i)).data;

        unwindTrail(w[interp::kCpSavedTT]);
        _gt = w[interp::kCpSavedGT];
        _lt = w[interp::kCpSavedLT];
        // The frame is consumed: remaining candidates run a fresh
        // trial loop, which pushes a new choice point only if one is
        // still needed.
        _ct = _b;
        _b = w[interp::kCpSavedB];
        reloadTrailBounds();

        // Rebuild the caller context and reload the goal arguments
        // from the instruction code (DEC-10-interpreter style retry).
        _act.frame = FrameLoc::decode(w[interp::kCpCallerFrame]);
        _act.globalBase = w[interp::kCpCallerGlobal];

        std::uint32_t goal_cp = w[interp::kCpGoalCP];
        std::uint32_t arity = 0;
        if (goal_cp != 0) {
            TaggedWord call = heapRead(goal_cp);
            PSI_ASSERT(call.tag == Tag::Call ||
                           call.tag == Tag::CallLast,
                       "retry at a non-call word");
            _cp = goal_cp + 1;
            arity = _syms.functorArity(call.data);
            loadArgs(arity);
        }

        if (tryClauses(w[interp::kCpNextClause], goal_cp, arity,
                       w[interp::kCpContCP], w[interp::kCpContEnv],
                       w[interp::kCpSavedB])) {
            return true;
        }
        // Every remaining candidate failed; fail into the next
        // older choice point.
    }
}

void
FastEngine::reloadTrailBounds()
{
    if (_b == interp::kNoChoice) {
        _hb = 0;
        _hl = 0;
        return;
    }
    _hb = read(LogicalAddr(Area::Control,
                           _b + interp::kCpSavedGT)).data;
    _hl = read(LogicalAddr(Area::Control,
                           _b + interp::kCpSavedLT)).data;
}

void
FastEngine::doCut()
{
    if (_b != _act.cutB) {
        _b = _act.cutB;
        reloadTrailBounds();
    }
}

void
FastEngine::extractSolution(const kl0::QueryCode &qc,
                            RunResult &result)
{
    interp::Solution sol;
    for (const auto &kv : qc.vars) {
        const kl0::SlotRef &sr = kv.second;
        TaggedWord w;
        if (sr.global) {
            w = read(LogicalAddr(Area::Global,
                                 _act.globalBase + sr.index));
        } else {
            switch (_act.frame.kind) {
              case FrameLoc::Kind::Stack:
                w = read(LogicalAddr(Area::Local,
                                     _act.frame.addr + sr.index));
                break;
              case FrameLoc::Kind::Buf0:
                w = _fbuf[0][sr.index];
                break;
              case FrameLoc::Kind::Buf1:
                w = _fbuf[1][sr.index];
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

kl0::TermPtr
FastEngine::exportTerm(const TaggedWord &w, int depth)
{
    if (depth > 100000)
        return kl0::Term::atom("...");

    TaggedWord cur = w;
    while (cur.tag == Tag::Ref) {
        LogicalAddr a = LogicalAddr::unpack(cur.data);
        TaggedWord inner = read(a);
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
            ".", {exportTerm(read(a), depth + 1),
                  exportTerm(read(a.plus(1)), depth + 1)});
      }
      case Tag::Struct: {
        LogicalAddr a = LogicalAddr::unpack(cur.data);
        TaggedWord f = read(a);
        PSI_ASSERT(f.tag == Tag::Functor, "bad structure word");
        std::uint32_t n = _syms.functorArity(f.data);
        std::vector<kl0::TermPtr> args;
        args.reserve(n);
        for (std::uint32_t i = 1; i <= n; ++i)
            args.push_back(exportTerm(read(a.plus(i)), depth + 1));
        return kl0::Term::compound(_syms.functorName(f.data),
                                   std::move(args));
      }
      case Tag::Vector: {
        LogicalAddr a = LogicalAddr::unpack(cur.data);
        TaggedWord size = read(a);
        return kl0::Term::compound(
            "$vector", {kl0::Term::integer(size.asInt())});
      }
      default:
        return kl0::Term::atom(std::string("$bad_") +
                               tagName(cur.tag));
    }
}

} // namespace fast
} // namespace psi
