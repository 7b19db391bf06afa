#include "baseline/wam_machine.hpp"

#include <algorithm>

#include "base/logging.hpp"
#include "kl0/normalize.hpp"
#include "kl0/reader.hpp"

namespace psi {
namespace baseline {

namespace {

constexpr std::uint32_t kXRegs = 256;

/**
 * The first clause of @p pred from index @p i on that a call reaches:
 * any clause when its first argument is @p unbound (or the predicate
 * has arity 0), else one whose key matches the call's @p key.
 * Returns the clause count when none is left.
 */
std::uint32_t
nextClause(const CompiledPred &pred, std::uint32_t i,
           const ClauseKey &key, bool unbound)
{
    const auto n = static_cast<std::uint32_t>(pred.clauses.size());
    if (!unbound) {
        while (i < n && !pred.clauses[i].key.matches(key))
            ++i;
    }
    return i;
}

} // namespace

WamEngine::WamEngine()
    : _compiler(_syms), _model(&CostModel::dec2060()),
      _x(kXRegs)
{
}

void
WamEngine::load(const kl0::Program &program)
{
    _compiler.compile(kl0::normalize(program));
}

void
WamEngine::consult(const std::string &text)
{
    kl0::Program p;
    p.consult(text);
    load(p);
}

interp::RunResult
WamEngine::solve(const std::string &query_text,
                 const interp::RunLimits &limits)
{
    return solve(kl0::parseTerm(query_text), limits);
}

interp::RunResult
WamEngine::solve(const kl0::TermPtr &goal,
                 const interp::RunLimits &limits)
{
    WamQuery q = _compiler.compileQuery(goal);
    return run(q, limits);
}

void
WamEngine::resetRun()
{
    _heap.clear();
    _envs.clear();
    _yslots.clear();
    _cps.clear();
    _trail.clear();
    _globals.fill(TaggedWord{});
    _x.assign(kXRegs, TaggedWord{});
    _p = 0;
    _cp = 0;
    _e = 0;
    _cb = 0;
    _s = 0;
    _writeMode = false;
    _failFlag = false;
    _haltFlag = false;
    _inferences = 0;
    _out.clear();
    _cnt = CostCounters{};
}

TaggedWord &
WamEngine::yslot(std::uint32_t n)
{
    PSI_ASSERT(_e != 0, "Y access without an environment");
    const Env &env = _envs[_e - 1];
    PSI_ASSERT(n < env.ny, "Y slot out of range");
    return _yslots[env.ybase + n];
}

TaggedWord
WamEngine::pushUnbound()
{
    auto idx = static_cast<std::uint32_t>(_heap.size());
    _heap.push_back({Tag::Ref, idx});
    return {Tag::Ref, idx};
}

TaggedWord
WamEngine::derefW(TaggedWord w)
{
    while (w.tag == Tag::Ref) {
        ++_cnt.derefs;
        const TaggedWord &inner = _heap[w.data];
        if (inner.tag == Tag::Ref && inner.data == w.data)
            return w;  // unbound: the self-referencing Ref
        w = inner;
    }
    return w;
}

void
WamEngine::bindCell(std::uint32_t idx, const TaggedWord &w)
{
    _heap[idx] = w;
    if (!_cps.empty() && idx < _cps.back().h) {
        _trail.push_back(idx);
        ++_cnt.trailOps;
    }
}

bool
WamEngine::unifyW(const TaggedWord &a, const TaggedWord &b)
{
    ++_cnt.unifyNodes;
    TaggedWord da = derefW(a);
    TaggedWord db = derefW(b);

    bool ua = da.tag == Tag::Ref;
    bool ub = db.tag == Tag::Ref;
    if (ua && ub) {
        if (da.data == db.data)
            return true;
        if (da.data < db.data)
            bindCell(db.data, da);
        else
            bindCell(da.data, db);
        return true;
    }
    if (ua) {
        bindCell(da.data, db);
        return true;
    }
    if (ub) {
        bindCell(db.data, da);
        return true;
    }
    if (da.tag != db.tag)
        return false;
    switch (da.tag) {
      case Tag::Atom:
      case Tag::Int:
      case Tag::Vector:
        return da.data == db.data;
      case Tag::Nil:
        return true;
      case Tag::List:
        return unifyW(_heap[da.data], _heap[db.data]) &&
               unifyW(_heap[da.data + 1], _heap[db.data + 1]);
      case Tag::Struct: {
        TaggedWord fa = _heap[da.data];
        TaggedWord fb = _heap[db.data];
        if (fa.data != fb.data)
            return false;
        std::uint32_t n = _syms.functorArity(fa.data);
        for (std::uint32_t k = 1; k <= n; ++k) {
            if (!unifyW(_heap[da.data + k], _heap[db.data + k]))
                return false;
        }
        return true;
      }
      default:
        return false;
    }
}

bool
WamEngine::doCall(std::uint32_t functor_idx, bool is_execute)
{
    ++_inferences;
    const CompiledPred *pred = _compiler.predicate(functor_idx);
    if (pred == nullptr) {
        if (functor_idx >= _warnedUndefined.size())
            _warnedUndefined.resize(functor_idx + 1, false);
        if (!_warnedUndefined[functor_idx]) {
            _warnedUndefined[functor_idx] = true;
            warn("baseline: undefined predicate ",
                 _syms.functorName(functor_idx), "/",
                 _syms.functorArity(functor_idx));
        }
        return false;
    }

    if (!is_execute)
        _cp = _p;
    _cb = static_cast<std::uint32_t>(_cps.size());

    // First-argument indexing.  A bound first argument whose tag has
    // no key (a vector) reaches only the var-keyed clauses.
    ClauseKey key;
    bool unbound = true;
    const auto nclauses = static_cast<std::uint32_t>(pred->clauses.size());
    std::uint32_t first = 0;
    if (pred->arity > 0) {
        const std::uint64_t derefsBefore = _cnt.derefs;
        TaggedWord d = derefW(_x[0]);
        if (d.tag != Tag::Ref) {
            ++_cnt.indexes;
            unbound = false;
            switch (d.tag) {
              case Tag::Atom:
                key.kind = ClauseKey::Kind::Const;
                key.data = d.data;
                break;
              case Tag::Int:
                key.kind = ClauseKey::Kind::Int;
                key.data = d.data;
                break;
              case Tag::Nil:
                key.kind = ClauseKey::Kind::Nil;
                break;
              case Tag::List:
                key.kind = ClauseKey::Kind::List;
                break;
              case Tag::Struct:
                key.kind = ClauseKey::Kind::Struct;
                key.data = _heap[d.data].data;
                break;
              default:
                break;
            }
            first = nextClause(*pred, 0, key, false);
        }
        // The model charges the first argument's dereference hops a
        // second time whenever the key selects no clause: every call
        // with an unbound first argument, and every bound one that no
        // clause matches.  Table 1's DEC column (paper_tables.txt and
        // psibench's pins) was calibrated with this charge, so it
        // stays.
        if (unbound || first == nclauses)
            _cnt.derefs += _cnt.derefs - derefsBefore;
    }
    if (first == nclauses)
        return false;
    _p = pred->clauses[first].entry;

    // A choice point only when a second clause matches.
    const std::uint32_t second = nextClause(*pred, first + 1, key, unbound);
    if (second == nclauses)
        return true;
    ++_cnt.tries;
    const std::uint32_t argBase =
        _cps.empty() ? 0 : _cps.back().argBase + _cps.back().argc;
    if (_argStack.size() < argBase + pred->arity)
        _argStack.resize(argBase + pred->arity);
    std::copy_n(_x.begin(), pred->arity, _argStack.begin() + argBase);
    _cps.push_back(
        {.e = _e,
         .cont = _cp,
         .tr = static_cast<std::uint32_t>(_trail.size()),
         .h = static_cast<std::uint32_t>(_heap.size()),
         .cb = _cb,
         .envTop = static_cast<std::uint32_t>(_envs.size()),
         .yTop = static_cast<std::uint32_t>(_yslots.size()),
         .argBase = argBase,
         .argc = pred->arity,
         .next = second,
         .pred = pred,
         .key = key,
         .unbound = unbound});
    return true;
}

bool
WamEngine::backtrack()
{
    if (_cps.empty())
        return false;

    Choice &c = _cps.back();
    while (_trail.size() > c.tr) {
        std::uint32_t idx = _trail.back();
        _trail.pop_back();
        _heap[idx] = {Tag::Ref, idx};
        ++_cnt.trailOps;
    }
    _heap.resize(c.h);
    _envs.resize(c.envTop);
    _yslots.resize(c.yTop);
    _e = c.e;
    _cp = c.cont;
    std::copy_n(_argStack.begin() + c.argBase, c.argc, _x.begin());

    _p = c.pred->clauses[c.next].entry;
    c.next = nextClause(*c.pred, c.next + 1, c.key, c.unbound);
    _cb = static_cast<std::uint32_t>(_cps.size()) - 1;
    if (c.next == c.pred->clauses.size()) {
        // Trust: last alternative, the choice point is consumed.
        ++_cnt.trusts;
        _cps.pop_back();
    } else {
        ++_cnt.retries;
    }
    return true;
}

bool
WamEngine::step()
{
    const WInstr &inst = _compiler.code()[_p++];
    ++_cnt.op[static_cast<int>(inst.op)];

    switch (inst.op) {
      // ---- head -----------------------------------------------------
      case WOp::GetVariableX:
        _x[inst.a] = _x[inst.b];
        return true;
      case WOp::GetVariableY:
        yslot(inst.a) = _x[inst.b];
        return true;
      case WOp::GetValueX:
        return unifyW(_x[inst.a], _x[inst.b]);
      case WOp::GetValueY:
        return unifyW(yslot(inst.a), _x[inst.b]);
      case WOp::GetConstant: {
        TaggedWord d = derefW(_x[inst.b]);
        if (d.tag == Tag::Ref) {
            bindCell(d.data, {Tag::Atom, inst.a});
            return true;
        }
        return d.tag == Tag::Atom && d.data == inst.a;
      }
      case WOp::GetInt: {
        TaggedWord d = derefW(_x[inst.b]);
        if (d.tag == Tag::Ref) {
            bindCell(d.data, {Tag::Int, inst.a});
            return true;
        }
        return d.tag == Tag::Int && d.data == inst.a;
      }
      case WOp::GetNil: {
        TaggedWord d = derefW(_x[inst.a]);
        if (d.tag == Tag::Ref) {
            bindCell(d.data, {Tag::Nil, 0});
            return true;
        }
        return d.tag == Tag::Nil;
      }
      case WOp::GetList: {
        TaggedWord d = derefW(_x[inst.a]);
        if (d.tag == Tag::List) {
            _s = d.data;
            _writeMode = false;
            return true;
        }
        if (d.tag == Tag::Ref) {
            bindCell(d.data,
                     {Tag::List,
                      static_cast<std::uint32_t>(_heap.size())});
            _writeMode = true;
            return true;
        }
        return false;
      }
      case WOp::GetStruct: {
        TaggedWord d = derefW(_x[inst.b]);
        if (d.tag == Tag::Struct) {
            if (_heap[d.data].data != inst.a)
                return false;
            _s = d.data + 1;
            _writeMode = false;
            return true;
        }
        if (d.tag == Tag::Ref) {
            auto addr = static_cast<std::uint32_t>(_heap.size());
            _heap.push_back({Tag::Functor, inst.a});
            bindCell(d.data, {Tag::Struct, addr});
            _writeMode = true;
            return true;
        }
        return false;
      }
      case WOp::UnifyVariableX:
        _x[inst.a] = _writeMode ? pushUnbound() : _heap[_s++];
        return true;
      case WOp::UnifyVariableY:
        yslot(inst.a) = _writeMode ? pushUnbound() : _heap[_s++];
        return true;
      case WOp::UnifyValueX:
        if (_writeMode) {
            _heap.push_back(_x[inst.a]);
            return true;
        }
        return unifyW(_x[inst.a], _heap[_s++]);
      case WOp::UnifyValueY:
        if (_writeMode) {
            _heap.push_back(yslot(inst.a));
            return true;
        }
        return unifyW(yslot(inst.a), _heap[_s++]);
      case WOp::UnifyConstant: {
        if (_writeMode) {
            _heap.push_back({Tag::Atom, inst.a});
            return true;
        }
        TaggedWord d = derefW(_heap[_s++]);
        if (d.tag == Tag::Ref) {
            bindCell(d.data, {Tag::Atom, inst.a});
            return true;
        }
        return d.tag == Tag::Atom && d.data == inst.a;
      }
      case WOp::UnifyInt: {
        if (_writeMode) {
            _heap.push_back({Tag::Int, inst.a});
            return true;
        }
        TaggedWord d = derefW(_heap[_s++]);
        if (d.tag == Tag::Ref) {
            bindCell(d.data, {Tag::Int, inst.a});
            return true;
        }
        return d.tag == Tag::Int && d.data == inst.a;
      }
      case WOp::UnifyNil: {
        if (_writeMode) {
            _heap.push_back({Tag::Nil, 0});
            return true;
        }
        TaggedWord d = derefW(_heap[_s++]);
        if (d.tag == Tag::Ref) {
            bindCell(d.data, {Tag::Nil, 0});
            return true;
        }
        return d.tag == Tag::Nil;
      }
      case WOp::UnifyVoid:
        if (_writeMode) {
            for (std::uint32_t i = 0; i < inst.a; ++i)
                pushUnbound();
        } else {
            _s += inst.a;
        }
        return true;

      // ---- body puts ---------------------------------------------------
      case WOp::PutVariableX: {
        TaggedWord cell = pushUnbound();
        _x[inst.a] = cell;
        _x[inst.b] = cell;
        return true;
      }
      case WOp::PutVariableY: {
        TaggedWord cell = pushUnbound();
        yslot(inst.a) = cell;
        _x[inst.b] = cell;
        return true;
      }
      case WOp::PutValueX:
        _x[inst.b] = _x[inst.a];
        return true;
      case WOp::PutValueY:
        _x[inst.b] = yslot(inst.a);
        return true;
      case WOp::PutConstant:
        _x[inst.b] = {Tag::Atom, inst.a};
        return true;
      case WOp::PutInt:
        _x[inst.b] = {Tag::Int, inst.a};
        return true;
      case WOp::PutNil:
        _x[inst.a] = {Tag::Nil, 0};
        return true;
      case WOp::PutList:
        _x[inst.a] = {Tag::List,
                      static_cast<std::uint32_t>(_heap.size())};
        return true;
      case WOp::PutStruct: {
        auto addr = static_cast<std::uint32_t>(_heap.size());
        _heap.push_back({Tag::Functor, inst.a});
        _x[inst.b] = {Tag::Struct, addr};
        return true;
      }
      case WOp::SetVariableX:
        _x[inst.a] = pushUnbound();
        return true;
      case WOp::SetVariableY:
        yslot(inst.a) = pushUnbound();
        return true;
      case WOp::SetValueX:
        _heap.push_back(_x[inst.a]);
        return true;
      case WOp::SetValueY:
        _heap.push_back(yslot(inst.a));
        return true;
      case WOp::SetConstant:
        _heap.push_back({Tag::Atom, inst.a});
        return true;
      case WOp::SetInt:
        _heap.push_back({Tag::Int, inst.a});
        return true;
      case WOp::SetNil:
        _heap.push_back({Tag::Nil, 0});
        return true;
      case WOp::SetVoid:
        for (std::uint32_t i = 0; i < inst.a; ++i)
            pushUnbound();
        return true;

      // ---- control --------------------------------------------------
      case WOp::Allocate: {
        Env env;
        env.prevE = _e;
        env.cont = _cp;
        env.cutB = _cb;
        env.ybase = static_cast<std::uint32_t>(_yslots.size());
        env.ny = inst.a;
        _yslots.resize(_yslots.size() + inst.a);
        _envs.push_back(env);
        _e = static_cast<std::uint32_t>(_envs.size());
        return true;
      }
      case WOp::Deallocate: {
        const Env env = _envs[_e - 1];
        _cp = env.cont;
        // Reclaim the frame when nothing above protects it.
        if (_e == _envs.size() &&
            (_cps.empty() || _cps.back().envTop < _e)) {
            _yslots.resize(env.ybase);
            _envs.pop_back();
        }
        _e = env.prevE;
        return true;
      }
      case WOp::Call:
        return doCall(inst.a, false);
      case WOp::Execute:
        return doCall(inst.a, true);
      case WOp::Proceed:
        _p = _cp;
        return true;
      case WOp::CallBuiltin:
        return execBuiltin(static_cast<kl0::Builtin>(inst.a));
      case WOp::GetLevel:
        yslot(inst.a) = {Tag::Int, _envs[_e - 1].cutB};
        return true;
      case WOp::CutY: {
        std::uint32_t target = yslot(inst.a).data;
        if (target < _cps.size())
            _cps.resize(target);
        return true;
      }
      case WOp::NeckCut:
        if (_cb < _cps.size())
            _cps.resize(_cb);
        return true;
      case WOp::Halt:
        _haltFlag = true;
        return true;

      case WOp::NumOps:
        break;
    }
    panic("bad baseline opcode");
}

interp::RunResult
WamEngine::run(const WamQuery &q, const interp::RunLimits &limits)
{
    resetRun();
    _maxOutputBytes = limits.maxOutputBytes;

    interp::RunResult result;
    const CompiledPred *pred = _compiler.predicate(q.predId);
    PSI_ASSERT(pred && pred->clauses.size() == 1, "bad query pred");
    _p = pred->clauses[0].entry;

    interp::RunGuard guard(limits);
    // Each step() counts exactly one opcode, so this running count is
    // _cnt.totalInstr() without summing the opcode counters each time.
    std::uint64_t steps = 0;
    for (;;) {
        if (interp::RunStatus st = guard.check(steps);
            st != interp::RunStatus::Ok) {
            result.status = st;
            break;
        }
        if (_failFlag) {
            _failFlag = false;
            if (!backtrack())
                break;
            continue;
        }
        ++steps;
        if (!step()) {
            _failFlag = true;
            continue;
        }
        if (_haltFlag) {
            _haltFlag = false;
            extract(q, result);
            if (static_cast<int>(result.solutions.size()) >=
                limits.maxSolutions) {
                break;
            }
            _failFlag = true;
        }
    }

    result.inferences = _inferences;
    result.steps = _cnt.totalInstr();
    PSI_ASSERT(steps == result.steps, "baseline step count drifted");
    result.timeNs = _cnt.timeNs(*_model);
    result.output = std::move(_out);
    _out.clear();
    return result;
}

void
WamEngine::extract(const WamQuery &q, interp::RunResult &out)
{
    interp::Solution sol;
    for (const auto &kv : q.varSlots) {
        TaggedWord w = yslot(kv.second);
        if (w.tag == Tag::Undef)
            sol.bindings[kv.first] = kl0::Term::var("_" + kv.first);
        else
            sol.bindings[kv.first] = exportTerm(w);
    }
    out.solutions.push_back(std::move(sol));
}

kl0::TermPtr
WamEngine::exportTerm(const TaggedWord &w, int depth)
{
    if (depth > 100000)
        return kl0::Term::atom("...");
    TaggedWord d = derefW(w);
    switch (d.tag) {
      case Tag::Ref:
        return kl0::Term::var("_G" + std::to_string(d.data));
      case Tag::Undef:
        return kl0::Term::var("_U");
      case Tag::Atom:
        return kl0::Term::atom(_syms.atomName(d.data));
      case Tag::Int:
        return kl0::Term::integer(d.asInt());
      case Tag::Nil:
        return kl0::Term::nil();
      case Tag::List:
        return kl0::Term::compound(
            ".", {exportTerm(_heap[d.data], depth + 1),
                  exportTerm(_heap[d.data + 1], depth + 1)});
      case Tag::Struct: {
        TaggedWord f = _heap[d.data];
        std::uint32_t n = _syms.functorArity(f.data);
        std::vector<kl0::TermPtr> args;
        for (std::uint32_t k = 1; k <= n; ++k)
            args.push_back(exportTerm(_heap[d.data + k], depth + 1));
        return kl0::Term::compound(_syms.functorName(f.data),
                                   std::move(args));
      }
      case Tag::Vector:
        return kl0::Term::compound(
            "$vector", {kl0::Term::integer(_vecs[d.data].asInt())});
      default:
        return kl0::Term::atom("$bad");
    }
}

} // namespace baseline
} // namespace psi
