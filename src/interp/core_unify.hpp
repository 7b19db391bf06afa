/**
 * @file
 * Unification, dereferencing and trail firmware of the interpreter.
 *
 * All steps here are charged to the Unify module except trail
 * operations (Trail).  The dereference loop is one cache read plus
 * one tag-dispatch branch per hop; general unification is driven by
 * tag dispatch; skeletons are either instantiated onto the global
 * stack (write mode) or walked element-wise against a bound term
 * (read mode).
 *
 * Trail entries are buffered in the work file when the policy's
 * trailBuffer() is on (the measured PSI); otherwise they go straight
 * to the trail stack - the trail-buffer ablation, and the flat
 * engine's trail.  Both put every entry at the same logical trail
 * position, so trail tops saved in choice points are identical and
 * unwinding pops in the same LIFO order.
 */

#ifndef PSI_INTERP_CORE_UNIFY_HPP
#define PSI_INTERP_CORE_UNIFY_HPP

#include "base/logging.hpp"
#include "interp/core.hpp"

namespace psi {
namespace interp {

template <class Access>
Deref
Core<Access>::deref(const TaggedWord &w, Module m)
{
    Deref d;
    // Member-wise: a whole-word copy is one 8-byte load of @p w,
    // which stalls store forwarding when @p w was just written as a
    // tag byte and a data word.
    d.word.tag = w.tag;
    d.word.data = w.data;
    if (d.word.tag != Tag::Ref) {
        // Tag test of an already-bound word.
        _acc.step(m, BranchOp::T1CaseTag, kReg, kNoWf, kNoWf);
        return d;
    }
    while (d.word.tag == Tag::Ref) {
        LogicalAddr a = LogicalAddr::unpack(d.word.data);
        _acc.texture(m, kDerefHop);
        TaggedWord inner =
            _acc.readMem(m, a, BranchOp::T1CaseTag);
        if (inner.tag == Tag::Ref && inner.data == d.word.data) {
            d.unbound = true;
            d.cell = a;
            return d;
        }
        d.word = inner;
    }
    return d;
}

template <class Access>
void
Core<Access>::bind(const LogicalAddr &cell, const TaggedWord &value,
                   Module m)
{
    _acc.texture(m, kBindWork);
    _acc.writeMem(m, cell, value, BranchOp::T1CondFalse, kReg, kScr);
    bool need_trail =
        (cell.area == Area::Global && cell.offset < _hb) ||
        (cell.area == Area::Local && cell.offset < _hl);
    if (need_trail)
        trailPush(cell);
}

template <class Access>
void
Core<Access>::trailPush(const LogicalAddr &cell)
{
    _acc.texture(Module::Trail, 1);
    if (!_acc.trailBuffer()) {
        // Unbuffered (the ablation, and the flat engine): entries
        // go straight to the trail stack.
        _acc.pushMem(Module::Trail, LogicalAddr(Area::Trail, _memTT),
                     {Tag::Ref, cell.pack()}, BranchOp::T3Nop, kReg);
        ++_memTT;
        return;
    }
    PSI_ASSERT(_trailBufCount < micro::kWfTrailBufWords,
               "trail buffer overflow");
    _acc.step(Module::Trail, BranchOp::T1Nop, kScr, kNoWf,
              WfMode::IndWfar2);
    _acc.wfWrite(micro::kWfTrailBuf + _trailBufCount,
                 {Tag::Ref, cell.pack()});
    ++_trailBufCount;
    if (_trailBufCount == micro::kWfTrailBufWords)
        trailFlush();
}

template <class Access>
void
Core<Access>::trailFlush()
{
    for (std::uint32_t i = 0; i < _trailBufCount; ++i) {
        _acc.pushMem(Module::Trail,
                     LogicalAddr(Area::Trail, _memTT + i),
                     _acc.wfRead(micro::kWfTrailBuf + i),
                     BranchOp::T3Nop, WfMode::IndWfar2);
    }
    _memTT += _trailBufCount;
    _trailBufCount = 0;
}

template <class Access>
void
Core<Access>::unwindTrail(std::uint64_t to_tt)
{
    auto reset_cell = [this](const LogicalAddr &a) {
        if (a.area == Area::Local) {
            // Local-stack entries record variable globalization; the
            // pre-binding state is always "uninitialized".
            _acc.writeMem(Module::Trail, a, TaggedWord{},
                          BranchOp::T2Nop, kScr);
        } else {
            _acc.writeMem(Module::Trail, a, unboundAt(a),
                          BranchOp::T2Nop, kScr);
        }
    };

    // Entries still in the work-file buffer occupy logical positions
    // _memTT .. _memTT + count - 1; undo only those at or above the
    // target (shallow retries may restore a point with older buffer
    // entries still live).
    while (_trailBufCount > 0 && _memTT + _trailBufCount > to_tt) {
        --_trailBufCount;
        _acc.step(Module::Trail, BranchOp::T1CondFalse,
                  WfMode::IndWfar2, kNoWf, kScr);
        TaggedWord e =
            _acc.wfRead(micro::kWfTrailBuf + _trailBufCount);
        reset_cell(LogicalAddr::unpack(e.data));
    }
    while (_memTT > to_tt) {
        --_memTT;
        TaggedWord e = _acc.readMem(Module::Trail,
                                    LogicalAddr(Area::Trail, _memTT),
                                    BranchOp::T1CondFalse, kScr);
        reset_cell(LogicalAddr::unpack(e.data));
    }
}

template <class Access>
bool
Core<Access>::unify(const TaggedWord &a, const TaggedWord &b)
{
    _acc.texture(Module::Unify, kUnifyEntry);
    Deref da = deref(a, Module::Unify);
    Deref db = deref(b, Module::Unify);

    if (da.unbound && db.unbound) {
        _acc.step(Module::Unify, BranchOp::T1CondTrue, kScr, kScr);
        if (da.cell == db.cell)
            return true;
        // Bind the younger cell to the older one so restoring the
        // global top on backtracking can never leave a dangling
        // reference.
        if (da.cell.offset < db.cell.offset)
            bind(db.cell, unboundAt(da.cell), Module::Unify);
        else
            bind(da.cell, unboundAt(db.cell), Module::Unify);
        return true;
    }
    if (da.unbound) {
        bind(da.cell, db.word, Module::Unify);
        return true;
    }
    if (db.unbound) {
        bind(db.cell, da.word, Module::Unify);
        return true;
    }

    // Both bound: two-tag dispatch.
    _acc.step(Module::Unify, BranchOp::T1CaseTag, kScr, kScr);
    if (da.word.tag != db.word.tag)
        return false;

    switch (da.word.tag) {
      case Tag::Atom:
      case Tag::Int:
        return da.word.data == db.word.data;
      case Tag::Nil:
        return true;
      case Tag::Vector:
        return da.word.data == db.word.data;
      case Tag::List: {
        LogicalAddr aa = LogicalAddr::unpack(da.word.data);
        LogicalAddr ba = LogicalAddr::unpack(db.word.data);
        for (int k = 0; k < 2; ++k) {
            TaggedWord va = _acc.readMem(Module::Unify, aa.plus(k),
                                         BranchOp::T2Nop);
            TaggedWord vb = _acc.readMem(Module::Unify, ba.plus(k),
                                         BranchOp::T2Nop);
            if (!unify(va, vb))
                return false;
        }
        return true;
      }
      case Tag::Struct: {
        LogicalAddr aa = LogicalAddr::unpack(da.word.data);
        LogicalAddr ba = LogicalAddr::unpack(db.word.data);
        TaggedWord fa = _acc.readMem(Module::Unify, aa,
                                     BranchOp::T1CondFalse, kScr);
        TaggedWord fb = _acc.readMem(Module::Unify, ba,
                                     BranchOp::T1CondFalse, kScr);
        if (fa.data != fb.data)
            return false;
        std::uint32_t n = _syms.functorArity(fa.data);
        for (std::uint32_t k = 1; k <= n; ++k) {
            TaggedWord va = _acc.readMem(Module::Unify, aa.plus(k),
                                         BranchOp::T2Nop);
            TaggedWord vb = _acc.readMem(Module::Unify, ba.plus(k),
                                         BranchOp::T2Nop);
            if (!unify(va, vb))
                return false;
        }
        return true;
      }
      default:
        return false;
    }
}

template <class Access>
bool
Core<Access>::unifyHead(const TaggedWord &desc, const TaggedWord &arg)
{
    _acc.texture(Module::Unify, kHeadArgWork);
    switch (desc.tag) {
      case Tag::HConst: {
        Deref d = deref(arg, Module::Unify);
        if (d.unbound) {
            bind(d.cell, {Tag::Atom, desc.data}, Module::Unify);
            return true;
        }
        return d.word.tag == Tag::Atom && d.word.data == desc.data;
      }
      case Tag::HInt: {
        Deref d = deref(arg, Module::Unify);
        if (d.unbound) {
            bind(d.cell, {Tag::Int, desc.data}, Module::Unify);
            return true;
        }
        return d.word.tag == Tag::Int && d.word.data == desc.data;
      }
      case Tag::HNil: {
        Deref d = deref(arg, Module::Unify);
        if (d.unbound) {
            bind(d.cell, {Tag::Nil, 0}, Module::Unify);
            return true;
        }
        return d.word.tag == Tag::Nil;
      }
      case Tag::HVoid:
        _acc.step(Module::Unify, BranchOp::T2Nop, kReg, kNoWf, kNoWf);
        return true;
      case Tag::HVarF: {
        VarSlot vs = VarSlot::decode(desc.data);
        if (vs.global) {
            bind(LogicalAddr(Area::Global, _act.globalBase + vs.index),
                 arg, Module::Unify);
        } else {
            writeLocal(vs.index, arg, Module::Unify);
        }
        return true;
      }
      case Tag::HVarS: {
        VarSlot vs = VarSlot::decode(desc.data);
        if (vs.global) {
            TaggedWord ref = unboundAt(
                LogicalAddr(Area::Global, _act.globalBase + vs.index));
            return unify(ref, arg);
        }
        TaggedWord v = readLocal(vs.index, Module::Unify);
        return unify(v, arg);
      }
      case Tag::HList: {
        std::uint32_t skel = LogicalAddr::unpack(desc.data).offset;
        Deref d = deref(arg, Module::Unify);
        if (d.unbound) {
            TaggedWord w = instantiate(skel, true);
            bind(d.cell, w, Module::Unify);
            return true;
        }
        if (d.word.tag != Tag::List)
            return false;
        return unifySkeleton(skel, true, d.word);
      }
      case Tag::HStruct: {
        std::uint32_t skel = LogicalAddr::unpack(desc.data).offset;
        Deref d = deref(arg, Module::Unify);
        if (d.unbound) {
            TaggedWord w = instantiate(skel, false);
            bind(d.cell, w, Module::Unify);
            return true;
        }
        if (d.word.tag != Tag::Struct)
            return false;
        return unifySkeleton(skel, false, d.word);
      }
      case Tag::HGroundList: {
        // Shared ground term: bind directly or unify in place.
        Deref d = deref(arg, Module::Unify);
        if (d.unbound) {
            bind(d.cell, {Tag::List, desc.data}, Module::Unify);
            return true;
        }
        if (d.word.tag != Tag::List)
            return false;
        return unify({Tag::List, desc.data}, d.word);
      }
      case Tag::HGroundStruct: {
        Deref d = deref(arg, Module::Unify);
        if (d.unbound) {
            bind(d.cell, {Tag::Struct, desc.data}, Module::Unify);
            return true;
        }
        if (d.word.tag != Tag::Struct)
            return false;
        return unify({Tag::Struct, desc.data}, d.word);
      }
      default:
        panic("bad head descriptor '", tagName(desc.tag), "'");
    }
}

template <class Access>
TaggedWord
Core<Access>::instantiate(std::uint32_t skel_addr, bool is_cons)
{
    std::vector<TaggedWord> out;
    std::uint32_t start = 0;
    std::uint32_t n = 2;
    if (!is_cons) {
        TaggedWord f = _acc.readMem(Module::Unify,
                                    LogicalAddr(Area::Heap, skel_addr),
                                    BranchOp::T1CaseTag, kScr, kScr);
        PSI_ASSERT(f.tag == Tag::Functor, "bad structure skeleton");
        out.push_back(f);
        n = _syms.functorArity(f.data);
        start = 1;
    }
    out.reserve(start + n);

    for (std::uint32_t k = 0; k < n; ++k) {
        _acc.texture(Module::Unify, kSkelElem);
        TaggedWord e = _acc.readMem(
            Module::Unify,
            LogicalAddr(Area::Heap, skel_addr + start + k),
            BranchOp::T1CaseTag);
        switch (e.tag) {
          case Tag::Atom:
          case Tag::Int:
          case Tag::Nil:
            out.push_back(e);
            break;
          case Tag::SkelVar:
            if (e.data & kl0::kSkelVoidBit) {
                // Placeholder: becomes a fresh unbound cell at its
                // final address.
                out.push_back(TaggedWord{});
            } else {
                VarSlot vs = VarSlot::decode(e.data);
                _acc.step(Module::Unify, BranchOp::T2Nop, kScr, kScr,
                          kScr);
                out.push_back(unboundAt(LogicalAddr(
                    Area::Global, _act.globalBase + vs.index)));
            }
            break;
          case Tag::List:
            out.push_back(
                instantiate(LogicalAddr::unpack(e.data).offset, true));
            break;
          case Tag::Struct:
            out.push_back(instantiate(
                LogicalAddr::unpack(e.data).offset, false));
            break;
          default:
            panic("bad skeleton element '", tagName(e.tag), "'");
        }
    }

    std::uint32_t base = _gt;
    for (std::uint32_t i = 0; i < out.size(); ++i) {
        LogicalAddr cell(Area::Global, base + i);
        TaggedWord w =
            out[i].tag == Tag::Undef ? unboundAt(cell) : out[i];
        _acc.pushMem(Module::Unify, cell, w, BranchOp::T2Nop, kReg);
    }
    _gt += static_cast<std::uint32_t>(out.size());
    return {is_cons ? Tag::List : Tag::Struct,
            LogicalAddr(Area::Global, base).pack()};
}

template <class Access>
bool
Core<Access>::unifySkelElement(const TaggedWord &skel_elem,
                         const TaggedWord &cell_value)
{
    _acc.texture(Module::Unify, kSkelElem);
    switch (skel_elem.tag) {
      case Tag::Atom:
      case Tag::Int:
      case Tag::Nil: {
        Deref d = deref(cell_value, Module::Unify);
        if (d.unbound) {
            bind(d.cell, skel_elem, Module::Unify);
            return true;
        }
        return d.word.tag == skel_elem.tag &&
               d.word.data == skel_elem.data;
      }
      case Tag::SkelVar: {
        if (skel_elem.data & kl0::kSkelVoidBit) {
            _acc.step(Module::Unify, BranchOp::T2Nop, kScr, kNoWf,
                      kNoWf);
            return true;
        }
        VarSlot vs = VarSlot::decode(skel_elem.data);
        TaggedWord ref = unboundAt(
            LogicalAddr(Area::Global, _act.globalBase + vs.index));
        return unify(ref, cell_value);
      }
      case Tag::List: {
        std::uint32_t sub = LogicalAddr::unpack(skel_elem.data).offset;
        Deref d = deref(cell_value, Module::Unify);
        if (d.unbound) {
            bind(d.cell, instantiate(sub, true), Module::Unify);
            return true;
        }
        if (d.word.tag != Tag::List)
            return false;
        return unifySkeleton(sub, true, d.word);
      }
      case Tag::Struct: {
        std::uint32_t sub = LogicalAddr::unpack(skel_elem.data).offset;
        Deref d = deref(cell_value, Module::Unify);
        if (d.unbound) {
            bind(d.cell, instantiate(sub, false), Module::Unify);
            return true;
        }
        if (d.word.tag != Tag::Struct)
            return false;
        return unifySkeleton(sub, false, d.word);
      }
      default:
        panic("bad skeleton element '", tagName(skel_elem.tag), "'");
    }
}

template <class Access>
bool
Core<Access>::unifySkeleton(std::uint32_t skel_addr, bool is_cons,
                      const TaggedWord &term)
{
    LogicalAddr taddr = LogicalAddr::unpack(term.data);
    std::uint32_t n = 2;
    std::uint32_t off = 0;
    if (!is_cons) {
        TaggedWord fs = _acc.readMem(Module::Unify,
                                     LogicalAddr(Area::Heap, skel_addr),
                                     BranchOp::T1CondFalse, kScr);
        TaggedWord ft = _acc.readMem(Module::Unify, taddr,
                                     BranchOp::T1CondFalse, kScr);
        if (fs.data != ft.data)
            return false;
        n = _syms.functorArity(fs.data);
        off = 1;
    }
    for (std::uint32_t k = 0; k < n; ++k) {
        TaggedWord se = _acc.readMem(
            Module::Unify,
            LogicalAddr(Area::Heap, skel_addr + off + k),
            BranchOp::T1CaseTag);
        TaggedWord tv = _acc.readMem(Module::Unify,
                                     taddr.plus(off + k),
                                     BranchOp::T2Nop);
        if (!unifySkelElement(se, tv))
            return false;
    }
    return true;
}

} // namespace interp
} // namespace psi

#endif // PSI_INTERP_CORE_UNIFY_HPP
