/**
 * @file
 * Built-in predicate dispatch and the simple built-ins.
 *
 * Argument values were already fetched into the A registers by
 * loadArgs() (charged to the get_arg module); the bodies here are
 * charged to the built module, except where they enter the general
 * unifier (unify module) or the trail (trail module).
 */

#ifndef PSI_INTERP_CORE_BUILTINS_HPP
#define PSI_INTERP_CORE_BUILTINS_HPP

#include "base/logging.hpp"
#include "interp/core.hpp"

namespace psi {
namespace interp {

template <class Access>
bool
Core<Access>::execIs()
{
    std::int64_t v = 0;
    if (!evalArith(readA(1, Module::Built), v))
        return false;
    if (v < INT32_MIN || v > INT32_MAX) {
        warn("is/2: result ", v, " overflows the 32-bit data part");
        return false;
    }
    return unify(readA(0, Module::Built),
                 TaggedWord::makeInt(static_cast<std::int32_t>(v)));
}

template <class Access>
bool
Core<Access>::execBuiltin(kl0::Builtin b)
{
    using kl0::Builtin;

    // Built-in entry dispatch (indexed jump through the builtin id)
    // plus argument staging from the A registers.
    _acc.step(Module::Built, BranchOp::T1GotoJr, kScr, kNoWf, kNoWf);
    _acc.texture(Module::GetArg, 2);
    _acc.texture(Module::Built, 4);

    switch (b) {
      case Builtin::True:
        return true;

      case Builtin::Fail:
        return false;

      case Builtin::Unify:
        return unify(readA(0, Module::Built), readA(1, Module::Built));

      case Builtin::NotUnify: {
        // Speculative unification: force every binding onto the trail
        // by raising the trail bounds, then undo them.
        std::uint32_t save_hb = _hb;
        std::uint32_t save_hl = _hl;
        std::uint32_t save_gt = _gt;
        std::uint64_t mark = trailTop();
        _hb = 0xffffffffu;
        _hl = 0xffffffffu;
        bool unified =
            unify(readA(0, Module::Built), readA(1, Module::Built));
        unwindTrail(mark);
        _gt = save_gt;
        _hb = save_hb;
        _hl = save_hl;
        return !unified;
      }

      case Builtin::Eq: {
        int c = 0;
        return termCompare(readA(0, Module::Built),
                           readA(1, Module::Built), c) &&
               c == 0;
      }
      case Builtin::NotEq: {
        int c = 0;
        return termCompare(readA(0, Module::Built),
                           readA(1, Module::Built), c) &&
               c != 0;
      }
      case Builtin::TermLt:
      case Builtin::TermGt:
      case Builtin::TermLe:
      case Builtin::TermGe: {
        int c = 0;
        if (!termCompare(readA(0, Module::Built),
                         readA(1, Module::Built), c)) {
            return false;
        }
        switch (b) {
          case Builtin::TermLt: return c < 0;
          case Builtin::TermGt: return c > 0;
          case Builtin::TermLe: return c <= 0;
          default: return c >= 0;
        }
      }

      case Builtin::Is:
        return execIs();

      case Builtin::Lt:
      case Builtin::Gt:
      case Builtin::Le:
      case Builtin::Ge:
      case Builtin::ArithEq:
      case Builtin::ArithNe:
        return arithCompare(b);

      case Builtin::IsVar: {
        Deref d = deref(readA(0, Module::Built), Module::Built);
        return d.unbound;
      }
      case Builtin::IsNonvar: {
        Deref d = deref(readA(0, Module::Built), Module::Built);
        return !d.unbound;
      }
      case Builtin::IsAtom: {
        Deref d = deref(readA(0, Module::Built), Module::Built);
        return !d.unbound &&
               (d.word.tag == Tag::Atom || d.word.tag == Tag::Nil);
      }
      case Builtin::IsInteger: {
        Deref d = deref(readA(0, Module::Built), Module::Built);
        return !d.unbound && d.word.tag == Tag::Int;
      }
      case Builtin::IsAtomic: {
        Deref d = deref(readA(0, Module::Built), Module::Built);
        return !d.unbound &&
               (d.word.tag == Tag::Atom || d.word.tag == Tag::Nil ||
                d.word.tag == Tag::Int || d.word.tag == Tag::Vector);
      }
      case Builtin::IsCompound: {
        Deref d = deref(readA(0, Module::Built), Module::Built);
        return !d.unbound &&
               (d.word.tag == Tag::List || d.word.tag == Tag::Struct);
      }

      case Builtin::Functor:
        return builtinFunctor();
      case Builtin::Arg:
        return builtinArg();
      case Builtin::Univ:
        return builtinUniv();

      case Builtin::Write:
        writeTerm(readA(0, Module::Built));
        return true;
      case Builtin::Nl:
        _acc.step(Module::Built, BranchOp::T2Nop, kConstWf, kNoWf,
                  kNoWf);
        if (_out.size() < _maxOutputBytes)
            _out.push_back('\n');
        return true;
      case Builtin::Tab: {
        std::int64_t n = 0;
        if (!evalArith(readA(0, Module::Built), n) || n < 0)
            return false;
        for (std::int64_t i = 0; i < n; ++i) {
            _acc.step(Module::Built, BranchOp::T1CondTrue, kConstWf,
                      kScr, kNoWf);
            if (_out.size() < _maxOutputBytes)
                _out.push_back(' ');
        }
        return true;
      }

      case Builtin::VectorNew:
      case Builtin::VectorGet:
      case Builtin::VectorSet:
      case Builtin::VectorSize:
        return builtinVector(b);

      case Builtin::GlobalSet:
      case Builtin::GlobalGet:
        return builtinGlobal(b);

      case Builtin::ProcessCall:
        return builtinProcessCall();

      case Builtin::NumBuiltins:
        break;
    }
    panic("bad builtin id ", static_cast<int>(b));
}

template <class Access>
bool
Core<Access>::builtinVector(kl0::Builtin b)
{
    using kl0::Builtin;

    if (b == Builtin::VectorNew) {
        Deref dn = deref(readA(0, Module::Built), Module::Built);
        if (dn.unbound || dn.word.tag != Tag::Int)
            return false;
        std::int32_t n = dn.word.asInt();
        if (n < 0 || n > (1 << 22)) {
            warn("vector_new: bad size ", n);
            return false;
        }
        std::uint32_t base = _vecTop;
        _acc.writeMem(Module::Built, LogicalAddr(Area::Heap, base),
                      TaggedWord::makeInt(n), BranchOp::T2Nop, kScr);
        _acc.fillMem(Module::Built, LogicalAddr(Area::Heap, base + 1),
                     static_cast<std::uint32_t>(n),
                     TaggedWord::makeInt(0), BranchOp::T3Nop, kScr);
        _vecTop += static_cast<std::uint32_t>(n) + 1;
        return unify(readA(1, Module::Built),
                     {Tag::Vector, LogicalAddr(Area::Heap, base).pack()});
    }

    Deref dv = deref(readA(0, Module::Built), Module::Built);
    if (dv.unbound || dv.word.tag != Tag::Vector)
        return false;
    LogicalAddr base = LogicalAddr::unpack(dv.word.data);
    TaggedWord size = _acc.readMem(Module::Built, base,
                                   BranchOp::T1CondFalse, kScr, kScr);

    if (b == Builtin::VectorSize) {
        return unify(readA(1, Module::Built), size);
    }

    Deref di = deref(readA(1, Module::Built), Module::Built);
    if (di.unbound || di.word.tag != Tag::Int)
        return false;
    std::int32_t i = di.word.asInt();
    if (i < 0 || i >= size.asInt())
        return false;

    if (b == Builtin::VectorGet) {
        TaggedWord w = _acc.readMem(
            Module::Built, base.plus(1 + static_cast<std::uint32_t>(i)),
            BranchOp::T1Nop, kScr, kReg);
        return unify(readA(2, Module::Built), w);
    }

    // VectorSet: destructive, never trailed (heap vectors are the
    // PSI's non-backtrackable rewritable data).
    Deref dx = deref(readA(2, Module::Built), Module::Built);
    _acc.writeMem(Module::Built,
                  base.plus(1 + static_cast<std::uint32_t>(i)),
                  dx.unbound ? TaggedWord{Tag::Ref, dx.cell.pack()}
                             : dx.word,
                  BranchOp::T2Nop, kReg);
    return true;
}

} // namespace interp
} // namespace psi

#endif // PSI_INTERP_CORE_BUILTINS_HPP
