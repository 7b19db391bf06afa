/**
 * @file
 * Arithmetic evaluation firmware (is/2 and the comparison built-ins).
 *
 * Expressions are ordinary terms; evaluation walks the structure with
 * tag dispatch and a functor-indexed jump, all charged to the built
 * module.  Arithmetic is 32-bit two's complement as on the PSI
 * (intermediate math in 64 bits, range-checked at the end by is/2).
 */

#ifndef PSI_INTERP_CORE_ARITH_HPP
#define PSI_INTERP_CORE_ARITH_HPP

#include "base/logging.hpp"
#include "interp/core.hpp"

namespace psi {
namespace interp {

template <class Access>
bool
Core<Access>::evalArith(const TaggedWord &w, std::int64_t &out)
{
    // Operand fetching is charged to get_arg (the paper singles out
    // built-in argument fetching as time-consuming); the ALU work is
    // charged to built.
    _acc.texture(Module::GetArg, 2);
    _acc.texture(Module::Built, 2);
    Deref d = deref(w, Module::GetArg);
    if (d.unbound) {
        warn("arithmetic: unbound variable");
        return false;
    }

    switch (d.word.tag) {
      case Tag::Int:
        out = d.word.asInt();
        return true;

      case Tag::SkelVar: {
        // Expression skeletons are evaluated in place; variable slots
        // are resolved against the current activation.
        if (d.word.data & kl0::kSkelVoidBit) {
            warn("arithmetic: unbound (void) variable");
            return false;
        }
        VarSlot vs = VarSlot::decode(d.word.data);
        if (vs.global) {
            TaggedWord ref = {
                Tag::Ref,
                LogicalAddr(Area::Global,
                            _act.globalBase + vs.index).pack()};
            return evalArith(ref, out);
        }
        TaggedWord v = readLocal(vs.index, Module::GetArg);
        if (v.tag == Tag::Undef) {
            warn("arithmetic: unbound variable");
            return false;
        }
        return evalArith(v, out);
      }

      case Tag::Struct: {
        LogicalAddr a = LogicalAddr::unpack(d.word.data);
        TaggedWord f = _acc.readMem(Module::Built, a,
                                    BranchOp::T1GotoJr, kScr, kScr);
        if (f.tag != Tag::Functor)
            return false;
        const ArithOp op = arithOpFor(f.data);
        if (op == ArithOp::NotArith) {
            warn("arithmetic: unknown function ",
                 _syms.functorName(f.data), "/",
                 _syms.functorArity(f.data));
            return false;
        }

        // Operands first, then the ALU operation step: an unknown
        // operator is reported only after its operands evaluated.
        std::int64_t x = 0;
        std::int64_t y = 0;
        TaggedWord ax = _acc.readMem(Module::GetArg, a.plus(1),
                                     BranchOp::T1Nop, kScr, kScr);
        if (!evalArith(ax, x))
            return false;
        if (isUnary(op)) {
            _acc.step(Module::Built, BranchOp::T1Nop, kConstWf, kScr,
                      kScr);
        } else {
            TaggedWord ay = _acc.readMem(Module::GetArg, a.plus(2),
                                         BranchOp::T1Nop, kScr, kScr);
            if (!evalArith(ay, y))
                return false;
            _acc.step(Module::Built, BranchOp::T1Nop, kScr, kScr,
                      kScr);
        }
        switch (op) {
          case ArithOp::Neg: out = -x; return true;
          case ArithOp::Ident: out = x; return true;
          case ArithOp::Abs: out = x < 0 ? -x : x; return true;
          case ArithOp::BitNot: out = ~x; return true;
          case ArithOp::Add: out = x + y; return true;
          case ArithOp::Sub: out = x - y; return true;
          case ArithOp::Mul: out = x * y; return true;
          case ArithOp::IDiv:
            if (y == 0) {
                warn("arithmetic: division by zero");
                return false;
            }
            out = x / y;
            return true;
          case ArithOp::Mod:
            if (y == 0) {
                warn("arithmetic: mod by zero");
                return false;
            }
            out = x % y;
            if (out != 0 && ((out < 0) != (y < 0)))
                out += y;
            return true;
          case ArithOp::Rem:
            if (y == 0)
                return false;
            out = x % y;
            return true;
          case ArithOp::Min: out = x < y ? x : y; return true;
          case ArithOp::Max: out = x > y ? x : y; return true;
          case ArithOp::Shl: out = x << (y & 31); return true;
          case ArithOp::Shr: out = x >> (y & 31); return true;
          case ArithOp::BitAnd: out = x & y; return true;
          case ArithOp::BitOr: out = x | y; return true;
          case ArithOp::BitXor: out = x ^ y; return true;
          default:
            warn("arithmetic: unknown function ",
                 _syms.functorName(f.data), "/",
                 _syms.functorArity(f.data));
            return false;
        }
      }

      default:
        warn("arithmetic: bad operand tag '", tagName(d.word.tag),
             "'");
        return false;
    }
}

template <class Access>
typename Core<Access>::ArithOp
Core<Access>::arithOpFor(std::uint32_t functor_idx)
{
    if (functor_idx >= _arithOps.size())
        _arithOps.resize(_syms.functorCount(), ArithOp::Unresolved);
    ArithOp &slot = _arithOps[functor_idx];
    if (slot != ArithOp::Unresolved)
        return slot;

    const std::string &name = _syms.functorName(functor_idx);
    const std::uint32_t arity = _syms.functorArity(functor_idx);
    ArithOp op = ArithOp::NotArith;
    if (arity == 1) {
        op = ArithOp::Unknown1;
        if (name == "-") op = ArithOp::Neg;
        else if (name == "+") op = ArithOp::Ident;
        else if (name == "abs") op = ArithOp::Abs;
        else if (name == "\\") op = ArithOp::BitNot;
    } else if (arity == 2) {
        op = ArithOp::Unknown2;
        if (name == "+") op = ArithOp::Add;
        else if (name == "-") op = ArithOp::Sub;
        else if (name == "*") op = ArithOp::Mul;
        else if (name == "//" || name == "/") op = ArithOp::IDiv;
        else if (name == "mod") op = ArithOp::Mod;
        else if (name == "rem") op = ArithOp::Rem;
        else if (name == "min") op = ArithOp::Min;
        else if (name == "max") op = ArithOp::Max;
        else if (name == "<<") op = ArithOp::Shl;
        else if (name == ">>") op = ArithOp::Shr;
        else if (name == "/\\") op = ArithOp::BitAnd;
        else if (name == "\\/") op = ArithOp::BitOr;
        else if (name == "xor") op = ArithOp::BitXor;
    }
    slot = op;
    return op;
}

template <class Access>
bool
Core<Access>::arithCompare(kl0::Builtin b)
{
    using kl0::Builtin;

    std::int64_t x = 0;
    std::int64_t y = 0;
    if (!evalArith(readA(0, Module::Built), x))
        return false;
    if (!evalArith(readA(1, Module::Built), y))
        return false;
    // The comparison step.
    _acc.step(Module::Built, BranchOp::T1CondTrue, kScr, kScr, kNoWf);
    switch (b) {
      case Builtin::Lt: return x < y;
      case Builtin::Gt: return x > y;
      case Builtin::Le: return x <= y;
      case Builtin::Ge: return x >= y;
      case Builtin::ArithEq: return x == y;
      case Builtin::ArithNe: return x != y;
      default:
        panic("arithCompare: bad builtin");
    }
}

} // namespace interp
} // namespace psi

#endif // PSI_INTERP_CORE_ARITH_HPP
