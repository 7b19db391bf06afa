/**
 * @file
 * Fast-engine built-ins: dispatch, arithmetic, term inspection /
 * construction, write/1 output, vectors, the shared registry and
 * process_call.  Transliterated from interp/builtins.cpp,
 * builtins_arith.cpp, builtins_term.cpp and process.cpp with the
 * sequencer accounting removed.  Warning messages and the output-cap
 * check order are kept identical so stderr and RunResult::output
 * match the fidelity engine byte for byte.
 */

#include "fast/fast_engine.hpp"

#include <array>
#include <cstdint>

#include "base/logging.hpp"

namespace psi {
namespace fast {

bool
FastEngine::execIs()
{
    std::int64_t v = 0;
    if (!evalArith(_a[1], v))
        return false;
    if (v < INT32_MIN || v > INT32_MAX) {
        warn("is/2: result ", v, " overflows the 32-bit data part");
        return false;
    }
    return unify(_a[0],
                 TaggedWord::makeInt(static_cast<std::int32_t>(v)));
}

bool
FastEngine::execBuiltin(kl0::Builtin b)
{
    using kl0::Builtin;

    switch (b) {
      case Builtin::True:
        return true;

      case Builtin::Fail:
        return false;

      case Builtin::Unify:
        return unify(_a[0], _a[1]);

      case Builtin::NotUnify: {
        // Speculative unification: force every binding onto the trail
        // by raising the trail bounds, then undo them.
        std::uint32_t save_hb = _hb;
        std::uint32_t save_hl = _hl;
        std::uint32_t save_gt = _gt;
        std::uint64_t mark = trailTop();
        _hb = 0xffffffffu;
        _hl = 0xffffffffu;
        bool unified = unify(_a[0], _a[1]);
        unwindTrail(mark);
        _gt = save_gt;
        _hb = save_hb;
        _hl = save_hl;
        return !unified;
      }

      case Builtin::Eq: {
        int c = 0;
        return termCompare(_a[0], _a[1], c) && c == 0;
      }
      case Builtin::NotEq: {
        int c = 0;
        return termCompare(_a[0], _a[1], c) && c != 0;
      }
      case Builtin::TermLt:
      case Builtin::TermGt:
      case Builtin::TermLe:
      case Builtin::TermGe: {
        int c = 0;
        if (!termCompare(_a[0], _a[1], c))
            return false;
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

      case Builtin::IsVar:
        return deref(_a[0]).unbound;
      case Builtin::IsNonvar:
        return !deref(_a[0]).unbound;
      case Builtin::IsAtom: {
        Deref d = deref(_a[0]);
        return !d.unbound &&
               (d.word.tag == Tag::Atom || d.word.tag == Tag::Nil);
      }
      case Builtin::IsInteger: {
        Deref d = deref(_a[0]);
        return !d.unbound && d.word.tag == Tag::Int;
      }
      case Builtin::IsAtomic: {
        Deref d = deref(_a[0]);
        return !d.unbound &&
               (d.word.tag == Tag::Atom || d.word.tag == Tag::Nil ||
                d.word.tag == Tag::Int || d.word.tag == Tag::Vector);
      }
      case Builtin::IsCompound: {
        Deref d = deref(_a[0]);
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
        writeTerm(_a[0]);
        return true;
      case Builtin::Nl:
        if (_out.size() < _maxOutputBytes)
            _out.push_back('\n');
        return true;
      case Builtin::Tab: {
        std::int64_t n = 0;
        if (!evalArith(_a[0], n) || n < 0)
            return false;
        for (std::int64_t i = 0; i < n; ++i) {
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

bool
FastEngine::builtinVector(kl0::Builtin b)
{
    using kl0::Builtin;

    if (b == Builtin::VectorNew) {
        Deref dn = deref(_a[0]);
        if (dn.unbound || dn.word.tag != Tag::Int)
            return false;
        std::int32_t n = dn.word.asInt();
        if (n < 0 || n > (1 << 22)) {
            warn("vector_new: bad size ", n);
            return false;
        }
        std::uint32_t base = _vecTop;
        FlatArea &heap = _area[static_cast<int>(Area::Heap)];
        heap.write(base, TaggedWord::makeInt(n));
        heap.fill(base + 1, static_cast<std::uint32_t>(n),
                  TaggedWord::makeInt(0));
        _vecTop += static_cast<std::uint32_t>(n) + 1;
        return unify(_a[1],
                     {Tag::Vector, LogicalAddr(Area::Heap, base).pack()});
    }

    Deref dv = deref(_a[0]);
    if (dv.unbound || dv.word.tag != Tag::Vector)
        return false;
    LogicalAddr base = LogicalAddr::unpack(dv.word.data);
    TaggedWord size = read(base);

    if (b == Builtin::VectorSize)
        return unify(_a[1], size);

    Deref di = deref(_a[1]);
    if (di.unbound || di.word.tag != Tag::Int)
        return false;
    std::int32_t i = di.word.asInt();
    if (i < 0 || i >= size.asInt())
        return false;

    if (b == Builtin::VectorGet) {
        TaggedWord w =
            read(base.plus(1 + static_cast<std::uint32_t>(i)));
        return unify(_a[2], w);
    }

    // VectorSet: destructive, never trailed (heap vectors are the
    // PSI's non-backtrackable rewritable data).
    Deref dx = deref(_a[2]);
    write(base.plus(1 + static_cast<std::uint32_t>(i)),
          dx.unbound ? TaggedWord{Tag::Ref, dx.cell.pack()} : dx.word);
    return true;
}

bool
FastEngine::evalArith(const TaggedWord &w, std::int64_t &out)
{
    Deref d = deref(w);
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
        TaggedWord v = readLocal(vs.index);
        if (v.tag == Tag::Undef) {
            warn("arithmetic: unbound variable");
            return false;
        }
        return evalArith(v, out);
      }

      case Tag::Struct: {
        LogicalAddr a = LogicalAddr::unpack(d.word.data);
        TaggedWord f = read(a);
        if (f.tag != Tag::Functor)
            return false;
        const ArithOp op = arithOpFor(f.data);
        if (op == ArithOp::NotArith) {
            warn("arithmetic: unknown function ",
                 _syms.functorName(f.data), "/",
                 _syms.functorArity(f.data));
            return false;
        }

        std::int64_t x = 0;
        if (!evalArith(read(a.plus(1)), x))
            return false;
        switch (op) {
          case ArithOp::Neg: out = -x; return true;
          case ArithOp::Ident: out = x; return true;
          case ArithOp::Abs: out = x < 0 ? -x : x; return true;
          case ArithOp::BitNot: out = ~x; return true;
          default: break; // binary: needs the second operand
        }

        std::int64_t y = 0;
        if (!evalArith(read(a.plus(2)), y))
            return false;
        switch (op) {
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
          default: return false; // unreachable
        }
      }

      default:
        warn("arithmetic: bad operand tag '", tagName(d.word.tag),
             "'");
        return false;
    }
}

FastEngine::ArithOp
FastEngine::arithOpFor(std::uint32_t functor_idx)
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
        if (name == "-") op = ArithOp::Neg;
        else if (name == "+") op = ArithOp::Ident;
        else if (name == "abs") op = ArithOp::Abs;
        else if (name == "\\") op = ArithOp::BitNot;
    } else if (arity == 2) {
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

bool
FastEngine::arithCompare(kl0::Builtin b)
{
    using kl0::Builtin;

    std::int64_t x = 0;
    std::int64_t y = 0;
    if (!evalArith(_a[0], x))
        return false;
    if (!evalArith(_a[1], y))
        return false;
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

bool
FastEngine::termCompare(const TaggedWord &a, const TaggedWord &b,
                        int &out)
{
    Deref da = deref(a);
    Deref db = deref(b);

    auto order = [](const Deref &d) {
        if (d.unbound)
            return 0;
        switch (d.word.tag) {
          case Tag::Int: return 1;
          case Tag::Atom:
          case Tag::Nil: return 2;
          case Tag::Vector: return 3;
          case Tag::List:
          case Tag::Struct: return 4;
          default: return 5;
        }
    };

    int oa = order(da);
    int ob = order(db);
    if (oa != ob) {
        out = oa < ob ? -1 : 1;
        return true;
    }

    switch (oa) {
      case 0: {  // both unbound: compare cell addresses
        std::uint32_t pa = da.cell.pack();
        std::uint32_t pb = db.cell.pack();
        out = pa == pb ? 0 : (pa < pb ? -1 : 1);
        return true;
      }
      case 1: {
        std::int32_t va = da.word.asInt();
        std::int32_t vb = db.word.asInt();
        out = va == vb ? 0 : (va < vb ? -1 : 1);
        return true;
      }
      case 2: {
        const std::string &na = da.word.tag == Tag::Nil
                                    ? _syms.atomName(_syms.nilAtom())
                                    : _syms.atomName(da.word.data);
        const std::string &nb = db.word.tag == Tag::Nil
                                    ? _syms.atomName(_syms.nilAtom())
                                    : _syms.atomName(db.word.data);
        out = na.compare(nb);
        out = out == 0 ? 0 : (out < 0 ? -1 : 1);
        return true;
      }
      case 3: {
        out = da.word.data == db.word.data
                  ? 0
                  : (da.word.data < db.word.data ? -1 : 1);
        return true;
      }
      case 4: {
        // Compounds: arity, then name, then arguments left to right.
        auto shape = [this](const Deref &d, std::uint32_t &arity,
                            std::string &name, LogicalAddr &args) {
            if (d.word.tag == Tag::List) {
                arity = 2;
                name = ".";
                args = LogicalAddr::unpack(d.word.data);
                return;
            }
            LogicalAddr a = LogicalAddr::unpack(d.word.data);
            TaggedWord f = read(a);
            arity = _syms.functorArity(f.data);
            name = _syms.functorName(f.data);
            args = a.plus(1);
        };
        std::uint32_t na = 0;
        std::uint32_t nb = 0;
        std::string fa;
        std::string fb;
        LogicalAddr aa;
        LogicalAddr ab;
        shape(da, na, fa, aa);
        shape(db, nb, fb, ab);
        if (na != nb) {
            out = na < nb ? -1 : 1;
            return true;
        }
        int c = fa.compare(fb);
        if (c != 0) {
            out = c < 0 ? -1 : 1;
            return true;
        }
        for (std::uint32_t k = 0; k < na; ++k) {
            if (!termCompare(read(aa.plus(k)), read(ab.plus(k)), out))
                return false;
            if (out != 0)
                return true;
        }
        out = 0;
        return true;
      }
      default:
        return false;
    }
}

void
FastEngine::writeTerm(const TaggedWord &w, int depth)
{
    auto put = [this](const std::string &s) {
        if (_out.size() < _maxOutputBytes)
            _out += s;
    };

    if (depth > 10000) {
        put("...");
        return;
    }

    Deref d = deref(w);

    if (d.unbound) {
        put("_G" + std::to_string(d.cell.pack()));
        return;
    }
    switch (d.word.tag) {
      case Tag::Atom:
        put(_syms.atomName(d.word.data));
        return;
      case Tag::Int:
        put(std::to_string(d.word.asInt()));
        return;
      case Tag::Nil:
        put("[]");
        return;
      case Tag::Vector:
        put("$vector");
        return;
      case Tag::List: {
        put("[");
        TaggedWord cur = d.word;
        bool first = true;
        for (;;) {
            LogicalAddr a = LogicalAddr::unpack(cur.data);
            if (!first)
                put(",");
            first = false;
            writeTerm(read(a), depth + 1);
            Deref dc = deref(read(a.plus(1)));
            if (dc.unbound) {
                put("|_G" + std::to_string(dc.cell.pack()));
                break;
            }
            if (dc.word.tag == Tag::Nil)
                break;
            if (dc.word.tag == Tag::List) {
                cur = dc.word;
                continue;
            }
            put("|");
            writeTerm(dc.word, depth + 1);
            break;
        }
        put("]");
        return;
      }
      case Tag::Struct: {
        LogicalAddr a = LogicalAddr::unpack(d.word.data);
        TaggedWord f = read(a);
        put(_syms.functorName(f.data));
        put("(");
        std::uint32_t n = _syms.functorArity(f.data);
        for (std::uint32_t k = 1; k <= n; ++k) {
            if (k > 1)
                put(",");
            writeTerm(read(a.plus(k)), depth + 1);
        }
        put(")");
        return;
      }
      default:
        put("?");
        return;
    }
}

bool
FastEngine::builtinFunctor()
{
    Deref d = deref(_a[0]);

    if (!d.unbound) {
        TaggedWord fw;
        std::int32_t arity = 0;
        switch (d.word.tag) {
          case Tag::Atom:
          case Tag::Int:
            fw = d.word;
            break;
          case Tag::Nil:
            fw = {Tag::Nil, 0};
            break;
          case Tag::List:
            fw = {Tag::Atom, _syms.atom(".")};
            arity = 2;
            break;
          case Tag::Struct: {
            LogicalAddr a = LogicalAddr::unpack(d.word.data);
            TaggedWord f = read(a);
            fw = {Tag::Atom, _syms.atom(_syms.functorName(f.data))};
            arity =
                static_cast<std::int32_t>(_syms.functorArity(f.data));
            break;
          }
          default:
            return false;
        }
        return unify(_a[1], fw) &&
               unify(_a[2], TaggedWord::makeInt(arity));
    }

    // Construction mode.
    Deref df = deref(_a[1]);
    Deref dn = deref(_a[2]);
    if (df.unbound || dn.unbound || dn.word.tag != Tag::Int)
        return false;
    std::int32_t n = dn.word.asInt();
    if (n < 0 || n > 255)
        return false;
    if (n == 0) {
        bind(d.cell, df.word);
        return true;
    }
    if (df.word.tag != Tag::Atom)
        return false;

    const std::string &name = _syms.atomName(df.word.data);
    std::uint32_t base = _gt;
    if (name == "." && n == 2) {
        for (int k = 0; k < 2; ++k) {
            LogicalAddr cell(Area::Global, _gt);
            write(cell, {Tag::Ref, cell.pack()});
            ++_gt;
        }
        bind(d.cell,
             {Tag::List, LogicalAddr(Area::Global, base).pack()});
        return true;
    }
    std::uint32_t f =
        _syms.functor(name, static_cast<std::uint32_t>(n));
    write(LogicalAddr(Area::Global, _gt), {Tag::Functor, f});
    ++_gt;
    for (std::int32_t k = 0; k < n; ++k) {
        LogicalAddr cell(Area::Global, _gt);
        write(cell, {Tag::Ref, cell.pack()});
        ++_gt;
    }
    bind(d.cell,
         {Tag::Struct, LogicalAddr(Area::Global, base).pack()});
    return true;
}

bool
FastEngine::builtinArg()
{
    Deref dn = deref(_a[0]);
    Deref dt = deref(_a[1]);
    if (dn.unbound || dn.word.tag != Tag::Int || dt.unbound)
        return false;
    std::int32_t n = dn.word.asInt();
    if (n < 1)
        return false;

    if (dt.word.tag == Tag::List) {
        if (n > 2)
            return false;
        LogicalAddr a = LogicalAddr::unpack(dt.word.data);
        TaggedWord v = read(a.plus(static_cast<std::uint32_t>(n - 1)));
        return unify(_a[2], v);
    }
    if (dt.word.tag == Tag::Struct) {
        LogicalAddr a = LogicalAddr::unpack(dt.word.data);
        TaggedWord f = read(a);
        if (n > static_cast<std::int32_t>(_syms.functorArity(f.data)))
            return false;
        TaggedWord v = read(a.plus(static_cast<std::uint32_t>(n)));
        return unify(_a[2], v);
    }
    return false;
}

bool
FastEngine::builtinUniv()
{
    Deref dt = deref(_a[0]);

    if (!dt.unbound) {
        // Decomposition: T =.. [F | Args].
        std::vector<TaggedWord> items;
        switch (dt.word.tag) {
          case Tag::Atom:
          case Tag::Int:
          case Tag::Nil:
            items.push_back(dt.word);
            break;
          case Tag::List: {
            LogicalAddr a = LogicalAddr::unpack(dt.word.data);
            items.push_back({Tag::Atom, _syms.atom(".")});
            for (int k = 0; k < 2; ++k)
                items.push_back(read(a.plus(k)));
            break;
          }
          case Tag::Struct: {
            LogicalAddr a = LogicalAddr::unpack(dt.word.data);
            TaggedWord f = read(a);
            items.push_back(
                {Tag::Atom, _syms.atom(_syms.functorName(f.data))});
            std::uint32_t n = _syms.functorArity(f.data);
            for (std::uint32_t k = 1; k <= n; ++k)
                items.push_back(read(a.plus(k)));
            break;
          }
          default:
            return false;
        }
        // Build the list back to front on the global stack.
        TaggedWord tail = {Tag::Nil, 0};
        for (auto it = items.rbegin(); it != items.rend(); ++it) {
            std::uint32_t base = _gt;
            write(LogicalAddr(Area::Global, _gt), *it);
            ++_gt;
            write(LogicalAddr(Area::Global, _gt), tail);
            ++_gt;
            tail = {Tag::List, LogicalAddr(Area::Global, base).pack()};
        }
        return unify(_a[1], tail);
    }

    // Construction: walk the list into functor + args.
    Deref dl = deref(_a[1]);
    if (dl.unbound || dl.word.tag != Tag::List)
        return false;
    std::vector<TaggedWord> items;
    TaggedWord cur = dl.word;
    while (true) {
        LogicalAddr a = LogicalAddr::unpack(cur.data);
        items.push_back(read(a));
        Deref dc = deref(read(a.plus(1)));
        if (dc.unbound)
            return false;
        if (dc.word.tag == Tag::Nil)
            break;
        if (dc.word.tag != Tag::List)
            return false;
        cur = dc.word;
        if (items.size() > 260)
            return false;
    }

    Deref dh = deref(items[0]);
    if (dh.unbound)
        return false;
    std::uint32_t n = static_cast<std::uint32_t>(items.size()) - 1;
    if (n == 0) {
        bind(dt.cell, dh.word);
        return true;
    }
    if (dh.word.tag != Tag::Atom && dh.word.tag != Tag::Nil)
        return false;
    const std::string &name = dh.word.tag == Tag::Nil
                                  ? _syms.atomName(_syms.nilAtom())
                                  : _syms.atomName(dh.word.data);

    std::uint32_t base = _gt;
    if (name == "." && n == 2) {
        for (std::uint32_t k = 1; k <= 2; ++k) {
            Deref dk = deref(items[k]);
            write(LogicalAddr(Area::Global, _gt),
                  dk.unbound ? TaggedWord{Tag::Ref, dk.cell.pack()}
                             : dk.word);
            ++_gt;
        }
        bind(dt.cell,
             {Tag::List, LogicalAddr(Area::Global, base).pack()});
        return true;
    }
    write(LogicalAddr(Area::Global, _gt),
          {Tag::Functor, _syms.functor(name, n)});
    ++_gt;
    for (std::uint32_t k = 1; k <= n; ++k) {
        Deref dk = deref(items[k]);
        write(LogicalAddr(Area::Global, _gt),
              dk.unbound ? TaggedWord{Tag::Ref, dk.cell.pack()}
                         : dk.word);
        ++_gt;
    }
    bind(dt.cell,
         {Tag::Struct, LogicalAddr(Area::Global, base).pack()});
    return true;
}

bool
FastEngine::builtinGlobal(kl0::Builtin b)
{
    Deref dk = deref(_a[0]);
    if (dk.unbound || dk.word.tag != Tag::Int)
        return false;
    std::int32_t k = dk.word.asInt();
    if (k < 0 || k >= static_cast<std::int32_t>(kl0::kGlobalRegSlots))
        return false;
    LogicalAddr slot(Area::Heap,
                     kl0::kGlobalRegBase + static_cast<std::uint32_t>(k));

    if (b == kl0::Builtin::GlobalSet) {
        Deref dv = deref(_a[1]);
        // Only process-lifetime values may be stored: atomic data and
        // heap-vector handles.  Stack references would dangle.
        if (dv.unbound ||
            (dv.word.tag != Tag::Atom && dv.word.tag != Tag::Int &&
             dv.word.tag != Tag::Nil && dv.word.tag != Tag::Vector)) {
            return false;
        }
        write(slot, dv.word);
        return true;
    }

    TaggedWord v = read(slot);
    if (v.tag == Tag::Undef)
        return false;
    return unify(_a[1], v);
}

bool
FastEngine::runNested(std::uint32_t functor_idx,
                      std::uint64_t max_dispatches)
{
    bool ok = doCall(functor_idx, 0, true);
    if (!ok)
        ok = backtrack();
    if (!ok)
        return false;

    std::uint64_t start = _dispatches;
    for (;;) {
        if (_dispatches - start > max_dispatches) {
            warn("process_call: step budget exhausted");
            return false;
        }
        ++_dispatches;
        if (_failFlag) {
            _failFlag = false;
            if (!backtrack())
                return false;
            continue;
        }

        TaggedWord w = heapRead(_cp);
        ++_cp;

        switch (w.tag) {
          case Tag::Call:
          case Tag::CallLast: {
            std::uint32_t goal_cp = _cp - 1;
            loadArgs(_syms.functorArity(w.data));
            if (!doCall(w.data, goal_cp, w.tag == Tag::CallLast))
                _failFlag = true;
            break;
          }
          case Tag::CallBuiltin: {
            auto b = static_cast<kl0::Builtin>(w.data);
            loadArgs(kl0::builtinArity(b));
            if (!execBuiltin(b))
                _failFlag = true;
            break;
          }
          case Tag::CallIs:
            loadArgs(2);
            if (!execIs())
                _failFlag = true;
            break;
          case Tag::CallCmp:
            loadArgs(2);
            if (!arithCompare(static_cast<kl0::Builtin>(w.data)))
                _failFlag = true;
            break;
          case Tag::CutOp:
            doCut();
            break;
          case Tag::Proceed: {
            if (_act.contEnv == interp::kRootEnv)
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

bool
FastEngine::builtinProcessCall()
{
    if (_inProcessCall) {
        warn("process_call: nesting is not supported");
        return false;
    }

    Deref dp = deref(_a[0]);
    Deref df = deref(_a[1]);
    if (dp.unbound || dp.word.tag != Tag::Int || df.unbound ||
        df.word.tag != Tag::Atom) {
        return false;
    }
    std::int32_t pid = dp.word.asInt();
    if (pid < 1 || pid >= static_cast<std::int32_t>(interp::kProcesses))
        return false;
    std::uint32_t f =
        _syms.functor(_syms.atomName(df.word.data), 0);

    // ---- process switch: save the current machine state ------------
    // The fidelity engine writes a 10-word switch frame of register
    // state above the control top; replicate the store so the control
    // area contents stay identical.
    for (int i = 0; i < 10; ++i) {
        write(LogicalAddr(Area::Control,
                          _ct + static_cast<std::uint32_t>(i)),
              {Tag::Int, 0});
    }

    struct Saved
    {
        std::uint32_t gt, lt, ct, tt, b, hb, hl, cp;
        int curBuf;
        bool failFlag;
        Activation act;
        std::array<TaggedWord, kl0::kMaxArity> args;
        std::array<TaggedWord, 2 * kl0::kMaxLocals> frames;
    } s;
    s.gt = _gt;
    s.lt = _lt;
    s.ct = _ct + 10;  // past the switch frame
    s.tt = _tt;
    s.b = _b;
    s.hb = _hb;
    s.hl = _hl;
    s.cp = _cp;
    s.curBuf = _curBuf;
    s.failFlag = _failFlag;
    s.act = _act;
    for (std::uint32_t i = 0; i < kl0::kMaxArity; ++i)
        s.args[i] = _a[i];
    for (std::uint32_t i = 0; i < kl0::kMaxLocals; ++i) {
        s.frames[i] = _fbuf[0][i];
        s.frames[kl0::kMaxLocals + i] = _fbuf[1][i];
    }

    // ---- enter the target process's areas --------------------------
    std::uint32_t base =
        static_cast<std::uint32_t>(pid) * interp::kProcWindow +
        interp::kStackBase;
    _gt = base;
    _lt = base;
    _ct = base;
    _tt = base;
    _b = interp::kNoChoice;
    _hb = _hl = 0;
    _curBuf = 0;
    _failFlag = false;
    _act = Activation{};
    _act.globalBase = _gt;
    _inProcessCall = true;

    bool ok = runNested(f, 200'000'000);

    // ---- switch back -------------------------------------------------
    _inProcessCall = false;
    _gt = s.gt;
    _lt = s.lt;
    _ct = s.ct - 10;
    _tt = s.tt;
    _b = s.b;
    _hb = s.hb;
    _hl = s.hl;
    _cp = s.cp;
    _curBuf = s.curBuf;
    _failFlag = s.failFlag;
    _act = s.act;
    for (std::uint32_t i = 0; i < kl0::kMaxArity; ++i)
        _a[i] = s.args[i];
    for (std::uint32_t i = 0; i < kl0::kMaxLocals; ++i) {
        _fbuf[0][i] = s.frames[i];
        _fbuf[1][i] = s.frames[kl0::kMaxLocals + i];
    }
    return ok;
}

} // namespace fast
} // namespace psi
