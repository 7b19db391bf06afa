/**
 * @file
 * Term inspection / construction built-ins (functor/3, arg/3, =../2),
 * the standard-order comparison used by ==/2 and @</2, and the
 * write/1 output firmware.
 */

#ifndef PSI_INTERP_CORE_TERM_HPP
#define PSI_INTERP_CORE_TERM_HPP

#include "base/logging.hpp"
#include "interp/core.hpp"

namespace psi {
namespace interp {

template <class Access>
bool
Core<Access>::termCompare(const TaggedWord &a, const TaggedWord &b, int &out)
{
    _acc.texture(Module::Built, 2);
    Deref da = deref(a, Module::Built);
    Deref db = deref(b, Module::Built);
    _acc.step(Module::Built, BranchOp::T1CaseTag, kScr, kScr, kNoWf);

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
            TaggedWord f = _acc.readMem(Module::Built, a,
                                        BranchOp::T1Nop, kScr, kScr);
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
            TaggedWord va = _acc.readMem(Module::Built, aa.plus(k),
                                         BranchOp::T1Nop, kScr, kScr);
            TaggedWord vb = _acc.readMem(Module::Built, ab.plus(k),
                                         BranchOp::T1Nop, kScr, kScr);
            if (!termCompare(va, vb, out))
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

template <class Access>
void
Core<Access>::writeTerm(const TaggedWord &w, int depth)
{
    _acc.texture(Module::Built, 2);
    auto put = [this](const std::string &s) {
        if (_out.size() < _maxOutputBytes)
            _out += s;
    };

    if (depth > 10000) {
        put("...");
        return;
    }

    Deref d = deref(w, Module::Built);
    _acc.step(Module::Built, BranchOp::T1CaseTag, kScr, kNoWf, kNoWf);

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
            TaggedWord car = _acc.readMem(Module::Built, a,
                                          BranchOp::T1Nop, kScr, kScr);
            writeTerm(car, depth + 1);
            TaggedWord cdr = _acc.readMem(Module::Built, a.plus(1),
                                          BranchOp::T1CaseTag, kScr,
                                          kScr);
            Deref dc = deref(cdr, Module::Built);
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
        TaggedWord f = _acc.readMem(Module::Built, a, BranchOp::T1Nop,
                                    kScr, kScr);
        put(_syms.functorName(f.data));
        put("(");
        std::uint32_t n = _syms.functorArity(f.data);
        for (std::uint32_t k = 1; k <= n; ++k) {
            if (k > 1)
                put(",");
            TaggedWord v = _acc.readMem(Module::Built, a.plus(k),
                                        BranchOp::T1Nop, kScr, kScr);
            writeTerm(v, depth + 1);
        }
        put(")");
        return;
      }
      default:
        put("?");
        return;
    }
}

template <class Access>
bool
Core<Access>::builtinFunctor()
{
    Deref d = deref(readA(0, Module::Built), Module::Built);

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
            TaggedWord f = _acc.readMem(Module::Built, a,
                                        BranchOp::T1Nop, kScr, kScr);
            fw = {Tag::Atom, _syms.atom(_syms.functorName(f.data))};
            arity =
                static_cast<std::int32_t>(_syms.functorArity(f.data));
            break;
          }
          default:
            return false;
        }
        return unify(readA(1, Module::Built), fw) &&
               unify(readA(2, Module::Built),
                     TaggedWord::makeInt(arity));
    }

    // Construction mode.
    Deref df = deref(readA(1, Module::Built), Module::Built);
    Deref dn = deref(readA(2, Module::Built), Module::Built);
    if (df.unbound || dn.unbound || dn.word.tag != Tag::Int)
        return false;
    std::int32_t n = dn.word.asInt();
    if (n < 0 || n > 255)
        return false;
    if (n == 0) {
        bind(d.cell, df.word, Module::Built);
        return true;
    }
    if (df.word.tag != Tag::Atom)
        return false;

    const std::string &name = _syms.atomName(df.word.data);
    std::uint32_t base = _gt;
    if (name == "." && n == 2) {
        for (int k = 0; k < 2; ++k) {
            LogicalAddr cell(Area::Global, _gt);
            _acc.pushMem(Module::Built, cell,
                         {Tag::Ref, cell.pack()}, BranchOp::T3Nop,
                         kScr);
            ++_gt;
        }
        bind(d.cell, {Tag::List, LogicalAddr(Area::Global, base).pack()},
             Module::Built);
        return true;
    }
    std::uint32_t f =
        _syms.functor(name, static_cast<std::uint32_t>(n));
    _acc.pushMem(Module::Built, LogicalAddr(Area::Global, _gt),
                 {Tag::Functor, f}, BranchOp::T3Nop, kScr);
    ++_gt;
    for (std::int32_t k = 0; k < n; ++k) {
        LogicalAddr cell(Area::Global, _gt);
        _acc.pushMem(Module::Built, cell, {Tag::Ref, cell.pack()},
                     BranchOp::T3Nop, kScr);
        ++_gt;
    }
    bind(d.cell, {Tag::Struct, LogicalAddr(Area::Global, base).pack()},
         Module::Built);
    return true;
}

template <class Access>
bool
Core<Access>::builtinArg()
{
    Deref dn = deref(readA(0, Module::Built), Module::Built);
    Deref dt = deref(readA(1, Module::Built), Module::Built);
    if (dn.unbound || dn.word.tag != Tag::Int || dt.unbound)
        return false;
    std::int32_t n = dn.word.asInt();
    if (n < 1)
        return false;

    if (dt.word.tag == Tag::List) {
        if (n > 2)
            return false;
        LogicalAddr a = LogicalAddr::unpack(dt.word.data);
        TaggedWord v = _acc.readMem(
            Module::Built,
            a.plus(static_cast<std::uint32_t>(n - 1)),
            BranchOp::T1Nop, kScr, kReg);
        return unify(readA(2, Module::Built), v);
    }
    if (dt.word.tag == Tag::Struct) {
        LogicalAddr a = LogicalAddr::unpack(dt.word.data);
        TaggedWord f = _acc.readMem(Module::Built, a,
                                    BranchOp::T1CondFalse, kScr, kScr);
        if (n > static_cast<std::int32_t>(_syms.functorArity(f.data)))
            return false;
        TaggedWord v = _acc.readMem(
            Module::Built, a.plus(static_cast<std::uint32_t>(n)),
            BranchOp::T1Nop, kScr, kReg);
        return unify(readA(2, Module::Built), v);
    }
    return false;
}

template <class Access>
bool
Core<Access>::builtinUniv()
{
    Deref dt = deref(readA(0, Module::Built), Module::Built);

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
            for (int k = 0; k < 2; ++k) {
                items.push_back(_acc.readMem(Module::Built, a.plus(k),
                                             BranchOp::T1Nop, kScr,
                                             kScr));
            }
            break;
          }
          case Tag::Struct: {
            LogicalAddr a = LogicalAddr::unpack(dt.word.data);
            TaggedWord f = _acc.readMem(Module::Built, a,
                                        BranchOp::T1Nop, kScr, kScr);
            items.push_back(
                {Tag::Atom, _syms.atom(_syms.functorName(f.data))});
            std::uint32_t n = _syms.functorArity(f.data);
            for (std::uint32_t k = 1; k <= n; ++k) {
                items.push_back(_acc.readMem(Module::Built, a.plus(k),
                                             BranchOp::T1Nop, kScr,
                                             kScr));
            }
            break;
          }
          default:
            return false;
        }
        // Build the list back to front on the global stack.
        TaggedWord tail = {Tag::Nil, 0};
        for (auto it = items.rbegin(); it != items.rend(); ++it) {
            std::uint32_t base = _gt;
            _acc.pushMem(Module::Built, LogicalAddr(Area::Global, _gt),
                         *it, BranchOp::T3Nop, kScr);
            ++_gt;
            _acc.pushMem(Module::Built, LogicalAddr(Area::Global, _gt),
                         tail, BranchOp::T3Nop, kScr);
            ++_gt;
            tail = {Tag::List, LogicalAddr(Area::Global, base).pack()};
        }
        return unify(readA(1, Module::Built), tail);
    }

    // Construction: walk the list into functor + args.
    Deref dl = deref(readA(1, Module::Built), Module::Built);
    if (dl.unbound || dl.word.tag != Tag::List)
        return false;
    std::vector<TaggedWord> items;
    TaggedWord cur = dl.word;
    while (true) {
        LogicalAddr a = LogicalAddr::unpack(cur.data);
        items.push_back(_acc.readMem(Module::Built, a,
                                     BranchOp::T1Nop, kScr, kScr));
        TaggedWord cdr = _acc.readMem(Module::Built, a.plus(1),
                                      BranchOp::T1CaseTag, kScr, kScr);
        Deref dc = deref(cdr, Module::Built);
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

    Deref dh = deref(items[0], Module::Built);
    if (dh.unbound)
        return false;
    std::uint32_t n = static_cast<std::uint32_t>(items.size()) - 1;
    if (n == 0) {
        bind(dt.cell, dh.word, Module::Built);
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
            Deref dk = deref(items[k], Module::Built);
            _acc.pushMem(Module::Built, LogicalAddr(Area::Global, _gt),
                         dk.unbound ? TaggedWord{Tag::Ref,
                                                 dk.cell.pack()}
                                    : dk.word,
                         BranchOp::T3Nop, kScr);
            ++_gt;
        }
        bind(dt.cell,
             {Tag::List, LogicalAddr(Area::Global, base).pack()},
             Module::Built);
        return true;
    }
    _acc.pushMem(Module::Built, LogicalAddr(Area::Global, _gt),
                 {Tag::Functor, _syms.functor(name, n)},
                 BranchOp::T3Nop, kScr);
    ++_gt;
    for (std::uint32_t k = 1; k <= n; ++k) {
        Deref dk = deref(items[k], Module::Built);
        _acc.pushMem(Module::Built, LogicalAddr(Area::Global, _gt),
                     dk.unbound
                         ? TaggedWord{Tag::Ref, dk.cell.pack()}
                         : dk.word,
                     BranchOp::T3Nop, kScr);
        ++_gt;
    }
    bind(dt.cell,
         {Tag::Struct, LogicalAddr(Area::Global, base).pack()},
         Module::Built);
    return true;
}

} // namespace interp
} // namespace psi

#endif // PSI_INTERP_CORE_TERM_HPP
