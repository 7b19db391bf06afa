/**
 * @file
 * Built-in predicates of the baseline engine - the same language
 * surface as the PSI firmware built-ins (kl0/builtin_defs.hpp),
 * implemented over the baseline heap and costed through the DEC
 * model's builtin / arithmetic / write counters.
 */

#include "baseline/wam_machine.hpp"

#include "base/logging.hpp"

namespace psi {
namespace baseline {

bool
WamEngine::evalArith(const TaggedWord &w, std::int64_t &out)
{
    ++_cnt.arithNodes;
    TaggedWord d = derefW(w);
    switch (d.tag) {
      case Tag::Int:
        out = d.asInt();
        return true;
      case Tag::Struct: {
        TaggedWord f = _heap[d.data];
        const std::string &name = _syms.functorName(f.data);
        std::uint32_t arity = _syms.functorArity(f.data);
        if (arity == 1) {
            std::int64_t x = 0;
            if (!evalArith(_heap[d.data + 1], x))
                return false;
            if (name == "-") { out = -x; return true; }
            if (name == "+") { out = x; return true; }
            if (name == "abs") { out = x < 0 ? -x : x; return true; }
            if (name == "\\") { out = ~x; return true; }
            return false;
        }
        if (arity == 2) {
            std::int64_t x = 0;
            std::int64_t y = 0;
            if (!evalArith(_heap[d.data + 1], x) ||
                !evalArith(_heap[d.data + 2], y)) {
                return false;
            }
            if (name == "+") { out = x + y; return true; }
            if (name == "-") { out = x - y; return true; }
            if (name == "*") { out = x * y; return true; }
            if (name == "//" || name == "/") {
                if (y == 0)
                    return false;
                out = x / y;
                return true;
            }
            if (name == "mod") {
                if (y == 0)
                    return false;
                out = x % y;
                if (out != 0 && ((out < 0) != (y < 0)))
                    out += y;
                return true;
            }
            if (name == "rem") {
                if (y == 0)
                    return false;
                out = x % y;
                return true;
            }
            if (name == "min") { out = x < y ? x : y; return true; }
            if (name == "max") { out = x > y ? x : y; return true; }
            if (name == "<<") { out = x << (y & 31); return true; }
            if (name == ">>") { out = x >> (y & 31); return true; }
            if (name == "/\\") { out = x & y; return true; }
            if (name == "\\/") { out = x | y; return true; }
            if (name == "xor") { out = x ^ y; return true; }
            return false;
        }
        return false;
      }
      default:
        return false;
    }
}

bool
WamEngine::termCompare(const TaggedWord &a, const TaggedWord &b,
                       int &out)
{
    TaggedWord da = derefW(a);
    TaggedWord db = derefW(b);

    auto order = [](const TaggedWord &d) {
        switch (d.tag) {
          case Tag::Ref: return 0;
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
      case 0:
        out = da.data == db.data ? 0 : (da.data < db.data ? -1 : 1);
        return true;
      case 1: {
        std::int32_t va = da.asInt();
        std::int32_t vb = db.asInt();
        out = va == vb ? 0 : (va < vb ? -1 : 1);
        return true;
      }
      case 2: {
        const std::string &na = da.tag == Tag::Nil
                                    ? _syms.atomName(_syms.nilAtom())
                                    : _syms.atomName(da.data);
        const std::string &nb = db.tag == Tag::Nil
                                    ? _syms.atomName(_syms.nilAtom())
                                    : _syms.atomName(db.data);
        int c = na.compare(nb);
        out = c == 0 ? 0 : (c < 0 ? -1 : 1);
        return true;
      }
      case 3:
        out = da.data == db.data ? 0 : (da.data < db.data ? -1 : 1);
        return true;
      case 4: {
        auto shape = [this](const TaggedWord &d, std::uint32_t &n,
                            std::string &name, std::uint32_t &args) {
            if (d.tag == Tag::List) {
                n = 2;
                name = '.';
                args = d.data;
            } else {
                TaggedWord f = _heap[d.data];
                n = _syms.functorArity(f.data);
                name = _syms.functorName(f.data);
                args = d.data + 1;
            }
        };
        std::uint32_t na = 0;
        std::uint32_t nb = 0;
        std::string fa;
        std::string fb;
        std::uint32_t aa = 0;
        std::uint32_t ab = 0;
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
            if (!termCompare(_heap[aa + k], _heap[ab + k], out))
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
WamEngine::writeTerm(const TaggedWord &w, int depth)
{
    ++_cnt.writeNodes;
    auto put = [this](const std::string &s) {
        if (_out.size() < _maxOutputBytes)
            _out += s;
    };
    if (depth > 10000) {
        put("...");
        return;
    }
    TaggedWord d = derefW(w);
    switch (d.tag) {
      case Tag::Ref:
        put("_G" + std::to_string(d.data));
        return;
      case Tag::Atom:
        put(_syms.atomName(d.data));
        return;
      case Tag::Int:
        put(std::to_string(d.asInt()));
        return;
      case Tag::Nil:
        put("[]");
        return;
      case Tag::Vector:
        put("$vector");
        return;
      case Tag::List: {
        put("[");
        TaggedWord cur = d;
        bool first = true;
        for (;;) {
            if (!first)
                put(",");
            first = false;
            writeTerm(_heap[cur.data], depth + 1);
            TaggedWord cdr = derefW(_heap[cur.data + 1]);
            if (cdr.tag == Tag::Nil)
                break;
            if (cdr.tag == Tag::List) {
                cur = cdr;
                continue;
            }
            put("|");
            writeTerm(cdr, depth + 1);
            break;
        }
        put("]");
        return;
      }
      case Tag::Struct: {
        TaggedWord f = _heap[d.data];
        put(_syms.functorName(f.data));
        put("(");
        std::uint32_t n = _syms.functorArity(f.data);
        for (std::uint32_t k = 1; k <= n; ++k) {
            if (k > 1)
                put(",");
            writeTerm(_heap[d.data + k], depth + 1);
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
WamEngine::builtinFunctor()
{
    TaggedWord dt = derefW(_x[0]);
    if (dt.tag != Tag::Ref) {
        TaggedWord fw;
        std::int32_t arity = 0;
        switch (dt.tag) {
          case Tag::Atom:
          case Tag::Int:
          case Tag::Nil:
            fw = dt;
            break;
          case Tag::List:
            fw = {Tag::Atom, _syms.atom(".")};
            arity = 2;
            break;
          case Tag::Struct: {
            TaggedWord f = _heap[dt.data];
            fw = {Tag::Atom, _syms.atom(_syms.functorName(f.data))};
            arity = static_cast<std::int32_t>(
                _syms.functorArity(f.data));
            break;
          }
          default:
            return false;
        }
        return unifyW(_x[1], fw) &&
               unifyW(_x[2], TaggedWord::makeInt(arity));
    }

    TaggedWord df = derefW(_x[1]);
    TaggedWord dn = derefW(_x[2]);
    if (df.tag == Tag::Ref || dn.tag != Tag::Int)
        return false;
    std::int32_t n = dn.asInt();
    if (n < 0 || n > 255)
        return false;
    if (n == 0) {
        bindCell(dt.data, df);
        return true;
    }
    if (df.tag != Tag::Atom)
        return false;
    const std::string &name = _syms.atomName(df.data);
    if (name == "." && n == 2) {
        auto addr = static_cast<std::uint32_t>(_heap.size());
        pushUnbound();
        pushUnbound();
        bindCell(dt.data, {Tag::List, addr});
        return true;
    }
    auto addr = static_cast<std::uint32_t>(_heap.size());
    _heap.push_back({Tag::Functor,
                     _syms.functor(name,
                                   static_cast<std::uint32_t>(n))});
    for (std::int32_t k = 0; k < n; ++k)
        pushUnbound();
    bindCell(dt.data, {Tag::Struct, addr});
    return true;
}

bool
WamEngine::builtinArg()
{
    TaggedWord dn = derefW(_x[0]);
    TaggedWord dt = derefW(_x[1]);
    if (dn.tag != Tag::Int)
        return false;
    std::int32_t n = dn.asInt();
    if (n < 1)
        return false;
    if (dt.tag == Tag::List) {
        if (n > 2)
            return false;
        return unifyW(_x[2], _heap[dt.data + n - 1]);
    }
    if (dt.tag == Tag::Struct) {
        TaggedWord f = _heap[dt.data];
        if (n > static_cast<std::int32_t>(_syms.functorArity(f.data)))
            return false;
        return unifyW(_x[2], _heap[dt.data + n]);
    }
    return false;
}

bool
WamEngine::builtinUniv()
{
    TaggedWord dt = derefW(_x[0]);
    if (dt.tag != Tag::Ref) {
        std::vector<TaggedWord> items;
        switch (dt.tag) {
          case Tag::Atom:
          case Tag::Int:
          case Tag::Nil:
            items.push_back(dt);
            break;
          case Tag::List:
            items.push_back({Tag::Atom, _syms.atom(".")});
            items.push_back(_heap[dt.data]);
            items.push_back(_heap[dt.data + 1]);
            break;
          case Tag::Struct: {
            TaggedWord f = _heap[dt.data];
            items.push_back(
                {Tag::Atom, _syms.atom(_syms.functorName(f.data))});
            std::uint32_t n = _syms.functorArity(f.data);
            for (std::uint32_t k = 1; k <= n; ++k)
                items.push_back(_heap[dt.data + k]);
            break;
          }
          default:
            return false;
        }
        TaggedWord tail = {Tag::Nil, 0};
        for (auto it = items.rbegin(); it != items.rend(); ++it) {
            auto addr = static_cast<std::uint32_t>(_heap.size());
            _heap.push_back(*it);
            _heap.push_back(tail);
            tail = {Tag::List, addr};
        }
        return unifyW(_x[1], tail);
    }

    TaggedWord dl = derefW(_x[1]);
    if (dl.tag != Tag::List)
        return false;
    std::vector<TaggedWord> items;
    TaggedWord cur = dl;
    for (;;) {
        items.push_back(_heap[cur.data]);
        TaggedWord cdr = derefW(_heap[cur.data + 1]);
        if (cdr.tag == Tag::Nil)
            break;
        if (cdr.tag != Tag::List)
            return false;
        cur = cdr;
        if (items.size() > 260)
            return false;
    }
    TaggedWord dh = derefW(items[0]);
    std::uint32_t n = static_cast<std::uint32_t>(items.size()) - 1;
    if (n == 0) {
        if (dh.tag == Tag::Ref)
            return false;
        bindCell(dt.data, dh);
        return true;
    }
    if (dh.tag != Tag::Atom && dh.tag != Tag::Nil)
        return false;
    const std::string &name = dh.tag == Tag::Nil
                                  ? _syms.atomName(_syms.nilAtom())
                                  : _syms.atomName(dh.data);
    auto addr = static_cast<std::uint32_t>(_heap.size());
    if (name == "." && n == 2) {
        _heap.push_back(items[1]);
        _heap.push_back(items[2]);
        bindCell(dt.data, {Tag::List, addr});
        return true;
    }
    _heap.push_back({Tag::Functor, _syms.functor(name, n)});
    for (std::uint32_t k = 1; k <= n; ++k)
        _heap.push_back(items[k]);
    bindCell(dt.data, {Tag::Struct, addr});
    return true;
}

bool
WamEngine::builtinVector(kl0::Builtin b)
{
    using kl0::Builtin;

    if (b == Builtin::VectorNew) {
        TaggedWord dn = derefW(_x[0]);
        if (dn.tag != Tag::Int)
            return false;
        std::int32_t n = dn.asInt();
        if (n < 0 || n > (1 << 22))
            return false;
        auto base = static_cast<std::uint32_t>(_vecs.size());
        _vecs.push_back(TaggedWord::makeInt(n));
        for (std::int32_t i = 0; i < n; ++i)
            _vecs.push_back(TaggedWord::makeInt(0));
        return unifyW(_x[1], {Tag::Vector, base});
    }

    TaggedWord dv = derefW(_x[0]);
    if (dv.tag != Tag::Vector)
        return false;
    TaggedWord size = _vecs[dv.data];
    if (b == Builtin::VectorSize)
        return unifyW(_x[1], size);

    TaggedWord di = derefW(_x[1]);
    if (di.tag != Tag::Int)
        return false;
    std::int32_t i = di.asInt();
    if (i < 0 || i >= size.asInt())
        return false;

    if (b == Builtin::VectorGet)
        return unifyW(_x[2], _vecs[dv.data + 1 + i]);

    // VectorSet (destructive, not backtrackable).
    _vecs[dv.data + 1 + i] = derefW(_x[2]);
    return true;
}

bool
WamEngine::execBuiltin(kl0::Builtin b)
{
    using kl0::Builtin;
    ++_cnt.builtinCalls;

    switch (b) {
      case Builtin::True:
        return true;
      case Builtin::Fail:
        return false;
      case Builtin::Unify:
        return unifyW(_x[0], _x[1]);
      case Builtin::NotUnify: {
        // Speculative unify, undone via a local trail mark.  Every
        // binding is trailable here because there may be no choice
        // point: temporarily force trailing with a fake HB.
        auto mark = _trail.size();
        auto h = _heap.size();
        bool saved_empty = _cps.empty();
        std::uint32_t saved_h = saved_empty ? 0 : _cps.back().h;
        if (!saved_empty)
            _cps.back().h = 0xffffffffu;
        else {
            Choice fake{};
            fake.h = 0xffffffffu;
            fake.tr = static_cast<std::uint32_t>(mark);
            _cps.push_back(std::move(fake));
        }
        bool unified = unifyW(_x[0], _x[1]);
        while (_trail.size() > mark) {
            std::uint32_t idx = _trail.back();
            _trail.pop_back();
            _heap[idx] = {Tag::Ref, idx};
        }
        _heap.resize(h);
        if (saved_empty)
            _cps.pop_back();
        else
            _cps.back().h = saved_h;
        return !unified;
      }
      case Builtin::Eq: {
        int c = 0;
        return termCompare(_x[0], _x[1], c) && c == 0;
      }
      case Builtin::NotEq: {
        int c = 0;
        return termCompare(_x[0], _x[1], c) && c != 0;
      }
      case Builtin::TermLt:
      case Builtin::TermGt:
      case Builtin::TermLe:
      case Builtin::TermGe: {
        int c = 0;
        if (!termCompare(_x[0], _x[1], c))
            return false;
        switch (b) {
          case Builtin::TermLt: return c < 0;
          case Builtin::TermGt: return c > 0;
          case Builtin::TermLe: return c <= 0;
          default: return c >= 0;
        }
      }
      case Builtin::Is: {
        std::int64_t v = 0;
        if (!evalArith(_x[1], v))
            return false;
        if (v < INT32_MIN || v > INT32_MAX)
            return false;
        return unifyW(_x[0],
                      TaggedWord::makeInt(static_cast<std::int32_t>(v)));
      }
      case Builtin::Lt:
      case Builtin::Gt:
      case Builtin::Le:
      case Builtin::Ge:
      case Builtin::ArithEq:
      case Builtin::ArithNe: {
        std::int64_t x = 0;
        std::int64_t y = 0;
        if (!evalArith(_x[0], x) || !evalArith(_x[1], y))
            return false;
        switch (b) {
          case Builtin::Lt: return x < y;
          case Builtin::Gt: return x > y;
          case Builtin::Le: return x <= y;
          case Builtin::Ge: return x >= y;
          case Builtin::ArithEq: return x == y;
          default: return x != y;
        }
      }
      case Builtin::IsVar:
        return derefW(_x[0]).tag == Tag::Ref;
      case Builtin::IsNonvar:
        return derefW(_x[0]).tag != Tag::Ref;
      case Builtin::IsAtom: {
        Tag t = derefW(_x[0]).tag;
        return t == Tag::Atom || t == Tag::Nil;
      }
      case Builtin::IsInteger:
        return derefW(_x[0]).tag == Tag::Int;
      case Builtin::IsAtomic: {
        Tag t = derefW(_x[0]).tag;
        return t == Tag::Atom || t == Tag::Nil || t == Tag::Int ||
               t == Tag::Vector;
      }
      case Builtin::IsCompound: {
        Tag t = derefW(_x[0]).tag;
        return t == Tag::List || t == Tag::Struct;
      }
      case Builtin::Functor:
        ++_cnt.metaCalls;
        return builtinFunctor();
      case Builtin::Arg:
        ++_cnt.metaCalls;
        return builtinArg();
      case Builtin::Univ:
        ++_cnt.metaCalls;
        return builtinUniv();
      case Builtin::Write:
        writeTerm(_x[0]);
        return true;
      case Builtin::Nl:
        ++_cnt.writeNodes;
        if (_out.size() < _maxOutputBytes)
            _out.push_back('\n');
        return true;
      case Builtin::Tab: {
        std::int64_t n = 0;
        if (!evalArith(_x[0], n) || n < 0)
            return false;
        ++_cnt.writeNodes;
        if (_out.size() < _maxOutputBytes)
            _out.append(static_cast<std::size_t>(n), ' ');
        return true;
      }
      case Builtin::VectorNew:
      case Builtin::VectorGet:
      case Builtin::VectorSet:
      case Builtin::VectorSize:
        return builtinVector(b);
      case Builtin::GlobalSet: {
        TaggedWord k = derefW(_x[0]);
        TaggedWord v = derefW(_x[1]);
        if (k.tag != Tag::Int || k.asInt() < 0 || k.asInt() >= 16)
            return false;
        if (v.tag != Tag::Atom && v.tag != Tag::Int &&
            v.tag != Tag::Nil && v.tag != Tag::Vector) {
            return false;
        }
        _globals[k.asInt()] = v;
        return true;
      }
      case Builtin::GlobalGet: {
        TaggedWord k = derefW(_x[0]);
        if (k.tag != Tag::Int || k.asInt() < 0 || k.asInt() >= 16)
            return false;
        if (_globals[k.asInt()].tag == Tag::Undef)
            return false;
        return unifyW(_x[1], _globals[k.asInt()]);
      }
      case Builtin::ProcessCall:
        // The baseline machine is single-process; the compiler
        // rewrites process_call/2 into a plain call of the target
        // predicate, so this is never reached.
        panic("process_call reached the baseline builtin");
      case Builtin::NumBuiltins:
        break;
    }
    panic("bad baseline builtin");
}

} // namespace baseline
} // namespace psi
