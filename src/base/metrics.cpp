#include "base/metrics.hpp"

#include <algorithm>

#include "base/json.hpp"
#include "base/stats.hpp"

namespace psi {
namespace metrics {

Value
nanos(std::uint64_t ns)
{
    Value v(Value::Kind::Nanos);
    v._u = ns;
    return v;
}

Value
fixed(double d, int prec)
{
    Value v(Value::Kind::Fixed);
    v._d = d;
    v._prec = prec;
    return v;
}

Value
text(std::string_view s)
{
    Value v(Value::Kind::Text);
    v._text = s;
    return v;
}

std::string
Value::json() const
{
    switch (_kind) {
      case Kind::Integer:
        return _negative ? '-' + std::to_string(0 - _u)
                         : std::to_string(_u);
      case Kind::Nanos:
        return std::to_string(_u);
      case Kind::Fixed:
        return stats::fixed(_d, _prec);
      case Kind::Text:
        return _text;
    }
    return {};
}

std::string
Value::prom() const
{
    switch (_kind) {
      case Kind::Nanos:
        return stats::fixed(static_cast<double>(_u) / 1e9, 9);
      case Kind::Text:
        return "1";
      default:
        return json();
    }
}

Registry::Family
Registry::family(std::string_view name, Type type)
{
    _families.push_back({std::string(name), type});
    return {_families.size() - 1};
}

void
Registry::add(std::string_view key, Family fam, const Value &v,
              Labels labels, std::string_view suffix)
{
    const std::size_t begin = _tails.size();
    if (fam.index < _families.size()) {
        _tails += suffix;
        char sep = '{';
        for (const auto &[name, value] : labels) {
            _tails += sep;
            _tails += name;
            _tails += "=\"";
            _tails += value;
            _tails += '"';
            sep = ',';
        }
        if (labels.size() != 0)
            _tails += '}';
    }
    _entries.push_back(
        {std::string(key), fam.index, begin, _tails.size(), v});
}

std::string
Registry::json() const
{
    JsonWriter w;
    for (const Entry &e : _entries) {
        if (e.key.empty())
            continue;
        if (e.value.quoted())
            w.s(e.key, e.value.json());
        else
            w.num(e.key, e.value.json());
    }
    return w.str();
}

std::string
Registry::prometheus() const
{
    static const char *const kTypeNames[] = {"counter", "gauge",
                                             "summary"};
    // Each family's samples in declaration order, families in theirs.
    std::vector<const Entry *> samples;
    for (const Entry &e : _entries)
        if (e.family < _families.size())
            samples.push_back(&e);
    std::stable_sort(samples.begin(), samples.end(),
                     [](const Entry *a, const Entry *b) {
                         return a->family < b->family;
                     });
    std::string out;
    auto next = samples.begin();
    for (std::size_t f = 0; f < _families.size(); ++f) {
        const FamilyDecl &fam = _families[f];
        out += "# TYPE " + fam.name + ' ' +
               kTypeNames[static_cast<int>(fam.type)] + '\n';
        for (; next != samples.end() && (*next)->family == f; ++next) {
            const Entry &e = **next;
            out += fam.name;
            out.append(_tails, e.tailBegin, e.tailEnd - e.tailBegin);
            out += ' ' + e.value.prom() + '\n';
        }
    }
    return out;
}

Table
Registry::table(std::string title) const
{
    Table t(std::move(title));
    t.setHeader({"metric", "value"});
    for (const Entry &e : _entries)
        if (!e.key.empty())
            t.addRow({e.key, e.value.json()});
    return t;
}

} // namespace metrics
} // namespace psi
