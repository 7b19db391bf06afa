#include "base/metrics.hpp"

#include "base/json.hpp"
#include "base/stats.hpp"

namespace psi {
namespace metrics {

Value
nanos(std::uint64_t ns)
{
    return {std::to_string(ns),
            stats::fixed(static_cast<double>(ns) / 1e9, 9)};
}

Value
fixed(double v, int prec)
{
    return {stats::fixed(v, prec), stats::fixed(v, prec)};
}

Value
text(std::string_view s)
{
    return {std::string(s), "1", true};
}

Registry::Family
Registry::family(std::string_view name, Type type)
{
    _families.push_back({std::string(name), type, {}});
    return {_families.size() - 1};
}

void
Registry::add(std::string_view key, Family fam, const Value &v,
              Labels labels, std::string_view suffix)
{
    if (!key.empty())
        _pairs.emplace_back(key, v);
    if (fam.index >= _families.size())
        return;
    std::string &out = _families[fam.index].samples;
    out += _families[fam.index].name;
    out += suffix;
    char sep = '{';
    for (const auto &[name, value] : labels) {
        out += sep;
        out += name;
        out += "=\"";
        out += value;
        out += '"';
        sep = ',';
    }
    if (labels.size() != 0)
        out += '}';
    out += ' ' + v.prom + '\n';
}

std::string
Registry::json() const
{
    JsonWriter w;
    for (const auto &[key, v] : _pairs) {
        if (v.quoted)
            w.s(key, v.json);
        else
            w.num(key, v.json);
    }
    return w.str();
}

std::string
Registry::prometheus() const
{
    static const char *const kTypeNames[] = {"counter", "gauge",
                                             "summary"};
    std::string out;
    for (const FamilyText &f : _families) {
        out += "# TYPE " + f.name + ' ' +
               kTypeNames[static_cast<int>(f.type)] + '\n' + f.samples;
    }
    return out;
}

Table
Registry::table(std::string title) const
{
    Table t(std::move(title));
    t.setHeader({"metric", "value"});
    for (const auto &[key, v] : _pairs)
        t.addRow({key, v.json});
    return t;
}

} // namespace metrics
} // namespace psi
