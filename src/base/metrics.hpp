/**
 * @file
 * metrics::Registry: where each service, scheduler and router metric
 * is declared once, and the one renderer of its three forms.
 *
 * A snapshot's describe() hands every metric to add() with its STATS
 * key (the flat JSON object of STATS_REPLY; empty for none), its
 * Prometheus family (the METRICS_REPLY text; a default Family for
 * none) and its value.  Values stay numbers until a renderer asks for
 * text, so a STATS reply formats no METRICS sample and the reverse.
 * json() writes the keyed metrics in declaration order through
 * JsonWriter, and table() lists the same pairs; prometheus() writes
 * each family's TYPE line once, where the family was first declared,
 * followed by all of its samples.
 */

#ifndef PSI_BASE_METRICS_HPP
#define PSI_BASE_METRICS_HPP

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "base/table.hpp"

namespace psi {
namespace metrics {

enum class Type : std::uint8_t { Counter, Gauge, Summary };

/** One value, unformatted until STATS or METRICS prints it. */
class Value
{
  public:
    /** An integer, printed alike in both. */
    template <std::integral T>
    Value(T v) : _u(static_cast<std::uint64_t>(v))
    {
        if constexpr (std::is_signed_v<T>)
            _negative = v < 0;
    }

    std::string json() const; ///< STATS literal (a string when quoted)
    std::string prom() const; ///< METRICS sample value
    bool quoted() const { return _kind == Kind::Text; }

  private:
    enum class Kind : std::uint8_t { Integer, Nanos, Fixed, Text };

    explicit Value(Kind kind) : _kind(kind) {}

    friend Value nanos(std::uint64_t ns);
    friend Value fixed(double v, int prec);
    friend Value text(std::string_view s);

    Kind _kind = Kind::Integer;
    bool _negative = false; ///< Integer: _u holds the two's complement
    int _prec = 0;          ///< Fixed: decimals
    std::uint64_t _u = 0;   ///< Integer, Nanos
    double _d = 0;          ///< Fixed
    std::string _text;      ///< Text
};

/** Nanoseconds in STATS, seconds with nine decimals in METRICS. */
Value nanos(std::uint64_t ns);
/** A number with @p prec decimals in both. */
Value fixed(double v, int prec);
/** A string in STATS; METRICS prints 1 and a label carries the text. */
Value text(std::string_view s);

/** Label pairs in print order.  Values print unescaped, so callers
 *  pass label-safe text only (see sched::sanitizeTenantName). */
using Labels =
    std::initializer_list<std::pair<std::string_view, std::string_view>>;

class Registry
{
  public:
    /** A declared family; default-constructed, no family. */
    struct Family { std::size_t index = static_cast<std::size_t>(-1); };

    /** Declare family @p name; its TYPE line prints here, even if it
     *  never gets a sample. */
    Family family(std::string_view name, Type type);
    Family counter(std::string_view n) { return family(n, Type::Counter); }
    Family gauge(std::string_view n) { return family(n, Type::Gauge); }

    /** Declare one metric: @p v under STATS @p key, and as a sample of
     *  @p fam, named with @p suffix (a summary's "_sum") and
     *  @p labels. */
    void add(std::string_view key, Family fam, const Value &v,
             Labels labels = {}, std::string_view suffix = {});

    std::string json() const;       ///< the STATS_REPLY object
    std::string prometheus() const; ///< the METRICS_REPLY text
    Table table(std::string title) const;

  private:
    struct FamilyDecl
    {
        std::string name;
        Type type;
    };

    /** One add(): a STATS pair, a METRICS sample, or both. */
    struct Entry
    {
        std::string key;    ///< STATS key; empty for none
        std::size_t family; ///< _families index; none when out of range
        std::size_t tailBegin, tailEnd; ///< the sample's _tails text
        Value value;
    };

    std::vector<FamilyDecl> _families;
    std::vector<Entry> _entries;
    /** Each sample's name suffix and {labels}, back to back (labels
     *  are copied: the strings they view may not outlive add()). */
    std::string _tails;
};

/** A registry holding @p subject's metrics, declared by
 *  subject.describe(registry, args...). */
template <class T, class... Args>
Registry
describe(const T &subject, const Args &...args)
{
    Registry r;
    subject.describe(r, args...);
    return r;
}

} // namespace metrics
} // namespace psi

#endif // PSI_BASE_METRICS_HPP
