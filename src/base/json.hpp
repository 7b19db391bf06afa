/**
 * @file
 * JsonWriter: the one flat-JSON-object emitter for the repo's
 * machine-readable surfaces (metrics::Registry::json(), farm_throughput
 * --json, net_throughput --json).
 *
 * Before this existed each surface hand-rolled its own `os << ...`
 * object, and the three schemas drifted (quoting, separators, key
 * casing).  JsonWriter pins the shared conventions in one place:
 * snake_case keys, `"key": value` pairs separated by `", "`, strings
 * escaped, numbers either exact u64s or caller-formatted fixed-point
 * literals (no locale, no exponent notation).
 *
 * It deliberately writes only flat objects - one `{...}` per line is
 * the repo's JSON-lines contract; anything nested (the Chrome trace
 * export) has its own renderer.
 */

#ifndef PSI_BASE_JSON_HPP
#define PSI_BASE_JSON_HPP

#include <cstdint>
#include <string>
#include <string_view>

namespace psi {

/** Escape @p s for placement inside a JSON string literal. */
std::string jsonEscape(std::string_view s);

/** Builder for one flat JSON object, key order = call order. */
class JsonWriter
{
  public:
    /** Unsigned integer value. */
    JsonWriter &u(std::string_view key, std::uint64_t v);

    /** Pre-formatted numeric literal (e.g. stats::fixed output). */
    JsonWriter &num(std::string_view key, std::string_view literal);

    /** Escaped string value. */
    JsonWriter &s(std::string_view key, std::string_view v);

    /** The finished object, braces included. */
    std::string str() const;

  private:
    void key(std::string_view k);

    std::string _body;
    bool _first = true;
};

} // namespace psi

#endif // PSI_BASE_JSON_HPP
