#include "base/json.hpp"

namespace psi {

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                static const char hex[] = "0123456789abcdef";
                out += "\\u00";
                out += hex[(c >> 4) & 0xf];
                out += hex[c & 0xf];
            } else {
                out += c;
            }
        }
    }
    return out;
}

void
JsonWriter::key(std::string_view k)
{
    if (!_first)
        _body += ", ";
    _first = false;
    // Keys are escaped like values: most are compile-time literals,
    // but per-tenant keys carry caller-supplied names, and an
    // unescaped quote or backslash there corrupts the whole object.
    _body += '"';
    _body += jsonEscape(k);
    _body += "\": ";
}

JsonWriter &
JsonWriter::u(std::string_view k, std::uint64_t v)
{
    key(k);
    _body += std::to_string(v);
    return *this;
}

JsonWriter &
JsonWriter::num(std::string_view k, std::string_view literal)
{
    key(k);
    _body += literal;
    return *this;
}

JsonWriter &
JsonWriter::s(std::string_view k, std::string_view v)
{
    key(k);
    _body += '"';
    _body += jsonEscape(v);
    _body += '"';
    return *this;
}

std::string
JsonWriter::str() const
{
    return "{" + _body + "}";
}

} // namespace psi
