#include "base/stats.hpp"

#include <cstdio>

namespace psi {
namespace stats {

double
pct(std::uint64_t num, std::uint64_t den)
{
    return den == 0 ? 0.0 : 100.0 * static_cast<double>(num) /
                            static_cast<double>(den);
}

double
ratio(std::uint64_t num, std::uint64_t den)
{
    return den == 0 ? 0.0 : static_cast<double>(num) /
                            static_cast<double>(den);
}

std::string
fixed(double v, int prec)
{
    // The conversion an ostringstream with std::fixed makes, without
    // building the stream.
    char buf[64];
    int n = std::snprintf(buf, sizeof buf, "%.*f", prec, v);
    if (n < 0)
        return std::string();
    if (static_cast<std::size_t>(n) < sizeof buf)
        return std::string(buf, static_cast<std::size_t>(n));
    std::string out(static_cast<std::size_t>(n), '\0');
    std::snprintf(out.data(), out.size() + 1, "%.*f", prec, v);
    return out;
}

} // namespace stats
} // namespace psi
