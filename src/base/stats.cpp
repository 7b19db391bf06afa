#include "base/stats.hpp"

#include <iomanip>
#include <sstream>

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
    std::ostringstream os;
    os << std::fixed << std::setprecision(prec) << v;
    return os.str();
}

} // namespace stats
} // namespace psi
