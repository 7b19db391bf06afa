/**
 * @file
 * Lightweight statistics primitives used by the machine models.
 *
 * The hardware models keep their own strongly typed counters; this
 * header supplies the percentage/ratio formatting helpers used
 * throughout the bench binaries.
 */

#ifndef PSI_BASE_STATS_HPP
#define PSI_BASE_STATS_HPP

#include <cstdint>
#include <string>

namespace psi {
namespace stats {

/** @return 100 * num / den, or 0 when den == 0. */
double pct(std::uint64_t num, std::uint64_t den);

/** @return num / den as double, or 0 when den == 0. */
double ratio(std::uint64_t num, std::uint64_t den);

/** Format @p v with @p prec digits after the decimal point. */
std::string fixed(double v, int prec = 1);

} // namespace stats
} // namespace psi

#endif // PSI_BASE_STATS_HPP
