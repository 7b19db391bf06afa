/**
 * @file
 * Shared helpers for the bench binaries.  The paper's own tables
 * come from tools/paper_tables (bench/paper_tables); the rest of
 * bench/ measures the reproduction's extensions.
 */

#ifndef PSI_BENCH_BENCH_UTIL_HPP
#define PSI_BENCH_BENCH_UTIL_HPP

#include <iostream>
#include <string>

#include "psi.hpp"

namespace psi {
namespace bench {

/** Format helper: fixed-point with one decimal. */
inline std::string
f1(double v)
{
    return stats::fixed(v, 1);
}

inline std::string
f2(double v)
{
    return stats::fixed(v, 2);
}

/** Print a section header. */
inline void
banner(const std::string &title)
{
    std::cout << "\n" << title << "\n"
              << std::string(title.size(), '~') << "\n";
}

} // namespace bench
} // namespace psi

#endif // PSI_BENCH_BENCH_UTIL_HPP
