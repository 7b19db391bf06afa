/**
 * @file
 * The paper_tables workload: the fidelity instrument regenerating
 * Tables 1-7 and Fig. 1 in-process, on one thread, with no sockets.
 * Every program is compiled once per set-up with the PSI-as-measured
 * options (no first-argument indexing, no specialized builtins), so
 * the codegen defaults the serving stack uses cannot move a paper
 * number.  Every counter a pass produces is checked against the
 * checked-in expected-values file.
 */

#ifndef PSIBENCH_TABLES_HPP
#define PSIBENCH_TABLES_HPP

#include <cstdint>
#include <map>
#include <string>

#include "common.hpp"

namespace psibench {

/** Counter name -> exact value, one entry per paper counter. */
using Counters = std::map<std::string, std::uint64_t>;

/** Parse an expected-values file ("name value" lines, '#' comments);
 *  false with @p error set when unreadable or malformed. */
bool readCounters(const std::string &path, Counters &out,
                  std::string &error);

/** Run paper_tables and fill @p report (or, with
 *  Args::writeExpected, write the expected-values file). */
void runTables(const Args &args, Report &report);

} // namespace psibench

#endif // PSIBENCH_TABLES_HPP
