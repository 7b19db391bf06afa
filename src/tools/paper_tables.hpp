/**
 * @file
 * The paper's evaluation regenerated on the PSI as measured: Tables
 * 1-7, Figure 1 with its one-set and store-through side studies,
 * and the model LIPS of nreverse on both machines.
 *
 * measurePaperTables() compiles every program once with
 * kl0::CompileOptions::psiAsMeasured() and runs it on the fidelity
 * engine, the DEC baseline, COLLECT -> MAP and PMMS.
 * renderPaperTables() prints every table in the paper's layout with
 * the paper's reference values beside the measured ones.  Every
 * number is model time or a counter, so the text is deterministic:
 * tests/golden/paper_tables.txt pins it.
 */

#ifndef PSI_TOOLS_PAPER_TABLES_HPP
#define PSI_TOOLS_PAPER_TABLES_HPP

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "programs/registry.hpp"
#include "system.hpp"
#include "tools/map.hpp"
#include "tools/pmms.hpp"

namespace psi {
namespace tools {

/** One Table 1 row: a program on the PSI and on the DEC baseline. */
struct Table1Run
{
    programs::BenchProgram program;
    interp::RunResult psi;
    interp::RunResult dec;
};

/** Fig. 1's one-set study over one COLLECTed trace. */
struct PmmsStudy
{
    std::uint64_t noCacheNs = 0;
    PmmsResult twoSets;  ///< the production cache: 8K words, 2 sets
    PmmsResult oneSet;   ///< 4K words, 1 set (direct-mapped)
};

/** Everything the paper's tables are computed from. */
struct PaperTables
{
    std::vector<Table1Run> table1;          ///< paper row order
    std::map<std::string, PsiRun> hardware; ///< Tables 2-5, by id
    std::map<std::string, Map> maps;        ///< Tables 6-7, by id
    std::map<std::string, PmmsStudy> pmms;  ///< Fig. 1, by id
    /** Fig. 1: the WINDOW trace from 8 to 8K words. */
    std::vector<PmmsResult> capacitySweep;
    PmmsResult storeThrough;                ///< the WINDOW trace
};

/** Run every experiment behind the paper's tables. */
PaperTables measurePaperTables();

/** Print every table, in paper order, to @p out. */
void renderPaperTables(const PaperTables &tables, std::ostream &out);

} // namespace tools
} // namespace psi

#endif // PSI_TOOLS_PAPER_TABLES_HPP
