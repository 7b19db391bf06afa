/**
 * @file
 * The benchmark workload registry.
 *
 * Re-creations of every program the paper measures: the ten Prolog
 * contest programs of Table 1 rows (1)-(10), the three application
 * programs BUP / HARMONIZER / LCP (rows (11)-(19)), and the two
 * additional hardware-evaluation workloads WINDOW and 8 PUZZLE of
 * Tables 2-7.  Each entry carries its KL0 source text, the query to
 * run, and the paper's reference measurements where the program
 * appears in Table 1.
 */

#ifndef PSI_PROGRAMS_REGISTRY_HPP
#define PSI_PROGRAMS_REGISTRY_HPP

#include <string>
#include <vector>

namespace psi {
namespace programs {

/** One benchmark workload. */
struct BenchProgram
{
    std::string id;      ///< short name, e.g. "nreverse30"
    std::string title;   ///< the paper's row label, e.g. "nreverse (30)"
    std::string source;  ///< KL0 program text
    std::string query;   ///< goal text
    int maxSolutions = 1;
    /** Table 1 reference values (0 when the program is not in it). */
    double paperPsiMs = 0.0;
    double paperDecMs = 0.0;
};

/** @name Program families (one function per source file) */
/// @{
std::vector<BenchProgram> contestPrograms();     ///< rows (1)-(3), (7)-(10)
std::vector<BenchProgram> lispPrograms();        ///< rows (4)-(6)
std::vector<BenchProgram> bupPrograms();         ///< rows (11)-(13)
std::vector<BenchProgram> harmonizerPrograms();  ///< rows (14)-(16)
std::vector<BenchProgram> lcpPrograms();         ///< rows (17)-(19)
std::vector<BenchProgram> windowPrograms();      ///< window-1..3
std::vector<BenchProgram> puzzlePrograms();      ///< 8 puzzle
std::vector<BenchProgram> stressPrograms();      ///< beyond Table 1
std::vector<BenchProgram> adversarialPrograms(); ///< known worst cases
/// @}

/** All workloads, Table 1 order first, then window / 8 puzzle. */
const std::vector<BenchProgram> &allPrograms();

/** Look up by id; @return nullptr if unknown. */
const BenchProgram *findProgramById(const std::string &id);

/**
 * Look up by id; fatal() if unknown, with the full list of
 * registered ids in the message so a mistyped workload name on a
 * bench / example command line is immediately actionable.
 */
const BenchProgram &programById(const std::string &id);

/** Every registered workload id, registry order, comma-separated. */
std::string programIdList();

/**
 * Resolve command-line workload positionals: every id via
 * programById() (so a typo fails with the actionable id list), or
 * the full registry when @p ids is empty.
 */
std::vector<BenchProgram>
resolveProgramsOrAll(const std::vector<std::string> &ids);

/**
 * Number of distinct program *sources* in the registry (several
 * workload ids share one source, e.g. the window-1..3 variants).
 * This is the cluster-wide compile count a perfectly shard-affine
 * router achieves: each source compiled on exactly one backend.
 */
std::size_t distinctSourceCount();

/** The KL0 library predicates (append, member, length, ...). */
const char *librarySource();

/** The Table 1 rows, in paper order. */
std::vector<BenchProgram> table1Programs();

} // namespace programs
} // namespace psi

#endif // PSI_PROGRAMS_REGISTRY_HPP
