/**
 * @file
 * Registry audit: the workload registry is the ground truth every
 * bench, service and replay path resolves against, so its shape is
 * pinned here against the paper instead of being re-derived by eye.
 *
 * Table 1 lists exactly 19 programs in a fixed order: contest rows
 * (1)-(3), the Lisp interpreter rows (4)-(6), contest rows (7)-(10),
 * then the application programs BUP (11)-(13), HARMONIZER (14)-(16)
 * and LCP (17)-(19).  Tables 3-5 evaluate seven programs.  If a
 * registry edit reorders, drops or duplicates a row, these tests
 * fail before any benchmark quietly reports numbers for the wrong
 * program set.
 */

#include <gtest/gtest.h>

#include <set>

#include "programs/registry.hpp"

using namespace psi;

namespace {

TEST(RegistryAudit, Table1HasExactly19RowsInPaperOrder)
{
    const char *kPaperOrder[] = {
        // (1)-(3): contest programs
        "nreverse30", "qsort50", "tree",
        // (4)-(6): Lisp interpreter benchmarks
        "lisp_tarai", "lisp_fib", "lisp_nrev",
        // (7)-(10): contest programs
        "queens1", "queensall", "revfunc", "slowrev6",
        // (11)-(13): BUP
        "bup1", "bup2", "bup3",
        // (14)-(16): HARMONIZER
        "harmonizer1", "harmonizer2", "harmonizer3",
        // (17)-(19): LCP
        "lcp1", "lcp2", "lcp3"};

    auto rows = programs::table1Programs();
    ASSERT_EQ(rows.size(), 19u);
    for (std::size_t i = 0; i < rows.size(); ++i)
        EXPECT_EQ(rows[i].id, kPaperOrder[i]) << "row " << i + 1;
}

TEST(RegistryAudit, Table1RowsCarryPaperReferenceTimes)
{
    for (const auto &p : programs::table1Programs()) {
        EXPECT_GT(p.paperPsiMs, 0.0) << p.id;
        EXPECT_GT(p.paperDecMs, 0.0) << p.id;
    }
}

TEST(RegistryAudit, NonTable1RowsCarryNoPaperTimes)
{
    // paperPsiMs > 0 is the membership predicate table1Programs()
    // selects on, so a stray reference time on an extra workload
    // would silently grow Table 1.
    std::set<std::string> table1;
    for (const auto &p : programs::table1Programs())
        table1.insert(p.id);
    for (const auto &p : programs::allPrograms()) {
        if (table1.count(p.id))
            continue;
        EXPECT_EQ(p.paperPsiMs, 0.0) << p.id;
        EXPECT_EQ(p.paperDecMs, 0.0) << p.id;
    }
}

TEST(RegistryAudit, EveryIdIsUniqueAndResolvable)
{
    std::set<std::string> seen;
    for (const auto &p : programs::allPrograms()) {
        EXPECT_FALSE(p.id.empty());
        EXPECT_TRUE(seen.insert(p.id).second)
            << "duplicate id " << p.id;
        const programs::BenchProgram *found =
            programs::findProgramById(p.id);
        ASSERT_NE(found, nullptr) << p.id;
        EXPECT_EQ(found->id, p.id);
        // programById is the fatal()ing variant every CLI resolves
        // through; it must agree with the lookup.
        EXPECT_EQ(programs::programById(p.id).source, p.source);
    }
    EXPECT_EQ(programs::findProgramById("no_such_workload"),
              nullptr);
}

TEST(RegistryAudit, AdversarialFamilyIsRegistered)
{
    // The replay harness's default mix and the fast-vs-fidelity
    // suites lean on these ids existing; pin them.
    for (const char *id :
         {"trail40", "deeprec", "permall6", "setclash", "permjoin",
          "polyop"}) {
        const programs::BenchProgram *p =
            programs::findProgramById(id);
        ASSERT_NE(p, nullptr) << id;
        EXPECT_EQ(p->paperPsiMs, 0.0) << id;
    }
}

TEST(RegistryAudit, EveryProgramHasSourceAndQuery)
{
    for (const auto &p : programs::allPrograms()) {
        EXPECT_FALSE(p.source.empty()) << p.id;
        EXPECT_FALSE(p.query.empty()) << p.id;
        EXPECT_GE(p.maxSolutions, 1) << p.id;
    }
}

} // namespace
