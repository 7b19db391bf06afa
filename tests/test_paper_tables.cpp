/**
 * @file
 * The paper's tables, pinned: the rendered text against
 * tests/golden/paper_tables.txt, and every counter the tables are
 * computed from against psibench's pins of the same machine
 * (psibench/expected_paper_tables.txt), so the two pins cannot drift
 * apart.  A codegen or model change that moves a paper number fails
 * here until the golden file and EXPERIMENTS.md are regenerated on
 * purpose:
 *
 *     ./build/bench/paper_tables > tests/golden/paper_tables.txt
 */

#include <gtest/gtest.h>

#include <cctype>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "tools/paper_tables.hpp"

#ifndef PSI_GOLDEN_DIR
#error "PSI_GOLDEN_DIR must name tests/golden"
#endif
#ifndef PSIBENCH_EXPECTED_FILE
#error "PSIBENCH_EXPECTED_FILE must name psibench's expected values"
#endif

using namespace psi;

namespace {

/** One measurement per process, shared by both tests. */
const tools::PaperTables &
measured()
{
    static const tools::PaperTables tables = tools::measurePaperTables();
    return tables;
}

/** A label as psibench spells it in a counter name: each run of
 *  characters other than letters and digits becomes one '_'. */
std::string
keyPart(const std::string &label)
{
    std::string out;
    for (char c : label) {
        if (std::isalnum(static_cast<unsigned char>(c)))
            out += c;
        else if (!out.empty() && out.back() != '_')
            out += '_';
    }
    while (!out.empty() && out.back() == '_')
        out.pop_back();
    return out;
}

/** The families compared: everything the tables are computed from
 *  (COLLECT's trace sizes and the answer hashes are psibench's own
 *  checks). */
bool
compared(const std::string &key)
{
    auto starts = [&](const char *prefix) {
        return key.rfind(prefix, 0) == 0;
    };
    auto has = [&](const char *part) {
        return key.find(part) != std::string::npos;
    };
    return (starts("t1.") && (has(".psi.") || has(".dec."))) ||
           starts("t25.") || starts("t67.") || starts("f1.");
}

/** The tables' counters under psibench's names. */
std::map<std::string, std::uint64_t>
counters(const tools::PaperTables &t)
{
    std::map<std::string, std::uint64_t> c;
    for (const tools::Table1Run &r : t.table1) {
        const std::string k = "t1." + r.program.id;
        c[k + ".psi.time_ns"] = r.psi.timeNs;
        c[k + ".psi.steps"] = r.psi.steps;
        c[k + ".dec.time_ns"] = r.dec.timeNs;
        c[k + ".dec.steps"] = r.dec.steps;
    }
    for (const auto &[id, run] : t.hardware) {
        const std::string k = "t25." + id;
        c[k + ".steps"] = run.result.steps;
        c[k + ".time_ns"] = run.result.timeNs;
        for (int m = 0; m < micro::kNumModules; ++m)
            c[k + ".module." +
              keyPart(micro::moduleName(static_cast<micro::Module>(m)))] =
                run.seq.moduleSteps[m];
        for (int cmd = 0; cmd < kNumCacheCmds; ++cmd)
            c[k + ".cache_cmd." +
              keyPart(cacheCmdName(static_cast<CacheCmd>(cmd)))] =
                run.seq.cacheSteps[cmd];
        for (int a = 0; a < kNumAreas; ++a) {
            auto area = static_cast<Area>(a);
            c[k + ".access." + keyPart(areaName(area))] =
                run.cache.areaAccesses(area);
            c[k + ".hit." + keyPart(areaName(area))] =
                run.cache.areaHits(area);
        }
    }
    for (const auto &[id, map] : t.maps) {
        const std::string k = "t67." + id;
        c[k + ".steps"] = map.totalSteps();
        for (int f = 0; f < micro::kNumWfFields; ++f) {
            for (int m = 1; m < micro::kNumWfModes; ++m) {
                auto mode = static_cast<micro::WfMode>(m);
                c[k + ".wf" + std::to_string(f) + "." +
                  keyPart(micro::wfModeName(mode))] =
                    map.wfMode(static_cast<micro::WfField>(f), mode);
            }
        }
        for (int b = 0; b < micro::kNumBranchOps; ++b) {
            auto op = static_cast<micro::BranchOp>(b);
            c[k + ".branch." + keyPart(micro::branchOpName(op))] =
                map.branchOps(op);
        }
    }
    auto replay = [&](const std::string &k, const tools::PmmsResult &r) {
        c[k + ".time_ns"] = r.timeNs;
        c[k + ".hits"] = r.stats.totalHits();
    };
    for (const auto &[id, study] : t.pmms) {
        c["f1." + id + ".nocache_ns"] = study.noCacheNs;
        replay("f1." + id + ".two_sets", study.twoSets);
        replay("f1." + id + ".one_set", study.oneSet);
    }
    for (const tools::PmmsResult &r : t.capacitySweep)
        replay("f1.window3.cap" + std::to_string(r.config.capacityWords),
               r);
    replay("f1.window3.store_through", t.storeThrough);
    return c;
}

TEST(PaperTables, OutputMatchesGolden)
{
    std::ifstream in(PSI_GOLDEN_DIR "/paper_tables.txt");
    ASSERT_TRUE(in) << "cannot read " PSI_GOLDEN_DIR "/paper_tables.txt";
    std::ostringstream golden;
    golden << in.rdbuf();

    std::ostringstream out;
    tools::renderPaperTables(measured(), out);
    EXPECT_EQ(out.str(), golden.str());
}

TEST(PaperTables, CountersMatchPsibenchPins)
{
    std::ifstream in(PSIBENCH_EXPECTED_FILE);
    ASSERT_TRUE(in) << "cannot read " PSIBENCH_EXPECTED_FILE;
    std::map<std::string, std::uint64_t> pinned;
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream words(line);
        std::string key;
        std::uint64_t value = 0;
        if (line.empty() || line[0] == '#' || !(words >> key >> value))
            continue;
        if (compared(key))
            pinned[key] = value;
    }

    const std::map<std::string, std::uint64_t> computed =
        counters(measured());
    for (const auto &[key, value] : pinned) {
        auto it = computed.find(key);
        if (it == computed.end()) {
            ADD_FAILURE() << key << " is pinned but not computed";
        } else {
            EXPECT_EQ(it->second, value) << key;
        }
    }
    for (const auto &kv : computed) {
        EXPECT_EQ(pinned.count(kv.first), 1u)
            << kv.first << " is computed but not pinned";
    }
    EXPECT_GT(pinned.size(), 300u);
}

} // namespace
