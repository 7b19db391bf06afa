/**
 * @file
 * Microarchitecture report for one workload: the full set of
 * dynamic-frequency measurements the paper's evaluation is built
 * from (firmware module mix, cache commands, area traffic, hit
 * ratios, work-file modes, branch operations), generated with the
 * COLLECT + MAP tool chain on the PSI as measured (no first-argument
 * index, no specialized builtins).
 *
 *     $ ./examples/microarch_report [workload-id]
 */

#include <iostream>

#include "psi.hpp"

int
main(int argc, char **argv)
{
    using namespace psi;
    using micro::Module;
    using micro::WfField;

    std::string id = argc > 1 ? argv[1] : "bup3";
    const auto *found = programs::findProgramById(id);
    if (!found) {
        std::cerr << "unknown workload '" << id
                  << "'; available: " << programs::programIdList()
                  << "\n";
        return 1;
    }
    const auto &prog = *found;

    interp::Engine machine;
    machine.setCompileOptions(kl0::CompileOptions::psiAsMeasured());
    machine.consult(prog.source);
    tools::Collector collector;
    auto r = tools::collectRun(machine, collector, prog.query);
    tools::Map map(collector.steps());
    const CacheStats &cs = machine.mem().cache().stats();

    std::cout << "workload: " << prog.title << " (" << id << ")\n"
              << "query:    " << prog.query << "\n"
              << "result:   "
              << (r.succeeded() ? "succeeded" : "failed") << ", "
              << r.inferences << " inferences, " << r.steps
              << " steps, " << r.timeNs / 1e6 << " ms model time, "
              << stats::fixed(r.lips() / 1000.0, 1) << " KLIPS\n\n";

    Table t1("firmware module step ratios (Table 2 view)");
    t1.setHeader({"module", "steps", "%"});
    for (int m = 0; m < micro::kNumModules; ++m) {
        auto mod = static_cast<Module>(m);
        t1.addRow({micro::moduleName(mod),
                   std::to_string(map.moduleSteps(mod)),
                   stats::fixed(map.modulePct(mod), 1)});
    }
    t1.print(std::cout);

    Table t2("cache commands per step (Table 3 view)");
    t2.setHeader({"command", "steps", "% of steps"});
    for (int c = 0; c < kNumCacheCmds; ++c) {
        auto cmd = static_cast<CacheCmd>(c);
        t2.addRow({cacheCmdName(cmd),
                   std::to_string(map.cacheSteps(cmd)),
                   stats::fixed(map.cachePct(cmd), 1)});
    }
    t2.print(std::cout);

    Table t3("memory areas (Tables 4 and 5 view)");
    t3.setHeader({"area", "accesses", "% of accesses", "hit %"});
    for (int a = 0; a < kNumAreas; ++a) {
        Area area = static_cast<Area>(a);
        t3.addRow({areaName(area),
                   std::to_string(cs.areaAccesses(area)),
                   stats::fixed(stats::pct(cs.areaAccesses(area),
                                           cs.totalAccesses()), 1),
                   stats::fixed(cs.areaHitPct(area), 1)});
    }
    t3.addSeparator();
    t3.addRow({"total", std::to_string(cs.totalAccesses()), "100.0",
               stats::fixed(cs.totalHitPct(), 1)});
    t3.print(std::cout);

    Table t4("work-file access modes (Table 6 view, % of steps)");
    t4.setHeader({"mode", "src1", "src2", "dest"});
    for (int m = 1; m < micro::kNumWfModes; ++m) {
        auto mode = static_cast<micro::WfMode>(m);
        std::uint64_t total = map.totalSteps();
        t4.addRow({micro::wfModeName(mode),
                   stats::fixed(stats::pct(
                       map.wfMode(WfField::Source1, mode), total), 1),
                   stats::fixed(stats::pct(
                       map.wfMode(WfField::Source2, mode), total), 1),
                   stats::fixed(stats::pct(
                       map.wfMode(WfField::Dest, mode), total), 1)});
    }
    t4.print(std::cout);

    Table t5("branch operations (Table 7 view)");
    t5.setHeader({"operation", "%"});
    double non_nop = 0;
    for (int b = 0; b < micro::kNumBranchOps; ++b) {
        auto op = static_cast<micro::BranchOp>(b);
        double p = map.branchPct(op);
        if (!micro::isBranchNop(op))
            non_nop += p;
        t5.addRow({micro::branchOpName(op), stats::fixed(p, 1)});
    }
    t5.addSeparator();
    t5.addRow({"branch (non-nop) total", stats::fixed(non_nop, 1)});
    t5.print(std::cout);
    return 0;
}
