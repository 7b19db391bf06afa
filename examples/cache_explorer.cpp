/**
 * @file
 * Cache design-space exploration, the PMMS workflow of the paper's
 * §4.2: record one memory trace, then replay it through alternative
 * cache designs without re-running the program.  The trace is of the
 * PSI as measured (no first-argument index, no specialized builtins).
 *
 *     $ ./examples/cache_explorer [workload-id]
 *
 * Default workload: window3 (the paper swept the WINDOW trace).
 */

#include <iostream>

#include "psi.hpp"

int
main(int argc, char **argv)
{
    using namespace psi;

    std::string id = argc > 1 ? argv[1] : "window3";
    const auto *found = programs::findProgramById(id);
    if (!found) {
        std::cerr << "unknown workload '" << id
                  << "'; available: " << programs::programIdList()
                  << "\n";
        return 1;
    }
    const auto &prog = *found;

    // Record the trace once (COLLECT).
    interp::Engine machine;
    machine.setCompileOptions(kl0::CompileOptions::psiAsMeasured());
    machine.consult(prog.source);
    tools::Collector collector;
    auto r = tools::collectRun(machine, collector, prog.query);
    if (!r.succeeded()) {
        std::cerr << "workload failed\n";
        return 1;
    }
    std::cout << "workload " << id << ": " << r.inferences
              << " inferences, " << r.steps << " steps, "
              << collector.memAccesses().size()
              << " memory accesses recorded ("
              << collector.traceBytes() / 1024 << " KiB trace)\n";

    tools::Pmms pmms(collector.memAccesses(), r.steps);

    // 1. Capacity sweep (Figure 1).
    Table t1("capacity sweep (2 sets, store-in, write-stack)");
    t1.setHeader({"capacity", "hit %", "stall ms", "improvement %"});
    for (std::uint32_t cap :
         {8u, 32u, 128u, 512u, 2048u, 8192u, 32768u}) {
        CacheConfig cfg = CacheConfig::psi();
        cfg.capacityWords = cap;
        auto pr = pmms.replay(cfg);
        t1.addRow({std::to_string(cap), stats::fixed(pr.hitPct, 2),
                   stats::fixed(pr.stallNs / 1e6, 3),
                   stats::fixed(pr.improvementPct, 1)});
    }
    t1.print(std::cout);

    // 2. Associativity at fixed capacity.
    Table t2("associativity at 8K words");
    t2.setHeader({"ways", "hit %", "improvement %"});
    for (std::uint32_t ways : {1u, 2u, 4u, 8u}) {
        CacheConfig cfg = CacheConfig::psi();
        cfg.ways = ways;
        auto pr = pmms.replay(cfg);
        t2.addRow({std::to_string(ways), stats::fixed(pr.hitPct, 2),
                   stats::fixed(pr.improvementPct, 1)});
    }
    t2.print(std::cout);

    // 3. Write policy.
    Table t3("write policy at 8K words, 2 sets");
    t3.setHeader({"policy", "write-backs", "through-writes",
                  "improvement %"});
    for (bool store_in : {true, false}) {
        CacheConfig cfg = CacheConfig::psi();
        cfg.storeIn = store_in;
        auto pr = pmms.replay(cfg);
        t3.addRow({store_in ? "store-in" : "store-through",
                   std::to_string(pr.stats.writeBacks),
                   std::to_string(pr.stats.throughWrites),
                   stats::fixed(pr.improvementPct, 1)});
    }
    t3.print(std::cout);
    return 0;
}
