/**
 * @file
 * A projection of the PSI-II redesign the paper's conclusion
 * announces ("we have been redesigning the PSI hardware and
 * improving the instruction code suitable for the compile time
 * optimization"), assembled from this evaluation's own findings:
 *
 *  - clause selection through the compiled first-argument index
 *    (the compile-time-optimization direction; Table 1
 *    discussion);
 *  - a reduced cache: Figure 1 shows the improvement saturating
 *    near 512 words and one set costing only ~3%, so the projection
 *    uses a 4K-word direct-mapped store-in cache.
 *
 * The bench compares the measured PSI (unindexed code) against this
 * projection (the same program compiled with the index) on the
 * Table 1 programs.  (The real PSI-II, reported at SLP'87,
 * gained ~3-5x mostly from a compiled instruction set, beyond this
 * model's scope.)
 */

#include "bench_util.hpp"

using namespace psi;
using namespace psi::bench;

namespace {

double
runMs(const programs::BenchProgram &p, const CacheConfig &cache,
      bool indexed)
{
    kl0::CompileOptions code = kl0::CompileOptions::psiAsMeasured();
    code.firstArgIndexing = indexed;
    interp::Engine eng(cache);
    eng.setCompileOptions(code);
    eng.consult(p.source);
    auto r = eng.solve(p.query);
    if (!r.succeeded())
        fatal("workload ", p.id, " failed");
    return static_cast<double>(r.timeNs) / 1e6;
}

} // namespace

int
main()
{
    CacheConfig psi2_cache = CacheConfig::psi();
    psi2_cache.capacityWords = 4096;
    psi2_cache.ways = 1;

    Table t("PSI (measured) vs PSI-II projection "
            "(4K direct-mapped cache + first-arg dispatch)");
    t.setHeader({"program", "PSI ms", "PSI-II ms", "speedup"});

    for (const auto &p : programs::table1Programs()) {
        if (p.id == "lisp_tarai")
            continue;  // minutes-long; shape shown by the others
        double t_psi = runMs(p, CacheConfig::psi(), false);
        double t_psi2 = runMs(p, psi2_cache, true);
        t.addRow({p.title, f2(t_psi), f2(t_psi2),
                  f2(t_psi / t_psi2)});
    }
    t.print(std::cout);
    std::cout << "\nThe projection keeps pace with a quarter of the "
                 "cache and gains a few\npercent from dispatch - the "
                 "evaluation's conclusion that the 8K cache is\n"
                 "reducible and the instruction code is the real "
                 "lever.\n";
    return 0;
}
