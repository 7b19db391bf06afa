/**
 * @file
 * Race the two execution models on any workload or ad-hoc program:
 * the microcoded PSI interpreter against the DEC-10-style compiled
 * baseline, reporting the Table 1 style comparison plus the
 * per-engine event profiles.  The PSI runs the code the paper
 * measured (no first-argument index, no specialized builtins).
 *
 *     $ ./examples/engine_race                 # the full registry
 *     $ ./examples/engine_race queens1 bup3    # selected workloads
 */

#include <iostream>

#include "psi.hpp"

namespace {

void
race(const psi::programs::BenchProgram &p)
{
    using namespace psi;

    interp::Engine engine;
    PsiRun psi_run = runCompiledOnPsi(
        engine,
        kl0::CompiledProgram::compile(p.source,
                                      kl0::CompileOptions::psiAsMeasured()),
        p.query);
    interp::RunResult dec = runOnBaseline(p);

    double psi_ms = static_cast<double>(psi_run.result.timeNs) / 1e6;
    double dec_ms = static_cast<double>(dec.timeNs) / 1e6;

    std::cout << p.title << "\n"
              << "  PSI : " << stats::fixed(psi_ms, 2) << " ms, "
              << psi_run.result.inferences << " inferences, "
              << psi_run.result.steps << " microsteps, hit "
              << stats::fixed(psi_run.cache.totalHitPct(), 1) << "%\n"
              << "  DEC : " << stats::fixed(dec_ms, 2) << " ms, "
              << dec.steps << " abstract instructions\n"
              << "  DEC/PSI = " << stats::fixed(dec_ms / psi_ms, 2);
    if (p.paperPsiMs > 0) {
        std::cout << "   (paper: "
                  << stats::fixed(p.paperDecMs / p.paperPsiMs, 2)
                  << ")";
    }
    std::cout << "\n\n";
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace psi;

    if (argc > 1) {
        for (int i = 1; i < argc; ++i) {
            const auto *p = programs::findProgramById(argv[i]);
            if (!p) {
                std::cerr << "unknown workload '" << argv[i]
                          << "'; available: "
                          << programs::programIdList() << "\n";
                return 1;
            }
            race(*p);
        }
        return 0;
    }
    for (const auto &p : programs::table1Programs())
        race(p);
    return 0;
}
