/**
 * @file
 * Ablation studies for the design choices the paper's evaluation
 * discusses, run on the PSI model with one firmware feature toggled
 * at a time:
 *
 *  - Write-Stack cache command OFF (paper §2.2g / §4.2: the command
 *    "introduced for stacking data is frequently used");
 *  - WF trail buffer OFF (paper §4.3: its use rate was so low that
 *    "the buffering of trail stack ... may have to be reconsidered");
 *  - WF frame buffers / TRO OFF (paper §2.2: "local stack accesses
 *    are reduced into the work file access");
 *  - first-argument indexing ON (the PSI-II redesign direction of
 *    the conclusion: instruction code "suitable for the compile time
 *    optimization"; the paper notes DEC wins on nreverse because its
 *    compiler "can remove the nondeterminacy applying the close
 *    indexing method").
 *
 * Every column runs the measured PSI's code (no first-argument
 * index, no specialized builtins) except "+indexing", which runs the
 * same program compiled with the first-argument index.
 */

#include "bench_util.hpp"

using namespace psi;
using namespace psi::bench;

namespace {

double
runWith(const programs::BenchProgram &p, const interp::FirmwareOptions &fw,
        bool indexed = false)
{
    kl0::CompileOptions code = kl0::CompileOptions::psiAsMeasured();
    code.firstArgIndexing = indexed;
    interp::Engine eng(CacheConfig::psi(), fw);
    eng.setCompileOptions(code);
    eng.consult(p.source);
    auto r = eng.solve(p.query);
    if (!r.succeeded())
        fatal("workload ", p.id, " failed under ablation");
    return static_cast<double>(r.timeNs) / 1e6;
}

} // namespace

int
main()
{
    const char *ids[] = {"nreverse30", "qsort50", "queens1", "bup2",
                         "harmonizer3", "lcp3", "window1", "puzzle8"};

    Table t("Firmware feature ablations: execution time in ms "
            "(delta vs production PSI, %)");
    t.setHeader({"program", "PSI", "no write-stack", "no trail buf",
                 "no frame bufs", "+indexing"});

    for (const char *id : ids) {
        const auto &p = programs::programById(id);
        interp::FirmwareOptions base;
        double t0 = runWith(p, base);

        auto cell = [&](interp::FirmwareOptions fw, bool indexed) {
            double v = runWith(p, fw, indexed);
            double delta = (v / t0 - 1.0) * 100.0;
            return f2(v) + " (" + (delta >= 0 ? "+" : "") +
                   f1(delta) + "%)";
        };

        interp::FirmwareOptions no_ws;
        no_ws.writeStackCommand = false;
        interp::FirmwareOptions no_tb;
        no_tb.trailBuffer = false;
        interp::FirmwareOptions no_fb;
        no_fb.frameBuffers = false;

        t.addRow({p.id, f2(t0), cell(no_ws, false),
                  cell(no_tb, false), cell(no_fb, false),
                  cell(base, true)});
    }
    t.print(std::cout);

    std::cout <<
        "\nReadings: write-stack and the frame buffers should cost "
        "time when removed\n(the paper judged both effective); the "
        "trail buffer should barely matter\n(the paper questioned "
        "it); first-argument indexing should recover much of\nthe "
        "DEC advantage on deterministic list code (the PSI-II "
        "direction).\n";
    return 0;
}
