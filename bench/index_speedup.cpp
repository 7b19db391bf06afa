/**
 * @file
 * psiindex speedup: solve time on the same source compiled twice -
 * once linear (first-argument indexing and builtin specialization
 * off) and once indexed (the CompileOptions default) - plus the
 * clause-trial counts that explain the difference.
 *
 * Two clocks per workload:
 *
 *  - model ns: the fidelity engine's modeled execution time (the
 *    paper's Table 1 metric).  Deterministic - same binary, same
 *    number, every run - so CI gates the polyop ratio on it.
 *  - wall us: the fast engine's host wall-clock, best of --reps
 *    solves (default 12) on a warm engine.  Honest but noisy;
 *    reported for EXPERIMENTS.md, gated only loosely.
 *
 * Workloads: polyop (26-clause dispatch predicate, the case indexing
 * exists for), setclash (cache-adversarial probe loop), nreverse30
 * (2-clause predicates: the honest "indexing barely matters here"
 * row).  Answers are asserted byte-equal across the two images.
 *
 * --json prints one machine-readable object for the CI gate.
 */

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "bench_util.hpp"

using namespace psi;
using namespace psi::bench;

namespace {

int gReps = 12;

struct Measured
{
    std::uint64_t bestNs = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t modelNs = 0;
    std::uint64_t clauseTries = 0;
    std::uint64_t indexHits = 0;
    std::string answers; ///< concatenated solutions, for the check
};

Measured
measure(fast::FastEngine &fe, const kl0::CompiledProgram &image,
        const programs::BenchProgram &p)
{
    using clock = std::chrono::steady_clock;
    Measured m;
    for (int rep = 0; rep < gReps + 2; ++rep) {
        fe.load(image);
        auto t0 = clock::now();
        interp::RunResult r = fe.solve(p.query);
        auto t1 = clock::now();
        if (!r.succeeded())
            fatal("query failed: ", p.query);
        if (rep < 2)
            continue; // warm-up: first loads touch cold pages
        std::uint64_t ns = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                t1 - t0)
                .count());
        if (ns < m.bestNs) {
            m.bestNs = ns;
            m.clauseTries = fe.clauseTries();
            m.indexHits = fe.indexHits();
        }
        m.answers.clear();
        for (const auto &s : r.solutions)
            m.answers += s.str() + ";";
    }

    // One fidelity run for the modeled execution time: the sequencer
    // clock is deterministic, so a single solve is the number.
    interp::Engine eng;
    eng.load(image);
    interp::RunResult r = eng.solve(p.query);
    if (!r.succeeded())
        fatal("fidelity query failed: ", p.query);
    m.modelNs = r.timeNs;
    return m;
}

} // namespace

int
main(int argc, char **argv)
{
    bool json = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0)
            json = true;
        else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc)
            gReps = std::atoi(argv[++i]);
    }
    if (gReps < 1)
        gReps = 1;

    const char *ids[] = {"polyop", "setclash", "nreverse30"};

    const kl0::CompileOptions plain =
        kl0::CompileOptions::psiAsMeasured();

    Table t("First-argument indexing: model time (fidelity, "
            "deterministic) and wall time (fast, best of " +
            std::to_string(gReps) + ")");
    t.setHeader({"program", "model linear ms", "model indexed ms",
                 "model speedup", "wall linear us", "wall indexed us",
                 "wall speedup", "tries linear", "tries indexed"});

    std::string jout = "{\"workloads\": [";
    bool first = true;

    fast::FastEngine fe;
    for (const char *id : ids) {
        const auto &p = programs::programById(id);
        auto linearImage =
            kl0::CompiledProgram::compile(p.source, plain);
        auto indexedImage = kl0::CompiledProgram::compile(p.source);

        Measured lin = measure(fe, linearImage, p);
        Measured idx = measure(fe, indexedImage, p);
        if (lin.answers != idx.answers)
            fatal("answers drifted between images on ", id);

        double modelRatio = static_cast<double>(lin.modelNs) /
                            static_cast<double>(idx.modelNs);
        double wallRatio = static_cast<double>(lin.bestNs) /
                           static_cast<double>(idx.bestNs);
        t.addRow({p.id, f2(lin.modelNs / 1e6), f2(idx.modelNs / 1e6),
                  f2(modelRatio) + "x", f2(lin.bestNs / 1e3),
                  f2(idx.bestNs / 1e3), f2(wallRatio) + "x",
                  std::to_string(lin.clauseTries),
                  std::to_string(idx.clauseTries)});

        if (!first)
            jout += ", ";
        first = false;
        jout += "{\"id\": \"" + std::string(p.id) +
                "\", \"model_linear_ns\": " +
                std::to_string(lin.modelNs) +
                ", \"model_indexed_ns\": " +
                std::to_string(idx.modelNs) +
                ", \"model_ratio\": " + f2(modelRatio) +
                ", \"wall_linear_ns\": " + std::to_string(lin.bestNs) +
                ", \"wall_indexed_ns\": " + std::to_string(idx.bestNs) +
                ", \"wall_ratio\": " + f2(wallRatio) +
                ", \"clause_tries_linear\": " +
                std::to_string(lin.clauseTries) +
                ", \"clause_tries_indexed\": " +
                std::to_string(idx.clauseTries) +
                ", \"index_hits\": " + std::to_string(idx.indexHits) +
                "}";
    }
    jout += "]}";

    if (json) {
        std::cout << jout << "\n";
        return 0;
    }
    t.print(std::cout);
    std::cout <<
        "\nReadings: polyop (one 26-clause predicate) should gain "
        ">= 1.5x model time from\nhash dispatch (the CI gate); "
        "setclash and nreverse30 have 2-6 clause\npredicates, so "
        "their rows mostly show the index costing nothing when "
        "there\nis little to skip.  Wall time on the fast engine "
        "moves the same way but\nis bounded by the arithmetic and "
        "memory work indexing cannot remove.\n";
    return 0;
}
