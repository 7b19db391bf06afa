#include "tables.hpp"

#include <cctype>
#include <fstream>
#include <iostream>
#include <memory>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "base/logging.hpp"
#include "catalog.hpp"
#include "interp/engine.hpp"
#include "kl0/compiled_program.hpp"
#include "oracle.hpp"
#include "programs/registry.hpp"
#include "spans.hpp"
#include "system.hpp"
#include "tools/collect.hpp"
#include "tools/map.hpp"
#include "tools/pmms.hpp"

#ifndef PSIBENCH_EXPECTED_FILE
#error "PSIBENCH_EXPECTED_FILE must name the expected-values file"
#endif

namespace psibench {

using namespace psi;

namespace {

constexpr int kColdSetups = 15;
constexpr int kMinPasses = 3;

/** The PSI as measured: the paper's machine had neither. */
kl0::CompileOptions
psiAsMeasured()
{
    kl0::CompileOptions o;
    o.firstArgIndexing = false;
    o.specializeBuiltins = false;
    return o;
}

/** Tables 2-5 programs, as bench/table{2,3,4,5}_*.cpp run them. */
const std::vector<std::string> kCacheIds = {
    "window1", "window2", "window3", "puzzle8",
    "bup3",    "harmonizer3", "lcp3"};
/** Tables 6-7 run COLLECT + MAP over these. */
const std::vector<std::string> kMapIds = {"bup3", "window2", "puzzle8"};
/** Fig. 1's direct-mapping comparison; window3 also gets the sweep. */
const std::vector<std::string> kPmmsIds = {"window3", "puzzle8", "bup3"};
const std::vector<std::uint32_t> kCapacities = {
    8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192};

using Images =
    std::map<std::string, std::unique_ptr<kl0::CompiledProgram>>;

std::vector<std::string>
allIds()
{
    std::vector<std::string> ids;
    std::set<std::string> seen;
    auto add = [&](const std::string &id) {
        if (seen.insert(id).second)
            ids.push_back(id);
    };
    for (const auto &p : programs::table1Programs())
        add(p.id);
    for (const auto &id : kCacheIds)
        add(id);
    for (const auto &id : kPmmsIds)
        add(id);
    return ids;
}

/** One cold set-up: compile every program behind the tables. */
Images
compileAll(const std::vector<std::string> &ids, SpanLog *spans)
{
    Images images;
    for (const std::string &id : ids) {
        std::unique_ptr<SpanScope> span;
        if (spans)
            span = std::make_unique<SpanScope>(*spans, "kl0.compile");
        images[id] = std::make_unique<kl0::CompiledProgram>(
            kl0::CompiledProgram::compile(
                programs::programById(id).source, psiAsMeasured()));
    }
    return images;
}

/** A table label as a counter-name part: runs of anything but
 *  letters and digits become one '_'. */
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

std::uint64_t
answerHash(const interp::RunResult &r)
{
    std::uint64_t h = fnv1a(r.output);
    for (const std::string &s : renderSolutions(r))
        h = fnv1a(s + "\n", h);
    return h;
}

/** Everything one regeneration pass measured. */
struct Pass
{
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<double> opUs;      ///< wall time of each operation
    std::vector<double> opCpuUs;   ///< process CPU of each operation
    /** Reference kernel before each operation, and once after the
     *  last: operation i sits between refUs[i] and refUs[i + 1]. */
    std::vector<double> refUs;
    Tally tally;                   ///< one count per operation
    double wallS = 0;              ///< sum of the operations' times
    double simSteps = 0;           ///< fidelity microsteps simulated
    double simCpuNs = 0;           ///< CPU spent simulating them
    double modelNs = 0, stallNs = 0, hits = 0, accesses = 0;
    double baselineSteps = 0;
};

/**
 * Runs one pass, timing each operation and checking its counters
 * against @p expected (unless null: then only recording them).
 */
class PassRunner
{
  public:
    PassRunner(const Images &images, const Counters *expected,
               SpanLog *spans)
        : _images(images), _expected(expected), _spans(spans)
    {}

    Pass
    run()
    {
        _pass = Pass{};
        table1();
        cacheTables();
        mapAndPmms();
        _pass.refUs.push_back(refKernelUs());
        return std::move(_pass);
    }

  private:
    /** Times one operation under a request span named @p name;
     *  @p body returns the op's counters, which decide whether the
     *  operation counts as correct. */
    template <typename F>
    void
    op(const char *name, F &&body)
    {
        std::vector<std::pair<std::string, std::uint64_t>> got;
        _pass.refUs.push_back(refKernelUs());
        const std::uint64_t t0 = nowNs(), cpu0 = processCpuNs();
        {
            ++_request;
            std::unique_ptr<SpanScope> span;
            if (_spans)
                span = std::make_unique<SpanScope>(*_spans, name,
                                                   SpanLog::kNoParent,
                                                   _request);
            _parent = span ? span->id() : SpanLog::kNoParent;
            got = body();
        }
        const double us = static_cast<double>(nowNs() - t0) / 1e3;
        _pass.opUs.push_back(us);
        _pass.wallS += us / 1e6;
        _pass.opCpuUs.push_back(
            static_cast<double>(processCpuNs() - cpu0) / 1e3);
        bool ok = true;
        for (auto &kv : got) {
            if (_expected) {
                auto it = _expected->find(kv.first);
                ok = ok && it != _expected->end() &&
                     it->second == kv.second;
            }
            _pass.counters.push_back(std::move(kv));
        }
        _pass.tally.count(ok);
    }

    /** A span for one layer call inside the current operation. */
    std::unique_ptr<SpanScope>
    child(const char *layer)
    {
        if (!_spans)
            return nullptr;
        return std::make_unique<SpanScope>(*_spans, layer, _parent,
                                           _request);
    }

    /** Fidelity load + solve of a precompiled image: the steps of
     *  runCompiledOnPsi, each under its own span. */
    PsiRun
    simulate(const std::string &id)
    {
        const programs::BenchProgram &p = programs::programById(id);
        {
            auto span = child("interp.load");
            _engine.load(*_images.at(id), CacheConfig::psi());
        }
        PsiRun run;
        {
            auto span = child("interp.solve");
            std::uint64_t cpu = threadCpuNs();
            run.result = _engine.solve(p.query);
            _pass.simCpuNs += static_cast<double>(threadCpuNs() - cpu);
        }
        run.seq = _engine.seq().stats();
        run.cache = _engine.mem().cache().stats();
        run.stallNs = _engine.mem().stallNs();
        account(run.result, run.cache, run.stallNs);
        return run;
    }

    void
    account(const interp::RunResult &r, const CacheStats &cache,
            std::uint64_t stallNs)
    {
        _pass.simSteps += static_cast<double>(r.steps);
        _pass.modelNs += static_cast<double>(r.timeNs);
        _pass.stallNs += static_cast<double>(stallNs);
        _pass.hits += static_cast<double>(cache.totalHits());
        _pass.accesses += static_cast<double>(cache.totalAccesses());
    }

    void
    table1()
    {
        for (const auto &p : programs::table1Programs()) {
            const std::string k = "t1." + p.id;
            op("op.table1_psi", [&] {
                PsiRun run = simulate(p.id);
                return std::vector<std::pair<std::string, std::uint64_t>>{
                    {k + ".psi.time_ns", run.result.timeNs},
                    {k + ".psi.steps", run.result.steps},
                    {k + ".answer", answerHash(run.result)}};
            });
            op("op.table1_dec", [&] {
                interp::RunResult dec;
                {
                    auto span = child("baseline.run");
                    dec = runOnBaseline(p);
                }
                _pass.baselineSteps += static_cast<double>(dec.steps);
                // The WAM baseline is the independent oracle: both
                // machines must give the same answer.
                return std::vector<std::pair<std::string, std::uint64_t>>{
                    {k + ".dec.time_ns", dec.timeNs},
                    {k + ".dec.steps", dec.steps},
                    {k + ".answer", answerHash(dec)}};
            });
        }
    }

    void
    cacheTables()
    {
        for (const std::string &id : kCacheIds) {
            op("op.tables2_5", [&] {
                PsiRun run = simulate(id);
                const std::string k = "t25." + id;
                std::vector<std::pair<std::string, std::uint64_t>> c;
                c.push_back({k + ".steps", run.result.steps});
                c.push_back({k + ".time_ns", run.result.timeNs});
                for (int m = 0; m < micro::kNumModules; ++m)
                    c.push_back({k + ".module." +
                                     keyPart(micro::moduleName(
                                         static_cast<micro::Module>(m))),
                                 run.seq.moduleSteps[m]});
                for (int cmd = 0; cmd < kNumCacheCmds; ++cmd)
                    c.push_back({k + ".cache_cmd." +
                                     keyPart(cacheCmdName(
                                         static_cast<CacheCmd>(cmd))),
                                 run.seq.cacheSteps[cmd]});
                for (int a = 0; a < kNumAreas; ++a) {
                    auto area = static_cast<Area>(a);
                    std::string n = keyPart(areaName(area));
                    c.push_back({k + ".access." + n,
                                 run.cache.areaAccesses(area)});
                    c.push_back({k + ".hit." + n,
                                 run.cache.areaHits(area)});
                }
                return c;
            });
        }
    }

    void
    mapAndPmms()
    {
        // COLLECT every traced program once; MAP reads the step
        // streams (Tables 6-7), PMMS the memory streams (Fig. 1).
        std::map<std::string, tools::Collector> traces;
        std::map<std::string, std::uint64_t> steps;
        std::vector<std::string> collectIds = kMapIds;
        collectIds.push_back("window3");
        for (const std::string &id : collectIds) {
            op("op.collect", [&] {
                const programs::BenchProgram &p =
                    programs::programById(id);
                {
                    auto span = child("interp.load");
                    _engine.load(*_images.at(id), CacheConfig::psi());
                }
                interp::RunResult r;
                {
                    auto span = child("tools.collect");
                    std::uint64_t cpu = threadCpuNs();
                    r = tools::collectRun(_engine, traces[id], p.query);
                    _pass.simCpuNs +=
                        static_cast<double>(threadCpuNs() - cpu);
                }
                account(r, _engine.mem().cache().stats(),
                        _engine.mem().stallNs());
                steps[id] = r.steps;
                return std::vector<std::pair<std::string, std::uint64_t>>{
                    {"collect." + id + ".steps", r.steps},
                    {"collect." + id + ".mem_events",
                     traces[id].memAccesses().size()}};
            });
        }
        for (const std::string &id : kMapIds) {
            op("op.map", [&] {
                auto span = child("tools.map");
                tools::Map map(traces[id].steps());
                const std::string k = "t67." + id;
                std::vector<std::pair<std::string, std::uint64_t>> c;
                c.push_back({k + ".steps", map.totalSteps()});
                for (int f = 0; f < micro::kNumWfFields; ++f) {
                    for (int m = 1; m < micro::kNumWfModes; ++m)
                        c.push_back(
                            {k + ".wf" + std::to_string(f) + "." +
                                 keyPart(micro::wfModeName(
                                     static_cast<micro::WfMode>(m))),
                             map.wfMode(static_cast<micro::WfField>(f),
                                        static_cast<micro::WfMode>(m))});
                }
                for (int b = 0; b < micro::kNumBranchOps; ++b) {
                    auto opb = static_cast<micro::BranchOp>(b);
                    c.push_back({k + ".branch." +
                                     keyPart(micro::branchOpName(opb)),
                                 map.branchOps(opb)});
                }
                return c;
            });
        }
        auto replay = [&](const std::string &id, const std::string &name,
                          const CacheConfig &cfg) {
            op("op.pmms", [&] {
                auto span = child("tools.pmms");
                tools::Pmms pmms(traces[id].memAccesses(), steps[id]);
                tools::PmmsResult r = pmms.replay(cfg);
                const std::string k = "f1." + id + "." + name;
                return std::vector<std::pair<std::string, std::uint64_t>>{
                    {k + ".time_ns", r.timeNs},
                    {k + ".hits", r.stats.totalHits()},
                    {"f1." + id + ".nocache_ns", pmms.noCacheTimeNs()}};
            });
        };
        for (std::uint32_t cap : kCapacities) {
            CacheConfig c = CacheConfig::psi();
            c.capacityWords = cap;
            replay("window3", "cap" + std::to_string(cap), c);
        }
        CacheConfig through = CacheConfig::psi();
        through.storeIn = false;
        replay("window3", "store_through", through);
        for (const std::string &id : kPmmsIds) {
            CacheConfig one = CacheConfig::psi();
            one.capacityWords = 4096;
            one.ways = 1;
            replay(id, "two_sets", CacheConfig::psi());
            replay(id, "one_set", one);
        }
    }

    const Images &_images;
    const Counters *_expected;
    SpanLog *_spans;
    interp::Engine _engine;
    Pass _pass;
    std::uint64_t _request = 0;
    std::int32_t _parent = SpanLog::kNoParent;
};

bool
writeCounters(const std::string &path, const Pass &pass)
{
    std::ofstream out(path);
    out << "# psibench paper_tables expected values: every counter one\n"
           "# regeneration pass of Tables 1-7 and Fig. 1 produces, under\n"
           "# the PSI-as-measured compile options.  Regenerate with\n"
           "#   .bench_build/psibench/psibench --workload paper_tables "
           "--write-expected psibench/expected_paper_tables.txt\n"
           "# and check the result against EXPERIMENTS.md "
           "(psibench/tests/check_expected.py).\n";
    std::set<std::string> written;
    for (const auto &[k, v] : pass.counters) {
        if (written.insert(k).second)
            out << k << ' ' << v << '\n';
    }
    return static_cast<bool>(out);
}

double
spanMeanUs(const std::map<std::string, double> &self, const char *name)
{
    auto it = self.find(name);
    return it == self.end() ? 0 : it->second;
}

} // namespace

bool
readCounters(const std::string &path, Counters &out, std::string &error)
{
    std::ifstream in(path);
    if (!in) {
        error = "cannot read " + path;
        return false;
    }
    std::string line;
    for (int n = 1; std::getline(in, line); ++n) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string key;
        std::uint64_t value = 0;
        std::string rest;
        if (!(ls >> key >> value) || (ls >> rest)) {
            error = path + ":" + std::to_string(n) + ": bad line";
            return false;
        }
        out[key] = value;
    }
    return true;
}

void
runTables(const Args &args, Report &report)
{
    StealMeter steal;
    const std::vector<std::string> ids = allIds();

    if (!args.writeExpected.empty()) {
        Images images = compileAll(ids, nullptr);
        Pass pass = PassRunner(images, nullptr, nullptr).run();
        if (!writeCounters(args.writeExpected, pass))
            fatal("psibench: cannot write ", args.writeExpected);
        std::cout << "psibench: wrote " << pass.counters.size()
                  << " counters to " << args.writeExpected << "\n";
        report.attempted = pass.tally.attempted;
        return;
    }

    Counters expected;
    std::string error;
    if (!readCounters(PSIBENCH_EXPECTED_FILE, expected, error))
        fatal("psibench: ", error);
    std::cout << "psibench: workload paper_tables seed " << args.seed
              << " (the instrument's inputs are fixed; the seed is "
                 "unused)\n";

    SpanLog spans;
    SpanLog *traced = args.trace ? &spans : nullptr;
    std::vector<double> setupS;
    Images images;
    double before = refKernelUs();
    for (int k = 0; k < (args.trace ? 1 : kColdSetups); ++k) {
        images.clear();
        const std::uint64_t t0 = nowNs();
        images = compileAll(ids, traced);
        const double s = static_cast<double>(nowNs() - t0) / 1e9;
        const double after = refKernelUs();
        setupS.push_back(s * 2 * kRefNominalUs / (before + after));
        before = after;
    }

    PassRunner runner(images, &expected, traced);
    std::vector<Pass> passes;
    const std::uint64_t start = nowNs();
    for (;;) {
        passes.push_back(runner.run());
        double elapsedS = static_cast<double>(nowNs() - start) / 1e9;
        double passS = passes.back().wallS;
        if (static_cast<int>(passes.size()) >= kMinPasses &&
            elapsedS + passS > args.seconds)
            break;
    }

    // End-to-end times are scaled to reference speed operation by
    // operation, from the samples either side of it; the per-layer
    // ones (traced runs) stay raw.
    Tally tally;
    std::vector<double> latency, goodput, cpuPerOp, wall, msteps, ref;
    for (const Pass &p : passes) {
        tally.attempted += p.tally.attempted;
        tally.failed += p.tally.failed;
        double scaledS = 0, scaledCpuUs = 0;
        for (std::size_t i = 0; i < p.opUs.size(); ++i) {
            double f = 2 * kRefNominalUs / (p.refUs[i] + p.refUs[i + 1]);
            latency.push_back(p.opUs[i] * f);
            scaledS += p.opUs[i] * f / 1e6;
            scaledCpuUs += p.opCpuUs[i] * f;
        }
        double correct =
            static_cast<double>(p.tally.attempted - p.tally.failed);
        goodput.push_back(correct / scaledS);
        cpuPerOp.push_back(scaledCpuUs /
                           static_cast<double>(p.opUs.size()));
        wall.push_back(p.wallS);
        msteps.push_back(p.simSteps / p.simCpuNs * 1e3);
        ref.insert(ref.end(), p.refUs.begin(), p.refUs.end());
    }
    std::map<std::string, double> v;
    if (!args.trace) {
        v["setup_s"] = median(setupS);
        v["latency_p50_us"] = percentile(latency, 0.50);
        v["latency_p95_us"] = percentile(latency, 0.95);
        v["goodput_rps"] = median(goodput);
        v["cpu_us_per_req"] = median(cpuPerOp);
        v["peak_rss_mb"] = peakRssMb();
        fill(report, endToEndMetrics(), v, true);
        std::cerr << "psibench: paper_tables " << passes.size()
                  << " passes, raw pass " << median(wall)
                  << " s, reference kernel " << median(ref)
                  << " us (scaled to " << kRefNominalUs << "), steal "
                  << steal.sharePct() << " %\n";
    } else {
        const Pass &p = passes.front();
        std::map<std::string, double> self = spans.meanSelfUs();
        double words = 0;
        for (const auto &[id, img] : images)
            words += img->codeWords();
        v["tables_s"] = median(wall);
        v["sim_msteps_per_s"] = median(msteps);
        v["kl0.compile_us"] = spanMeanUs(self, "kl0.compile");
        v["kl0.code_words"] = words;
        v["interp.load_us"] = spanMeanUs(self, "interp.load");
        v["interp.solve_us"] = spanMeanUs(self, "interp.solve");
        v["interp.host_ns_per_step"] = p.simCpuNs / p.simSteps;
        v["micro.steps"] = p.simSteps;
        v["interp.model_ns"] = p.modelNs;
        v["mem.stall_ns"] = p.stallNs;
        v["mem.cache_hit_pct"] = 100.0 * p.hits / p.accesses;
        v["baseline.run_ms"] = spanMeanUs(self, "baseline.run") / 1e3;
        v["baseline.steps"] = p.baselineSteps;
        v["tools.collect_ms"] = spanMeanUs(self, "tools.collect") / 1e3;
        v["tools.map_ms"] = spanMeanUs(self, "tools.map") / 1e3;
        v["tools.pmms_ms"] = spanMeanUs(self, "tools.pmms") / 1e3;
        v["host.steal_pct"] = steal.sharePct();
        v["host.ref_kernel_us"] = median(ref);
        const std::string path = traceDir() + "/paper_tables-seed" +
                                 std::to_string(args.seed) +
                                 "-spans.jsonl";
        if (!spans.write(path))
            warn("psibench: could not write ", path);
        std::cout << "psibench: spans written to " << path << "\n";
        fill(report, perLayerMetrics(), v, false);
    }
    report.attempted = tally.attempted;
    report.failed = tally.failed;
}

} // namespace psibench
