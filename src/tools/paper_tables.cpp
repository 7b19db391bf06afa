#include "tools/paper_tables.hpp"

#include "base/stats.hpp"
#include "base/table.hpp"
#include "kl0/compiled_program.hpp"
#include "tools/collect.hpp"

namespace psi {
namespace tools {

namespace {

using micro::BranchOp;
using micro::WfField;
using micro::WfMode;

/** Table 2 rows.  Paper: control, unify, trail, get_arg, cut, built. */
struct ModuleRow
{
    const char *label;
    const char *id;
    double paper[micro::kNumModules];
};

const ModuleRow kModuleRows[] = {
    {"window", "window2", {31.1, 17.1, 2.0, 13.6, 10.0, 26.2}},
    {"8 puzzle", "puzzle8", {27.5, 11.0, 7.5, 22.7, 0.0, 31.3}},
    {"BUP", "bup3", {22.3, 43.0, 4.7, 5.2, 5.6, 19.2}},
    {"harmonizer", "harmonizer3", {25.5, 46.4, 5.4, 7.3, 4.0, 11.0}},
};

/** Tables 3-5 rows: the seven hardware-evaluation programs. */
struct HardwareRow
{
    const char *label;
    const char *id;
    /** Table 3: read, write-stack, write, write-total, total. */
    double commands[5];
    /** Table 4: heap, global, local, control, trail. */
    double areas[kNumAreas];
    /** Table 5: the same areas, then the total. */
    double hits[kNumAreas + 1];
};

const HardwareRow kHardwareRows[] = {
    {"window-1", "window1", {15.2, 3.5, 1.2, 4.7, 19.9},
     {49.6, 4.6, 16.5, 26.7, 2.6}, {95.3, 92.8, 98.9, 99.4, 99.6, 96.4}},
    {"window-2", "window2", {15.2, 3.0, 1.1, 4.1, 19.7},
     {56.6, 4.4, 12.7, 26.3, 0.1}, {87.2, 90.0, 98.5, 99.3, 95.2, 91.9}},
    {"window-3", "window3", {17.6, 3.9, 1.4, 5.3, 22.8},
     {52.7, 6.2, 12.1, 28.2, 0.8}, {84.5, 92.8, 97.4, 98.6, 98.7, 90.7}},
    {"8 puzzle", "puzzle8", {9.9, 3.2, 2.8, 6.1, 16.0},
     {31.3, 14.3, 33.9, 14.1, 6.4}, {99.2, 99.4, 99.6, 99.2, 97.7, 99.3}},
    {"BUP", "bup3", {15.6, 3.5, 2.2, 5.7, 21.3},
     {39.0, 29.9, 17.3, 12.0, 1.8}, {98.2, 96.8, 99.0, 93.2, 99.7, 98.0}},
    {"harmonizer", "harmonizer3", {15.3, 4.6, 2.2, 6.8, 22.1},
     {35.2, 17.7, 30.3, 12.8, 3.8}, {98.1, 98.4, 99.4, 98.2, 97.9, 98.4}},
    {"LCP", "lcp3", {17.0, 3.9, 2.2, 6.1, 23.1},
     {44.7, 22.3, 14.1, 17.4, 1.4}, {95.7, 93.8, 99.2, 99.1, 98.6, 96.2}},
};

/** Table 6 rows, MAP over BUP.  Paper: src1 %ofWF, src1 %ofSteps,
 *  src2 %ofWF, src2 %ofSteps, dest %ofWF, dest %ofSteps (-1 = not
 *  applicable). */
struct WfModeRow
{
    WfMode mode;
    double paper[6];
};

const WfModeRow kWfModeRows[] = {
    {WfMode::Direct00_0F, {12.2, 6.9, 100.0, 29.1, 33.0, 12.1}},
    {WfMode::Direct10_3F, {58.5, 33.0, -1, -1, 63.6, 23.3}},
    {WfMode::Constant, {23.0, 13.0, -1, -1, -1, -1}},
    {WfMode::BaseRelPdrCdr, {1.3, 0.8, -1, -1, 0.3, 0.1}},
    {WfMode::IndWfar1, {4.6, 2.6, -1, -1, 2.8, 1.0}},
    {WfMode::IndWfar2, {0.07, 0.04, -1, -1, 0.3, 0.1}},
    {WfMode::IndWfcbr, {0.3, 0.2, -1, -1, 0.0, 0.0}},
};

/** The traces MAP reads: Table 7's columns, in order (Table 6 reads
 *  BUP's). */
const char *const kBranchIds[] = {"bup3", "window2", "puzzle8"};

/** Table 7 rows.  Paper: BUP, window, 8 puzzle. */
struct BranchRow
{
    BranchOp op;
    double paper[3];
};

const BranchRow kBranchRows[] = {
    {BranchOp::T1Nop, {7.2, 6.7, 4.8}},
    {BranchOp::T1CondTrue, {16.0, 16.5, 12.1}},
    {BranchOp::T1CondFalse, {19.2, 17.0, 20.3}},
    {BranchOp::T1TagCmp, {2.7, 5.2, 3.1}},
    {BranchOp::T1CaseTag, {10.9, 8.6, 9.1}},
    {BranchOp::T1CaseIrn, {2.8, 4.6, 4.9}},
    {BranchOp::T1CaseIrOpcode, {0.5, 1.4, 1.5}},
    {BranchOp::T1Goto, {3.7, 1.4, 2.7}},
    {BranchOp::T1Gosub, {4.0, 5.7, 6.5}},
    {BranchOp::T1Return, {3.8, 5.4, 6.5}},
    {BranchOp::T1LoadJr, {0.8, 0.4, 0.7}},
    {BranchOp::T1GotoJr, {1.4, 0.6, 0.7}},
    {BranchOp::T2Nop, {9.6, 7.8, 7.7}},
    {BranchOp::T2Goto, {10.9, 11.7, 15.2}},
    {BranchOp::T3Nop, {6.5, 7.0, 4.2}},
    {BranchOp::T3GotoCjr, {0.0, 0.04, 0.05}},
};

/** Fig. 1 traces; the first is the WINDOW trace the paper swept. */
const char *const kPmmsIds[] = {"window3", "puzzle8", "bup3"};
const std::vector<std::uint32_t> kCapacities = {
    8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192};

std::string
f1(double v)
{
    return stats::fixed(v, 1);
}

std::string
f2(double v)
{
    return stats::fixed(v, 2);
}

/** "measured | paper"; a negative @p paper has no paper value. */
std::string
cell(double measured, double paper)
{
    return paper < 0 ? f1(measured) : f1(measured) + " | " + f1(paper);
}

void
banner(std::ostream &out, const std::string &title)
{
    out << title << "\n" << std::string(title.size(), '~') << "\n";
}

void
renderTable1(const PaperTables &t, std::ostream &out)
{
    Table table("Table 1: execution time of benchmark programs "
                "(measured vs paper)");
    table.setHeader({"program", "PSI(ms)", "DEC(ms)", "DEC/PSI",
                     "paper PSI", "paper DEC", "paper ratio"});
    for (const Table1Run &r : t.table1) {
        const programs::BenchProgram &p = r.program;
        double psiMs = static_cast<double>(r.psi.timeNs) / 1e6;
        double decMs = static_cast<double>(r.dec.timeNs) / 1e6;
        table.addRow({p.title, f2(psiMs), f2(decMs),
                      f2(psiMs > 0 ? decMs / psiMs : 0.0),
                      f2(p.paperPsiMs), f2(p.paperDecMs),
                      f2(p.paperPsiMs > 0 ? p.paperDecMs / p.paperPsiMs
                                          : 0.0)});
    }
    table.print(out);
}

void
renderTables2to5(const PaperTables &t, std::ostream &out)
{
    Table t2("Table 2: execution step ratios of firmware modules (%) "
             "(measured | paper)");
    t2.setHeader({"program", "control", "unify", "trail", "get_arg",
                  "cut", "built"});
    for (const ModuleRow &row : kModuleRows) {
        const micro::SeqStats &s = t.hardware.at(row.id).seq;
        std::vector<std::string> cells{row.label};
        for (int m = 0; m < micro::kNumModules; ++m)
            cells.push_back(cell(stats::pct(s.moduleSteps[m],
                                            s.totalSteps()),
                                 row.paper[m]));
        t2.addRow(cells);
    }

    Table t3("Table 3: execution rate of cache commands per "
             "microprogram step (%) (measured | paper)");
    t3.setHeader({"program", "read", "write-stack", "write",
                  "write-total", "total"});
    Table t4("Table 4: access frequency of each memory area (%) "
             "(measured | paper)");
    t4.setHeader({"program", "heap", "global", "local", "control",
                  "trail"});
    Table t5("Table 5: cache hit ratios of each memory area (%) "
             "(measured | paper)");
    t5.setHeader({"program", "heap", "global", "local", "control",
                  "trail", "total"});
    for (const HardwareRow &row : kHardwareRows) {
        const PsiRun &run = t.hardware.at(row.id);
        auto pct = [&](CacheCmd c) {
            return stats::pct(run.seq.cacheSteps[static_cast<int>(c)],
                              run.seq.totalSteps());
        };
        double rd = pct(CacheCmd::Read);
        double ws = pct(CacheCmd::WriteStack);
        double wr = pct(CacheCmd::Write);
        t3.addRow({row.label, cell(rd, row.commands[0]),
                   cell(ws, row.commands[1]), cell(wr, row.commands[2]),
                   cell(ws + wr, row.commands[3]),
                   cell(rd + ws + wr, row.commands[4])});

        std::vector<std::string> areas{row.label}, hits{row.label};
        for (int a = 0; a < kNumAreas; ++a) {
            auto area = static_cast<Area>(a);
            areas.push_back(cell(stats::pct(run.cache.areaAccesses(area),
                                            run.cache.totalAccesses()),
                                 row.areas[a]));
            hits.push_back(cell(run.cache.areaHitPct(area), row.hits[a]));
        }
        hits.push_back(cell(run.cache.totalHitPct(), row.hits[kNumAreas]));
        t4.addRow(areas);
        t5.addRow(hits);
    }
    for (const Table *table : {&t2, &t3, &t4, &t5}) {
        if (table != &t2)
            out << "\n";
        table->print(out);
    }
}

void
renderFigure1(const PaperTables &t, std::ostream &out)
{
    banner(out, "Figure 1: performance improvement ratio vs cache "
                "capacity (WINDOW trace)");
    Table sweep("improvement = (Tnc/Tc - 1) * 100   [paper: saturates "
                "near 512 words]");
    sweep.setHeader({"capacity(words)", "hit %", "improvement %"});
    for (const PmmsResult &r : t.capacitySweep)
        sweep.addRow({std::to_string(r.config.capacityWords),
                      f1(r.hitPct), f1(r.improvementPct)});
    sweep.print(out);

    out << "\n";
    banner(out, "Direct-mapped 4K x 1 set vs 8K x 2 sets "
                "(paper: one set only ~3% lower)");
    Table sets("improvement ratios (%)");
    sets.setHeader({"program", "2 sets 8K", "1 set 4K", "delta"});
    for (const char *id : kPmmsIds) {
        const PmmsStudy &s = t.pmms.at(id);
        sets.addRow({id, f1(s.twoSets.improvementPct),
                     f1(s.oneSet.improvementPct),
                     f1(s.twoSets.improvementPct -
                        s.oneSet.improvementPct)});
    }
    sets.print(out);

    out << "\n";
    banner(out, "Store-in vs store-through (paper: store-in ~8% higher "
                "improvement ratio)");
    const PmmsResult &in = t.pmms.at(kPmmsIds[0]).twoSets;
    const PmmsResult &through = t.storeThrough;
    Table policy("improvement ratios (%) on the WINDOW trace");
    policy.setHeader({"policy", "hit %", "improvement %"});
    policy.addRow({"store-in", f1(in.hitPct), f1(in.improvementPct)});
    policy.addRow({"store-through", f1(through.hitPct),
                   f1(through.improvementPct)});
    policy.addRow({"difference", "",
                   f1(in.improvementPct - through.improvementPct)});
    policy.print(out);
}

void
renderTable6(const PaperTables &t, std::ostream &out)
{
    const Map &map = t.maps.at("bup3");
    const std::uint64_t total = map.totalSteps();
    const std::uint64_t wf1 = map.wfFieldAccesses(WfField::Source1);
    const std::uint64_t wf2 = map.wfFieldAccesses(WfField::Source2);
    const std::uint64_t wfd = map.wfFieldAccesses(WfField::Dest);

    Table table("Table 6: dynamic frequency of work-file access modes "
                "(%), BUP (measured | paper; %ofWF / %ofSteps)");
    table.setHeader({"access mode", "src1 %WF", "src1 %steps",
                     "src2 %WF", "src2 %steps", "dest %WF",
                     "dest %steps"});
    for (const WfModeRow &m : kWfModeRows) {
        auto n1 = map.wfMode(WfField::Source1, m.mode);
        auto n2 = map.wfMode(WfField::Source2, m.mode);
        auto nd = map.wfMode(WfField::Dest, m.mode);
        table.addRow({micro::wfModeName(m.mode),
                      cell(stats::pct(n1, wf1), m.paper[0]),
                      cell(stats::pct(n1, total), m.paper[1]),
                      cell(stats::pct(n2, wf2), m.paper[2]),
                      cell(stats::pct(n2, total), m.paper[3]),
                      cell(stats::pct(nd, wfd), m.paper[4]),
                      cell(stats::pct(nd, total), m.paper[5])});
    }
    table.addSeparator();
    table.addRow({"total", "100", cell(stats::pct(wf1, total), 56.4),
                  "100", cell(stats::pct(wf2, total), 29.1), "100",
                  cell(stats::pct(wfd, total), 36.6)});
    table.print(out);
}

void
renderTable7(const PaperTables &t, std::ostream &out)
{
    Table table("Table 7: dynamic frequency of branch operations (%) "
                "(measured | paper)");
    table.setHeader({"operation", "BUP", "window", "8 puzzle"});
    double nops[3] = {}, paperNops[3] = {};
    for (const BranchRow &row : kBranchRows) {
        std::vector<std::string> cells{micro::branchOpName(row.op)};
        for (int i = 0; i < 3; ++i) {
            double v = t.maps.at(kBranchIds[i]).branchPct(row.op);
            cells.push_back(cell(v, row.paper[i]));
            if (micro::isBranchNop(row.op)) {
                nops[i] += v;
                paperNops[i] += row.paper[i];
            }
        }
        table.addRow(cells);
    }
    table.addSeparator();
    std::vector<std::string> nonNop{"non-nop total"};
    for (int i = 0; i < 3; ++i)
        nonNop.push_back(cell(100.0 - nops[i], 100.0 - paperNops[i]));
    table.addRow(nonNop);
    table.print(out);
}

void
renderLips(const PaperTables &t, std::ostream &out)
{
    // Both rows divide by the WAM baseline's inference count: the
    // fidelity core also counts the $query wrapper call, one more.
    // The paper gives nreverse (30)'s time on both machines, not its
    // LIPS; the paper-implied figure divides that count by the
    // paper's Table 1 time.
    Table table("LIPS: nreverse (30) under the model clock, KLIPS over "
                "the baseline's inference count (measured | "
                "paper-implied; the PSI's target was 30)");
    table.setHeader({"machine", "inferences", "model ms", "KLIPS"});
    for (const Table1Run &r : t.table1) {
        if (r.program.id != "nreverse30")
            continue;
        const double inferences = static_cast<double>(r.dec.inferences);
        auto row = [&](const char *machine, const interp::RunResult &x,
                       double paperMs) {
            double ms = static_cast<double>(x.timeNs) / 1e6;
            table.addRow({machine, std::to_string(r.dec.inferences),
                          f2(ms),
                          cell(inferences / ms, inferences / paperMs)});
        };
        row("PSI", r.psi, r.program.paperPsiMs);
        row("DEC", r.dec, r.program.paperDecMs);
    }
    table.print(out);
}

} // namespace

PaperTables
measurePaperTables()
{
    constexpr auto kMeasured = kl0::CompileOptions::psiAsMeasured();
    std::map<std::string, kl0::CompiledProgram> images;
    interp::Engine engine;
    // @p p's image, compiled on first use.
    auto image = [&](const programs::BenchProgram &p)
        -> const kl0::CompiledProgram & {
        auto it = images.find(p.id);
        if (it == images.end())
            it = images.emplace(p.id, kl0::CompiledProgram::compile(
                                          p.source, kMeasured)).first;
        return it->second;
    };
    // COLLECT one run of @p id into @p trace; returns its steps.
    auto collect = [&](const std::string &id, Collector &trace) {
        const programs::BenchProgram &p = programs::programById(id);
        engine.load(image(p), CacheConfig::psi());
        return collectRun(engine, trace, p.query).steps;
    };

    PaperTables t;
    for (const programs::BenchProgram &p : programs::table1Programs())
        t.table1.push_back(
            {p, runCompiledOnPsi(engine, image(p), p.query).result,
             runOnBaseline(p)});
    for (const HardwareRow &row : kHardwareRows) {
        const programs::BenchProgram &p = programs::programById(row.id);
        t.hardware.emplace(row.id,
                           runCompiledOnPsi(engine, image(p), p.query));
    }
    for (const char *id : kBranchIds) {
        Collector trace;
        collect(id, trace);
        t.maps.emplace(id, Map(trace.steps()));
    }
    for (const char *id : kPmmsIds) {
        Collector trace;
        std::uint64_t steps = collect(id, trace);
        Pmms pmms(trace.memAccesses(), steps);
        CacheConfig oneSet = CacheConfig::psi();
        oneSet.capacityWords = 4096;
        oneSet.ways = 1;
        t.pmms[id] = {pmms.noCacheTimeNs(), pmms.replay(CacheConfig::psi()),
                      pmms.replay(oneSet)};
        if (id == kPmmsIds[0]) { // the WINDOW trace
            t.capacitySweep = pmms.sweepCapacity(kCapacities);
            CacheConfig through = CacheConfig::psi();
            through.storeIn = false;
            t.storeThrough = pmms.replay(through);
        }
    }
    return t;
}

void
renderPaperTables(const PaperTables &tables, std::ostream &out)
{
    renderTable1(tables, out);
    out << "\n";
    renderTables2to5(tables, out);
    out << "\n";
    renderFigure1(tables, out);
    out << "\n";
    renderTable6(tables, out);
    out << "\n";
    renderTable7(tables, out);
    out << "\n";
    renderLips(tables, out);
}

} // namespace tools
} // namespace psi
