/**
 * @file
 * psifast differential suite: the fast engine (the shared firmware on
 * flat storage) must be byte-identical to the fidelity interpreter in
 * everything a client can observe - solution bindings (including
 * generated _G variable names, which encode allocation order),
 * printed output, inference counts and termination status - while
 * reporting zero for the hardware accounting it skips.
 *
 * Covered paths:
 *  - direct FastEngine::load/solve vs runOnPsi, full registry
 *  - one warm engine loading the whole registry forward and back,
 *    and the warm-engine EnginePool path (mode = Fast), where an
 *    engine and its segment storage are reused across jobs
 *  - per-mode metrics counters and mode echo in JobOutcome
 *
 * The registry includes the stress workloads the dispatch rewrite is
 * most likely to break: trail40 (deep trail + unwind), deeprec
 * (frame stack growth) and permall6 (exhaustive backtracking).
 */

#include <gtest/gtest.h>

#include <array>
#include <fstream>
#include <future>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "psi.hpp"

namespace {

using namespace psi;
using service::EnginePool;
using service::JobOutcome;
using service::QueryJob;

/** Fields the fast engine must reproduce exactly. */
void
expectByteIdentical(const interp::RunResult &fast,
                    const interp::RunResult &fid)
{
    EXPECT_EQ(fast.status, fid.status);
    EXPECT_EQ(fast.output, fid.output);
    EXPECT_EQ(fast.inferences, fid.inferences);
    ASSERT_EQ(fast.solutions.size(), fid.solutions.size());
    for (std::size_t k = 0; k < fid.solutions.size(); ++k)
        EXPECT_EQ(fast.solutions[k].str(), fid.solutions[k].str());
}

TEST(FastEngine, RegistryCoversTheStressWorkloads)
{
    // The differential below is only as strong as the registry it
    // sweeps: pin the workloads that exercise deep trails, deep
    // recursion and exhaustive backtracking so a future registry
    // prune cannot silently weaken the suite.
    std::set<std::string> ids;
    for (const auto &p : programs::allPrograms())
        ids.insert(p.id);
    EXPECT_TRUE(ids.count("trail40"));
    EXPECT_TRUE(ids.count("deeprec"));
    EXPECT_TRUE(ids.count("permall6"));
    EXPECT_TRUE(ids.count("nreverse30"));
    // The adversarial family (cache-set conflict, multi-solution
    // join, choice-point-dense dispatch) must ride the differential
    // too.
    EXPECT_TRUE(ids.count("setclash"));
    EXPECT_TRUE(ids.count("permjoin"));
    EXPECT_TRUE(ids.count("polyop"));
}

TEST(FastEngine, ByteIdenticalToFidelityOnFullRegistry)
{
    for (const auto &p : programs::allPrograms()) {
        SCOPED_TRACE(p.id);
        PsiRun fid = runOnPsi(p);

        auto image = kl0::CompiledProgram::compile(p.source);
        fast::FastEngine fe;
        fe.load(image);
        interp::RunResult fr = fe.solve(p.query);

        expectByteIdentical(fr, fid.result);
        // The accounting the fast path skips reads as zero, never as
        // a stale or fabricated number.
        EXPECT_EQ(fr.steps, 0u);
        EXPECT_EQ(fr.timeNs, 0u);
    }
}

/**
 * One engine, whole registry, no reload between reruns: clear() must
 * restore a byte-identical starting state (stack tops, trail, vector
 * space, generated-name counter) or answers drift on the second run.
 */
TEST(FastEngine, WarmEngineRerunsAreIdentical)
{
    fast::FastEngine fe;
    for (const auto &p : programs::allPrograms()) {
        SCOPED_TRACE(p.id);
        auto image = kl0::CompiledProgram::compile(p.source);
        fe.load(image);
        interp::RunResult first = fe.solve(p.query);
        interp::RunResult again = fe.solve(p.query);
        expectByteIdentical(again, first);
    }
}

/**
 * One warm engine, every image loaded after every other kind of
 * image: the whole registry forward, then in reverse.  Each load
 * resets only what the previous request wrote, so any word that
 * survives a load would show up here as a diverging answer.  (The
 * pool path below reaches warm engines too, but in a thread-dependent
 * order.)
 */
TEST(FastEngine, WarmLoadsMatchFidelityInEveryOrder)
{
    const auto &programs = programs::allPrograms();
    std::vector<kl0::CompiledProgram> images;
    std::vector<PsiRun> fid;
    for (const auto &p : programs) {
        images.push_back(kl0::CompiledProgram::compile(p.source));
        fid.push_back(runOnPsi(p));
    }

    std::vector<std::size_t> order;
    for (std::size_t i = 0; i < programs.size(); ++i)
        order.push_back(i);
    for (std::size_t i = programs.size(); i-- > 0;)
        order.push_back(i);

    fast::FastEngine fe;
    for (std::size_t i : order) {
        SCOPED_TRACE(programs[i].id);
        fe.load(images[i]);
        expectByteIdentical(fe.solve(programs[i].query),
                            fid[i].result);
    }
}

/**
 * The heap words a program writes at run time - global registers
 * and vectors - must not outlive a load: after global_set, loading
 * another image or reloading the same one leaves the register unset,
 * as on a fresh engine.
 */
TEST(FastEngine, LoadResetsGlobalRegisters)
{
    auto one = kl0::CompiledProgram::compile("p(1).");
    auto two = kl0::CompiledProgram::compile("q(2).");

    fast::FastEngine fresh;
    fresh.load(two);
    EXPECT_FALSE(fresh.solve("global_get(3, _)").succeeded());

    fast::FastEngine fe;
    fe.load(one);
    ASSERT_TRUE(fe.solve("global_set(3, hello)").succeeded());
    ASSERT_EQ(fe.solve("global_get(3, X)").solutions.at(0).str(),
              "X = hello");
    fe.load(two);
    EXPECT_FALSE(fe.solve("global_get(3, _)").succeeded());

    ASSERT_TRUE(
        fe.solve("vector_new(4, V), global_set(3, V)").succeeded());
    fe.load(two);
    EXPECT_FALSE(fe.solve("global_get(3, _)").succeeded());
}

/**
 * The image half of the heap reset: a predicate of the previous image
 * must not stay reachable through a stale directory word.  Both
 * images intern r/0 at the same functor index (p's body names it),
 * but only the first defines it, past the end of the second image's
 * code, so a stale entry would still lead to a live clause.
 */
TEST(FastEngine, LoadForgetsThePreviousImagesPredicates)
{
    auto with_r = kl0::CompiledProgram::compile(
        "p :- q, r.\n"
        "q :- true, true, true, true, true, true, true, true, true.\n"
        "r.\n");
    auto without_r = kl0::CompiledProgram::compile("p :- q, r. q.");

    fast::FastEngine fresh;
    fresh.load(without_r);
    ASSERT_FALSE(fresh.solve("p").succeeded());

    fast::FastEngine fe;
    fe.load(with_r);
    ASSERT_TRUE(fe.solve("p").succeeded());
    fe.load(without_r);
    EXPECT_FALSE(fe.solve("p").succeeded());
}

/**
 * FlatArea semantics the engine relies on: unwritten words read as
 * Undef in and beyond every segment, growth keeps what was written,
 * a high base starts its own segment (no low-segment growth up to
 * it), and clear() returns every segment to all-Undef.
 */
TEST(FlatArea, SegmentsReadUndefUntilWrittenAndClearResets)
{
    const std::uint32_t high = 1u << 24;
    fast::FlatArea area({high});
    const TaggedWord undef{};
    const TaggedWord a{Tag::Int, 7};
    const TaggedWord b{Tag::Atom, 3};

    EXPECT_EQ(area.read(0), undef);
    EXPECT_EQ(area.read(high + 5), undef);

    area.write(16, a);
    area.write(100'000, b); // grows the low segment past 16
    area.write(high + 5, b);
    EXPECT_EQ(area.read(16), a);
    EXPECT_EQ(area.read(100'000), b);
    EXPECT_EQ(area.read(high + 5), b);
    EXPECT_EQ(area.read(17), undef);
    EXPECT_EQ(area.read(high - 1), undef);
    EXPECT_EQ(area.read(high + 6), undef);

    area.clearHigh();
    EXPECT_EQ(area.read(high + 5), undef);
    EXPECT_EQ(area.read(16), a);

    area.clear();
    EXPECT_EQ(area.read(16), undef);
    EXPECT_EQ(area.read(100'000), undef);
}

TEST(FastEngine, PoolPathMatchesFidelityOnFullRegistry)
{
    const auto &programs = programs::allPrograms();

    EnginePool::Config config;
    config.workers = 4;
    config.queueCapacity = programs.size();
    EnginePool pool(config);

    // Two passes through the pool: the first pass hits cold workers,
    // the second reuses warm engines whose segments and interned
    // state survived a prior job.
    for (int pass = 0; pass < 2; ++pass) {
        SCOPED_TRACE("pass " + std::to_string(pass));
        std::vector<std::future<JobOutcome>> futures;
        for (const auto &p : programs) {
            QueryJob job{p, CacheConfig::psi(), interp::RunLimits()};
            job.mode = interp::ExecMode::Fast;
            auto f = pool.submit(std::move(job));
            ASSERT_TRUE(f.has_value());
            futures.push_back(std::move(*f));
        }
        for (std::size_t i = 0; i < programs.size(); ++i) {
            SCOPED_TRACE(programs[i].id);
            JobOutcome out = futures[i].get();
            ASSERT_TRUE(out.error.empty()) << out.error;
            EXPECT_EQ(out.mode, interp::ExecMode::Fast);
            PsiRun fid = runOnPsi(programs[i]);
            expectByteIdentical(out.run.result, fid.result);
        }
    }

    auto snap = pool.metrics();
    EXPECT_EQ(snap.total.jobsFast, 2 * programs.size());
    EXPECT_EQ(snap.total.jobsFidelity, 0u);
}

TEST(FastEngine, PoolCountsModesSeparately)
{
    EnginePool::Config config;
    config.workers = 1;
    EnginePool pool(config);

    const auto &p = programs::programById("nreverse30");
    QueryJob fidelity{p, CacheConfig::psi(), interp::RunLimits()};
    QueryJob fastJob{p, CacheConfig::psi(), interp::RunLimits()};
    fastJob.mode = interp::ExecMode::Fast;

    auto f1 = pool.submit(QueryJob(fidelity));
    auto f2 = pool.submit(QueryJob(fastJob));
    auto f3 = pool.submit(QueryJob(fastJob));
    ASSERT_TRUE(f1 && f2 && f3);
    JobOutcome o1 = f1->get();
    JobOutcome o2 = f2->get();
    JobOutcome o3 = f3->get();
    EXPECT_EQ(o1.mode, interp::ExecMode::Fidelity);
    EXPECT_EQ(o2.mode, interp::ExecMode::Fast);
    EXPECT_GT(o1.run.result.steps, 0u) << "fidelity keeps its stats";
    EXPECT_EQ(o2.run.result.steps, 0u);
    expectByteIdentical(o2.run.result, o1.run.result);
    expectByteIdentical(o3.run.result, o1.run.result);

    auto snap = pool.metrics();
    EXPECT_EQ(snap.total.jobsFidelity, 1u);
    EXPECT_EQ(snap.total.jobsFast, 2u);

    // The split surfaces in both machine renderings.
    const std::string json = metrics::describe(snap).json();
    EXPECT_NE(json.find("\"completed_fidelity\": 1"),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"completed_fast\": 2"), std::string::npos)
        << json;
    const std::string prom = metrics::describe(snap).prometheus();
    EXPECT_NE(prom.find("psi_jobs_mode_total{mode=\"fast\"} 2"),
              std::string::npos)
        << prom;
    EXPECT_NE(prom.find("psi_jobs_mode_total{mode=\"fidelity\"} 1"),
              std::string::npos)
        << prom;
}

// ----- psiindex: first-argument indexing differentials + counters ----

/** Comma-separated counters; '/' separates the rows of a table. */
template <std::size_t N>
std::string
joinCounts(const std::array<std::uint64_t, N> &row)
{
    std::string s;
    for (std::size_t i = 0; i < N; ++i) {
        if (i > 0)
            s += ',';
        s += std::to_string(row[i]);
    }
    return s;
}

template <std::size_t N, std::size_t M>
std::string
joinCounts(const std::array<std::array<std::uint64_t, M>, N> &table)
{
    std::string s;
    for (std::size_t i = 0; i < N; ++i) {
        if (i > 0)
            s += '/';
        s += joinCounts(table[i]);
    }
    return s;
}

/**
 * One line of tests/golden/fidelity_counters.txt: the fidelity run's
 * status, inference count, model time and every sequencer and cache
 * counter, then the fast engine's index counters on the same image.
 */
std::string
counterLine(const std::string &id, const std::string &setting,
            const PsiRun &fid, const fast::FastEngine &fe)
{
    const interp::RunResult &r = fid.result;
    const CacheStats &c = fid.cache;
    std::ostringstream os;
    os << id << ' ' << setting
       << " status=" << interp::runStatusName(r.status)
       << " inferences=" << r.inferences << " steps=" << r.steps
       << " time_ns=" << r.timeNs << " stall_ns=" << fid.stallNs
       << " module=" << joinCounts(fid.seq.moduleSteps)
       << " branch=" << joinCounts(fid.seq.branchOps)
       << " wf=" << joinCounts(fid.seq.wfModes)
       << " cache_steps=" << joinCounts(fid.seq.cacheSteps)
       << " accesses=" << joinCounts(c.accesses)
       << " hits=" << joinCounts(c.hits)
       << " read_ins=" << c.readIns << " write_backs=" << c.writeBacks
       << " stack_allocs=" << c.stackAllocs
       << " through_writes=" << c.throughWrites
       << " index_hits=" << fe.indexHits()
       << " index_fallbacks=" << fe.indexFallbacks()
       << " clause_tries=" << fe.clauseTries();
    return os.str();
}

/** The golden lines keyed by "<id> <setting>"; '#' lines are notes. */
std::map<std::string, std::string>
readGoldenCounters()
{
    std::ifstream in(PSI_GOLDEN_DIR "/fidelity_counters.txt");
    std::map<std::string, std::string> lines;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream words(line);
        std::string id;
        std::string setting;
        words >> id >> setting;
        lines[id + ' ' + setting] = line;
    }
    return lines;
}

/**
 * The index is a pure filter: with indexing and builtin
 * specialization compiled OUT, both engines must still agree with
 * each other byte-for-byte - and with the indexed fidelity run, so
 * flipping CompileOptions can never change what a client observes.
 * (The indexed fast-vs-fidelity leg is ByteIdenticalToFidelity-
 * OnFullRegistry above; this closes the square.)
 *
 * Both fidelity runs are also pinned, counter for counter, to
 * tests/golden/fidelity_counters.txt: the model statistics are the
 * paper's results, so no engine change may move one unnoticed.
 */
TEST(FastEngine, ByteIdenticalToFidelityWithIndexingOff)
{
    const auto golden = readGoldenCounters();
    EXPECT_EQ(golden.size(), 2 * programs::allPrograms().size())
        << "tests/golden/fidelity_counters.txt needs one line per "
           "registry workload and setting";
    auto expectGolden = [&](const std::string &actual) {
        const std::string key = actual.substr(
            0, actual.find(' ', actual.find(' ') + 1));
        auto it = golden.find(key);
        if (it == golden.end() || it->second != actual) {
            ADD_FAILURE() << "fidelity counters moved; actual line:\n"
                          << actual;
        }
    };

    for (const auto &p : programs::allPrograms()) {
        SCOPED_TRACE(p.id);
        auto image = kl0::CompiledProgram::compile(
            p.source, kl0::CompileOptions::psiAsMeasured());

        interp::Engine eng;
        eng.load(image);
        PsiRun plain;
        plain.result = eng.solve(p.query);
        plain.seq = eng.seq().stats();
        plain.cache = eng.mem().cache().stats();
        plain.stallNs = eng.mem().stallNs();
        const interp::RunResult &fid = plain.result;

        fast::FastEngine fe;
        fe.load(image);
        interp::RunResult fr = fe.solve(p.query);

        expectByteIdentical(fr, fid);
        PsiRun indexed = runOnPsi(p); // default options: indexing ON
        expectByteIdentical(fid, indexed.result);

        // An unindexed image never touches the index counters.
        EXPECT_EQ(fe.indexHits(), 0u);
        EXPECT_EQ(fe.indexFallbacks(), 0u);
        EXPECT_EQ(eng.indexHits(), 0u);
        EXPECT_EQ(eng.indexFallbacks(), 0u);
        expectGolden(counterLine(p.id, "plain", plain, fe));

        fe.load(kl0::CompiledProgram::compile(p.source));
        expectByteIdentical(fe.solve(p.query), indexed.result);
        expectGolden(counterLine(p.id, "indexed", indexed, fe));
    }
}

/**
 * Both engines run one firmware core, so what a query prints on
 * stderr is identical too: warning text and the order in which the
 * warnings fire (an arithmetic expression reports its operands
 * before an unknown operator).
 */
TEST(FastEngine, WarningsMatchFidelity)
{
    const std::string src =
        "p(X) :- X is foo(Y).\n"
        "a :- process_call(2, b).\n"
        "b.\n";
    const char *queries[] = {
        "p(X)",                     // void operand of an unknown op
        "Z = Z, X is bar(Z, 2)",    // unbound operand, unknown op
        "X is foo(1)",              // unknown op, bound operand
        "undefined_pred(1)",
        "vector_new(-1, V)",
        "process_call(1, a)",       // nested process_call
    };
    auto image = kl0::CompiledProgram::compile(src);
    for (const char *q : queries) {
        SCOPED_TRACE(q);
        interp::Engine eng;
        eng.load(image);
        testing::internal::CaptureStderr();
        interp::RunResult fid = eng.solve(q);
        const std::string fidErr = testing::internal::GetCapturedStderr();

        fast::FastEngine fe;
        fe.load(image);
        testing::internal::CaptureStderr();
        interp::RunResult fr = fe.solve(q);
        const std::string fastErr =
            testing::internal::GetCapturedStderr();

        EXPECT_FALSE(fidErr.empty());
        EXPECT_EQ(fastErr, fidErr);
        expectByteIdentical(fr, fid);
    }
}

/**
 * A bound first argument dispatches through the index (hit), an
 * unbound one takes the linear fallback - on both engines, with
 * identical counts, since both walk the same compiled index.
 */
TEST(FastEngine, IndexCountersSplitHitsFromFallbacks)
{
    const std::string src = "f(1,a). f(2,b). f(3,c).";
    auto image = kl0::CompiledProgram::compile(src);

    fast::FastEngine fe;
    fe.load(image);
    interp::Engine eng;
    eng.load(image);

    fe.solve("f(2,X)");
    eng.solve("f(2,X)");
    EXPECT_GT(fe.indexHits(), 0u);
    EXPECT_EQ(fe.indexFallbacks(), 0u);
    EXPECT_EQ(eng.indexHits(), fe.indexHits());
    EXPECT_EQ(eng.indexFallbacks(), 0u);

    // Counters are per-run: the unbound query starts from zero.
    fe.solve("f(X,Y)");
    eng.solve("f(X,Y)");
    EXPECT_EQ(fe.indexHits(), 0u);
    EXPECT_GT(fe.indexFallbacks(), 0u);
    EXPECT_EQ(eng.indexHits(), 0u);
    EXPECT_EQ(eng.indexFallbacks(), fe.indexFallbacks());
}

/**
 * The regression the tentpole exists for: on polyop (26-clause
 * dispatch predicate, the worst case for linear clause trial) the
 * indexed image must visit strictly fewer clause candidates than the
 * linear one, on both engines, with byte-identical answers.
 */
TEST(FastEngine, PolyopIndexedTriesStrictlyFewerClauses)
{
    const auto &p = programs::programById("polyop");
    auto indexed = kl0::CompiledProgram::compile(p.source);
    auto linear = kl0::CompiledProgram::compile(
        p.source, kl0::CompileOptions::psiAsMeasured());

    fast::FastEngine fe;
    fe.load(linear);
    interp::RunResult linearRun = fe.solve(p.query);
    std::uint64_t linearTries = fe.clauseTries();
    fe.load(indexed);
    interp::RunResult indexedRun = fe.solve(p.query);
    std::uint64_t indexedTries = fe.clauseTries();
    expectByteIdentical(indexedRun, linearRun);
    EXPECT_LT(indexedTries, linearTries);
    EXPECT_GT(fe.indexHits(), 0u);

    interp::Engine eng;
    eng.load(linear);
    eng.solve(p.query);
    std::uint64_t fidLinearTries = eng.clauseTries();
    eng.load(indexed);
    eng.solve(p.query);
    EXPECT_LT(eng.clauseTries(), fidLinearTries);
    EXPECT_GT(eng.indexHits(), 0u);
    // Same image, same walk: the engines agree on the counters.
    EXPECT_EQ(eng.clauseTries(), indexedTries);
    EXPECT_EQ(eng.indexHits(), fe.indexHits());
}

/**
 * The per-job counters flow JobOutcome -> WorkerMetrics ->
 * MetricsSnapshot and surface in every rendering the service
 * exposes, for fast and fidelity jobs alike.
 */
TEST(FastEngine, IndexCountersSurfaceInPoolMetrics)
{
    EnginePool::Config config;
    config.workers = 1;
    EnginePool pool(config);

    const auto &p = programs::programById("polyop");
    QueryJob fidelity{p, CacheConfig::psi(), interp::RunLimits()};
    QueryJob fastJob{p, CacheConfig::psi(), interp::RunLimits()};
    fastJob.mode = interp::ExecMode::Fast;

    auto f1 = pool.submit(QueryJob(fidelity));
    auto f2 = pool.submit(QueryJob(fastJob));
    ASSERT_TRUE(f1 && f2);
    JobOutcome o1 = f1->get();
    JobOutcome o2 = f2->get();
    EXPECT_GT(o1.indexHits, 0u);
    EXPECT_GT(o2.indexHits, 0u);
    EXPECT_EQ(o1.indexHits, o2.indexHits);

    auto snap = pool.metrics();
    EXPECT_EQ(snap.total.indexHits, o1.indexHits + o2.indexHits);
    const std::string json = metrics::describe(snap).json();
    EXPECT_NE(json.find("\"index_hits\": "), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"index_fallbacks\": "), std::string::npos)
        << json;
    const std::string prom = metrics::describe(snap).prometheus();
    EXPECT_NE(prom.find("psi_index_hits_total"), std::string::npos)
        << prom;
    EXPECT_NE(prom.find("psi_index_fallbacks_total"),
              std::string::npos)
        << prom;
}

} // namespace
