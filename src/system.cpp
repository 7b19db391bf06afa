#include "system.hpp"

namespace psi {

PsiRun
runOnPsi(const programs::BenchProgram &program,
         const CacheConfig &cache, const interp::RunLimits &limits)
{
    interp::Engine engine(cache);
    engine.consult(program.source);

    PsiRun run;
    run.result = engine.solve(program.query, limits);
    run.seq = engine.seq().stats();
    run.cache = engine.mem().cache().stats();
    run.stallNs = engine.mem().stallNs();
    return run;
}

PsiRun
runCompiledOnPsi(interp::Engine &engine,
                 const kl0::CompiledProgram &image,
                 const std::string &query, const CacheConfig &cache,
                 const interp::RunLimits &limits)
{
    engine.load(image, cache);

    PsiRun run;
    run.result = engine.solve(query, limits);
    run.seq = engine.seq().stats();
    run.cache = engine.mem().cache().stats();
    run.stallNs = engine.mem().stallNs();
    return run;
}

interp::RunResult
runOnBaseline(const programs::BenchProgram &program,
              const interp::RunLimits &limits)
{
    baseline::WamEngine engine;
    engine.consult(program.source);
    return engine.solve(program.query, limits);
}

} // namespace psi
