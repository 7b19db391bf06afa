#include "schedule.hpp"

#include <cmath>
#include <sstream>

#include "common.hpp"

namespace psibench {

using psi::reqlog::GenConfig;
using psi::reqlog::GenWorkload;

namespace {

std::vector<ServingSpec>
makeSpecs()
{
    std::vector<ServingSpec> specs;

    // fast_small: solve is under half of each request, so wire,
    // hand-off, image load and query compile set the numbers.
    ServingSpec small;
    small.name = "fast_small";
    small.gen.rate = 500;
    small.gen.burst = 1;
    small.gen.tenants = 1;
    small.gen.skew = 0;
    small.gen.fastShare = 1.0;
    small.gen.workloads = {{"nreverse30", 4}, {"qsort50", 2},
                           {"tree", 1},       {"lcp2", 1},
                           {"bup1", 1}};
    specs.push_back(small);

    // routed_mix: router hop, source-hash sharding, WFQ/affinity
    // with fidelity jobs at queue heads, many images per cache, and
    // fast loads after large images have grown the page set.
    ServingSpec mix;
    mix.name = "routed_mix";
    mix.routedBackends = 2;
    mix.gen.rate = 200;
    mix.gen.burst = 2;
    mix.gen.burstDwellS = 0.25;
    mix.gen.tenants = 4;
    mix.gen.skew = 1.2;
    mix.gen.fastShare = 0.7;
    mix.gen.workloads = {
        {"nreverse30", 8}, {"qsort50", 4},     {"tree", 2},
        {"lcp1", 2},       {"lcp2", 2},        {"bup1", 2},
        {"bup2", 1},       {"harmonizer1", 1}, {"window1", 1},
        {"puzzle8", 1},    {"setclash", 1},    {"queens1", 1},
        {"polyop", 1},     {"lisp_fib", 1}};
    specs.push_back(mix);
    return specs;
}

} // namespace

const ServingSpec *
servingSpec(const std::string &name)
{
    static const std::vector<ServingSpec> specs = makeSpecs();
    for (const ServingSpec &s : specs) {
        if (s.name == name)
            return &s;
    }
    return nullptr;
}

std::vector<std::string>
programIds(const ServingSpec &spec)
{
    std::vector<std::string> ids;
    for (const GenWorkload &w : spec.gen.workloads)
        ids.push_back(w.id);
    return ids;
}

psi::reqlog::Log
makeSchedule(const ServingSpec &spec, std::uint64_t seed, double spanS)
{
    GenConfig gen = spec.gen;
    gen.seed = seed;
    // Twice the mean arrival count, then cut at the span: the cut
    // makes the schedule length exact whatever the MMPP draws.
    double meanRate = gen.rate * (1 + gen.burst) / 2;
    gen.requests =
        static_cast<std::uint64_t>(std::ceil(2 * meanRate * spanS)) + 16;
    psi::reqlog::Log log = psi::reqlog::synthesize(gen);
    const auto spanNs = static_cast<std::uint64_t>(spanS * 1e9);
    while (!log.entries.empty() && log.entries.back().atNs >= spanNs)
        log.entries.pop_back();
    return log;
}

std::uint64_t
scheduleHash(const psi::reqlog::Log &log)
{
    std::ostringstream os;
    psi::reqlog::write(os, log);
    return fnv1a(os.str());
}

psi::net::SubmitMsg
submitFor(const psi::reqlog::Entry &e, std::uint64_t tag)
{
    return psi::net::SubmitBuilder(tag, e.workload)
        .tenant(e.tenant)
        .mode(e.mode)
        .build();
}

} // namespace psibench
