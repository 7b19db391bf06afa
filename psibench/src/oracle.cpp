#include "oracle.hpp"

#include "programs/registry.hpp"
#include "system.hpp"

namespace psibench {

using namespace psi;

std::vector<std::string>
renderSolutions(const interp::RunResult &r)
{
    std::vector<std::string> out;
    out.reserve(r.solutions.size());
    for (const auto &s : r.solutions)
        out.push_back(s.str());
    return out;
}

Oracle::Oracle(const std::vector<std::string> &ids)
{
    for (const std::string &id : ids) {
        if (_refs.count(id))
            continue;
        const programs::BenchProgram &p = programs::programById(id);
        // The server runs every job under default RunLimits (first
        // solution), so the references do too.
        interp::RunResult dec = runOnBaseline(p);
        PsiRun psi = runOnPsi(p);
        Reference ref;
        ref.solutions = renderSolutions(dec);
        ref.output = dec.output;
        ref.steps = psi.result.steps;
        ref.modelNs = psi.result.timeNs;
        _refs.emplace(id, std::move(ref));
    }
}

bool
Oracle::check(const std::string &workload, interp::ExecMode mode,
              const net::ResultMsg &msg) const
{
    auto it = _refs.find(workload);
    if (it == _refs.end() || msg.status != net::WireStatus::Ok)
        return false;
    const Reference &ref = it->second;
    if (msg.solutions != ref.solutions || msg.output != ref.output)
        return false;
    if (mode == interp::ExecMode::Fast)
        return msg.steps == 0 && msg.modelNs == 0;
    return msg.steps == ref.steps && msg.modelNs == ref.modelNs;
}

} // namespace psibench
