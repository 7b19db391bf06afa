#include "programs/registry.hpp"

#include <cstdint>
#include <set>

#include "base/logging.hpp"
#include "kl0/compiled_program.hpp"

namespace psi {
namespace programs {

const std::vector<BenchProgram> &
allPrograms()
{
    static const std::vector<BenchProgram> all = [] {
        std::vector<BenchProgram> v;
        auto add = [&v](std::vector<BenchProgram> group) {
            for (auto &p : group)
                v.push_back(std::move(p));
        };
        // Table 1 order: contest rows first.
        auto contest = contestPrograms();
        // rows (1)-(3)
        v.push_back(contest[0]);
        v.push_back(contest[1]);
        v.push_back(contest[2]);
        // rows (4)-(6)
        add(lispPrograms());
        // rows (7)-(10)
        v.push_back(contest[3]);
        v.push_back(contest[4]);
        v.push_back(contest[5]);
        v.push_back(contest[6]);
        // rows (11)-(19)
        add(bupPrograms());
        add(harmonizerPrograms());
        add(lcpPrograms());
        // Hardware-evaluation extras.
        add(windowPrograms());
        add(puzzlePrograms());
        // Adversarial workloads beyond the paper (trail pressure,
        // stack depth, wide multi-solution search), then the
        // targeted worst cases (set conflicts, joins, dispatch).
        add(stressPrograms());
        add(adversarialPrograms());
        return v;
    }();
    return all;
}

const BenchProgram *
findProgramById(const std::string &id)
{
    for (const auto &p : allPrograms()) {
        if (p.id == id)
            return &p;
    }
    return nullptr;
}

std::string
programIdList()
{
    std::string out;
    for (const auto &p : allPrograms()) {
        if (!out.empty())
            out += ", ";
        out += p.id;
    }
    return out;
}

const BenchProgram &
programById(const std::string &id)
{
    if (const BenchProgram *p = findProgramById(id))
        return *p;
    fatal("unknown benchmark program '", id,
          "'; available: ", programIdList());
}

std::vector<BenchProgram>
resolveProgramsOrAll(const std::vector<std::string> &ids)
{
    if (ids.empty())
        return allPrograms();
    std::vector<BenchProgram> out;
    out.reserve(ids.size());
    for (const auto &id : ids)
        out.push_back(programById(id));
    return out;
}

std::size_t
distinctSourceCount()
{
    std::set<std::uint64_t> hashes;
    for (const auto &p : allPrograms())
        hashes.insert(kl0::CompiledProgram::hashSource(p.source));
    return hashes.size();
}

std::vector<BenchProgram>
table1Programs()
{
    std::vector<BenchProgram> out;
    for (const auto &p : allPrograms()) {
        if (p.paperPsiMs > 0.0)
            out.push_back(p);
    }
    return out;
}

} // namespace programs
} // namespace psi
