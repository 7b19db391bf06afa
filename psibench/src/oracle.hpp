/**
 * @file
 * The answer oracle.  Reference answers come from the WAM baseline
 * (its own compiler and machine, independent of both PSI engines);
 * the exact fidelity counters come from a fresh runOnPsi.  Every
 * RESULT the serving stack returns is checked against them.
 */

#ifndef PSIBENCH_ORACLE_HPP
#define PSIBENCH_ORACLE_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "interp/machine.hpp"
#include "net/wire.hpp"

namespace psibench {

/** What one program must answer. */
struct Reference
{
    std::vector<std::string> solutions; ///< Solution::str() each
    std::string output;                 ///< write/nl/tab text
    std::uint64_t steps = 0;            ///< fidelity microsteps
    std::uint64_t modelNs = 0;          ///< fidelity model time
};

/** Reference answers for a set of registry programs. */
class Oracle
{
  public:
    /** Compute references for @p ids (registry workload ids). */
    explicit Oracle(const std::vector<std::string> &ids);

    /** Build from explicit references (tests). */
    explicit Oracle(std::map<std::string, Reference> refs)
        : _refs(std::move(refs))
    {}

    /**
     * True when @p msg is a correct RESULT for @p workload run in
     * @p mode: status Ok, the reference solutions and output, and
     * for fidelity the exact steps and model time (fast mode must
     * report zero for both).  A refusal, an engine error or a
     * timeout is wrong.
     */
    bool check(const std::string &workload, psi::interp::ExecMode mode,
               const psi::net::ResultMsg &msg) const;

    const Reference &at(const std::string &id) const
    {
        return _refs.at(id);
    }

  private:
    std::map<std::string, Reference> _refs;
};

/** Render a run's solutions the way a RESULT carries them. */
std::vector<std::string> renderSolutions(const psi::interp::RunResult &r);

} // namespace psibench

#endif // PSIBENCH_ORACLE_HPP
