/**
 * @file
 * The two serving workloads and their seeded request schedules.
 * The program under test sees only the generated requests.
 */

#ifndef PSIBENCH_SCHEDULE_HPP
#define PSIBENCH_SCHEDULE_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "base/reqlog.hpp"
#include "net/wire.hpp"

namespace psibench {

/** Shape of one serving workload. */
struct ServingSpec
{
    std::string name;
    /** Backends behind a router; 0 = clients talk to one server. */
    unsigned routedBackends = 0;
    /** reqlog::synthesize config; seed and request count are set
     *  per run by makeSchedule(). */
    psi::reqlog::GenConfig gen;
};

/** The spec of @p name; nullptr for a non-serving workload. */
const ServingSpec *servingSpec(const std::string &name);

/** Distinct registry ids in @p spec's mix, in mix order. */
std::vector<std::string> programIds(const ServingSpec &spec);

/**
 * The open-loop schedule for @p seed: synthesize() arrivals cut at
 * @p spanS seconds.  A pure function of its arguments.
 */
psi::reqlog::Log makeSchedule(const ServingSpec &spec,
                              std::uint64_t seed, double spanS);

/** FNV-1a 64 over the schedule's canonical reqlog text. */
std::uint64_t scheduleHash(const psi::reqlog::Log &log);

/** The SUBMIT a schedule entry becomes. */
psi::net::SubmitMsg submitFor(const psi::reqlog::Entry &e,
                              std::uint64_t tag);

} // namespace psibench

#endif // PSIBENCH_SCHEDULE_HPP
