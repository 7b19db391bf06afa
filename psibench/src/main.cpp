/**
 * @file
 * psibench: one command for the three seeded workloads.
 *
 *   psibench --workload fast_small|routed_mix|paper_tables
 *            --seed N --seconds S --trace 0|1
 *
 * --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
 * ones (and writes the run's spans under .bench_build/traces/).  The
 * last line of standard output is the JSON result.
 */

#include <iostream>

#include "base/logging.hpp"
#include "common.hpp"
#include "schedule.hpp"
#include "serving.hpp"
#include "tables.hpp"

int
main(int argc, char **argv)
{
    using namespace psibench;
    Args args;
    std::string error;
    if (!parseArgs(argc, argv, args, error)) {
        std::cerr << "psibench: " << error
                  << "\nusage: psibench --workload fast_small|routed_mix|"
                     "paper_tables [--seed N] [--seconds S] [--trace 0|1]"
                     " [--write-expected FILE]\n";
        return 2;
    }
    try {
        Report report;
        if (const ServingSpec *spec = servingSpec(args.workload)) {
            runServing(*spec, args, report);
        } else if (args.workload == "paper_tables") {
            runTables(args, report);
            if (!args.writeExpected.empty())
                return 0;
        } else {
            std::cerr << "psibench: unknown workload " << args.workload
                      << "\n";
            return 2;
        }
        std::cout << report.json() << std::endl;
    } catch (const psi::FatalError &e) {
        std::cerr << e.what() << "\n";
        return 1;
    }
    return 0;
}
