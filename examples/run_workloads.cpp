/**
 * @file
 * Run every registered benchmark workload on the PSI model and print
 * a one-line summary each (result, inferences, microsteps, model
 * time, host time) - the quickest health check of the whole system.
 *
 *     $ ./examples/run_workloads [workload-id]
 */
#include <chrono>
#include <iostream>

#include "interp/engine.hpp"
#include "programs/registry.hpp"

int
main(int argc, char **argv)
{
    using namespace psi;
    std::string only = argc > 1 ? argv[1] : "";
    if (!only.empty() && !programs::findProgramById(only)) {
        std::cerr << "unknown workload '" << only
                  << "'; available: " << programs::programIdList()
                  << "\n";
        return 1;
    }

    for (const auto &p : programs::allPrograms()) {
        if (!only.empty() && p.id != only)
            continue;
        interp::Engine eng;
        try {
            eng.consult(p.source);
            auto t0 = std::chrono::steady_clock::now();
            auto r = eng.solve(p.query);
            auto t1 = std::chrono::steady_clock::now();
            double host_ms =
                std::chrono::duration<double, std::milli>(t1 - t0)
                    .count();
            std::cout << p.id << ": "
                      << (r.succeeded() ? "ok" : "FAIL")
                      << " inf=" << r.inferences
                      << " steps=" << r.steps
                      << " modelMs=" << r.timeNs / 1e6
                      << " hostMs=" << host_ms
                      << " stepsPerInf="
                      << (r.inferences
                              ? double(r.steps) / double(r.inferences)
                              : 0)
                      << (r.status == interp::RunStatus::Ok
                              ? ""
                              : r.status == interp::RunStatus::StepLimit
                                  ? " STEP-LIMIT"
                                  : " TIMEOUT")
                      << "\n";
            if (r.succeeded() && !r.solutions[0].bindings.empty()) {
                std::cout << "    " << r.solutions[0].str().substr(0, 120)
                          << "\n";
            }
        } catch (const FatalError &e) {
            std::cout << p.id << ": FATAL " << e.what() << "\n";
        }
    }
    return 0;
}
