/**
 * @file
 * Every metric psibench prints, with its unit, in print order.  One
 * list per run kind: untraced runs print kEndToEnd, traced runs
 * kPerLayer.  BENCHMARK.json lists the same names (a test checks).
 */

#ifndef PSIBENCH_CATALOG_HPP
#define PSIBENCH_CATALOG_HPP

#include <map>
#include <string>
#include <vector>

#include "common.hpp"

namespace psibench {

struct MetricDef
{
    const char *name;
    const char *unit;
};

const std::vector<MetricDef> &endToEndMetrics();
const std::vector<MetricDef> &perLayerMetrics();

/**
 * Append @p defs to @p report in catalogue order, taking values
 * from @p values.  End-to-end metrics must all be present (a missing
 * one is a benchmark bug and aborts); a per-layer metric absent from
 * @p values is a layer that did no work on this workload and reads 0.
 */
void fill(Report &report, const std::vector<MetricDef> &defs,
          const std::map<std::string, double> &values,
          bool requireAll);

} // namespace psibench

#endif // PSIBENCH_CATALOG_HPP
