/**
 * @file
 * Shared plumbing for psibench: command-line arguments, clocks,
 * order statistics, host sampling and the metric report.
 */

#ifndef PSIBENCH_COMMON_HPP
#define PSIBENCH_COMMON_HPP

#include <cstdint>
#include <string>
#include <vector>

namespace psibench {

/** Parsed command line. */
struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 20;
    bool trace = false;
    /** paper_tables only: write the measured counters to this path
     *  instead of checking them (regenerates the expected file). */
    std::string writeExpected;
};

/** Parse argv; returns false with @p error set on bad input. */
bool parseArgs(int argc, char **argv, Args &out, std::string &error);

/** Steady-clock nanoseconds (any fixed origin). */
std::uint64_t nowNs();

/** CPU nanoseconds used by the whole process (all threads). */
std::uint64_t processCpuNs();

/** CPU nanoseconds used by the calling thread. */
std::uint64_t threadCpuNs();

/** Peak resident set of the process, in MiB. */
double peakRssMb();

/** Nearest-rank percentile of @p v (sorted in place); 0 if empty. */
double percentile(std::vector<double> &v, double q);

/** Median of @p v (copied); 0 if empty. */
double median(std::vector<double> v);

/** Arithmetic mean; 0 if empty. */
double mean(const std::vector<double> &v);

/**
 * Hypervisor steal as a share of all CPU time between construction
 * and sharePct(), from the aggregate line of /proc/stat.  Reads 0
 * where /proc/stat is unavailable.
 */
class StealMeter
{
  public:
    StealMeter();
    double sharePct() const;

  private:
    std::uint64_t _steal = 0;
    std::uint64_t _total = 0;
};

/**
 * Median wall time of a fixed CPU kernel that belongs to the
 * benchmark itself: four independent integer streams, so it runs at
 * high IPC and slows down with the host the way the single-threaded
 * simulator does (a busy SMT sibling, frequency).  Timed only while
 * nothing else in the process runs.
 */
double refKernelUs();

/** refKernelUs() on the reference host every end-to-end time is
 *  scaled to: a time measured while the kernel took r us is
 *  reported as time * kRefNominalUs / r. */
constexpr double kRefNominalUs = 500;

/** Correctness tally: every checked operation counts once. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    count(bool ok)
    {
        ++attempted;
        failed += ok ? 0 : 1;
    }
};

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** The run's result, printed as the last line of standard output. */
struct Report
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;

    void add(const std::string &name, double value,
             const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }

    /** The one-line JSON object: correct/attempted/failed/metrics. */
    std::string json() const;
};

/** Where traced runs write their spans (created on first use),
 *  relative to the directory the benchmark runs in. */
std::string traceDir();

/** FNV-1a 64 over @p bytes, continuing from @p h. */
std::uint64_t fnv1a(const std::string &bytes,
                    std::uint64_t h = 0xcbf29ce484222325ull);

} // namespace psibench

#endif // PSIBENCH_COMMON_HPP
