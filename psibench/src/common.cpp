#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace psibench {

namespace {

bool
parseU64(const std::string &s, std::uint64_t &out)
{
    const char *end = s.data() + s.size();
    auto [p, ec] = std::from_chars(s.data(), end, out);
    return ec == std::errc() && p == end && !s.empty();
}

std::uint64_t
clockNs(clockid_t id)
{
    timespec ts{};
    clock_gettime(id, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
           static_cast<std::uint64_t>(ts.tv_nsec);
}

/** Aggregate steal and total jiffies from /proc/stat. */
void
readStat(std::uint64_t &steal, std::uint64_t &total)
{
    steal = total = 0;
    std::ifstream in("/proc/stat");
    std::string cpu;
    if (!(in >> cpu) || cpu != "cpu")
        return;
    // user nice system idle iowait irq softirq steal (guest time is
    // already inside user/nice)
    for (int i = 0; i < 8; ++i) {
        std::uint64_t v = 0;
        if (!(in >> v))
            return;
        total += v;
        if (i == 7)
            steal = v;
    }
}

std::string
number(double v)
{
    if (!std::isfinite(v))
        return "0"; // JSON has no NaN/Inf; every divisor is guarded
    char buf[64];
    auto [p, ec] = std::to_chars(buf, buf + sizeof buf, v);
    return ec == std::errc() ? std::string(buf, p) : "0";
}

} // namespace

bool
parseArgs(int argc, char **argv, Args &out, std::string &error)
{
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc) {
            error = "missing value after " + a;
            return false;
        }
        std::string v = argv[++i];
        std::uint64_t n = 0;
        if (a == "--workload") {
            out.workload = v;
        } else if (a == "--seed") {
            if (!parseU64(v, out.seed)) {
                error = "--seed needs a non-negative integer";
                return false;
            }
        } else if (a == "--seconds") {
            if (!parseU64(v, n) || n == 0 || n > 600) {
                error = "--seconds needs an integer in 1..600";
                return false;
            }
            out.seconds = static_cast<double>(n);
        } else if (a == "--trace") {
            if (v != "0" && v != "1") {
                error = "--trace needs 0 or 1";
                return false;
            }
            out.trace = v == "1";
        } else if (a == "--write-expected") {
            out.writeExpected = v;
        } else {
            error = "unknown argument " + a;
            return false;
        }
    }
    if (out.workload.empty()) {
        error = "--workload is required";
        return false;
    }
    return true;
}

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

std::uint64_t
processCpuNs()
{
    return clockNs(CLOCK_PROCESS_CPUTIME_ID);
}

std::uint64_t
threadCpuNs()
{
    return clockNs(CLOCK_THREAD_CPUTIME_ID);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double
percentile(std::vector<double> &v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double
mean(const std::vector<double> &v)
{
    if (v.empty())
        return 0;
    double s = 0;
    for (double x : v)
        s += x;
    return s / static_cast<double>(v.size());
}

StealMeter::StealMeter()
{
    readStat(_steal, _total);
}

double
StealMeter::sharePct() const
{
    std::uint64_t steal = 0, total = 0;
    readStat(steal, total);
    if (total <= _total)
        return 0;
    return 100.0 * static_cast<double>(steal - _steal) /
           static_cast<double>(total - _total);
}

double
refKernelUs()
{
    std::vector<double> us;
    volatile std::uint64_t sink = 0;
    for (int rep = 0; rep < 5; ++rep) {
        std::uint64_t t0 = nowNs();
        std::uint64_t a = 1, b = 2, c = 3, d = 4;
        for (int i = 0; i < 100'000; ++i) {
            a ^= a << 13, a ^= a >> 7, a ^= a << 17;
            b ^= b << 13, b ^= b >> 7, b ^= b << 17;
            c ^= c << 13, c ^= c >> 7, c ^= c << 17;
            d ^= d << 13, d ^= d >> 7, d ^= d << 17;
        }
        sink = sink + (a ^ b ^ c ^ d);
        us.push_back(static_cast<double>(nowNs() - t0) / 1e3);
    }
    return median(us);
}

std::string
Report::json() const
{
    std::ostringstream os;
    os << "{\"correct\": " << (failed == 0 ? "true" : "false")
       << ", \"attempted\": " << attempted
       << ", \"failed\": " << failed << ", \"metrics\": {";
    bool first = true;
    for (const Metric &m : metrics) {
        os << (first ? "" : ", ") << '"' << m.name
           << "\": {\"value\": " << number(m.value)
           << ", \"unit\": \"" << m.unit << "\"}";
        first = false;
    }
    os << "}}";
    return os.str();
}

std::string
traceDir()
{
    const std::string dir = ".bench_build/traces";
    std::filesystem::create_directories(dir);
    return dir;
}

std::uint64_t
fnv1a(const std::string &bytes, std::uint64_t h)
{
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

} // namespace psibench
