/**
 * @file
 * In-memory span log for the traced run.  The benchmark wraps each
 * call it makes into a layer's public entry point in one span (name,
 * start, end, parent, request id); spans stay in memory and are
 * written out once, at exit.  A layer's self time is its span minus
 * the time its child spans cover.
 */

#ifndef PSIBENCH_SPANS_HPP
#define PSIBENCH_SPANS_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace psibench {

class SpanLog
{
  public:
    static constexpr std::int32_t kNoParent = -1;

    struct Span
    {
        const char *name;
        std::uint64_t startNs = 0;
        std::uint64_t endNs = 0;
        std::int32_t parent = kNoParent;
        std::uint64_t request = 0;
    };

    /** Open a span; @return its id (for close() and children). */
    std::int32_t open(const char *name, std::int32_t parent,
                      std::uint64_t request);
    void close(std::int32_t id);

    /** Mean self time of each span name, in microseconds. */
    std::map<std::string, double> meanSelfUs() const;

    /** Write every span as JSON lines; false on I/O failure. */
    bool write(const std::string &path) const;

  private:
    std::vector<Span> _spans;
};

/** RAII span around one call. */
class SpanScope
{
  public:
    SpanScope(SpanLog &log, const char *name,
              std::int32_t parent = SpanLog::kNoParent,
              std::uint64_t request = 0)
        : _log(log), _id(log.open(name, parent, request))
    {}
    ~SpanScope() { _log.close(_id); }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    std::int32_t id() const { return _id; }

  private:
    SpanLog &_log;
    std::int32_t _id;
};

} // namespace psibench

#endif // PSIBENCH_SPANS_HPP
