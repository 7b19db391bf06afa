#include "spans.hpp"

#include <fstream>

#include "common.hpp"

namespace psibench {

std::int32_t
SpanLog::open(const char *name, std::int32_t parent,
              std::uint64_t request)
{
    _spans.push_back({name, nowNs(), 0, parent, request});
    return static_cast<std::int32_t>(_spans.size() - 1);
}

void
SpanLog::close(std::int32_t id)
{
    _spans[static_cast<std::size_t>(id)].endNs = nowNs();
}

std::map<std::string, double>
SpanLog::meanSelfUs() const
{
    // Children run inside their parent on one thread, one after
    // another, so the covered part is the sum of their durations.
    std::vector<std::uint64_t> childNs(_spans.size(), 0);
    for (const Span &s : _spans) {
        if (s.parent != kNoParent)
            childNs[static_cast<std::size_t>(s.parent)] +=
                s.endNs - s.startNs;
    }
    std::map<std::string, std::pair<double, std::size_t>> acc;
    for (std::size_t i = 0; i < _spans.size(); ++i) {
        const Span &s = _spans[i];
        std::uint64_t dur = s.endNs - s.startNs;
        std::uint64_t self = dur > childNs[i] ? dur - childNs[i] : 0;
        auto &a = acc[s.name];
        a.first += static_cast<double>(self) / 1e3;
        ++a.second;
    }
    std::map<std::string, double> out;
    for (const auto &[name, a] : acc)
        out[name] = a.first / static_cast<double>(a.second);
    return out;
}

bool
SpanLog::write(const std::string &path) const
{
    std::ofstream out(path);
    for (std::size_t i = 0; i < _spans.size(); ++i) {
        const Span &s = _spans[i];
        out << "{\"id\": " << i << ", \"name\": \"" << s.name
            << "\", \"start_ns\": " << s.startNs
            << ", \"end_ns\": " << s.endNs
            << ", \"parent\": " << s.parent
            << ", \"request\": " << s.request << "}\n";
    }
    return static_cast<bool>(out);
}

} // namespace psibench
