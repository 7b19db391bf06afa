#include "base/reqlog.hpp"

#include <cmath>
#include <fstream>
#include <istream>
#include <limits>
#include <map>
#include <ostream>
#include <sstream>

#include "base/backoff.hpp"
#include "base/json.hpp"
#include "base/logging.hpp"

namespace psi {
namespace reqlog {

namespace {

/**
 * Strict parser for one flat JSON object line: string or unsigned
 * integer values only, no nesting, no duplicate keys, nothing after
 * the closing brace.  Small enough to hand-roll, and hand-rolling
 * keeps the error messages specific ("negative value for at_ns")
 * instead of a generic parser's "unexpected token".
 */
class LineParser
{
  public:
    explicit LineParser(const std::string &text) : _text(text) {}

    /** Parse the whole line into @p strings / @p numbers.  Keys keep
     *  their order of first appearance in @p order. */
    bool
    parse(std::map<std::string, std::string> &strings,
          std::map<std::string, std::uint64_t> &numbers,
          std::vector<std::string> &order)
    {
        skipWs();
        if (!consume('{'))
            return fail("expected '{'");
        skipWs();
        if (consume('}'))
            return end();
        for (;;) {
            std::string key;
            if (!parseString(key, "key"))
                return false;
            if (strings.count(key) || numbers.count(key))
                return fail("duplicate key '" + key + "'");
            skipWs();
            if (!consume(':'))
                return fail("expected ':' after key '" + key + "'");
            skipWs();
            if (peek() == '"') {
                std::string value;
                if (!parseString(value, "value of '" + key + "'"))
                    return false;
                strings.emplace(key, std::move(value));
            } else {
                std::uint64_t value = 0;
                if (!parseNumber(key, value))
                    return false;
                numbers.emplace(key, value);
            }
            order.push_back(key);
            skipWs();
            if (consume(',')) {
                skipWs();
                continue;
            }
            if (consume('}'))
                return end();
            return fail("expected ',' or '}'");
        }
    }

    const std::string &error() const { return _error; }

  private:
    char peek() const
    {
        return _pos < _text.size() ? _text[_pos] : '\0';
    }
    bool consume(char c)
    {
        if (peek() != c)
            return false;
        ++_pos;
        return true;
    }
    void skipWs()
    {
        while (_pos < _text.size() &&
               (_text[_pos] == ' ' || _text[_pos] == '\t'))
            ++_pos;
    }
    bool fail(const std::string &why)
    {
        _error = why;
        return false;
    }
    /** Nothing but whitespace may follow the object - a junk tail
     *  means the line is not what it appears to be. */
    bool end()
    {
        skipWs();
        if (_pos != _text.size())
            return fail("junk after closing '}': '" +
                        _text.substr(_pos) + "'");
        return true;
    }

    bool parseString(std::string &out, const std::string &what)
    {
        if (!consume('"'))
            return fail("expected '\"' to open " + what);
        out.clear();
        while (_pos < _text.size()) {
            char c = _text[_pos++];
            if (c == '"')
                return true;
            if (c == '\\') {
                if (_pos >= _text.size())
                    break;
                char esc = _text[_pos++];
                switch (esc) {
                  case '"': out.push_back('"'); break;
                  case '\\': out.push_back('\\'); break;
                  case '/': out.push_back('/'); break;
                  case 'n': out.push_back('\n'); break;
                  case 't': out.push_back('\t'); break;
                  default:
                    return fail(std::string("unsupported escape '\\") +
                                esc + "' in " + what);
                }
                continue;
            }
            out.push_back(c);
        }
        return fail("unterminated string in " + what);
    }

    bool parseNumber(const std::string &key, std::uint64_t &out)
    {
        if (peek() == '-')
            return fail("negative value for '" + key + "'");
        if (peek() < '0' || peek() > '9')
            return fail("expected a string or unsigned integer for '" +
                        key + "'");
        out = 0;
        while (peek() >= '0' && peek() <= '9') {
            std::uint64_t digit =
                static_cast<std::uint64_t>(peek() - '0');
            if (out >
                (std::numeric_limits<std::uint64_t>::max() - digit) /
                    10)
                return fail("value of '" + key +
                            "' overflows 64 bits");
            out = out * 10 + digit;
            ++_pos;
        }
        if (peek() == '.' || peek() == 'e' || peek() == 'E')
            return fail("non-integer value for '" + key + "'");
        return true;
    }

    const std::string &_text;
    std::size_t _pos = 0;
    std::string _error;
};

bool
lineError(std::size_t line, const std::string &why,
          std::string *error)
{
    if (error)
        *error = "line " + std::to_string(line) + ": " + why;
    return false;
}

bool
parseHeaderLine(const std::string &text, std::size_t line,
                Header &out, std::string *error)
{
    std::map<std::string, std::string> strings;
    std::map<std::string, std::uint64_t> numbers;
    std::vector<std::string> order;
    LineParser p(text);
    if (!p.parse(strings, numbers, order))
        return lineError(line, p.error(), error);
    auto version = numbers.find("psi_reqlog");
    if (version == numbers.end())
        return lineError(line,
                         "first line must be a header object with a "
                         "\"psi_reqlog\" version field",
                         error);
    if (version->second != kVersion)
        return lineError(
            line,
            "unsupported reqlog version " +
                std::to_string(version->second) + " (this build " +
                "reads version " + std::to_string(kVersion) + ")",
            error);
    out.version = static_cast<std::uint32_t>(version->second);
    for (const std::string &key : order) {
        if (key == "psi_reqlog")
            continue;
        if (key == "seed") {
            out.seed = numbers.at(key);
        } else if (key == "source") {
            auto s = strings.find(key);
            if (s == strings.end())
                return lineError(line, "\"source\" must be a string",
                                 error);
            out.source = s->second;
        } else {
            return lineError(line,
                             "unknown header field '" + key +
                                 "' (a new field needs a new "
                                 "reqlog version)",
                             error);
        }
    }
    return true;
}

bool
parseEntryLine(const std::string &text, std::size_t line,
               std::uint64_t prevAtNs, Entry &out, std::string *error)
{
    std::map<std::string, std::string> strings;
    std::map<std::string, std::uint64_t> numbers;
    std::vector<std::string> order;
    LineParser p(text);
    if (!p.parse(strings, numbers, order))
        return lineError(line, p.error(), error);

    out = Entry{};
    out.line = line;
    bool haveAt = false, haveWorkload = false;
    for (const std::string &key : order) {
        if (key == "at_ns") {
            auto n = numbers.find(key);
            if (n == numbers.end())
                return lineError(line, "\"at_ns\" must be an integer",
                                 error);
            out.atNs = n->second;
            haveAt = true;
        } else if (key == "workload") {
            auto s = strings.find(key);
            if (s == strings.end() || s->second.empty())
                return lineError(
                    line, "\"workload\" must be a non-empty string",
                    error);
            out.workload = s->second;
            haveWorkload = true;
        } else if (key == "tenant") {
            auto s = strings.find(key);
            if (s == strings.end())
                return lineError(line, "\"tenant\" must be a string",
                                 error);
            out.tenant = s->second;
        } else if (key == "mode") {
            auto s = strings.find(key);
            if (s == strings.end())
                return lineError(line, "\"mode\" must be a string",
                                 error);
            if (s->second == "fidelity") {
                out.mode = interp::ExecMode::Fidelity;
            } else if (s->second == "fast") {
                out.mode = interp::ExecMode::Fast;
            } else {
                return lineError(line,
                                 "unknown mode '" + s->second +
                                     "' (use \"fidelity\" or "
                                     "\"fast\")",
                                 error);
            }
        } else if (key == "deadline_ns") {
            auto n = numbers.find(key);
            if (n == numbers.end())
                return lineError(
                    line, "\"deadline_ns\" must be an integer",
                    error);
            out.deadlineNs = n->second;
        } else {
            return lineError(line,
                             "unknown field '" + key +
                                 "' (a new field needs a new "
                                 "reqlog version)",
                             error);
        }
    }
    if (!haveAt)
        return lineError(line, "missing required field \"at_ns\"",
                         error);
    if (!haveWorkload)
        return lineError(line, "missing required field \"workload\"",
                         error);
    if (out.atNs < prevAtNs)
        return lineError(line,
                         "at_ns " + std::to_string(out.atNs) +
                             " goes backwards (previous entry is at " +
                             std::to_string(prevAtNs) + ")",
                         error);
    return true;
}

bool
blank(const std::string &text)
{
    for (char c : text) {
        if (c != ' ' && c != '\t' && c != '\r')
            return false;
    }
    return true;
}

/** Exponential draw with mean @p meanS seconds. */
double
expDraw(SplitMix64 &rng, double meanS)
{
    // unit() is in [0, 1); flip to (0, 1] so log() is finite.
    return -std::log(1.0 - rng.unit()) * meanS;
}

} // namespace

std::optional<Log>
parse(std::istream &in, std::string *error)
{
    Log log;
    std::string line;
    std::size_t lineNo = 0;
    bool sawHeader = false;
    std::uint64_t prevAtNs = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (blank(line))
            continue;
        if (!sawHeader) {
            if (!parseHeaderLine(line, lineNo, log.header, error))
                return std::nullopt;
            sawHeader = true;
            continue;
        }
        Entry entry;
        if (!parseEntryLine(line, lineNo, prevAtNs, entry, error))
            return std::nullopt;
        prevAtNs = entry.atNs;
        log.entries.push_back(std::move(entry));
    }
    if (!sawHeader) {
        if (error)
            *error = "line 1: empty log (expected a "
                     "{\"psi_reqlog\": 1, ...} header line)";
        return std::nullopt;
    }
    return log;
}

std::optional<Log>
parseFile(const std::string &path, std::string *error)
{
    std::ifstream in(path);
    if (!in) {
        if (error)
            *error = "cannot open request log '" + path + "'";
        return std::nullopt;
    }
    auto log = parse(in, error);
    if (!log && error)
        *error = path + ": " + *error;
    return log;
}

std::string
formatHeader(const Header &header)
{
    JsonWriter w;
    w.u("psi_reqlog", kVersion);
    if (header.seed != 0)
        w.u("seed", header.seed);
    if (!header.source.empty())
        w.s("source", header.source);
    return w.str();
}

std::string
formatEntry(const Entry &entry)
{
    JsonWriter w;
    w.u("at_ns", entry.atNs);
    w.s("workload", entry.workload);
    if (!entry.tenant.empty())
        w.s("tenant", entry.tenant);
    if (entry.mode != interp::ExecMode::Fidelity)
        w.s("mode", interp::execModeName(entry.mode));
    if (entry.deadlineNs != 0)
        w.u("deadline_ns", entry.deadlineNs);
    return w.str();
}

void
write(std::ostream &out, const Log &log)
{
    out << formatHeader(log.header) << "\n";
    for (const Entry &entry : log.entries)
        out << formatEntry(entry) << "\n";
}

bool
writeFile(const std::string &path, const Log &log,
          std::string *error)
{
    std::ofstream out(path);
    if (!out) {
        if (error)
            *error = "cannot write request log '" + path + "'";
        return false;
    }
    write(out, log);
    out.flush();
    if (!out) {
        if (error)
            *error = "short write to request log '" + path + "'";
        return false;
    }
    return true;
}

bool
validateWorkloads(
    const Log &log,
    const std::function<bool(const std::string &)> &known,
    std::string *error)
{
    for (const Entry &entry : log.entries) {
        if (!known(entry.workload)) {
            lineError(entry.line,
                      "unknown workload '" + entry.workload + "'",
                      error);
            return false;
        }
    }
    return true;
}

Log
synthesize(const GenConfig &config)
{
    if (config.workloads.empty())
        fatal("reqlog::synthesize: no workloads configured");
    if (config.rate <= 0)
        fatal("reqlog::synthesize: rate must be > 0");
    std::uint64_t shareTotal = 0;
    for (const GenWorkload &w : config.workloads) {
        if (w.id.empty() || w.share == 0)
            fatal("reqlog::synthesize: workload entries need an id "
                  "and a positive share");
        shareTotal += w.share;
    }
    const unsigned tenants = std::max(1u, config.tenants);
    const double burst = std::max(1.0, config.burst);
    const double dwellS =
        config.burstDwellS > 0 ? config.burstDwellS : 0.25;

    // Zipf tenant weights: cumulative distribution over t0..tN-1.
    std::vector<double> tenantCdf(tenants);
    double acc = 0;
    for (unsigned i = 0; i < tenants; ++i) {
        acc += 1.0 /
               std::pow(static_cast<double>(i + 1),
                        std::max(0.0, config.skew));
        tenantCdf[i] = acc;
    }
    for (double &c : tenantCdf)
        c /= acc;

    SplitMix64 rng(config.seed);
    Log log;
    log.header.seed = config.seed;
    log.header.source = "psi_mklog";
    log.entries.reserve(config.requests);

    // Two-state MMPP: arrivals are Poisson at `rate` in the calm
    // state and `rate * burst` in the burst state; dwell times in
    // each state are exponential with mean dwellS.  Every draw below
    // happens in a fixed order per request, so the whole log is a
    // pure function of the seed.
    double nowS = 0;
    bool bursting = false;
    double stateEndS = expDraw(rng, dwellS);
    for (std::uint64_t i = 0; i < config.requests; ++i) {
        for (;;) {
            double rate = bursting ? config.rate * burst
                                   : config.rate;
            double gapS = expDraw(rng, 1.0 / rate);
            if (nowS + gapS >= stateEndS) {
                // The state flips before this arrival: restart the
                // draw from the switch point at the new rate.
                nowS = stateEndS;
                stateEndS = nowS + expDraw(rng, dwellS);
                bursting = !bursting;
                continue;
            }
            nowS += gapS;
            break;
        }

        Entry entry;
        entry.atNs = static_cast<std::uint64_t>(
            std::llround(nowS * 1e9));
        if (!log.entries.empty() &&
            entry.atNs < log.entries.back().atNs)
            entry.atNs = log.entries.back().atNs;

        double t = rng.unit();
        unsigned tenant = 0;
        while (tenant + 1 < tenants && t >= tenantCdf[tenant])
            ++tenant;
        entry.tenant += 't';
        entry.tenant += std::to_string(tenant);

        std::uint64_t pick = rng.below(shareTotal);
        for (const GenWorkload &w : config.workloads) {
            if (pick < w.share) {
                entry.workload = w.id;
                break;
            }
            pick -= w.share;
        }

        entry.mode = rng.unit() < config.fastShare
            ? interp::ExecMode::Fast
            : interp::ExecMode::Fidelity;
        if (rng.unit() < config.deadlineShare)
            entry.deadlineNs =
                rng.range(config.deadlineLoMs, config.deadlineHiMs) *
                1'000'000ull;
        log.entries.push_back(std::move(entry));
    }
    return log;
}

} // namespace reqlog
} // namespace psi
