#include "driver/pass_stats.hh"

#include <algorithm>
#include <cstdio>

#include "support/json.hh"

namespace polyfuse {
namespace driver {

int64_t
PassStat::counter(const std::string &key, int64_t fallback) const
{
    for (const auto &[name, value] : counters)
        if (name == key)
            return value;
    return fallback;
}

void
PassStats::add(PassStat stat)
{
    passes_.push_back(std::move(stat));
}

const PassStat *
PassStats::find(const std::string &name) const
{
    for (const auto &p : passes_)
        if (p.name == name)
            return &p;
    return nullptr;
}

double
PassStats::msOf(const std::string &name) const
{
    const PassStat *p = find(name);
    return p ? p->ms : 0.0;
}

double
PassStats::totalMs() const
{
    double total = 0;
    for (const auto &p : passes_)
        total += p.ms;
    return total;
}

std::string
PassStats::str() const
{
    std::string out;
    char line[160];
    std::snprintf(line, sizeof(line), "%-12s %10s  %s\n", "pass",
                  "ms", "counters");
    out += line;
    for (const auto &p : passes_) {
        std::string cs;
        for (const auto &[name, value] : p.counters) {
            if (!cs.empty())
                cs += "  ";
            cs += name + "=" + std::to_string(value);
        }
        std::snprintf(line, sizeof(line), "%-12s %10.3f  %s\n",
                      p.name.c_str(), p.ms, cs.c_str());
        out += line;
    }
    std::snprintf(line, sizeof(line), "%-12s %10.3f\n", "total",
                  totalMs());
    out += line;
    return out;
}

std::string
PassStats::json() const
{
    std::string out = "{\"passes\": [";
    bool first_pass = true;
    char buf[64];
    for (const auto &p : passes_) {
        if (!first_pass)
            out += ", ";
        first_pass = false;
        std::snprintf(buf, sizeof(buf), "%.4f", p.ms);
        out += "{\"name\": \"" + json::escape(p.name) +
               "\", \"ms\": " + buf + ", \"counters\": {";
        // Key order must not depend on the order passes happened to
        // report counters in: sort (stably, so a duplicate key keeps
        // its first-reported-first position).
        auto counters = p.counters;
        std::stable_sort(counters.begin(), counters.end(),
                         [](const auto &a, const auto &b) {
                             return a.first < b.first;
                         });
        bool first_counter = true;
        for (const auto &[name, value] : counters) {
            if (!first_counter)
                out += ", ";
            first_counter = false;
            out += "\"" + json::escape(name) +
                   "\": " + std::to_string(value);
        }
        out += "}}";
    }
    std::snprintf(buf, sizeof(buf), "%.4f", totalMs());
    out += "], \"totalMs\": " + std::string(buf) + "}";
    return out;
}

} // namespace driver
} // namespace polyfuse
