#include "driver/pass_stats.hh"

#include <algorithm>
#include <cstdio>

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
        // The counters go after the buffer: a long list must not be
        // cut off, newline and all.
        std::snprintf(line, sizeof(line), "%-12s %10.3f  ",
                      p.name.c_str(), p.ms);
        out += line + cs + "\n";
    }
    std::snprintf(line, sizeof(line), "%-12s %10.3f\n", "total",
                  totalMs());
    out += line;
    return out;
}

json::Value
PassStats::json() const
{
    json::Value passes(json::Value::Kind::Array);
    for (const auto &p : passes_) {
        // Key order must not depend on the order passes happened to
        // report counters in: sort (stably, so a key reported twice
        // deterministically keeps its last value).
        auto counters = p.counters;
        std::stable_sort(counters.begin(), counters.end(),
                         [](const auto &a, const auto &b) {
                             return a.first < b.first;
                         });
        json::Value cs(json::Value::Kind::Object);
        for (const auto &[name, value] : counters)
            cs.set(name, value);
        json::Value pass;
        pass.set("name", p.name);
        pass.set("ms", p.ms);
        pass.set("counters", std::move(cs));
        passes.push(std::move(pass));
    }
    json::Value out;
    out.set("passes", std::move(passes));
    out.set("totalMs", totalMs());
    return out;
}

} // namespace driver
} // namespace polyfuse
