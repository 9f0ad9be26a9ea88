/**
 * @file
 * Entry point of the repository benchmark (see perfbench/METRICS.md):
 *
 *   perfbench [--workload pipelines-hd|compile-cold|serve-mixed]
 *             --seed N --seconds S --trace 0|1
 *   perfbench --smoke             every workload at tiny sizes
 *   perfbench --regen-expected    recompute perfbench/expected.txt
 *
 * Prints the environment, one line per metric with its unit and
 * sample count, and as the last line one JSON object
 * {"correct", "attempted", "failed", "metrics"} with every metric the
 * run measured; perfbench/run.py narrows it to the end-to-end
 * (untraced) or per-layer (traced) set BENCHMARK.json declares. A
 * traced run of one workload also runs the other two traced, so every
 * layer is profiled on the workload that exercises it, and writes
 * Chrome traces under .bench_build/traces/.
 */

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "bench.hh"
#include "support/json.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

const char *const kWorkloads[] = {"pipelines-hd", "compile-cold",
                                  "serve-mixed"};

std::string
firstLineOf(const std::string &path, const std::string &prefix)
{
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.compare(0, prefix.size(), prefix) != 0)
            continue;
        size_t colon = line.find(':');
        if (colon == std::string::npos)
            return line;
        size_t start = line.find_first_not_of(" \t", colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
    }
    return "unknown";
}

std::string
compilerVersion()
{
    FILE *p = ::popen("cc --version 2>/dev/null", "r");
    if (!p)
        return "unknown";
    char buf[256] = {0};
    if (!std::fgets(buf, sizeof(buf), p))
        buf[0] = 0;
    ::pclose(p);
    std::string s = buf;
    while (!s.empty() && (s.back() == '\n' || s.back() == '\r'))
        s.pop_back();
    return s.empty() ? "unknown" : s;
}

/** Steal time of all CPUs so far, ms (/proc/stat). */
double
stealMs()
{
    std::ifstream in("/proc/stat");
    std::string cpu;
    uint64_t v[8] = {0};
    in >> cpu;
    for (uint64_t &x : v)
        in >> x;
    return double(v[7]) * 1e3 / double(::sysconf(_SC_CLK_TCK));
}

std::string
environment(const Config &cfg, double steal, double wallS)
{
    std::ostringstream o;
    long nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
    o << "{\"workload\": \"" << cfg.workload << "\", \"seed\": " << cfg.seed
      << ", \"seconds\": " << cfg.seconds
      << ", \"trace\": " << (cfg.trace ? 1 : 0) << ", \"cpu\": \""
      << json::escape(firstLineOf("/proc/cpuinfo", "model name"))
      << "\", \"nproc\": " << nproc << ", \"l2\": \""
      << json::escape(firstLineOf(
             "/sys/devices/system/cpu/cpu0/cache/index2/size", ""))
      << "\", \"compiler\": \"" << json::escape(compilerVersion())
      << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
      << "\", \"git_sha\": \"" << json::escape(cfg.gitSha)
      << "\", \"steal_ms\": " << steal << ", \"steal_share\": "
      << (wallS > 0 ? steal / 1e3 / (wallS * double(nproc)) : 0) << "}";
    return o.str();
}

std::string
number(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
metricsJson(const std::vector<Metric> &ms, bool withSamples)
{
    std::string s = "{";
    for (size_t i = 0; i < ms.size(); ++i) {
        s += (i ? ", \"" : "\"") + ms[i].name + "\": {\"value\": " +
             number(ms[i].value) + ", \"unit\": \"" + ms[i].unit + "\"";
        if (withSamples)
            s += ", \"samples\": " + std::to_string(ms[i].samples);
        s += "}";
    }
    return s + "}";
}

/** Values of the last untraced run of this workload (for overhead). */
std::vector<Metric>
lastUntraced(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    json::Value v;
    std::vector<Metric> out;
    if (!json::parse(buf.str(), &v) || !v.get("metrics"))
        return out;
    for (const auto &[name, m] : v.get("metrics")->object)
        if (const json::Value *val = m.get("value"))
            out.push_back({name, "", val->number, 0});
    return out;
}

/**
 * Run one workload into @p r, print its environment and metrics, and
 * write its record (traced: also its spans and tracing overhead).
 * @return false when the workload could not run.
 */
bool
measure(const Config &cfg, const Oracle &oracle, Report &r)
{
    Tracer tracer(cfg.trace);
    double steal0 = stealMs();
    double t0 = nowMs();
    try {
        if (cfg.workload == "pipelines-hd")
            runPipelinesHd(cfg, oracle, tracer, r);
        else if (cfg.workload == "compile-cold")
            runCompileCold(cfg, oracle, tracer, r);
        else
            runServeMixed(cfg, oracle, tracer, r);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s: %s\n", cfg.workload.c_str(),
                     e.what());
        return false;
    }
    double wallS = (nowMs() - t0) / 1e3;
    double steal = stealMs() - steal0;
    r.add("ok_rate", "ratio",
          r.attempted ? double(r.attempted - r.failed) / double(r.attempted)
                      : 0,
          r.attempted);
    r.add("peak_rss_mb", "MB", peakRssMb(), 1);

    std::string env = environment(cfg, steal, wallS);
    std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
                cfg.workload.c_str(), (unsigned long long)cfg.seed,
                cfg.seconds, cfg.trace ? 1 : 0);
    std::printf("env %s\n", env.c_str());
    for (const std::string &n : r.notes)
        std::printf("  %s\n", n.c_str());
    for (const Metric &m : r.metrics)
        std::printf("%-34s %14.6g %-6s n=%zu\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.samples);

    std::filesystem::create_directories(cfg.outDir);
    std::string stem = cfg.outDir + "/" + cfg.workload;
    std::string overhead;
    if (cfg.trace) {
        std::string trace = ".bench_build/traces/" + cfg.workload +
                            "-seed" + std::to_string(cfg.seed) + ".json";
        std::filesystem::create_directories(".bench_build/traces");
        if (tracer.writeChrome(trace))
            std::printf("trace written to %s\n", trace.c_str());
        for (const Metric &base : lastUntraced(stem + "-latest.json")) {
            const Metric *m = r.find(base.name);
            if (!m)
                continue;
            std::printf("tracing overhead %-18s %+.6g\n", m->name.c_str(),
                        m->value - base.value);
            overhead += (overhead.empty() ? "\"" : ", \"") + m->name +
                        "\": " + number(m->value - base.value);
        }
    }
    std::string record = "{\"env\": " + env + ", \"attempted\": " +
                         std::to_string(r.attempted) + ", \"failed\": " +
                         std::to_string(r.failed) +
                         ", \"metrics\": " + metricsJson(r.metrics, true) +
                         ", \"tracing_overhead\": {" + overhead + "}}\n";
    std::ofstream(stem + "-seed" + std::to_string(cfg.seed) + "-trace" +
                  std::to_string(cfg.trace ? 1 : 0) + ".json")
        << record;
    if (!cfg.trace)
        std::ofstream(stem + "-latest.json") << record;
    return true;
}

/**
 * A traced run profiles every layer: the metrics @p cfg's workload
 * does not produce come from traced runs of the other workloads,
 * which are the ones that exercise those layers.
 */
bool
addOtherLayers(const Config &cfg, const Oracle &oracle, Report &r)
{
    for (const char *w : kWorkloads) {
        if (cfg.workload == w)
            continue;
        Config other = cfg;
        other.workload = w;
        Report o;
        if (!measure(other, oracle, o))
            return false;
        for (const Metric &m : o.metrics)
            if (!r.find(m.name))
                r.metrics.push_back(m);
        r.attempted += o.attempted;
        r.failed += o.failed;
    }
    return true;
}

/** The result line; @return whether every checked operation passed. */
bool
printResult(const Report &r)
{
    bool correct = r.attempted > 0 && r.failed == 0;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false",
                (unsigned long long)r.attempted,
                (unsigned long long)r.failed,
                metricsJson(r.metrics, false).c_str());
    std::fflush(stdout);
    return correct;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench [--workload pipelines-hd|compile-cold|"
                 "serve-mixed] --seed N --seconds S --trace 0|1\n"
                 "       perfbench --smoke [--workload W]\n"
                 "       perfbench --regen-expected\n");
    return 2;
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Config cfg;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> std::string {
            return i + 1 < argc ? argv[++i] : "";
        };
        if (a == "--workload")
            cfg.workload = value();
        else if (a == "--seed")
            cfg.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (a == "--seconds")
            cfg.seconds = std::atof(value().c_str());
        else if (a == "--trace")
            cfg.trace = value() == "1";
        else if (a == "--smoke")
            cfg.smoke = true;
        else if (a == "--regen-expected")
            cfg.regen = true;
        else if (a == "--expected")
            cfg.expectedPath = value();
        else if (a == "--git-sha")
            cfg.gitSha = value();
        else
            return usage();
    }

    Oracle oracle;
    if (cfg.regen) {
        for (bool smoke : {true, false}) {
            cfg.smoke = smoke;
            regenServeMixed(cfg, oracle);
            regenCompileCold(cfg, oracle);
            regenPipelinesHd(cfg, oracle);
        }
        if (!oracle.save(cfg.expectedPath)) {
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         cfg.expectedPath.c_str());
            return 1;
        }
        std::printf("wrote %s\n", cfg.expectedPath.c_str());
        return 0;
    }
    std::string err;
    if (!oracle.load(cfg.expectedPath, &err)) {
        std::fprintf(stderr, "perfbench: %s\n", err.c_str());
        return 2;
    }

    if (cfg.smoke) {
        cfg.seconds = 0;
        cfg.outDir = ".bench_build/smoke";
    } else if (cfg.seconds <= 0) {
        return usage();
    }
    // No --workload: every workload in turn (smoke: traced too).
    int rc = 0;
    bool ran = false;
    for (const char *w : kWorkloads) {
        if (!cfg.workload.empty() && cfg.workload != w)
            continue;
        ran = true;
        for (bool trace : {false, true}) {
            if (trace != cfg.trace && !cfg.smoke)
                continue;
            Config one = cfg;
            one.workload = w;
            one.trace = trace;
            Report r;
            if (!measure(one, oracle, r))
                return 1;
            if (trace && !cfg.smoke && !cfg.workload.empty() &&
                !addOtherLayers(one, oracle, r))
                return 1;
            if (!printResult(r) && cfg.smoke)
                rc = 1;
        }
    }
    return ran ? rc : usage();
}
