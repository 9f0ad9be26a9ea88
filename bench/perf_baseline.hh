/**
 * @file
 * Shared machinery of the machine-readable perf baseline
 * (BENCH_presburger.json / BENCH_compile_time.json): compiling each
 * registry workload twice in the same process — once in the baseline
 * configuration (forced-heap SmallVec rows, op cache off, i.e. the
 * pre-overhaul Presburger layer) and once optimized (inline rows,
 * cache on) — and comparing wall time, FM work and generated code.
 *
 * Both configurations run the identical binary; the baseline is
 * selected purely through the ScopedForceHeap test hook and
 * CompileContext::setOpCacheEnabled(false), so the measured delta is
 * exactly the row-storage + memoization work, not compiler-flag
 * noise. The generated C of both sides must be byte-identical; every
 * consumer of these helpers checks it.
 */

#ifndef POLYFUSE_BENCH_PERF_BASELINE_HH
#define POLYFUSE_BENCH_PERF_BASELINE_HH

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.hh"
#include "driver/compile_context.hh"
#include "driver/registry.hh"
#include "exec/native.hh"
#include "support/small_vec.hh"

namespace polyfuse {
namespace bench {

/** One timed compilation (full pipeline, deps included). */
struct PerfMeasurement
{
    double ms = 0;         ///< fastest rep's pipeline wall time
    pres::fm::Counters fm; ///< that rep's context totals
    std::string code;      ///< emitNativeSource of the produced AST
};

/** One side of the A/B comparison. */
struct PerfVariant
{
    bool opCache = true;    ///< memoize Presburger operations
    bool inlineRows = true; ///< false forces SmallVec rows to heap
};

/** Compile @p p (a registry workload's program) once per rep with
 *  strategy "ours" and the workload's default tiles; keep the
 *  fastest rep. The program is built by the caller, once, so reps
 *  measure compilation only. */
inline PerfMeasurement
compileForPerf(const driver::WorkloadSpec &w, const ir::Program &p,
               const PerfVariant &v, int reps)
{
    PerfMeasurement best;
    best.ms = 1e30;
    for (int rep = 0; rep < reps; ++rep) {
        std::unique_ptr<support::ScopedForceHeap> heap;
        if (!v.inlineRows)
            heap.reset(new support::ScopedForceHeap());
        driver::CompileContext ctx;
        ctx.setOpCacheEnabled(v.opCache);
        driver::PipelineOptions opts;
        opts.strategy = Strategy::Ours;
        opts.tileSizes = w.defaultTiles;
        Timer t;
        auto state = driver::Pipeline(opts).run(p, ctx);
        double ms = t.milliseconds();
        if (ms < best.ms) {
            best.ms = ms;
            best.fm = ctx.fmCounters();
            best.code = exec::emitNativeSource(p, state.ast);
        }
    }
    return best;
}

/** Baseline vs optimized on one workload. */
struct PerfComparison
{
    std::string name;
    PerfMeasurement baseline;  ///< heap rows + cache off
    PerfMeasurement optimized; ///< inline rows + cache on

    double
    speedup() const
    {
        return optimized.ms > 0 ? baseline.ms / optimized.ms : 0;
    }

    /** Optimized run's cache hit rate in [0, 1]. */
    double
    hitRate() const
    {
        double total = double(optimized.fm.cacheHits) +
                       double(optimized.fm.cacheMisses);
        return total > 0 ? optimized.fm.cacheHits / total : 0;
    }

    /** Byte-identical generated C (the correctness gate). */
    bool identical() const { return baseline.code == optimized.code; }
};

/** Compare every registry workload, baseline then optimized, in
 *  registry order. Sequential by construction (--jobs 1). */
inline std::vector<PerfComparison>
sweepRegistryPerf(int reps)
{
    std::vector<PerfComparison> out;
    for (const auto &w : driver::workloadRegistry()) {
        ir::Program p = w.make(w.defaults);
        PerfComparison c;
        c.name = w.name;
        c.baseline = compileForPerf(w, p, {false, false}, reps);
        c.optimized = compileForPerf(w, p, {true, true}, reps);
        out.push_back(std::move(c));
    }
    return out;
}

/** Geometric-mean speedup over a sweep. */
inline double
geomeanSpeedup(const std::vector<PerfComparison> &cs)
{
    if (cs.empty())
        return 0;
    double log_sum = 0;
    for (const auto &c : cs)
        log_sum += std::log(c.speedup());
    return std::exp(log_sum / double(cs.size()));
}

/** One workload's JSON object (shared BENCH_*.json row schema). */
inline std::string
perfComparisonJson(const PerfComparison &c)
{
    std::string out = "{\"name\": \"" + c.name + "\"";
    out += ", \"baselineMs\": " + fmt(c.baseline.ms, "%.4f");
    out += ", \"optimizedMs\": " + fmt(c.optimized.ms, "%.4f");
    out += ", \"speedup\": " + fmt(c.speedup(), "%.4f");
    out += ", \"fmElims\": " +
           std::to_string(c.optimized.fm.eliminations);
    out += ", \"fmRows\": " +
           std::to_string(c.optimized.fm.constraintsVisited);
    out += ", \"cacheHits\": " +
           std::to_string(c.optimized.fm.cacheHits);
    out += ", \"cacheMisses\": " +
           std::to_string(c.optimized.fm.cacheMisses);
    out += ", \"cacheHitRate\": " + fmt(c.hitRate(), "%.4f");
    out += ", \"identicalCode\": ";
    out += c.identical() ? "true" : "false";
    out += "}";
    return out;
}

} // namespace bench
} // namespace polyfuse

#endif // POLYFUSE_BENCH_PERF_BASELINE_HH
