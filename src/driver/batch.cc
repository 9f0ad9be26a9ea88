#include "driver/batch.hh"

#include <cstdio>
#include <exception>

#include "support/failpoint.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "support/thread_pool.hh"
#include "support/timer.hh"

namespace polyfuse {
namespace driver {

namespace {

/** Run one job on the current thread, capturing failures. */
void
runJob(const BatchJob &job, const BatchOptions &opts,
       const CancelToken *cancel, BatchJobResult &out)
{
    out.name = job.name;
    Timer t;
    try {
        failpoints::hit("driver.job." + job.name);
        CompileContext ctx;
        ctx.budget = opts.budget;
        if (opts.timeoutMs > 0 &&
            (ctx.budget.wallMs == 0 ||
             opts.timeoutMs < ctx.budget.wallMs))
            ctx.budget.wallMs = opts.timeoutMs;
        ctx.cancel.chainTo(cancel);
        auto program = std::make_shared<ir::Program>(job.make());
        ArtifactOptions aopts;
        aopts.cache = opts.kernelCache;
        aopts.tier = opts.tier;
        out.artifact = compileKernel(Pipeline(job.options),
                                     std::move(program), ctx, aopts);
        out.fm = ctx.fmCounters();
        out.ok = true;
    } catch (const std::exception &e) {
        out.artifact = KernelArtifact{};
        out.error = e.what();
        out.ok = false;
    }
    out.wallMs = t.milliseconds();
}

} // namespace

unsigned
BatchResult::failed() const
{
    unsigned n = 0;
    for (const auto &j : jobs)
        n += j.ok ? 0 : 1;
    return n;
}

unsigned
BatchResult::downgradedCount() const
{
    unsigned n = 0;
    for (const auto &j : jobs)
        n += j.ok && j.artifact.downgraded() ? 1 : 0;
    return n;
}

double
BatchResult::totalCompileMs() const
{
    double total = 0;
    for (const auto &j : jobs)
        if (j.ok)
            total += j.artifact.compileMs();
    return total;
}

pres::fm::Counters
BatchResult::fmTotals() const
{
    pres::fm::Counters total;
    for (const auto &j : jobs)
        total += j.fm;
    return total;
}

std::string
BatchResult::summary() const
{
    std::string out;
    char line[256];
    std::snprintf(line, sizeof(line), "%-24s %10s %10s %12s  %s\n",
                  "job", "wall_ms", "compile_ms", "fm_elims",
                  "status");
    out += line;
    for (const auto &j : jobs) {
        std::string status =
            !j.ok ? "FAILED: " + j.error
            : j.artifact.downgraded()
                ? std::string("ok (downgraded to ") +
                      strategyName(j.artifact.effectiveStrategy) + ")"
                : std::string("ok");
        std::snprintf(
            line, sizeof(line), "%-24s %10.3f %10.3f %12llu  %s\n",
            j.name.c_str(), j.wallMs,
            j.ok ? j.artifact.compileMs() : 0.0,
            static_cast<unsigned long long>(j.fm.eliminations),
            status.c_str());
        out += line;
    }
    pres::fm::Counters fm = fmTotals();
    std::snprintf(line, sizeof(line),
                  "%zu jobs (%u failed), jobs=%u, wall %.3f ms, "
                  "compile sum %.3f ms, fm_elims %llu\n",
                  jobs.size(), failed(), jobsN, wallMs,
                  totalCompileMs(),
                  static_cast<unsigned long long>(fm.eliminations));
    out += line;
    return out;
}

std::string
BatchResult::json() const
{
    std::string out = "{\"jobs\": [";
    char buf[64];
    bool first = true;
    for (const auto &j : jobs) {
        if (!first)
            out += ", ";
        first = false;
        out += "{\"name\": \"" + json::escape(j.name) + "\", \"ok\": ";
        out += j.ok ? "true" : "false";
        std::snprintf(buf, sizeof(buf), "%.4f", j.wallMs);
        out += ", \"wallMs\": " + std::string(buf);
        if (j.ok) {
            std::snprintf(buf, sizeof(buf), "%.4f",
                          j.artifact.compileMs());
            out += ", \"compileMs\": " + std::string(buf);
            out += ", \"fmElims\": " +
                   std::to_string(j.fm.eliminations);
            out += ", \"fmRows\": " +
                   std::to_string(j.fm.constraintsVisited);
            out += ", \"cacheHits\": " +
                   std::to_string(j.fm.cacheHits);
            out += ", \"cacheMisses\": " +
                   std::to_string(j.fm.cacheMisses);
            out += ", \"strategy\": \"" +
                   std::string(
                       strategyName(j.artifact.requestedStrategy)) +
                   "\"";
            out += ", \"effective\": \"" +
                   std::string(
                       strategyName(j.artifact.effectiveStrategy)) +
                   "\"";
            out += ", \"downgrades\": " +
                   std::to_string(j.artifact.fallbackTrail.size());
            out += ", \"stats\": " + j.artifact.stats.json();
        } else {
            out += ", \"error\": \"" + json::escape(j.error) + "\"";
        }
        out += "}";
    }
    out += "], \"jobsN\": " + std::to_string(jobsN);
    std::snprintf(buf, sizeof(buf), "%.4f", wallMs);
    out += ", \"wallMs\": " + std::string(buf);
    std::snprintf(buf, sizeof(buf), "%.4f", totalCompileMs());
    out += ", \"totalCompileMs\": " + std::string(buf) + "}";
    return out;
}

BatchResult
compileBatch(std::vector<BatchJob> jobs, const BatchOptions &options)
{
    unsigned jobsN = options.jobsN == 0 ? ThreadPool::defaultThreads()
                                        : options.jobsN;
    BatchResult result;
    result.jobsN = jobsN;
    result.jobs.resize(jobs.size());

    // One token for the whole batch: failFast trips it, and the
    // caller's external token (when given) feeds every job too.
    CancelToken batch_token;
    CancelToken *token =
        options.cancel ? options.cancel : &batch_token;

    Timer t;
    if (jobsN == 1 || jobs.size() <= 1) {
        // Inline: exactly the sequential path, no pool overhead.
        for (size_t i = 0; i < jobs.size(); ++i) {
            runJob(jobs[i], options, token, result.jobs[i]);
            if (options.failFast && !result.jobs[i].ok)
                token->cancel();
        }
    } else {
        // One job per chunk: jobs are coarse and runJob already
        // captures its own failures, so the pool's failure log stays
        // empty unless the harness itself breaks.
        ThreadPool pool(jobsN);
        pool.parallelFor(
            0, int64_t(jobs.size()), 1, [&](int64_t lo, int64_t hi) {
                for (int64_t i = lo; i < hi; ++i) {
                    runJob(jobs[size_t(i)], options, token,
                           result.jobs[size_t(i)]);
                    if (options.failFast && !result.jobs[size_t(i)].ok)
                        token->cancel();
                }
            });
    }
    result.wallMs = t.milliseconds();
    return result;
}

BatchResult
compileBatch(std::vector<BatchJob> jobs, unsigned jobsN)
{
    BatchOptions options;
    options.jobsN = jobsN;
    return compileBatch(std::move(jobs), options);
}

int
batchExitCode(const BatchResult &result, bool strict)
{
    if (result.failed() > 0)
        return 1;
    if (strict && result.downgradedCount() > 0)
        return 1;
    return 0;
}

} // namespace driver
} // namespace polyfuse
