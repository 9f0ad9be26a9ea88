#include "driver/batch.hh"

#include <cstdio>
#include <exception>

#include "support/failpoint.hh"
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

json::Value
BatchResult::json() const
{
    json::Value list(json::Value::Kind::Array);
    for (const auto &j : jobs) {
        json::Value job;
        job.set("name", j.name);
        job.set("ok", j.ok);
        job.set("wallMs", j.wallMs);
        if (j.ok) {
            job.set("compileMs", j.artifact.compileMs());
            job.set("fmElims", j.fm.eliminations);
            job.set("fmRows", j.fm.constraintsVisited);
            job.set("cacheHits", j.fm.cacheHits);
            job.set("cacheMisses", j.fm.cacheMisses);
            job.set("strategy",
                    strategyName(j.artifact.requestedStrategy));
            job.set("effective",
                    strategyName(j.artifact.effectiveStrategy));
            job.set("downgrades", j.artifact.fallbackTrail.size());
            job.set("stats", j.artifact.stats.json());
        } else {
            job.set("error", j.error);
        }
        list.push(std::move(job));
    }
    json::Value out;
    out.set("jobs", std::move(list));
    out.set("jobsN", jobsN);
    out.set("wallMs", wallMs);
    out.set("totalCompileMs", totalCompileMs());
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
