/**
 * @file
 * Batch compilation: run many independent (program, options) jobs
 * through the driver's pass pipeline, fanned out over a fixed thread
 * pool. This is the production entry point the paper's compile-time
 * story implies — post-tiling composition is cheap enough that the
 * real workload is compiling hundreds of workload x strategy x
 * tile-size variants, not one kernel — and it is what `polyfuse
 * --all --jobs N`, the E7 bench sweep and the tile-size auto-tuner
 * build on.
 *
 * Every job compiles against its own CompileContext, so per-job
 * PassStats (including the FM counters) are byte-identical whether
 * the batch runs on 1 thread or N.
 */

#ifndef POLYFUSE_DRIVER_BATCH_HH
#define POLYFUSE_DRIVER_BATCH_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "driver/artifact.hh"
#include "driver/pipeline.hh"
#include "support/budget.hh"
#include "support/json.hh"

namespace polyfuse {
namespace driver {

/** One unit of batch work. */
struct BatchJob
{
    /** Label in reports ("workload/strategy" by convention). */
    std::string name;

    /** Program factory, invoked on the worker thread (program
     *  construction is part of the job's wall time). Must be safe to
     *  call concurrently with the other jobs' factories. */
    std::function<ir::Program()> make;

    /** Driver options of this job. */
    PipelineOptions options;
};

/** What one batch job produced. */
struct BatchJobResult
{
    std::string name;

    /** The compiled kernel artifact (valid only when ok). Owns the
     *  program through its image, so the result is self-contained,
     *  movable, and directly executable via executeKernel. */
    KernelArtifact artifact;

    /** The job's context totals (FM work of exactly this job). */
    pres::fm::Counters fm;

    /** Build + compile wall time, measured on the worker thread. */
    double wallMs = 0;

    bool ok = false;
    std::string error; ///< failure message when !ok
};

/** Resource policy of one compileBatch call. */
struct BatchOptions
{
    /** Worker threads (0 = hardware concurrency; 1 runs inline). */
    unsigned jobsN = 0;

    /** Per-job wall-clock deadline in milliseconds (0 = none). Caps
     *  budget.wallMs when both are set. */
    double timeoutMs = 0;

    /** Per-job resource budget (each job gets its own window). */
    Budget budget;

    /** Optional external cancellation token; tripping it makes every
     *  not-yet-finished job fail with a "cancelled" error. */
    CancelToken *cancel = nullptr;

    /** Cancel the rest of the batch after the first job failure. */
    bool failFast = false;

    /** Shared kernel cache consulted/populated by every job (null:
     *  each job compiles from scratch). Thread-safe, so concurrent
     *  jobs share it directly. */
    exec::KernelCache *kernelCache = nullptr;

    /** Execution tier baked into each job's artifact fingerprint. */
    exec::Tier tier = exec::Tier::Bytecode;
};

/** Everything a compileBatch call produced. */
struct BatchResult
{
    std::vector<BatchJobResult> jobs; ///< input order, not finish order
    unsigned jobsN = 1;               ///< worker threads used
    double wallMs = 0;                ///< batch wall-clock time

    /** Number of failed jobs. */
    unsigned failed() const;

    /** Number of jobs the budget downgraded to a cheaper strategy. */
    unsigned downgradedCount() const;

    /** Sum of per-job compileMs (scheduling + codegen, no deps). */
    double totalCompileMs() const;

    /** Sum of the per-job FM counters. */
    pres::fm::Counters fmTotals() const;

    /** Aligned cross-job summary table (one line per job). */
    std::string summary() const;

    /** One JSON object: {"jobs": [...], "jobsN": ..., "wallMs": ...,
     *  "totalCompileMs": ...}; per-job stats use PassStats::json. */
    json::Value json() const;
};

/**
 * Compile every job, @p jobsN at a time (0 = hardware concurrency;
 * 1 runs inline on the calling thread with no pool). Job failures
 * (FatalError/PanicError/std::exception) are captured per job, never
 * thrown. Results land in input order.
 */
BatchResult compileBatch(std::vector<BatchJob> jobs,
                         unsigned jobsN = 0);

/** compileBatch with a full resource policy: per-job budgets and
 *  deadlines, external cancellation, fail-fast. */
BatchResult compileBatch(std::vector<BatchJob> jobs,
                         const BatchOptions &options);

/** Process exit code for a finished batch: 1 when any job failed, or
 *  (under @p strict) when any job was downgraded; 0 otherwise. */
int batchExitCode(const BatchResult &result, bool strict);

} // namespace driver
} // namespace polyfuse

#endif // POLYFUSE_DRIVER_BATCH_HH
