/**
 * @file
 * The compile stage as a first-class value: plan (fingerprint) ->
 * compile (an immutable KernelArtifact) -> execute, layered on top of
 * Pipeline::run.
 *
 * A KernelArtifact bundles a frozen exec::KernelImage (program, AST,
 * GeneratedBand markers, TileGraph classifications, bytecode, lazy
 * native handle) with the driver-level compile record (PassStats,
 * requested/effective strategy, fallback trail). Artifacts are
 * addressed by programFingerprint(), which extends the Presburger op
 * cache's 128-bit structural fingerprinting to whole compilations.
 *
 * Fingerprint stability contract (on top of pres/fingerprint.hh and
 * ir/fingerprint.hh): the fingerprint covers everything that changes
 * the emitted code -- the program structure, the strategy, both tile
 * size lists, target parallelism, the startup fusion policy, the
 * recompute guard, footprint dilation, codegen flags, and the
 * requested execution tier -- and nothing that does not (budget
 * limits, fallback policy, thread counts, trace sinks, cache
 * settings). It is invariant across contexts, threads and runs, so
 * the process-wide KernelCache and the on-disk tuning store can both
 * key on it. A version tag is mixed first; bump it whenever the
 * mixed structure (or the meaning of any mixed field) changes.
 *
 * Cache-correctness invariant: a budget-downgraded compile (non-empty
 * fallbackTrail) produced code for a *cheaper* strategy than the
 * options fingerprinted, so compileKernel never inserts downgraded
 * artifacts into the cache -- a later, less-constrained compile of
 * the same key must be able to produce (and cache) the real thing.
 */

#ifndef POLYFUSE_DRIVER_ARTIFACT_HH
#define POLYFUSE_DRIVER_ARTIFACT_HH

#include <memory>
#include <string>
#include <vector>

#include "driver/pipeline.hh"
#include "exec/kernel_cache.hh"
#include "ir/fingerprint.hh"

namespace polyfuse {
namespace driver {

/**
 * The plan stage: fingerprint of compiling @p program under
 * @p options for @p tier. See the stability contract above.
 *
 * Backend parameters fold in exactly when they change emitted
 * code: with tier == Native and a parallel @p par, the strategy,
 * the resolved team size and the probed parallel toolchain mode
 * are mixed (the tile-team shape is baked into the native TU), so
 * a warm cache hit can never serve a kernel compiled for a
 * different backend. The bytecode VM's parallel strategy is no
 * input: it changes no emitted code.
 */
pres::Fingerprint
programFingerprint(const ir::Program &program,
                   const PipelineOptions &options, exec::Tier tier,
                   exec::ParStrategy par = exec::ParStrategy::Off,
                   unsigned par_threads = 0);

/** Knobs of compileKernel beyond the pipeline options. */
struct ArtifactOptions
{
    /** Kernel cache to consult/populate (null: always compile). */
    exec::KernelCache *cache = nullptr;

    /** Execution tier the artifact targets (part of the
     *  fingerprint; the native handle still compiles lazily). */
    exec::Tier tier = exec::Tier::Bytecode;

    /** Tile scheduling strategy the kernel will run with; part of
     *  the fingerprint only when tier == Native (see
     *  programFingerprint). */
    exec::ParStrategy par = exec::ParStrategy::Off;

    /** Team size for a parallel native kernel (0: hardware
     *  count); fingerprint-relevant only when tier == Native and
     *  par != Off. */
    unsigned parThreads = 0;
};

/** An immutable compiled kernel plus its compile-time record. */
struct KernelArtifact
{
    /** The plan-stage fingerprint the artifact is addressed by. */
    pres::Fingerprint fingerprint;

    /** The frozen executable image (shared with the cache). */
    std::shared_ptr<const exec::KernelImage> image;

    /** Per-pass wall times and counters of this compile (a single
     *  "KernelCache" pass on a cache hit). */
    PassStats stats;

    Strategy requestedStrategy = Strategy::Ours;
    Strategy effectiveStrategy = Strategy::Ours;

    /** One entry per abandoned attempt: "<strategy>: <reason>". */
    std::vector<std::string> fallbackTrail;

    /** True when the artifact came out of the kernel cache. */
    bool fromCache = false;

    bool ok() const { return image != nullptr; }

    bool downgraded() const { return !fallbackTrail.empty(); }

    /** Scheduling + codegen + lowering ms, dependence analysis
     *  excluded (mirrors CompilationState::compileMs). */
    double compileMs() const
    {
        return stats.totalMs() - stats.msOf("ComputeDeps");
    }
};

/**
 * The compile stage: produce the artifact for @p program under
 * @p pipeline's options, consulting @p artifact_options.cache first.
 * A hit skips the entire Presburger/codegen pipeline (the returned
 * stats record only the lookup); a miss runs Pipeline::run against
 * @p ctx, lowers the bytecode once ("LowerBytecode" pass), and
 * populates the cache (unless the compile was downgraded; see the
 * invariant above). Shares Pipeline::run's exception behaviour.
 */
KernelArtifact compileKernel(const Pipeline &pipeline,
                             std::shared_ptr<const ir::Program> program,
                             CompileContext &ctx,
                             const ArtifactOptions &artifact_options = {});

/** compileKernel against a context local to the call. */
KernelArtifact compileKernel(const Pipeline &pipeline,
                             std::shared_ptr<const ir::Program> program,
                             const ArtifactOptions &artifact_options = {});

/**
 * The execute stage: run the artifact's image over @p buffers.
 * Thin veneer over exec::execute(image, ...); the artifact's
 * tileBands flow in automatically when options.tileBands is null.
 */
exec::ExecResult executeKernel(const KernelArtifact &artifact,
                               exec::Buffers &buffers,
                               const exec::ExecOptions &options = {});

} // namespace driver
} // namespace polyfuse

#endif // POLYFUSE_DRIVER_ARTIFACT_HH
