#include "driver/artifact.hh"

#include <thread>
#include <utility>

#include "support/logging.hh"
#include "support/timer.hh"

namespace polyfuse {
namespace driver {

namespace {

/** Bump whenever the mixed structure below (or ir/pres mixers)
 *  changes meaning: persistent stores key on the result. */
constexpr const char *kFingerprintVersion = "polyfuse-kernel-v2";

/** One PassStat snapshotting the cache's aggregate counters. */
PassStat
cacheStat(const exec::KernelCache &cache, bool hit, double lookup_ms)
{
    exec::KernelCache::Counters c = cache.counters();
    PassStat ps;
    ps.name = "KernelCache";
    ps.ms = lookup_ms;
    ps.endMs = lookup_ms;
    ps.counters.emplace_back("hit", hit ? 1 : 0);
    ps.counters.emplace_back("cache_hits", int64_t(c.hits));
    ps.counters.emplace_back("cache_misses", int64_t(c.misses));
    ps.counters.emplace_back("cache_insertions",
                             int64_t(c.insertions));
    ps.counters.emplace_back("cache_evictions",
                             int64_t(c.evictions));
    ps.counters.emplace_back("cache_entries",
                             int64_t(cache.entries()));
    ps.counters.emplace_back("cache_bytes", int64_t(cache.bytes()));
    ps.counters.emplace_back("lookup_ns", int64_t(c.lookupNs));
    return ps;
}

} // namespace

pres::Fingerprint
programFingerprint(const ir::Program &program,
                   const PipelineOptions &options, exec::Tier tier,
                   exec::ParStrategy par, unsigned par_threads)
{
    pres::Fingerprinter fp;
    fp.mix(kFingerprintVersion);
    ir::mixProgram(fp, program);
    // Everything that changes emitted code; budgetFallback is policy
    // about *when* to compile cheaper, not *what* code a completed
    // non-downgraded compile produces, so it is deliberately absent
    // (and downgraded artifacts are never cached).
    fp.mix(strategyName(options.strategy));
    fp.mix(uint64_t(options.tileSizes.size()));
    for (int64_t s : options.tileSizes)
        fp.mixSigned(s);
    fp.mix(uint64_t(options.innerTileSizes.size()));
    for (int64_t s : options.innerTileSizes)
        fp.mixSigned(s);
    fp.mix(uint64_t(options.targetParallelism));
    fp.mix(uint64_t(options.startup));
    fp.mixDouble(options.maxRecompute);
    fp.mix(uint64_t(options.footprintDilation));
    fp.mixBool(options.gen.promoteIntermediates);
    fp.mix(exec::tierName(tier));
    // The tile-team shape is baked into a parallel native TU, so it
    // (and the probed toolchain mode deciding OpenMP vs generated
    // std::thread) must key the artifact.
    if (tier == exec::Tier::Native &&
        par != exec::ParStrategy::Off) {
        fp.mix(exec::parStrategyName(par));
        unsigned nt = par_threads
                          ? par_threads
                          : std::thread::hardware_concurrency();
        if (nt == 0)
            nt = 1;
        fp.mix(uint64_t(nt));
        fp.mix(exec::nativeParModeName(
            exec::NativeKernel::parallelToolchain()));
    }
    return fp.fingerprint();
}

KernelArtifact
compileKernel(const Pipeline &pipeline,
              std::shared_ptr<const ir::Program> program,
              CompileContext &ctx,
              const ArtifactOptions &artifact_options)
{
    if (!program)
        fatal("compileKernel: null program");

    KernelArtifact artifact;
    artifact.fingerprint = programFingerprint(
        *program, pipeline.options(), artifact_options.tier,
        artifact_options.par, artifact_options.parThreads);
    artifact.requestedStrategy = pipeline.options().strategy;
    artifact.effectiveStrategy = pipeline.options().strategy;

    exec::KernelCache *cache = artifact_options.cache;
    if (cache) {
        Timer lookup;
        std::shared_ptr<const exec::KernelImage> image =
            cache->find(artifact.fingerprint);
        double lookup_ms = lookup.milliseconds();
        if (image) {
            artifact.image = std::move(image);
            artifact.fromCache = true;
            artifact.stats.add(cacheStat(*cache, true, lookup_ms));
            return artifact;
        }
    }

    CompilationState state = pipeline.run(*program, ctx);
    double pipeline_ms = state.stats.totalMs();

    auto image = std::make_shared<exec::KernelImage>();
    image->program = program;
    image->ast = state.ast;
    image->genBands = std::move(state.genBands);
    image->tileBands = std::move(state.tileBands);

    Timer lower;
    image->bytecode =
        exec::BytecodeKernel::compile(*program, image->ast);
    PassStat lower_ps;
    lower_ps.name = "LowerBytecode";
    lower_ps.ms = lower.milliseconds();
    lower_ps.endMs = pipeline_ms + lower_ps.ms;
    lower_ps.counters.emplace_back(
        "instructions", int64_t(image->bytecode.numInstructions()));
    lower_ps.counters.emplace_back(
        "statements", int64_t(image->bytecode.numStatements()));
    lower_ps.counters.emplace_back(
        "tile_regions", int64_t(image->bytecode.numTileRegions()));
    image->bytes = exec::estimateImageBytes(*image);

    artifact.stats = std::move(state.stats);
    artifact.stats.add(std::move(lower_ps));
    artifact.requestedStrategy = state.requestedStrategy;
    artifact.effectiveStrategy = state.effectiveStrategy;
    artifact.fallbackTrail = std::move(state.fallbackTrail);
    artifact.image = std::move(image);

    if (cache) {
        if (!artifact.downgraded())
            cache->insert(artifact.fingerprint, artifact.image);
        artifact.stats.add(cacheStat(*cache, false, 0));
    }
    return artifact;
}

KernelArtifact
compileKernel(const Pipeline &pipeline,
              std::shared_ptr<const ir::Program> program,
              const ArtifactOptions &artifact_options)
{
    CompileContext ctx;
    return compileKernel(pipeline, std::move(program), ctx,
                         artifact_options);
}

exec::ExecResult
executeKernel(const KernelArtifact &artifact, exec::Buffers &buffers,
              const exec::ExecOptions &options)
{
    if (!artifact.ok())
        fatal("executeKernel: artifact has no image");
    return exec::execute(*artifact.image, buffers, options);
}

} // namespace driver
} // namespace polyfuse
