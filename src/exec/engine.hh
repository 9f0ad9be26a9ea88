/**
 * @file
 * The tier dispatcher: one entry point over the three execution
 * tiers, with graceful degradation.
 *
 *   Tier::Interp   -- the Tier-0 reference interpreter (executor.hh)
 *   Tier::Bytecode -- the Tier-1 bytecode VM (bytecode.hh), default
 *   Tier::Native   -- the Tier-2 dlopen'ed C kernel (native.hh)
 *
 * Requesting Tier::Native with tracing, or when no toolchain /
 * compile / dlopen step works out, falls back to the bytecode tier
 * (unless allowFallback is off, which turns the condition into a
 * FatalError); the result records the tier that actually ran and
 * why any fallback happened, so callers -- the CLI, benchmarks,
 * robustness tests -- can report it. That ladder has one
 * implementation, exec::execute(const KernelImage &, ...) in
 * kernel_cache.hh; the (program, AST) overload below adapts onto it.
 */

#ifndef POLYFUSE_EXEC_ENGINE_HH
#define POLYFUSE_EXEC_ENGINE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "deps/tile_graph.hh"
#include "exec/executor.hh"

namespace polyfuse {
namespace exec {

/** Which execution engine runs the generated AST. */
enum class Tier
{
    Interp,   ///< tree-walking reference interpreter
    Bytecode, ///< compiled bytecode tape (default)
    Native,   ///< dlopen'ed C kernel via the system compiler
};

/** Stable lower-case name ("interp" | "bytecode" | "native"). */
const char *tierName(Tier tier);

/** Parse a tierName() spelling; false (and *out untouched) on
 *  anything else. */
bool parseTier(const std::string &text, Tier *out);

/**
 * How tile regions are scheduled across threads (bytecode tier).
 *
 *   Off    -- sequential lexicographic order (the default).
 *   Static -- fully-parallel bands run under a blocking parallel_for
 *             over their tiles; wavefront/serial bands stay
 *             sequential.
 *   Graph  -- fully-parallel bands take the static fast path;
 *             wavefront bands run through the dynamic ready-queue
 *             executor driven by the inter-tile dependence stencil
 *             (deps::tileGraph); serial bands stay sequential.
 *
 * Parallel runs are bit-identical to sequential runs: tiles of a
 * fully-parallel band write disjoint footprints, and the wavefront
 * DAG orders every cross-tile dependence.
 */
enum class ParStrategy
{
    Off,
    Static,
    Graph,
};

/** Stable lower-case name ("off" | "static" | "graph"). */
const char *parStrategyName(ParStrategy strategy);

/** Parse a parStrategyName() spelling; false (and *out untouched) on
 *  anything else. */
bool parseParStrategy(const std::string &text, ParStrategy *out);

/**
 * Whether the bytecode tier may take its vectorized fast path over
 * unit-stride interval-solved inner loops (see exec/bytecode.hh).
 * Off is the default; On enables per-loop selection with a scalar
 * tail. The vector path executes lanes block-wise with the exact
 * scalar operation sequence per lane -- no reassociation -- so it
 * stays bit-identical to scalar execution.
 */
enum class SimdMode
{
    Off,
    On,
};

/** Stable lower-case name ("off" | "on"). */
const char *simdModeName(SimdMode mode);

/** Parse a simdModeName() spelling; false (and *out untouched) on
 *  anything else. */
bool parseSimdMode(const std::string &text, SimdMode *out);

/** Lane width the vectorized bytecode path executes per block (a
 *  compile-time probe of the host ISA: 8 with AVX2/AVX-512, 4
 *  otherwise). */
unsigned simdWidth();

/** Counters of one parallel run (all zero on sequential runs). */
struct ParRunStats
{
    unsigned threads = 0;   ///< worker threads used (0: sequential)
    ParStrategy strategy = ParStrategy::Off; ///< strategy that ran
    uint64_t regionsParallel = 0;   ///< tile regions run in parallel
    uint64_t regionsSequential = 0; ///< regions kept sequential
    uint64_t tilesExecuted = 0;     ///< tiles launched onto workers
    uint64_t waits = 0;  ///< ready-queue empty spins across workers
    /** Longest dependence chain (in tiles) over the wavefront
     *  regions executed; 1 for purely coincident runs. */
    uint64_t criticalPath = 0;
};

/** How to execute. */
struct ExecOptions
{
    Tier tier = Tier::Bytecode;
    /** Fall back to a lower tier instead of failing (native only). */
    bool allowFallback = true;
    /** Batched trace consumer (interp/bytecode tiers only). */
    TraceSink *sink = nullptr;
    /** Worker threads for parallel strategies (0: hardware count). */
    unsigned threads = 1;
    /** Tile scheduling strategy (bytecode tier only). */
    ParStrategy par = ParStrategy::Off;
    /** Per-band classifications from deps::tileGraph, keyed by
     *  bandId. Without them every region stays sequential (the
     *  coincident flags alone do not prove tile independence once
     *  post-tiling fusion introduces extension statements). */
    const std::vector<deps::TileBandGraph> *tileBands = nullptr;
    /** Vectorized bytecode fast path (bytecode tier only). */
    SimdMode simd = SimdMode::Off;
};

/** What execute() did. */
struct ExecResult
{
    ExecStats stats;
    Tier tier = Tier::Bytecode; ///< the tier that actually ran
    /** Why `tier` differs from the requested one ("" when it ran). */
    std::string fallbackReason;
    /** Parallel-run counters (threads == 0 when sequential ran). */
    ParRunStats par;
    /** Why a requested parallel strategy degraded to sequential
     *  ("" when it ran as requested). */
    std::string parFallbackReason;
    /** The SIMD mode that was actually enabled for the run. */
    SimdMode simd = SimdMode::Off;
    /** Why a requested SimdMode::On degraded to scalar ("" when it
     *  ran as requested; per-loop selection still applies). */
    std::string simdFallbackReason;
};

/**
 * Execute @p ast over @p buffers on the requested tier. Tier::Interp
 * runs the reference interpreter directly; every other tier wraps
 * the AST in a transient, non-owning KernelImage (bytecode lowered
 * once, options.tileBands as given) and runs execute(image, ...).
 * Throws FatalError when fallback is disabled and the tier cannot
 * run, or on program shapes no tier supports.
 */
ExecResult execute(const ir::Program &program,
                   const codegen::AstPtr &ast, Buffers &buffers,
                   const ExecOptions &options = {});

/**
 * One named point in the backend space (tier x par x simd) together
 * with its numerical contract. Every registered backend promises
 * either bit-identical buffers against the Tier-0 interpreter
 * (bitIdentical == true; the emitters use `-ffp-contract=off` and
 * the vector path never reassociates) or a bounded L-infinity
 * residual (maxAbsResidual). The differential tests (BackendSweep
 * in tests/test_exec.cc) enforce the contract per workload.
 */
struct BackendSpec
{
    const char *name;  ///< stable id, e.g. "bytecode-par4-simd"
    Tier tier;
    ParStrategy par;
    unsigned threads;  ///< worker threads when par != Off
    SimdMode simd;
    bool bitIdentical;     ///< contract: exact buffer equality
    double maxAbsResidual; ///< contract bound when !bitIdentical
};

/** Every backend the engine can run, in reporting order. The list
 *  covers the parallel strategies at >= 2 thread counts so the TSAN
 *  gate exercises real cross-thread interleavings. */
const std::vector<BackendSpec> &backendRegistry();

/** Look a backend up by its stable name; nullptr when unknown. */
const BackendSpec *findBackend(const std::string &name);

/** The ExecOptions that request exactly @p spec. */
ExecOptions backendOptions(const BackendSpec &spec);

/** How far @p got strayed from @p ref, over every tensor. */
struct BufferDeviation
{
    double maxAbs = 0;    ///< L-infinity deviation
    uint64_t maxUlp = 0;  ///< worst lane distance in representable
                          ///< doubles (sign-magnitude ordering)
    bool bitIdentical = true;
};

/** Measure @p got against the reference buffers @p ref (same
 *  program). NaN-vs-non-NaN lanes count as ULONG_MAX ulps. */
BufferDeviation bufferDeviation(const ir::Program &program,
                                const Buffers &ref,
                                const Buffers &got);

} // namespace exec
} // namespace polyfuse

#endif // POLYFUSE_EXEC_ENGINE_HH
