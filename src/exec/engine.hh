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
 * The team size a run of @p threads uses: @p threads itself, or one
 * per hardware thread when it is 0. This is the one parallel rule of
 * every tier: a team of one runs sequentially, a larger team runs
 * the tile regions its plan proves independent.
 *
 *   bytecode -- fully-parallel bands run under a blocking
 *               parallel_for over their tiles; a wavefront band
 *               drains its inter-tile dependence DAG
 *               (deps::tileGraph) through a ready queue when the
 *               DAG's critical path is shorter than its tile count,
 *               and runs sequentially when the DAG is a chain; serial
 *               bands stay sequential.
 *   native   -- fully-parallel top-level tile bands run on an OpenMP
 *               tile team compiled into the kernel; every other band
 *               stays sequential (see planNativeTeam in native.hh).
 *   interp   -- no team: a team request runs sequentially and says
 *               so in ExecResult::parFallbackReason.
 *
 * Parallel runs are bit-identical to sequential runs: tiles of a
 * fully-parallel band write disjoint footprints, and the wavefront
 * DAG orders every cross-tile dependence.
 */
unsigned resolveThreads(unsigned threads);

/**
 * Whether a native kernel emits a tile team. Not an execution knob:
 * the tier ladder derives {Static, n} from the resolved thread count
 * (see resolveThreads); the type stays for callers that compile a
 * team kernel directly through NativeOptions (the HD benchmark's
 * two-thread row).
 */
enum class ParStrategy
{
    Off,
    Static,
};

/** Lane width of the bytecode VM's vector blocks (a compile-time
 *  probe of the host ISA: 8 with AVX2/AVX-512, 4 otherwise). Every
 *  untraced bytecode run takes the blocks wherever a loop admits
 *  them (see exec/bytecode.hh); ExecStats::simdLoops/simdLanes
 *  count them. */
unsigned simdWidth();

/** Counters of one parallel run (all zero on sequential runs). */
struct ParRunStats
{
    unsigned threads = 0;   ///< worker threads used (0: sequential)
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
    /** Worker threads: 1 runs sequentially, N > 1 runs a tile team
     *  of N, 0 one per hardware thread (see resolveThreads). */
    unsigned threads = 1;
    /** Per-band classifications from deps::tileGraph, keyed by
     *  bandId. Without them every region stays sequential (the
     *  coincident flags alone do not prove tile independence once
     *  post-tiling fusion introduces extension statements). */
    const std::vector<deps::TileBandGraph> *tileBands = nullptr;
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
    /** Why a requested tile team degraded to sequential ("" when
     *  it ran as requested). */
    std::string parFallbackReason;
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
 * One named point in the backend space (tier x team size).
 * Every registered backend promises buffers bit-identical to the
 * Tier-0 interpreter: the native emitter pins `-ffp-contract=off`,
 * parallel tiles write disjoint footprints in program order, and the
 * bytecode lane blocks apply the exact scalar op sequence per lane.
 * The differential tests (BackendSweep in tests/test_exec.cc)
 * enforce the contract per workload.
 */
struct BackendSpec
{
    const char *name;  ///< stable id, e.g. "bytecode-par4"
    Tier tier;
    unsigned threads;  ///< ExecOptions::threads (1: sequential)
};

/** Every backend the engine can run, in reporting order. Each
 *  parallel tier appears at two team sizes so the TSAN gate
 *  exercises real cross-thread interleavings. */
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
