/**
 * @file
 * Tier-2 execution: the generated AST emitted as self-contained C,
 * compiled through the system C compiler into a shared object, and
 * dlopen'ed. This is the one AST-to-C emitter: `polyfuse --emit c`
 * prints the same sequential translation unit this tier compiles, so
 * the text a user reads is the kernel that runs, and wall-clock
 * numbers reflect machine code rather than any interpreter.
 *
 * The emitted source pins down bit-exact semantics against the
 * reference interpreter: the same guarded-division / clamped-log
 * forms, llround()-ed indirection indices, and `-ffp-contract=off`
 * so the C compiler cannot fuse multiply-adds the interpreter
 * evaluates separately (tests/test_exec.cc asserts exact buffer
 * equality when a toolchain is present).
 *
 * Everything degrades gracefully: no compiler on PATH, a failed
 * compile, or a failed dlopen yield a NativeKernel with ok() ==
 * false and a human-readable reason(); exec/engine.hh then falls
 * back to the bytecode tier. Failures additionally classify as
 * transient (a flaky `cc` invocation, a failed dlopen, a full or
 * unwritable /tmp -- conditions that can clear on their own) or
 * permanent (no toolchain at all, a missing kernel symbol --
 * retrying cannot help), which is what the compile service's
 * retry-with-backoff keys on. The compile and load steps carry the
 * failpoints `exec.native.compile`, `exec.native.transient` and
 * `exec.native.dlopen` so the robustness suite can force each
 * failure deterministically.
 */

#ifndef POLYFUSE_EXEC_NATIVE_HH
#define POLYFUSE_EXEC_NATIVE_HH

#include <memory>
#include <string>

#include "exec/engine.hh"
#include "exec/executor.hh"

namespace polyfuse {
namespace exec {

/**
 * How the emitted translation unit executes top-level tile loops of
 * fully-parallel bands.
 *
 *   Seq     -- strictly sequential C (the classic Tier-2 kernel).
 *   Omp     -- C with a `#pragma omp parallel` team and a
 *              `#pragma omp for schedule(static)` over each eligible
 *              tile loop; needs a toolchain that accepts and links
 *              `-fopenmp`.
 *   Threads -- C++ with a generated std::thread chunked tile-team
 *              per eligible loop (the fallback when OpenMP is
 *              unavailable but a C++ compiler is); a failed thread
 *              spawn degrades *inside the kernel*: already-spawned
 *              chunks are joined and the unspawned remainder runs on
 *              the calling thread, so results never depend on how
 *              many workers actually started.
 */
enum class NativeParMode
{
    Seq,
    Omp,
    Threads,
};

/** Stable lower-case name ("seq" | "omp" | "threads"). */
const char *nativeParModeName(NativeParMode mode);

/** How to compile a native kernel beyond the sequential default. */
struct NativeOptions
{
    /** Off emits the sequential kernel. Static and Graph both
     *  parallelize fully-parallel top-level tile bands (native has
     *  no wavefront executor; wavefront/serial bands stay
     *  sequential under either spelling). */
    ParStrategy par = ParStrategy::Off;
    /** Tile-team size (0: one per hardware thread). Baked into the
     *  emitted code, so it is part of the kernel-cache key. */
    unsigned threads = 0;
    /** Band classifications proving tile independence (same
     *  contract as ExecOptions::tileBands); without them every
     *  band stays sequential. */
    const std::vector<deps::TileBandGraph> *tileBands = nullptr;
};

/**
 * Emit @p ast as a self-contained translation unit defining
 * `void pf_kernel(double **pf_bufs)` (with C linkage), where
 * `pf_bufs[t]` is the flat buffer of tensor t. Program parameters
 * are folded in as named `const int64_t` constants; scratchpad
 * promotions become lexically scoped views into arenas owned by the
 * kernel call (or, inside a tile-team, by each worker), grown on
 * demand and reused across tiles, filled by a copy-in only when
 * codegen kept it. Each statement's block opens with a comment
 * naming the statement, so statements stay identifiable in the
 * text. With a
 * parallel @p mode, top-level tile loops of bands classified fully
 * parallel in @p bands get a tile-team;
 * @p regions_parallel / @p regions_sequential (optional) report how
 * many top-level tile bands were parallelized vs kept sequential.
 */
std::string emitNativeSource(const ir::Program &program,
                             const codegen::AstPtr &ast,
                             NativeParMode mode = NativeParMode::Seq,
                             unsigned threads = 1,
                             const std::vector<deps::TileBandGraph>
                                 *bands = nullptr,
                             unsigned *regions_parallel = nullptr,
                             unsigned *regions_sequential = nullptr);

/** A dlopen'ed compiled kernel (or the reason there isn't one). */
class NativeKernel
{
  public:
    /** Not runnable; ok() == false. */
    NativeKernel() = default;

    /**
     * Emit, compile and load the kernel. Never throws for missing
     * toolchain / compile / load problems -- those come back as
     * ok() == false with reason() set, so callers can fall back.
     */
    static NativeKernel compile(const ir::Program &program,
                                const codegen::AstPtr &ast);

    /**
     * As above, but honoring @p options: with a parallel strategy
     * requested, picks the strongest available parallel toolchain
     * (OpenMP, then generated std::thread, per parallelToolchain())
     * and emits tile-teams over the fully-parallel top-level bands.
     * When the request degrades to a sequential kernel -- no
     * eligible bands, no parallel toolchain -- the kernel still
     * compiles ok() and parReason() says why it runs sequentially.
     */
    static NativeKernel compile(const ir::Program &program,
                                const codegen::AstPtr &ast,
                                const NativeOptions &options);

    /** True when the shared object is loaded and runnable. */
    bool ok() const { return handle_ != nullptr; }

    /** Why compile() produced a non-runnable kernel. */
    const std::string &reason() const { return reason_; }

    /** True when the failure is worth retrying (see file comment);
     *  meaningless when ok(). */
    bool transient() const { return transient_; }

    /** How the compiled kernel parallelizes (Seq unless a parallel
     *  strategy was requested, admitted and emitted). */
    NativeParMode parMode() const { return par_mode_; }

    /** Why a requested parallel strategy came out sequential (""
     *  when it was emitted, or was never requested). */
    const std::string &parReason() const { return par_reason_; }

    /** Tile-team size baked into the kernel (1 when sequential). */
    unsigned threads() const { return threads_; }

    /** Top-level tile bands that got a tile-team. */
    unsigned regionsParallel() const { return regions_parallel_; }

    /** Top-level tile bands kept sequential. */
    unsigned regionsSequential() const { return regions_sequential_; }

    /**
     * Run the kernel over @p buffers. Only wall-clock seconds is
     * populated in the returned stats -- machine code carries no
     * instance/load/store counters. Throws FatalError when !ok().
     */
    ExecStats run(Buffers &buffers) const;

    /** True when a working C compiler is on this machine (cached). */
    static bool toolchainAvailable();

    /**
     * Which parallel emission mode compile() would pick on this
     * machine (cached probes): Omp when the C toolchain accepts and
     * links `-fopenmp`, else Threads when a C++ compiler handles
     * std::thread with `-pthread`, else Seq. Part of the
     * kernel-cache fingerprint, so a cache populated under one
     * toolchain cannot serve another.
     */
    static NativeParMode parallelToolchain();

  private:
    struct Handle; ///< dlopen lifetime; dlclose on destruction

    std::shared_ptr<Handle> handle_;
    std::string reason_ = "not compiled";
    bool transient_ = false;
    NativeParMode par_mode_ = NativeParMode::Seq;
    std::string par_reason_;
    unsigned threads_ = 1;
    unsigned regions_parallel_ = 0;
    unsigned regions_sequential_ = 0;
};

} // namespace exec
} // namespace polyfuse

#endif // POLYFUSE_EXEC_NATIVE_HH
