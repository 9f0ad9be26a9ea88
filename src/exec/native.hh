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
 * Every kernel compiles with one line, which the TU's first comment
 * prints: `-O2 -march=native -ftree-vectorize
 * -fvect-cost-model=dynamic -fno-math-errno -ffp-contract=off`
 * (`-fopenmp` added for a tile team). The point loops vectorize and
 * no flag changes a value; `-march=native` is safe because the
 * process that builds a kernel loads it. The TU includes no system
 * header, only declarations of the names it uses, and reaches each
 * tensor through its own `restrict` pointer (see emitNativeSource).
 *
 * A tile team is the one parallel form of a native kernel: an
 * OpenMP `parallel` region with a `for schedule(static)` over each
 * top-level tile loop of a fully-parallel band, built with
 * `-fopenmp`. Whether a request gets one is decided once, by
 * planNativeTeam, before anything is emitted or compiled.
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

/** How to compile a native kernel beyond the sequential default. */
struct NativeOptions
{
    /** Off emits the sequential kernel; Static asks for an OpenMP
     *  tile team over the fully-parallel top-level tile bands
     *  (native has no wavefront executor, so wavefront/serial bands
     *  stay sequential). The tier ladder sets it from the thread
     *  count (nativeTeam in kernel_cache.hh); the field stays for
     *  callers that compile a team kernel directly
     *  (perfbench/hd.cc). */
    ParStrategy par = ParStrategy::Off;
    /** Tile-team size (0: one per hardware thread, see
     *  resolveThreads). Baked into the emitted code, so each size
     *  has its own kernel-cache slot. */
    unsigned threads = 0;
    /** Band classifications proving tile independence (same
     *  contract as ExecOptions::tileBands); without them every
     *  band stays sequential. */
    const std::vector<deps::TileBandGraph> *tileBands = nullptr;
};

/** The tile team a kernel compiled under some NativeOptions gets. */
struct NativeTeamPlan
{
    /** Team size baked into the kernel (1: the sequential kernel). */
    unsigned threads = 1;
    /** Why a requested team runs sequentially ("" when the team
     *  runs as requested, or none was requested). */
    std::string reason;
};

/**
 * The one decision whether @p options get a tile team over @p ast:
 * a team of resolveThreads(options.threads) when a team is requested,
 * some fully-parallel band has a top-level tile loop, the team has
 * more than one thread and the C toolchain links `-fopenmp`; the
 * sequential kernel with the first failed condition as the reason
 * otherwise. NativeKernel::compile emits from it and
 * KernelImage::ensureNative picks its slot by it, so a request that
 * cannot get a team reuses the sequential kernel.
 */
NativeTeamPlan planNativeTeam(const codegen::AstPtr &ast,
                              const NativeOptions &options);

/**
 * Emit @p ast as a self-contained C translation unit defining
 * `void pf_kernel(double **pf_bufs)`, where `pf_bufs[t]` is the flat
 * buffer of tensor t. pf_kernel forwards each `pf_bufs[t]` to
 * `static void pf_body(double *restrict pf_t0, ...)`, which holds the
 * nest. Precondition: no two `pf_bufs[t]` overlap -- each tensor is
 * its own allocation, as exec::Buffers keeps one std::vector per
 * tensor (scratchpad arenas are separate mallocs inside the kernel).
 * Program parameters are folded in as named
 * `const int64_t` constants; scratchpad promotions become lexically
 * scoped views into arenas owned by the kernel call (or, inside a
 * tile team, by each worker), grown on demand and reused across
 * tiles, filled by a copy-in only when codegen kept it. Each
 * statement's block opens with a comment naming the statement, so
 * statements stay identifiable in the text. With @p threads > 1,
 * top-level tile loops of bands classified fully parallel in
 * @p bands get an OpenMP tile team of that size;
 * @p regions_parallel / @p regions_sequential (optional) report how
 * many top-level tile bands were parallelized vs kept sequential.
 */
std::string emitNativeSource(const ir::Program &program,
                             const codegen::AstPtr &ast,
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
     * Emit, compile and load the kernel, with the tile team
     * planNativeTeam gives @p options (the sequential kernel by
     * default). Never throws for missing toolchain / compile / load
     * problems -- those come back as ok() == false with reason()
     * set, so callers can fall back.
     */
    static NativeKernel compile(const ir::Program &program,
                                const codegen::AstPtr &ast,
                                const NativeOptions &options = {});

    /** True when the shared object is loaded and runnable. */
    bool ok() const { return handle_ != nullptr; }

    /** Why compile() produced a non-runnable kernel. */
    const std::string &reason() const { return reason_; }

    /** True when the failure is worth retrying (see file comment);
     *  meaningless when ok(). */
    bool transient() const { return transient_; }

    /** Wall time compile() took: emit, `cc` and `dlopen`, a failed
     *  attempt included. */
    double buildMs() const { return build_ms_; }

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

    /** True when the C toolchain accepts *and links* `-fopenmp`, so
     *  a kernel can carry a tile team (cached). */
    static bool parallelToolchain();

  private:
    struct Handle; ///< dlopen lifetime; dlclose on destruction

    /** compile() without its clock. */
    static NativeKernel build(const ir::Program &program,
                              const codegen::AstPtr &ast,
                              const NativeOptions &options);

    std::shared_ptr<Handle> handle_;
    std::string reason_ = "not compiled";
    bool transient_ = false;
    double build_ms_ = 0;
    unsigned threads_ = 1;
    unsigned regions_parallel_ = 0;
    unsigned regions_sequential_ = 0;
};

} // namespace exec
} // namespace polyfuse

#endif // POLYFUSE_EXEC_NATIVE_HH
