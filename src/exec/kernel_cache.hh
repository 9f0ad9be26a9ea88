/**
 * @file
 * The process-wide kernel cache: compiled kernels as immutable,
 * fingerprint-addressable artifacts shared across requests, threads
 * and (via the driver's KernelArtifact wrapper) pipeline runs.
 *
 * A KernelImage freezes everything the executor needs to run a
 * compiled program on any tier: the owning ir::Program, the generated
 * AST, the per-band GeneratedBand markers, the TileGraph
 * classifications, the pre-lowered BytecodeKernel, and a lazily
 * compiled+dlopen'ed native kernel. Images are immutable after
 * construction (the native slot is a mutex-guarded memo, compiled at
 * most once), so one image can execute concurrently from any number
 * of threads -- the property PR 5 established for BytecodeKernel,
 * extended to the whole artifact.
 *
 * KernelCache shards a byte-capacity LRU (support/lru.hh, the same
 * policy as the Presburger op cache) over the 128-bit program
 * fingerprints of driver::programFingerprint. A hit returns a
 * shared_ptr, so an image stays alive while in use even if evicted
 * concurrently. Hit/miss/insertion/eviction/latency counters surface
 * through PassStats and `--emit json`; executing a cached workload
 * skips the entire Presburger/codegen pipeline.
 */

#ifndef POLYFUSE_EXEC_KERNEL_CACHE_HH
#define POLYFUSE_EXEC_KERNEL_CACHE_HH

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "codegen/generate.hh"
#include "deps/tile_graph.hh"
#include "exec/bytecode.hh"
#include "exec/engine.hh"
#include "exec/native.hh"
#include "ir/program.hh"
#include "pres/fingerprint.hh"
#include "support/lru.hh"

namespace polyfuse {
namespace exec {

/** Everything needed to execute one compiled program, frozen. */
struct KernelImage
{
    /** Owns the program, since cached kernels outlive the compiling
     *  call; the transient image of execute(program, ast, ...)
     *  borrows it instead. */
    std::shared_ptr<const ir::Program> program;
    codegen::AstPtr ast;
    std::vector<codegen::GeneratedBand> genBands;
    std::vector<deps::TileBandGraph> tileBands;
    BytecodeKernel bytecode;
    /** Estimated resident bytes (LRU weight); see
     *  estimateImageBytes. */
    uint64_t bytes = 0;

    /**
     * The native-tier kernel, compiled+dlopen'ed on first request
     * (thread-safe). Success and *permanent* failures (no toolchain,
     * missing symbol) are memoized; *transient* failures (flaky cc,
     * failed dlopen, full /tmp) are not, so a later call -- e.g. the
     * compile service's retry-with-backoff -- re-attempts the
     * compile. @return null when the native tier is unavailable,
     * with the reason in @p reason and the transient/permanent
     * classification in @p transient (each when non-null).
     */
    const NativeKernel *ensureNative(std::string *reason = nullptr,
                                     bool *transient = nullptr)
        const;

    /**
     * The native kernel of the tile team planNativeTeam gives
     * @p options (options.tileBands defaults to the image's own
     * classifications). Each team size memoizes in its own slot, so a
     * warm image can never serve a kernel compiled for a different
     * team; a request whose plan runs sequentially gets the
     * sequential kernel, and @p reason says why. On null, @p reason
     * and @p transient describe the failure as above.
     */
    const NativeKernel *ensureNative(const NativeOptions &options,
                                     std::string *reason,
                                     bool *transient = nullptr) const;

  private:
    /** One memoized native compile per planned team size. */
    struct NativeSlot
    {
        unsigned threads = 1; ///< planned team size (1: sequential)
        NativeKernel kernel;
        bool tried = false;
    };

    /** unique_ptr keeps returned kernel pointers stable while the
     *  slot list grows under concurrent backend requests. */
    mutable std::mutex nativeMu_;
    mutable std::vector<std::unique_ptr<NativeSlot>> nativeSlots_;
};

/** The native kernel request of a run of @p threads (the one rule
 *  of resolveThreads): the sequential kernel for a team of one, a
 *  static tile team of the resolved size otherwise. The tier ladder
 *  and the compile service's retry loop both pass it to
 *  ensureNative, so both reach the slot the team plan picks. */
NativeOptions nativeTeam(unsigned threads);

/** Rough resident-byte estimate of @p image for LRU weighting. */
uint64_t estimateImageBytes(const KernelImage &image);

/**
 * Execute a frozen image over @p buffers: the one implementation of
 * the tier ladder (engine.hh), reusing the image's pre-compiled
 * bytecode and memoized native kernel instead of recompiling, and
 * defaulting ExecOptions::tileBands to the image's own
 * classifications. exec::execute(program, ast, ...) runs every
 * non-interpreter tier through here on a transient image.
 */
ExecResult execute(const KernelImage &image, Buffers &buffers,
                   const ExecOptions &options = {});

/** Process-wide, thread-safe, sharded LRU over kernel images. */
class KernelCache
{
  public:
    /** Aggregate lifetime counters (monotonic; clear() resets none
     *  of them, matching OpCache::Stats semantics). */
    struct Counters
    {
        uint64_t hits = 0;
        uint64_t misses = 0;
        uint64_t insertions = 0;
        uint64_t evictions = 0;
        uint64_t lookupNs = 0; ///< total time spent in find()
    };

    static constexpr uint64_t kDefaultCapacityBytes =
        256ull * 1024 * 1024;
    static constexpr unsigned kDefaultShards = 8;

    explicit KernelCache(
        uint64_t capacity_bytes = kDefaultCapacityBytes,
        unsigned shards = kDefaultShards);

    /** Look up @p fp; a hit bumps recency and returns a strong
     *  reference (safe to keep across concurrent evictions). */
    std::shared_ptr<const KernelImage>
    find(const pres::Fingerprint &fp);

    /** Insert (or overwrite) @p image under @p fp; weight is
     *  image->bytes (estimated when zero). */
    void insert(const pres::Fingerprint &fp,
                std::shared_ptr<const KernelImage> image);

    /** Drop every entry (not counted as evictions). */
    void clear();

    /** Re-split @p bytes evenly over the shards, evicting to fit. */
    void setCapacityBytes(uint64_t bytes);

    uint64_t capacityBytes() const;

    Counters counters() const;

    size_t entries() const;

    /** Sum of resident image weights. */
    uint64_t bytes() const;

    /** The process-wide instance shared by every thread. */
    static KernelCache &process();

  private:
    struct Shard
    {
        mutable std::mutex mu;
        LruMap<pres::Fingerprint, std::shared_ptr<const KernelImage>,
               pres::FingerprintHash>
            lru;
        Counters counters;

        explicit Shard(uint64_t capacity) : lru(capacity) {}
    };

    Shard &shardFor(const pres::Fingerprint &fp);

    std::vector<std::unique_ptr<Shard>> shards_;
};

} // namespace exec
} // namespace polyfuse

#endif // POLYFUSE_EXEC_KERNEL_CACHE_HH
