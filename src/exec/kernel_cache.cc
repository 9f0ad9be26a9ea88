#include "exec/kernel_cache.hh"

#include <chrono>

#include "support/failpoint.hh"
#include "support/logging.hh"

namespace polyfuse {
namespace exec {

const NativeKernel *
KernelImage::ensureNative(std::string *reason, bool *transient) const
{
    return ensureNative(NativeOptions{}, reason, transient);
}

const NativeKernel *
KernelImage::ensureNative(const NativeOptions &options,
                          std::string *reason, bool *transient) const
{
    NativeOptions nopts = options;
    if (!nopts.tileBands)
        nopts.tileBands = &tileBands;
    const NativeTeamPlan plan = planNativeTeam(ast, nopts);
    // The sequential slot compiles the plain sequential kernel,
    // whichever request fills it first.
    if (plan.threads > 1)
        nopts.threads = plan.threads;
    else
        nopts = NativeOptions{};
    std::lock_guard<std::mutex> lock(nativeMu_);
    NativeSlot *slot = nullptr;
    for (auto &s : nativeSlots_)
        if (s->threads == plan.threads)
            slot = s.get();
    if (!slot) {
        nativeSlots_.push_back(std::make_unique<NativeSlot>());
        slot = nativeSlots_.back().get();
        slot->threads = plan.threads;
    }
    if (!slot->tried) {
        slot->kernel = NativeKernel::compile(*program, ast, nopts);
        // Memoize success and permanent failure; a transient failure
        // stays un-memoized so a retrying caller gets a fresh
        // attempt instead of the stale verdict.
        slot->tried = slot->kernel.ok() || !slot->kernel.transient();
    }
    if (slot->kernel.ok()) {
        if (reason)
            *reason = plan.reason;
        return &slot->kernel;
    }
    if (reason)
        *reason = slot->kernel.reason();
    if (transient)
        *transient = slot->kernel.transient();
    return nullptr;
}

NativeOptions
nativeTeam(unsigned threads)
{
    NativeOptions options;
    unsigned team = resolveThreads(threads);
    if (team > 1) {
        options.par = ParStrategy::Static;
        options.threads = team;
    }
    return options;
}

uint64_t
estimateImageBytes(const KernelImage &image)
{
    // A deliberately cheap over-approximation: the LRU only needs
    // relative weights that track real footprint, not exact ones.
    uint64_t b = sizeof(KernelImage);
    b += uint64_t(image.bytecode.numInstructions()) * 64;
    b += uint64_t(image.bytecode.numStatements()) * 256;
    for (const auto &band : image.genBands) {
        b += sizeof(band);
        b += band.tileSizes.size() * sizeof(int64_t);
        b += band.members.size() * sizeof(codegen::GeneratedBandMember);
    }
    for (const auto &tg : image.tileBands) {
        b += sizeof(tg);
        for (const auto &d : tg.deltas)
            b += d.size() * sizeof(int64_t);
    }
    if (image.program) {
        for (const auto &s : image.program->statements()) {
            b += sizeof(s);
            b += s.accesses().size() * 256;
        }
        b += image.program->tensors().size() *
             sizeof(ir::TensorInfo);
    }
    return b;
}

ExecResult
execute(const KernelImage &image, Buffers &buffers,
        const ExecOptions &options)
{
    ExecResult result;
    Tier tier = options.tier;
    const bool tracing = options.sink != nullptr;
    const unsigned team = resolveThreads(options.threads);
    bool want_par = team > 1;

    if (tier == Tier::Native && tracing) {
        if (!options.allowFallback)
            fatal("native tier cannot emit traces");
        result.fallbackReason = "tracing needs an instrumented tier";
        tier = Tier::Bytecode;
    }

    if (tier == Tier::Native) {
        // The parallel-native ladder: parallel compile -> sequential
        // native -> bytecode, each step with the reason recorded, and
        // every decision taken before anything executes (the same
        // planning-before-execution contract runParallel keeps).
        std::string reason;
        const NativeKernel *kernel = nullptr;
        if (want_par) {
            bool planned = true;
            std::string par_reason;
            try {
                failpoints::hit("exec.native.par.spawn");
            } catch (const std::exception &e) {
                planned = false;
                par_reason = e.what();
            }
            if (planned) {
                // The team kernel, or the sequential one with the
                // reason when the team plan runs sequentially.
                NativeOptions nopts = nativeTeam(team);
                nopts.tileBands = options.tileBands;
                kernel = image.ensureNative(nopts, &par_reason);
            }
            if (!kernel)
                kernel = image.ensureNative(&reason);
            if (kernel && kernel->threads() > 1) {
                result.par.threads = kernel->threads();
                result.par.regionsParallel =
                    kernel->regionsParallel();
                result.par.regionsSequential =
                    kernel->regionsSequential();
                result.par.criticalPath =
                    kernel->regionsParallel() ? 1 : 0;
            } else if (kernel) {
                result.parFallbackReason = par_reason;
            }
        } else {
            kernel = image.ensureNative(&reason);
        }
        if (kernel) {
            result.stats = kernel->run(buffers);
            result.tier = Tier::Native;
            return result;
        }
        if (!options.allowFallback)
            fatal("native tier unavailable: " + reason);
        result.fallbackReason = reason;
        result.par = ParRunStats{};
        tier = Tier::Bytecode;
    }

    if (tier == Tier::Bytecode) {
        const auto *bands = options.tileBands ? options.tileBands
                                              : &image.tileBands;
        if (want_par && tracing) {
            result.parFallbackReason =
                "tracing requires sequential execution";
            want_par = false;
        }
        if (want_par)
            result.stats = image.bytecode.runParallel(
                buffers, team, bands, result.par,
                result.parFallbackReason);
        else if (tracing)
            result.stats = image.bytecode.run(buffers, *options.sink);
        else
            result.stats = image.bytecode.run(buffers);
        result.tier = Tier::Bytecode;
        return result;
    }

    // Interp tier: no precompiled form to reuse; the (program, AST)
    // overload runs the interpreter directly.
    return execute(*image.program, image.ast, buffers, options);
}

KernelCache::KernelCache(uint64_t capacity_bytes, unsigned shards)
{
    if (!shards)
        shards = 1;
    uint64_t per = capacity_bytes / shards;
    for (unsigned i = 0; i < shards; ++i)
        shards_.push_back(std::make_unique<Shard>(per ? per : 1));
}

KernelCache::Shard &
KernelCache::shardFor(const pres::Fingerprint &fp)
{
    // h2 picks the shard, h1 indexes inside it: independent lanes, so
    // shard skew does not correlate with in-shard collisions.
    return *shards_[size_t(fp.h2 % shards_.size())];
}

std::shared_ptr<const KernelImage>
KernelCache::find(const pres::Fingerprint &fp)
{
    auto t0 = std::chrono::steady_clock::now();
    Shard &shard = shardFor(fp);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto *entry = shard.lru.find(fp);
    std::shared_ptr<const KernelImage> image =
        entry ? *entry : nullptr;
    if (image)
        ++shard.counters.hits;
    else
        ++shard.counters.misses;
    shard.counters.lookupNs += uint64_t(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    return image;
}

void
KernelCache::insert(const pres::Fingerprint &fp,
                    std::shared_ptr<const KernelImage> image)
{
    if (!image)
        return;
    uint64_t weight =
        image->bytes ? image->bytes : estimateImageBytes(*image);
    Shard &shard = shardFor(fp);
    std::lock_guard<std::mutex> lock(shard.mu);
    ++shard.counters.insertions;
    shard.counters.evictions +=
        shard.lru.insert(fp, std::move(image), weight);
}

void
KernelCache::clear()
{
    for (auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mu);
        shard->lru.clear();
    }
}

void
KernelCache::setCapacityBytes(uint64_t bytes)
{
    uint64_t per = bytes / shards_.size();
    for (auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mu);
        shard->counters.evictions +=
            shard->lru.setCapacity(per ? per : 1);
    }
}

uint64_t
KernelCache::capacityBytes() const
{
    uint64_t total = 0;
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mu);
        total += shard->lru.capacity();
    }
    return total;
}

KernelCache::Counters
KernelCache::counters() const
{
    Counters total;
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mu);
        total.hits += shard->counters.hits;
        total.misses += shard->counters.misses;
        total.insertions += shard->counters.insertions;
        total.evictions += shard->counters.evictions;
        total.lookupNs += shard->counters.lookupNs;
    }
    return total;
}

size_t
KernelCache::entries() const
{
    size_t total = 0;
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mu);
        total += shard->lru.size();
    }
    return total;
}

uint64_t
KernelCache::bytes() const
{
    uint64_t total = 0;
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mu);
        total += shard->lru.weight();
    }
    return total;
}

KernelCache &
KernelCache::process()
{
    static KernelCache cache;
    return cache;
}

} // namespace exec
} // namespace polyfuse
