/**
 * @file
 * Tests for the kernel-artifact layer (ISSUE 7): whole-program
 * fingerprint semantics, the process-wide kernel cache, the
 * fingerprint-keyed tuning store, and the shared LRU policy of the
 * Presburger op cache.
 *
 * The heart of the file is the registry-wide differential sweep:
 * for every registered workload and a spread of strategies, the
 * cache-off, cache-cold and cache-warm compiles must execute to
 * bit-identical buffers with identical ExecStats -- a cached kernel
 * is indistinguishable from a fresh one in everything but compile
 * time.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "driver/artifact.hh"
#include "driver/registry.hh"
#include "exec/kernel_cache.hh"
#include "perfmodel/autotune.hh"
#include "perfmodel/tune_db.hh"
#include "pres/op_cache.hh"
#include "pres/parser.hh"
#include "service/server.hh"
#include "support/logging.hh"
#include "workloads/conv2d.hh"

namespace polyfuse {
namespace driver {
namespace {

std::shared_ptr<const ir::Program>
smallConv()
{
    return std::make_shared<const ir::Program>(
        workloads::makeConv2D({16, 16, 3, 3}));
}

/** Small sizes so the whole registry compiles and runs quickly. */
WorkloadParams
smallParams(const WorkloadSpec &spec)
{
    WorkloadParams p = spec.defaults;
    p.rows = std::min<int64_t>(p.rows, 48);
    p.cols = std::min<int64_t>(p.cols, 48);
    return p;
}

/** ExecStats equality, wall-clock excluded. */
void
expectSameStats(const exec::ExecStats &a, const exec::ExecStats &b)
{
    EXPECT_EQ(a.instances, b.instances);
    EXPECT_EQ(a.loads, b.loads);
    EXPECT_EQ(a.stores, b.stores);
    EXPECT_EQ(a.guardFails, b.guardFails);
    EXPECT_EQ(a.flops, b.flops);
}

/** Bit-identical buffer contents (exact double equality). */
void
expectSameBuffers(const exec::Buffers &a, const exec::Buffers &b)
{
    ASSERT_EQ(a.numTensors(), b.numTensors());
    for (size_t t = 0; t < a.numTensors(); ++t) {
        const auto &da = a.data(int(t));
        const auto &db = b.data(int(t));
        ASSERT_EQ(da.size(), db.size()) << "tensor " << t;
        for (size_t i = 0; i < da.size(); ++i)
            ASSERT_EQ(da[i], db[i])
                << "tensor " << t << " element " << i;
    }
}

TEST(ProgramFingerprint, StableAcrossContextsThreadsAndRuns)
{
    PipelineOptions opts;
    auto fp0 = programFingerprint(*smallConv(), opts,
                                  exec::Tier::Bytecode);
    // Re-built program, repeated runs: identical.
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(programFingerprint(*smallConv(), opts,
                                     exec::Tier::Bytecode),
                  fp0);
    // Other threads (each with its own thread-local pres state).
    std::vector<pres::Fingerprint> got(4);
    std::vector<std::thread> threads;
    for (size_t i = 0; i < got.size(); ++i)
        threads.emplace_back([&, i] {
            got[i] = programFingerprint(*smallConv(), opts,
                                        exec::Tier::Bytecode);
        });
    for (auto &t : threads)
        t.join();
    for (const auto &fp : got)
        EXPECT_EQ(fp, fp0);
    // The hex spelling round-trips through the parser.
    pres::Fingerprint parsed;
    ASSERT_TRUE(pres::parseFingerprint(fp0.hex(), &parsed));
    EXPECT_EQ(parsed, fp0);
}

TEST(ProgramFingerprint, DistinguishesEverythingThatChangesCode)
{
    auto program = smallConv();
    PipelineOptions base;
    auto fp = [&](const PipelineOptions &o, exec::Tier tier) {
        return programFingerprint(*program, o, tier);
    };
    auto base_fp = fp(base, exec::Tier::Bytecode);

    PipelineOptions tiles = base;
    tiles.tileSizes = {16, 16};
    EXPECT_NE(fp(tiles, exec::Tier::Bytecode), base_fp);

    PipelineOptions inner = base;
    inner.innerTileSizes = {8, 8};
    EXPECT_NE(fp(inner, exec::Tier::Bytecode), base_fp);

    PipelineOptions strat = base;
    strat.strategy = Strategy::PolyMage;
    EXPECT_NE(fp(strat, exec::Tier::Bytecode), base_fp);

    PipelineOptions par = base;
    par.targetParallelism = 2;
    EXPECT_NE(fp(par, exec::Tier::Bytecode), base_fp);

    PipelineOptions gen = base;
    gen.gen.promoteIntermediates = false;
    EXPECT_NE(fp(gen, exec::Tier::Bytecode), base_fp);

    PipelineOptions dil = base;
    dil.footprintDilation = 1;
    EXPECT_NE(fp(dil, exec::Tier::Bytecode), base_fp);

    EXPECT_NE(fp(base, exec::Tier::Native), base_fp);
    EXPECT_NE(fp(base, exec::Tier::Interp), base_fp);

    // A different program is a different key.
    auto other = std::make_shared<const ir::Program>(
        workloads::makeConv2D({24, 16, 3, 3}));
    EXPECT_NE(programFingerprint(*other, base, exec::Tier::Bytecode),
              base_fp);

    // budgetFallback is a policy, not a codegen input: same key.
    PipelineOptions fb = base;
    fb.budgetFallback = false;
    EXPECT_EQ(fp(fb, exec::Tier::Bytecode), base_fp);
}

TEST(KernelCache, BackendFlipNeverServesTheWrongKernel)
{
    // The team size is no part of the key: one cached image serves
    // native, native-par2 and native-par4, each from its own
    // per-shape slot, so flipping the backend between runs of the
    // same image never hands out a kernel compiled for another team.
    if (!exec::NativeKernel::parallelToolchain())
        GTEST_SKIP() << "no OpenMP toolchain on this machine";
    exec::KernelCache cache;
    auto program = smallConv();
    Pipeline pipeline{PipelineOptions{}};
    ArtifactOptions aopts;
    aopts.cache = &cache;
    aopts.tier = exec::Tier::Native;
    auto a = compileKernel(pipeline, program, aopts);
    ASSERT_TRUE(a.ok());

    exec::Buffers ref(*program);
    service::fillServiceInputs(*program, ref);
    exec::ExecOptions interp;
    interp.tier = exec::Tier::Interp;
    exec::execute(*program, a.image->ast, ref, interp);

    std::set<const exec::NativeKernel *> slots;
    for (const char *name :
         {"native", "native-par2", "native-par4", "native-par2",
          "native"}) {
        SCOPED_TRACE(name);
        const exec::BackendSpec *spec = exec::findBackend(name);
        ASSERT_NE(spec, nullptr);
        auto b = compileKernel(pipeline, program, aopts);
        ASSERT_TRUE(b.fromCache);
        EXPECT_EQ(b.fingerprint, a.fingerprint);
        EXPECT_EQ(b.image.get(), a.image.get());

        exec::Buffers buf(*program);
        service::fillServiceInputs(*program, buf);
        exec::ExecResult r =
            executeKernel(b, buf, exec::backendOptions(*spec));
        ASSERT_EQ(r.tier, exec::Tier::Native) << r.fallbackReason;
        EXPECT_TRUE(r.parFallbackReason.empty())
            << r.parFallbackReason;
        EXPECT_EQ(r.par.threads,
                  spec->threads > 1 ? spec->threads : 0u);
        EXPECT_TRUE(
            exec::bufferDeviation(*program, ref, buf).bitIdentical);

        const exec::NativeKernel *k = b.image->ensureNative(
            exec::nativeTeam(spec->threads), nullptr);
        ASSERT_NE(k, nullptr);
        EXPECT_EQ(k->threads(), spec->threads);
        slots.insert(k);
    }
    // One slot per team size, reused when the backend flips back.
    EXPECT_EQ(slots.size(), 3u);
}

TEST(KernelCache, TeamRequestWithoutATeamReusesTheSequentialKernel)
{
    // seidel/minfuse (a wavefront) and conv2d/naive (no tile band)
    // have no fully-parallel top-level tile band: a team request is
    // answered from the sequential slot -- one kernel, one cc run --
    // and the run says why it stayed sequential. harris/ours still
    // gets a kernel of its own when the toolchain links OpenMP.
    if (!exec::NativeKernel::toolchainAvailable())
        GTEST_SKIP() << "no C toolchain on this machine";
    struct Case
    {
        const char *workload;
        Strategy strategy;
        bool parallelBand;
    };
    for (const Case &c : {Case{"seidel", Strategy::MinFuse, false},
                          Case{"conv2d", Strategy::Naive, false},
                          Case{"harris", Strategy::Ours, true}}) {
        SCOPED_TRACE(std::string(c.workload) + "/" +
                     strategyName(c.strategy));
        const WorkloadSpec *spec = findWorkload(c.workload);
        ASSERT_NE(spec, nullptr);
        auto program = std::make_shared<const ir::Program>(
            spec->make(smallParams(*spec)));
        PipelineOptions opts;
        opts.strategy = c.strategy;
        opts.tileSizes = spec->defaultTiles;
        auto art = compileKernel(Pipeline(opts), program);
        ASSERT_TRUE(art.ok());

        const exec::NativeKernel *seq = art.image->ensureNative();
        ASSERT_NE(seq, nullptr);
        std::string reason;
        const exec::NativeKernel *team =
            art.image->ensureNative(exec::nativeTeam(4), &reason);
        ASSERT_NE(team, nullptr) << reason;
        if (c.parallelBand && exec::NativeKernel::parallelToolchain()) {
            EXPECT_NE(team, seq);
            EXPECT_EQ(team->threads(), 4u);
            EXPECT_TRUE(reason.empty()) << reason;
            continue;
        }
        EXPECT_EQ(team, seq);
        EXPECT_EQ(team->threads(), 1u);
        EXPECT_FALSE(reason.empty());

        exec::Buffers ref(*program), buf(*program);
        service::fillServiceInputs(*program, ref);
        service::fillServiceInputs(*program, buf);
        exec::ExecOptions interp;
        interp.tier = exec::Tier::Interp;
        exec::execute(*program, art.image->ast, ref, interp);
        exec::ExecOptions eo;
        eo.tier = exec::Tier::Native;
        eo.threads = 4;
        exec::ExecResult r = executeKernel(art, buf, eo);
        ASSERT_EQ(r.tier, exec::Tier::Native) << r.fallbackReason;
        EXPECT_EQ(r.par.threads, 0u);
        EXPECT_EQ(r.parFallbackReason, reason);
        expectSameBuffers(ref, buf);
    }
}

TEST(KernelCache, WarmCompileSkipsThePipelineEntirely)
{
    exec::KernelCache cache;
    auto program = smallConv();
    Pipeline pipeline{PipelineOptions{}};
    ArtifactOptions aopts;
    aopts.cache = &cache;

    CompileContext cold_ctx;
    auto cold = compileKernel(pipeline, program, cold_ctx, aopts);
    ASSERT_TRUE(cold.ok());
    EXPECT_FALSE(cold.fromCache);
    EXPECT_NE(cold.stats.find("Codegen"), nullptr);
    EXPECT_GT(cold_ctx.fmCounters().eliminations, 0u);

    CompileContext warm_ctx;
    auto warm = compileKernel(pipeline, program, warm_ctx, aopts);
    ASSERT_TRUE(warm.ok());
    EXPECT_TRUE(warm.fromCache);
    EXPECT_EQ(warm.fingerprint, cold.fingerprint);
    // The hit shares the image the miss inserted.
    EXPECT_EQ(warm.image.get(), cold.image.get());
    // The stats record the lookup and nothing else: no Presburger
    // pass ran, no FM work was charged to the warm context.
    ASSERT_EQ(warm.stats.passes().size(), 1u);
    EXPECT_EQ(warm.stats.passes()[0].name, "KernelCache");
    EXPECT_EQ(warm_ctx.fmCounters().eliminations, 0u);
    EXPECT_EQ(warm_ctx.fmCounters().constraintsVisited, 0u);
    EXPECT_EQ(cache.counters().hits, 1u);
    EXPECT_EQ(cache.counters().misses, 1u);
    EXPECT_EQ(cache.counters().insertions, 1u);

    // And the cached kernel computes the same bits.
    exec::Buffers a(*program), b(*program);
    service::fillServiceInputs(*program, a);
    service::fillServiceInputs(*program, b);
    auto ra = executeKernel(cold, a);
    auto rb = executeKernel(warm, b);
    expectSameStats(ra.stats, rb.stats);
    expectSameBuffers(a, b);
}

TEST(KernelCache, RegistryWideDifferentialSweep)
{
    const Strategy strategies[] = {Strategy::Ours, Strategy::Naive,
                                   Strategy::PolyMage};
    exec::KernelCache cache;
    for (const auto &spec : workloadRegistry()) {
        auto params = smallParams(spec);
        auto program = std::make_shared<const ir::Program>(
            spec.make(params));
        for (Strategy strategy : strategies) {
            SCOPED_TRACE(std::string(spec.name) + "/" +
                         strategyName(strategy));
            PipelineOptions opts;
            opts.strategy = strategy;
            opts.tileSizes = spec.defaultTiles;
            Pipeline pipeline(opts);

            // Cache off, cache cold, cache warm.
            ArtifactOptions off;
            ArtifactOptions on;
            on.cache = &cache;
            auto plain = compileKernel(pipeline, program, off);
            auto cold = compileKernel(pipeline, program, on);
            auto warm = compileKernel(pipeline, program, on);
            ASSERT_TRUE(plain.ok());
            ASSERT_TRUE(cold.ok());
            ASSERT_TRUE(warm.ok());
            EXPECT_FALSE(cold.fromCache);
            EXPECT_TRUE(warm.fromCache);
            EXPECT_EQ(plain.fingerprint, cold.fingerprint);
            EXPECT_EQ(cold.fingerprint, warm.fingerprint);
            // The hit ran the lookup and no pipeline pass.
            ASSERT_EQ(warm.stats.passes().size(), 1u);
            EXPECT_EQ(warm.stats.passes()[0].name, "KernelCache");

            exec::Buffers ba(*program), bb(*program), bc(*program);
            service::fillServiceInputs(*program, ba);
            service::fillServiceInputs(*program, bb);
            service::fillServiceInputs(*program, bc);
            auto ra = executeKernel(plain, ba);
            auto rb = executeKernel(cold, bb);
            auto rc = executeKernel(warm, bc);
            expectSameStats(ra.stats, rb.stats);
            expectSameStats(ra.stats, rc.stats);
            expectSameBuffers(ba, bb);
            expectSameBuffers(ba, bc);
        }
    }
    EXPECT_EQ(cache.counters().evictions, 0u);
    EXPECT_EQ(cache.entries(),
              workloadRegistry().size() * 3);
}

TEST(KernelCache, EvictsUnderTinyCapacity)
{
    // A capacity small enough for roughly one image: inserting the
    // registry one after another must evict, and the counters must
    // say so.
    exec::KernelCache cache(/*capacity_bytes=*/16 * 1024,
                            /*shards=*/1);
    ArtifactOptions aopts;
    aopts.cache = &cache;
    size_t compiled = 0;
    for (const auto &spec : workloadRegistry()) {
        auto program = std::make_shared<const ir::Program>(
            spec.make(smallParams(spec)));
        PipelineOptions opts;
        opts.tileSizes = spec.defaultTiles;
        auto artifact =
            compileKernel(Pipeline(opts), program, aopts);
        ASSERT_TRUE(artifact.ok());
        ++compiled;
    }
    EXPECT_GT(cache.counters().evictions, 0u);
    EXPECT_LT(cache.entries(), compiled);
    EXPECT_LE(cache.bytes(), cache.capacityBytes());
    // Shrinking to (clamped) zero empties it.
    cache.setCapacityBytes(1);
    EXPECT_EQ(cache.entries(), 0u);
}

TEST(KernelCache, DowngradedCompilesAreNeverCached)
{
    exec::KernelCache cache;
    auto program = smallConv();
    Pipeline pipeline{PipelineOptions{}};
    ArtifactOptions aopts;
    aopts.cache = &cache;

    CompileContext tight;
    tight.budget.fmEliminations = 1; // trips on the first attempt
    auto downgraded = compileKernel(pipeline, program, tight, aopts);
    ASSERT_TRUE(downgraded.ok());
    EXPECT_TRUE(downgraded.downgraded());
    EXPECT_EQ(cache.entries(), 0u);
    EXPECT_EQ(cache.counters().insertions, 0u);

    // A later unconstrained compile of the same key gets the real
    // thing (a miss, not the downgraded artifact).
    CompileContext free_ctx;
    auto full = compileKernel(pipeline, program, free_ctx, aopts);
    ASSERT_TRUE(full.ok());
    EXPECT_FALSE(full.fromCache);
    EXPECT_FALSE(full.downgraded());
    EXPECT_EQ(full.fingerprint, downgraded.fingerprint);
    EXPECT_EQ(cache.entries(), 1u);
}

TEST(KernelCache, ConcurrentCompileAndLookupIsSafe)
{
    // Several threads compile the same few programs against one
    // shared cache: every artifact must come back valid and execute
    // to the same bits as a reference. Run under TSAN by
    // scripts/check.sh --tsan-only.
    exec::KernelCache cache(exec::KernelCache::kDefaultCapacityBytes,
                            4);
    std::vector<std::shared_ptr<const ir::Program>> programs;
    programs.push_back(smallConv());
    programs.push_back(std::make_shared<const ir::Program>(
        workloads::makeConv2D({24, 24, 3, 3})));
    programs.push_back(std::make_shared<const ir::Program>(
        workloads::makeConv2D({32, 16, 3, 3})));

    // Reference results, compiled without the cache.
    std::vector<std::string> reference;
    for (const auto &p : programs) {
        auto artifact = compileKernel(Pipeline(PipelineOptions{}), p);
        exec::Buffers buf(*p);
        service::fillServiceInputs(*p, buf);
        executeKernel(artifact, buf);
        std::string bits;
        for (size_t t = 0; t < buf.numTensors(); ++t)
            bits.append(
                reinterpret_cast<const char *>(
                    buf.data(int(t)).data()),
                buf.data(int(t)).size() * sizeof(double));
        reference.push_back(std::move(bits));
    }

    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t)
        threads.emplace_back([&, t] {
            for (int iter = 0; iter < 6; ++iter) {
                const size_t pi = size_t(t + iter) % programs.size();
                const auto &p = programs[pi];
                ArtifactOptions aopts;
                aopts.cache = &cache;
                auto artifact =
                    compileKernel(Pipeline(PipelineOptions{}), p, aopts);
                if (!artifact.ok()) {
                    ++failures;
                    continue;
                }
                exec::Buffers buf(*p);
                service::fillServiceInputs(*p, buf);
                executeKernel(artifact, buf);
                std::string bits;
                for (size_t ti = 0; ti < buf.numTensors(); ++ti)
                    bits.append(
                        reinterpret_cast<const char *>(
                            buf.data(int(ti)).data()),
                        buf.data(int(ti)).size() * sizeof(double));
                if (bits != reference[pi])
                    ++failures;
            }
        });
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(failures.load(), 0);
    // Concurrent first misses of one key may each compile and
    // insert (the overwrite is benign), so insertions can exceed the
    // key count -- but the map still holds exactly one entry per key.
    EXPECT_EQ(cache.entries(), programs.size());
    EXPECT_GE(cache.counters().insertions, programs.size());
    EXPECT_GT(cache.counters().hits, 0u);
}

TEST(OpCacheLru, EvictsLeastRecentlyUsedNotEverything)
{
    // Regression for the old wholesale flush: storing past the entry
    // ceiling must evict exactly the overflow, coldest first, and
    // count it.
    pres::fm::PresCtx ctx;
    pres::OpCache cache(/*max_entries=*/4);
    auto base = pres::parseSet("{ S[i] : 0 <= i <= 10 }");
    const pres::BasicSet &bs = base.pieces().at(0);

    std::vector<pres::OpCache::Key> keys;
    for (uint64_t i = 0; i < 6; ++i)
        keys.push_back(pres::OpCache::makeKey(
            pres::Op::ProjectOut, bs, i, 1));
    for (size_t i = 0; i < keys.size(); ++i)
        cache.storeBool(ctx, keys[i], i % 2 == 0);

    EXPECT_EQ(cache.entries(), 4u);
    EXPECT_EQ(cache.stats().evictions, 2u);
    // The two oldest are gone, the four newest survive.
    EXPECT_EQ(cache.findBool(ctx, keys[0]), nullptr);
    EXPECT_EQ(cache.findBool(ctx, keys[1]), nullptr);
    for (size_t i = 2; i < 6; ++i)
        EXPECT_NE(cache.findBool(ctx, keys[i]), nullptr)
            << "key " << i;

    // A find refreshes recency: key 2 survives the next eviction.
    ASSERT_NE(cache.findBool(ctx, keys[2]), nullptr);
    auto extra = pres::OpCache::makeKey(
        pres::Op::ProjectOut, bs, 99, 1);
    cache.storeBool(ctx, extra, true);
    EXPECT_EQ(cache.stats().evictions, 3u);
    EXPECT_NE(cache.findBool(ctx, keys[2]), nullptr);
    EXPECT_EQ(cache.findBool(ctx, keys[3]), nullptr); // now coldest
}

TEST(TuneDb, RoundTripsThroughDiskAndRejectsForeignFiles)
{
    std::string path =
        testing::TempDir() + "polyfuse_tunedb_test.json";
    std::remove(path.c_str());

    pres::Fingerprinter fp;
    fp.mix("tunedb-test-key");
    auto key = fp.fingerprint();
    {
        perfmodel::TuneDb db(path); // missing file: empty store
        EXPECT_EQ(db.size(), 0u);
        perfmodel::TuneEntry entry;
        entry.strategy = "ours";
        entry.tiles = {32, 64};
        entry.tier = "bytecode";
        entry.modeledMs = 1.25;
        entry.evaluated = 16;
        db.put(key, entry);
        ASSERT_TRUE(db.save());
    }
    {
        perfmodel::TuneDb db(path);
        EXPECT_EQ(db.size(), 1u);
        perfmodel::TuneEntry got;
        ASSERT_TRUE(db.find(key, &got));
        EXPECT_EQ(got.strategy, "ours");
        EXPECT_EQ(got.tiles, (std::vector<int64_t>{32, 64}));
        EXPECT_EQ(got.tier, "bytecode");
        EXPECT_DOUBLE_EQ(got.modeledMs, 1.25);
        EXPECT_EQ(got.evaluated, 16u);
    }
    {
        // A foreign/corrupt file fails the load (empty store).
        std::FILE *f = std::fopen(path.c_str(), "w");
        ASSERT_NE(f, nullptr);
        std::fputs("{\"version\": 2, \"entries\": []}", f);
        std::fclose(f);
        perfmodel::TuneDb db(path);
        EXPECT_EQ(db.size(), 0u);
    }
    std::remove(path.c_str());
}

std::string
readFileText(const std::string &path)
{
    std::ifstream f(path);
    std::stringstream ss;
    ss << f.rdbuf();
    return ss.str();
}

void
writeFileText(const std::string &path, const std::string &text)
{
    std::ofstream f(path, std::ios::trunc);
    f << text;
}

pres::Fingerprint
tuneKey(const std::string &seed)
{
    pres::Fingerprinter fp;
    fp.mix(seed);
    return fp.fingerprint();
}

perfmodel::TuneEntry
tuneEntry(const std::string &strategy)
{
    perfmodel::TuneEntry entry;
    entry.strategy = strategy;
    entry.tiles = {16, 8};
    entry.tier = "bytecode";
    entry.modeledMs = 2.5;
    entry.evaluated = 9;
    return entry;
}

TEST(TuneDb, DropsByteFlippedRecordsAndRegeneratesCleanly)
{
    std::string path =
        testing::TempDir() + "polyfuse_tunedb_flip.json";
    std::remove(path.c_str());
    auto key_a = tuneKey("flip-a");
    auto key_b = tuneKey("flip-b");
    {
        perfmodel::TuneDb db(path);
        db.put(key_a, tuneEntry("ours"));
        db.put(key_b, tuneEntry("minfuse"));
        ASSERT_TRUE(db.save());
    }

    // Flip one byte inside a string value: the JSON stays perfectly
    // well formed, so only the per-record checksum can catch it.
    std::string text = readFileText(path);
    size_t pos = text.find("\"ours\"");
    ASSERT_NE(pos, std::string::npos);
    text[pos + 1] = 'x'; // "ours" -> "xurs"
    writeFileText(path, text);

    {
        perfmodel::TuneDb db(path);
        EXPECT_EQ(db.size(), 1u);
        EXPECT_EQ(db.lastLoadDropped(), 1u);
        perfmodel::TuneEntry got;
        EXPECT_FALSE(db.find(key_a, &got)); // the damaged record
        ASSERT_TRUE(db.find(key_b, &got)); // the intact one
        EXPECT_EQ(got.strategy, "minfuse");
        // save() rewrites a clean store from the salvage.
        ASSERT_TRUE(db.save());
    }
    {
        perfmodel::TuneDb db(path);
        EXPECT_EQ(db.size(), 1u);
        EXPECT_EQ(db.lastLoadDropped(), 0u);
    }
    std::remove(path.c_str());
}

TEST(TuneDb, SalvagesThePrefixOfATruncatedStore)
{
    std::string path =
        testing::TempDir() + "polyfuse_tunedb_trunc.json";
    std::remove(path.c_str());
    {
        perfmodel::TuneDb db(path);
        db.put(tuneKey("trunc-a"), tuneEntry("ours"));
        db.put(tuneKey("trunc-b"), tuneEntry("minfuse"));
        db.put(tuneKey("trunc-c"), tuneEntry("hybridfuse"));
        ASSERT_TRUE(db.save());
    }

    // Chop the file mid-way through the last record, the way a
    // crashed writer or a full disk would.
    std::string text = readFileText(path);
    size_t last = text.rfind("{\"fp\"");
    ASSERT_NE(last, std::string::npos);
    writeFileText(path, text.substr(0, last + 10));

    perfmodel::TuneDb db(path);
    EXPECT_EQ(db.size(), 2u);
    EXPECT_EQ(db.lastLoadDropped(), 1u);
    std::remove(path.c_str());
}

TEST(TuneDb, RejectsLegacyRecordsWithoutChecksums)
{
    std::string path =
        testing::TempDir() + "polyfuse_tunedb_nocrc.json";
    std::remove(path.c_str());
    {
        perfmodel::TuneDb db(path);
        db.put(tuneKey("nocrc"), tuneEntry("ours"));
        ASSERT_TRUE(db.save());
    }

    // Strip the checksum field: an un-checksummed record cannot be
    // distinguished from a damaged one, so it is dropped too.
    std::string text = readFileText(path);
    size_t pos = text.find(", \"crc\": \"");
    ASSERT_NE(pos, std::string::npos);
    size_t end = text.find("\"", pos + 10);
    ASSERT_NE(end, std::string::npos);
    text.erase(pos, end + 1 - pos);
    writeFileText(path, text);

    perfmodel::TuneDb db(path);
    EXPECT_EQ(db.size(), 0u);
    EXPECT_EQ(db.lastLoadDropped(), 1u);
    std::remove(path.c_str());
}

TEST(TuneDb, ChecksumCoversEveryFieldOfTheRecord)
{
    auto key = tuneKey("crc-fields");
    perfmodel::TuneEntry entry = tuneEntry("ours");
    uint64_t crc = perfmodel::recordChecksum(key.hex(), entry);

    perfmodel::TuneEntry other = entry;
    other.strategy = "minfuse";
    EXPECT_NE(perfmodel::recordChecksum(key.hex(), other), crc);
    other = entry;
    other.tiles = {16, 9};
    EXPECT_NE(perfmodel::recordChecksum(key.hex(), other), crc);
    other = entry;
    other.tier = "native";
    EXPECT_NE(perfmodel::recordChecksum(key.hex(), other), crc);
    other = entry;
    other.modeledMs = 2.5000011;
    EXPECT_NE(perfmodel::recordChecksum(key.hex(), other), crc);
    other = entry;
    other.evaluated = 10;
    EXPECT_NE(perfmodel::recordChecksum(key.hex(), other), crc);
    EXPECT_NE(perfmodel::recordChecksum(tuneKey("crc-other").hex(),
                                        entry),
              crc);

    // The hex spelling is stable and 16 digits wide.
    EXPECT_EQ(perfmodel::checksumHex(crc).size(), 16u);
    EXPECT_EQ(perfmodel::checksumHex(crc),
              perfmodel::checksumHex(crc));
}

/** Save a store of four records (one a "shape" record) behind a
 *  model section to @p path; @return its text. */
std::string
saveFourRecordStore(const std::string &path)
{
    std::remove(path.c_str());
    perfmodel::TuneDb db(path);
    for (int i = 0; i < 4; ++i) {
        perfmodel::TuneEntry entry = tuneEntry(i % 2 ? "minfuse" : "ours");
        entry.tiles = {int64_t(16) << i, 8};
        entry.modeledMs = 1.0 / 3 + i; // not exact at 6 decimals
        if (i == 3)
            entry.kind = "shape";
        db.put(tuneKey("four-" + std::to_string(i)), entry);
    }
    perfmodel::ModelFit fit;
    fit.cCompute = 1.0 / 7;
    fit.cMem = 2.5e-7;
    fit.cTraffic = 3;
    fit.cTile = 0.0123456789123;
    fit.samples = 40;
    db.setModelFit(fit);
    EXPECT_TRUE(db.save());
    return readFileText(path);
}

/** Offsets of the record headers in a saved store's @p text. */
std::vector<size_t>
recordHeaders(const std::string &text)
{
    std::vector<size_t> out;
    for (size_t at = text.find("{\"fp\""); at != std::string::npos;
         at = text.find("{\"fp\"", at + 1))
        out.push_back(at);
    return out;
}

/** The key of the record whose header sits at @p at in @p text. */
pres::Fingerprint
recordKey(const std::string &text, size_t at)
{
    pres::Fingerprint fp;
    EXPECT_TRUE(pres::parseFingerprint(text.substr(at + 8, 32), &fp))
        << text.substr(at, 48);
    return fp;
}

TEST(TuneDb, DamagedRecordHeaderLosesOnlyItsOwnRecord)
{
    std::string path =
        testing::TempDir() + "polyfuse_tunedb_header.json";
    std::string text = saveFourRecordStore(path);
    auto headers = recordHeaders(text);
    ASSERT_EQ(headers.size(), 4u);
    std::vector<pres::Fingerprint> keys;
    for (size_t at : headers)
        keys.push_back(recordKey(text, at));
    text[headers[1] + 2] = 'g'; // {"fp" -> {"gp" on record 2
    writeFileText(path, text);

    perfmodel::TuneDb db(path);
    EXPECT_FALSE(db.load());
    EXPECT_EQ(db.size(), 3u);
    EXPECT_EQ(db.lastLoadDropped(), 1u);
    perfmodel::TuneEntry got;
    for (size_t i = 0; i < keys.size(); ++i)
        EXPECT_EQ(db.find(keys[i], &got), i != 1) << "record " << i;
    std::remove(path.c_str());
}

TEST(TuneDb, DamagedSeparatorLosesNoRecord)
{
    std::string path =
        testing::TempDir() + "polyfuse_tunedb_separator.json";
    std::string text = saveFourRecordStore(path);
    auto headers = recordHeaders(text);
    ASSERT_EQ(headers.size(), 4u);
    ASSERT_EQ(text.compare(headers[1] - 2, 2, ", "), 0);
    text.replace(headers[1] - 2, 2, ";;"); // the ", " before record 2
    writeFileText(path, text);

    perfmodel::TuneDb db(path);
    EXPECT_FALSE(db.load()); // not clean: the next save() rewrites it
    EXPECT_EQ(db.size(), 4u);
    EXPECT_EQ(db.lastLoadDropped(), 0u);
    std::remove(path.c_str());
}

/**
 * Exhaustive mutation sweep over a saved store: every single-bit flip and
 * every overwrite with a JSON structural byte after the version
 * member, and every truncation point. load() never throws, keeps only
 * records and a model equal to what was saved, and keeps every record
 * whose bytes the mutation left alone.
 */
TEST(TuneDb, SurvivesEveryByteFlipAndTruncation)
{
    std::string path =
        testing::TempDir() + "polyfuse_tunedb_mutation.json";
    const std::string clean = saveFourRecordStore(path);
    perfmodel::TuneDb db(path);
    ASSERT_TRUE(db.load());
    perfmodel::ModelFit saved_fit;
    ASSERT_TRUE(db.modelFit(&saved_fit));
    struct Record
    {
        size_t begin, end; // the record's '{' and '}'
        pres::Fingerprint key;
        perfmodel::TuneEntry entry;
    };
    std::vector<Record> records;
    for (size_t at : recordHeaders(clean)) {
        Record r{at, clean.find('}', at), recordKey(clean, at), {}};
        ASSERT_TRUE(db.find(r.key, &r.entry));
        records.push_back(r);
    }
    ASSERT_EQ(records.size(), 4u);

    // Bytes [lo, hi) of the clean text were changed.
    auto check = [&](const std::string &text, size_t lo, size_t hi,
                     int mutation) {
        writeFileText(path, text);
        EXPECT_NO_THROW(db.load()) << lo << "/" << mutation;
        size_t kept = 0;
        for (const Record &r : records) {
            perfmodel::TuneEntry got;
            bool found = db.find(r.key, &got);
            if (hi <= r.begin || lo > r.end) {
                EXPECT_TRUE(found)
                    << "intact record lost: offset " << lo << " "
                    << mutation << "\n" << text;
            }
            if (!found)
                continue;
            ++kept;
            EXPECT_EQ(got.strategy, r.entry.strategy) << lo;
            EXPECT_EQ(got.tiles, r.entry.tiles) << lo;
            EXPECT_EQ(got.tier, r.entry.tier) << lo;
            EXPECT_EQ(got.modeledMs, r.entry.modeledMs) << lo;
            EXPECT_EQ(got.evaluated, r.entry.evaluated) << lo;
            EXPECT_EQ(got.kind, r.entry.kind) << lo;
        }
        EXPECT_EQ(db.size(), kept) << "foreign record kept: " << lo;
        perfmodel::ModelFit fit;
        if (db.modelFit(&fit)) {
            EXPECT_EQ(fit.cCompute, saved_fit.cCompute) << lo;
            EXPECT_EQ(fit.cMem, saved_fit.cMem) << lo;
            EXPECT_EQ(fit.cTraffic, saved_fit.cTraffic) << lo;
            EXPECT_EQ(fit.cTile, saved_fit.cTile) << lo;
            EXPECT_EQ(fit.samples, saved_fit.samples) << lo;
        }
    };

    // The sweep starts past the ',' that ends the version member: a
    // digit there changes the version (2 -> 20), and a foreign
    // version rejects the whole store by design.
    setWarningsEnabled(false);
    const std::string structural = "{}[]\",: 0e-";
    for (size_t i = clean.find(',') + 1; i < clean.size(); ++i) {
        std::string text = clean;
        for (int bit = 0; bit < 8; ++bit) {
            text[i] = char(clean[i] ^ (1 << bit));
            check(text, i, i + 1, bit);
        }
        for (char c : structural) {
            text[i] = c;
            if (c != clean[i])
                check(text, i, i + 1, c);
        }
    }
    for (size_t n = 0; n < clean.size(); ++n)
        check(clean.substr(0, n), n, clean.size(), -1);
    setWarningsEnabled(true);
    std::remove(path.c_str());
}

TEST(TuneDb, AutotuneWarmStartsFromTheStore)
{
    std::string path =
        testing::TempDir() + "polyfuse_tunedb_autotune.json";
    std::remove(path.c_str());

    auto program = smallConv();
    auto graph = deps::DependenceGraph::compute(*program);
    auto init = [&](exec::Buffers &b) {
        service::fillServiceInputs(*program, b);
    };
    perfmodel::AutotuneOptions opts;
    opts.candidates = {4, 8};
    opts.dims = 2;

    perfmodel::TuneDb db(path);
    opts.db = &db;
    auto cold = perfmodel::autotuneTileSizes(*program, graph, init,
                                             opts);
    EXPECT_FALSE(cold.warmStart);
    EXPECT_EQ(cold.evaluated, 4u); // 2 candidates ^ 2 dims
    ASSERT_EQ(cold.tileSizes.size(), 2u);

    // Same store object and a fresh one loaded from disk both
    // warm-start to the identical tiles without evaluating.
    auto warm = perfmodel::autotuneTileSizes(*program, graph, init,
                                             opts);
    EXPECT_TRUE(warm.warmStart);
    EXPECT_EQ(warm.evaluated, 0u);
    EXPECT_EQ(warm.tileSizes, cold.tileSizes);

    perfmodel::TuneDb reloaded(path);
    opts.db = &reloaded;
    auto warm2 = perfmodel::autotuneTileSizes(*program, graph, init,
                                              opts);
    EXPECT_TRUE(warm2.warmStart);
    EXPECT_EQ(warm2.tileSizes, cold.tileSizes);

    // A different search configuration is a different key: it
    // re-tunes instead of reusing the stored entry.
    perfmodel::AutotuneOptions other = opts;
    other.candidates = {4, 8, 16};
    auto retuned = perfmodel::autotuneTileSizes(*program, graph,
                                                init, other);
    EXPECT_FALSE(retuned.warmStart);
    EXPECT_EQ(reloaded.size(), 2u);
    std::remove(path.c_str());
}

} // namespace
} // namespace driver
} // namespace polyfuse
