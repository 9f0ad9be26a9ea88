/**
 * @file
 * Re-entrancy tests for the compiler: concurrent compilations with
 * per-run CompileContexts must produce byte-identical ASTs and
 * identical per-context FM counters to the sequential path, the
 * context-less compat path must count exactly the same work, and
 * driver::compileBatch must be invariant in the job count. This
 * binary is also what the check_tsan gate runs under
 * -fsanitize=thread.
 */

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "driver/batch.hh"
#include "driver/pipeline.hh"
#include "exec/bytecode.hh"
#include "exec/native.hh"
#include "perfmodel/autotune.hh"
#include "pres/parser.hh"
#include "support/logging.hh"
#include "support/thread_pool.hh"
#include "workloads/conv2d.hh"
#include "workloads/pipelines.hh"

namespace polyfuse {
namespace {

driver::PipelineOptions
oursOptions()
{
    driver::PipelineOptions opts;
    opts.strategy = driver::Strategy::Ours;
    opts.tileSizes = {8, 8};
    return opts;
}

/** One compilation against a fresh context: code text + FM work. */
struct CompileOutcome
{
    std::string code;
    pres::fm::Counters fm;
};

CompileOutcome
compileOnce(const ir::Program &p, const driver::PipelineOptions &opts)
{
    driver::CompileContext ctx;
    auto state = driver::Pipeline(opts).run(p, ctx);
    return {exec::emitNativeSource(p, state.ast), ctx.fmCounters()};
}

TEST(Concurrency, ThreadsProduceByteIdenticalAstsAndCounters)
{
    workloads::PipelineConfig cfg;
    cfg.rows = 32;
    cfg.cols = 32;
    const ir::Program p = workloads::makeHarris(cfg);
    const auto opts = oursOptions();

    CompileOutcome reference = compileOnce(p, opts);
    ASSERT_FALSE(reference.code.empty());
    ASSERT_GT(reference.fm.eliminations, 0u);

    const unsigned n = 4;
    std::vector<CompileOutcome> outcomes(n);
    std::vector<std::thread> threads;
    for (unsigned i = 0; i < n; ++i)
        threads.emplace_back([&, i] {
            // Shared read-only program, private context per thread.
            outcomes[i] = compileOnce(p, opts);
        });
    for (auto &t : threads)
        t.join();

    for (unsigned i = 0; i < n; ++i) {
        SCOPED_TRACE(i);
        EXPECT_EQ(outcomes[i].code, reference.code);
        EXPECT_EQ(outcomes[i].fm.eliminations,
                  reference.fm.eliminations);
        EXPECT_EQ(outcomes[i].fm.constraintsVisited,
                  reference.fm.constraintsVisited);
    }
}

TEST(Concurrency, ContextSumsEqualSharedContextTotals)
{
    const ir::Program p = workloads::makeConv2D({16, 16, 3, 3});
    const auto opts = oursOptions();

    // One shared context accumulating two runs is exactly what the
    // old process-wide counters used to total.
    driver::CompileContext shared;
    (void)driver::Pipeline(opts).run(p, shared);
    (void)driver::Pipeline(opts).run(p, shared);

    // Per-run contexts: each counts only its own work, and their sum
    // matches the accumulated totals.
    CompileOutcome a = compileOnce(p, opts);
    CompileOutcome b = compileOnce(p, opts);
    EXPECT_EQ(a.fm.eliminations, b.fm.eliminations);
    EXPECT_GT(a.fm.eliminations, 0u);
    EXPECT_EQ(a.fm.eliminations + b.fm.eliminations,
              shared.fmCounters().eliminations);
    EXPECT_EQ(a.fm.constraintsVisited + b.fm.constraintsVisited,
              shared.fmCounters().constraintsVisited);
}

TEST(Concurrency, ContextlessPresWorkLandsOnThreadDefault)
{
    // Code calling the pres layer with no installed context (the
    // compat path) still counts -- onto the thread's default
    // context -- and an installed ScopedCtx diverts it.
    pres::BasicSet s = pres::parseBasicSet(
        "[N] -> { S[i, j, k] : 0 <= i < N and 0 <= j <= i and "
        "0 <= k < i + j }");
    const pres::fm::Counters &dflt = pres::fm::activeCtx().counters;
    uint64_t before = dflt.eliminations;
    (void)s.projectOut(1, 2);
    uint64_t contextless = dflt.eliminations - before;
    EXPECT_GT(contextless, 0u);

    pres::fm::PresCtx mine;
    {
        pres::fm::ScopedCtx scope(mine);
        (void)s.projectOut(1, 2);
    }
    EXPECT_EQ(mine.counters.eliminations, contextless);
    // The default context saw none of the scoped run's work.
    EXPECT_EQ(dflt.eliminations, before + contextless);
}

TEST(Concurrency, CompileBatchInvariantInJobCount)
{
    auto makeJobs = [] {
        std::vector<driver::BatchJob> jobs;
        for (auto strategy : {driver::Strategy::MinFuse,
                              driver::Strategy::MaxFuse,
                              driver::Strategy::Ours,
                              driver::Strategy::Naive}) {
            driver::BatchJob job;
            job.name = driver::strategyName(strategy);
            job.options = oursOptions();
            job.options.strategy = strategy;
            job.make = [] {
                return workloads::makeConv2D({16, 16, 3, 3});
            };
            jobs.push_back(std::move(job));
        }
        return jobs;
    };

    auto seq = driver::compileBatch(makeJobs(), 1);
    auto par = driver::compileBatch(makeJobs(), 4);
    ASSERT_EQ(seq.jobs.size(), par.jobs.size());
    EXPECT_EQ(seq.failed(), 0u);
    EXPECT_EQ(par.failed(), 0u);
    for (size_t i = 0; i < seq.jobs.size(); ++i) {
        SCOPED_TRACE(seq.jobs[i].name);
        EXPECT_EQ(par.jobs[i].name, seq.jobs[i].name);
        // Byte-identical code and FM work per job.
        EXPECT_EQ(
            exec::emitNativeSource(*par.jobs[i].artifact.image->program,
                                   par.jobs[i].artifact.image->ast),
            exec::emitNativeSource(*seq.jobs[i].artifact.image->program,
                                   seq.jobs[i].artifact.image->ast));
        EXPECT_EQ(par.jobs[i].artifact.fingerprint,
                  seq.jobs[i].artifact.fingerprint);
        EXPECT_EQ(par.jobs[i].fm.eliminations,
                  seq.jobs[i].fm.eliminations);
        EXPECT_EQ(par.jobs[i].fm.constraintsVisited,
                  seq.jobs[i].fm.constraintsVisited);
        // Per-pass stats (counters incl. fm_elims) identical too;
        // compare through the machine-stable JSON with timings
        // stripped.
        auto stripMs = [](std::string s) {
            for (const char *key : {"\"ms\": ", "\"totalMs\": "}) {
                const size_t keyLen = std::string(key).size();
                for (size_t at = s.find(key);
                     at != std::string::npos;
                     at = s.find(key, at + 1)) {
                    size_t from = at + keyLen;
                    size_t to = from;
                    while (to < s.size() && s[to] != ',' &&
                           s[to] != '}')
                        ++to;
                    s.replace(from, to - from, "0");
                }
            }
            return s;
        };
        EXPECT_EQ(
            stripMs(json::dump(par.jobs[i].artifact.stats.json())),
            stripMs(json::dump(seq.jobs[i].artifact.stats.json())));
    }
    // Batch failure capture: a throwing factory fails only its job.
    auto jobs = makeJobs();
    jobs[1].make = []() -> ir::Program {
        throw FatalError("boom");
    };
    auto mixed = driver::compileBatch(std::move(jobs), 2);
    EXPECT_EQ(mixed.failed(), 1u);
    EXPECT_FALSE(mixed.jobs[1].ok);
    EXPECT_NE(mixed.jobs[1].error.find("boom"), std::string::npos);
    EXPECT_TRUE(mixed.jobs[0].ok);
    EXPECT_NE(mixed.summary().find("FAILED"), std::string::npos);
}

TEST(Concurrency, AutotuneParallelMatchesSequential)
{
    ir::Program p = workloads::makeConv2D({32, 32, 3, 3});
    auto g = deps::DependenceGraph::compute(p);
    auto init = [&](exec::Buffers &b) {
        b.fillPattern(p.tensorId("A"), 7);
        b.fillPattern(p.tensorId("B"), 13);
    };
    perfmodel::AutotuneOptions opts;
    opts.candidates = {8, 16, 32};
    opts.dims = 2;
    opts.jobs = 1;
    auto seq = perfmodel::autotuneTileSizes(p, g, init, opts);
    opts.jobs = 4;
    auto par = perfmodel::autotuneTileSizes(p, g, init, opts);
    EXPECT_EQ(par.tileSizes, seq.tileSizes);
    EXPECT_EQ(par.evaluated, seq.evaluated);
    EXPECT_DOUBLE_EQ(par.modeledMs, seq.modeledMs);
}

TEST(Concurrency, SharedBytecodeKernelRunsFromManyThreads)
{
    // One compiled Image, many concurrent runs: the kernel is
    // immutable after compile() (each run() builds its own Machine
    // state), so N threads sharing it must produce the same buffers
    // as a sequential run. This is the exec half of the check_tsan
    // gate.
    const ir::Program p = workloads::makeConv2D({24, 24, 3, 3});
    auto state = driver::Pipeline(oursOptions()).run(p);
    const exec::BytecodeKernel kernel =
        exec::BytecodeKernel::compile(p, state.ast);

    auto fill = [&p](exec::Buffers &buf) {
        for (size_t t = 0; t < p.tensors().size(); ++t)
            if (p.tensor(t).kind != ir::TensorKind::Temp)
                buf.fillPattern(int(t), 1000 + t);
    };

    exec::Buffers ref(p);
    fill(ref);
    kernel.run(ref);

    const int n_threads = 8;
    std::vector<exec::Buffers> bufs;
    bufs.reserve(n_threads);
    for (int t = 0; t < n_threads; ++t) {
        bufs.emplace_back(p);
        fill(bufs.back());
    }
    std::vector<std::thread> threads;
    for (int t = 0; t < n_threads; ++t)
        threads.emplace_back(
            [&kernel, &bufs, t] { kernel.run(bufs[t]); });
    for (auto &th : threads)
        th.join();

    for (int t = 0; t < n_threads; ++t)
        for (size_t i = 0; i < p.tensors().size(); ++i)
            EXPECT_EQ(bufs[t].data(int(i)), ref.data(int(i)))
                << "thread " << t << " tensor " << i;
}

TEST(Concurrency, ThreadPoolRunsEveryJobExactlyOnce)
{
    ThreadPool pool(3);
    EXPECT_EQ(pool.size(), 3u);
    const int n = 200;
    std::vector<int> hits(n, 0);
    for (int round = 0; round < 2; ++round) {
        for (int i = 0; i < n; ++i)
            pool.submit([&hits, i] { ++hits[i]; });
        pool.wait(); // reusable across waves
    }
    for (int i = 0; i < n; ++i)
        EXPECT_EQ(hits[i], 2) << i;
    EXPECT_GE(ThreadPool::defaultThreads(), 1u);
}

} // namespace
} // namespace polyfuse
