/**
 * @file
 * Robustness tests: resource budgets, cooperative cancellation, the
 * strategy fallback chain, the fault-injection harness, batch
 * isolation, and the thread pool's exception containment.
 *
 * The acceptance bar (ISSUE 3): with an artificially tiny budget,
 * every registry workload under every strategy must still compile to
 * a correct program via the fallback chain -- correct meaning the
 * executor produces the same live-out buffers as an unguarded build.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <new>
#include <stdexcept>
#include <string>
#include <vector>

#include "driver/batch.hh"
#include "driver/pipeline.hh"
#include "driver/registry.hh"
#include "exec/engine.hh"
#include "exec/executor.hh"
#include "exec/native.hh"
#include "pres/fm.hh"
#include "pres/parser.hh"
#include "support/budget.hh"
#include "support/failpoint.hh"
#include "support/logging.hh"
#include "support/thread_pool.hh"
#include "workloads/conv2d.hh"
#include "workloads/equake.hh"
#include "workloads/pipelines.hh"

namespace polyfuse {
namespace driver {
namespace {

ir::Program
smallConv()
{
    return workloads::makeConv2D({16, 16, 3, 3});
}

ir::Program
smallHarris()
{
    workloads::PipelineConfig cfg;
    cfg.rows = 32;
    cfg.cols = 32;
    return workloads::makeHarris(cfg);
}

/** Fixture that guarantees failpoints never leak between tests. */
class Robustness : public ::testing::Test
{
  protected:
    void SetUp() override { failpoints::clearAll(); }
    void TearDown() override { failpoints::clearAll(); }
};

// ---------------------------------------------------------------
// Budget guards in the FM engine.
// ---------------------------------------------------------------

TEST_F(Robustness, DefaultBudgetIsUnlimited)
{
    Budget b;
    EXPECT_TRUE(b.unlimited());
    b.fmEliminations = 1;
    EXPECT_FALSE(b.unlimited());
    Budget w;
    w.wallMs = 5.0;
    EXPECT_FALSE(w.unlimited());
}

TEST_F(Robustness, UnlimitedBudgetNeverTrips)
{
    ir::Program p = smallConv();
    PipelineOptions opts;
    opts.strategy = Strategy::Ours;
    opts.tileSizes = {8, 8};
    CompileContext ctx; // all-zero budget
    CompilationState st = Pipeline(opts).run(p, ctx);
    EXPECT_FALSE(st.downgraded());
    EXPECT_EQ(st.effectiveStrategy, Strategy::Ours);
    EXPECT_TRUE(st.fallbackTrail.empty());
    // No "Fallback" pass when nothing was downgraded.
    EXPECT_EQ(st.stats.passes().size(), Pipeline::passNames().size());
}

TEST_F(Robustness, FmEliminationCeilingThrows)
{
    ir::Program p = smallConv();
    PipelineOptions opts;
    opts.strategy = Strategy::Ours;
    opts.tileSizes = {8, 8};
    opts.budgetFallback = false;
    CompileContext ctx;
    ctx.budget.fmEliminations = 1;
    try {
        Pipeline(opts).run(p, ctx);
        FAIL() << "expected BudgetExceeded";
    } catch (const BudgetExceeded &e) {
        EXPECT_NE(std::string(e.what()).find("FM eliminations"),
                  std::string::npos)
            << e.what();
    }
}

TEST_F(Robustness, WallDeadlineThrows)
{
    ir::Program p = smallConv();
    PipelineOptions opts;
    opts.budgetFallback = false;
    CompileContext ctx;
    ctx.budget.wallMs = 1e-6; // expired by the first check
    try {
        Pipeline(opts).run(p, ctx);
        FAIL() << "expected BudgetExceeded";
    } catch (const BudgetExceeded &e) {
        EXPECT_NE(std::string(e.what()).find("wall deadline"),
                  std::string::npos)
            << e.what();
    }
}

TEST_F(Robustness, LiveRowAndAllocCeilingsThrow)
{
    ir::Program p = smallConv();
    PipelineOptions opts;
    opts.budgetFallback = false;
    {
        CompileContext ctx;
        ctx.budget.fmLiveRows = 1;
        EXPECT_THROW(Pipeline(opts).run(p, ctx), BudgetExceeded);
    }
    {
        CompileContext ctx;
        ctx.budget.allocBytes = 1;
        EXPECT_THROW(Pipeline(opts).run(p, ctx), BudgetExceeded);
    }
    {
        CompileContext ctx;
        ctx.budget.fmRows = 1;
        EXPECT_THROW(Pipeline(opts).run(p, ctx), BudgetExceeded);
    }
}

TEST_F(Robustness, BudgetWindowResetsOnRearm)
{
    pres::fm::PresCtx ctx;
    Budget b;
    b.fmEliminations = 1;

    auto oneElimination = [&] {
        // x0 >= 0 and x0 <= 3 over columns [x0, const].
        std::vector<pres::Constraint> rows;
        rows.emplace_back(false, std::vector<int64_t>{1, 0});
        rows.emplace_back(false, std::vector<int64_t>{-1, 3});
        bool exact = true;
        pres::fm::eliminateCol(ctx, rows, 0, exact);
    };

    ctx.armBudget(b);
    oneElimination(); // delta 1 == limit: fine
    EXPECT_THROW(oneElimination(), BudgetExceeded); // delta 2 > 1
    ctx.armBudget(b); // fresh window: baselines resnapshotted
    oneElimination();
    ctx.disarmBudget();
    oneElimination(); // unguarded again
    oneElimination();
}

TEST_F(Robustness, CheckBudgetHonorsCancelToken)
{
    pres::fm::PresCtx ctx;
    CancelToken token;
    ctx.cancel = &token;
    pres::fm::checkBudget(ctx, "test.site"); // no throw
    token.cancel();
    try {
        pres::fm::checkBudget(ctx, "test.site");
        FAIL() << "expected BudgetExceeded";
    } catch (const BudgetExceeded &e) {
        EXPECT_NE(std::string(e.what()).find("cancelled at"),
                  std::string::npos);
    }
}

TEST_F(Robustness, CancelTokenChains)
{
    CancelToken parent, child;
    child.chainTo(&parent);
    EXPECT_FALSE(child.cancelled());
    parent.cancel();
    EXPECT_TRUE(child.cancelled());
    EXPECT_TRUE(parent.cancelled());
    child.reset(); // own flag only; the parent still cancels it
    EXPECT_TRUE(child.cancelled());
    parent.reset();
    EXPECT_FALSE(child.cancelled());
}

// ---------------------------------------------------------------
// The fallback chain.
// ---------------------------------------------------------------

TEST_F(Robustness, FallbackChainIsDeterministic)
{
    using V = std::vector<Strategy>;
    EXPECT_EQ(fallbackChain(Strategy::Ours),
              (V{Strategy::Ours, Strategy::Hybrid, Strategy::MinFuse,
                 Strategy::Naive}));
    EXPECT_EQ(fallbackChain(Strategy::MaxFuse),
              (V{Strategy::MaxFuse, Strategy::Hybrid,
                 Strategy::MinFuse, Strategy::Naive}));
    EXPECT_EQ(fallbackChain(Strategy::Hybrid),
              (V{Strategy::Hybrid, Strategy::MinFuse,
                 Strategy::Naive}));
    EXPECT_EQ(fallbackChain(Strategy::MinFuse),
              (V{Strategy::MinFuse, Strategy::Naive}));
    EXPECT_EQ(fallbackChain(Strategy::Naive), (V{Strategy::Naive}));
}

TEST_F(Robustness, TinyBudgetFallsBackAndRecordsTrail)
{
    ir::Program p = smallConv();
    PipelineOptions opts;
    opts.strategy = Strategy::Ours;
    opts.tileSizes = {8, 8};
    CompileContext ctx;
    ctx.budget.fmEliminations = 1; // trips in ComputeDeps every time
    CompilationState st = Pipeline(opts).run(p, ctx);

    // Every guarded rung fails, so the unguarded naive reserve wins.
    EXPECT_TRUE(st.downgraded());
    EXPECT_EQ(st.requestedStrategy, Strategy::Ours);
    EXPECT_EQ(st.effectiveStrategy, Strategy::Naive);
    ASSERT_EQ(st.fallbackTrail.size(), 4u);
    EXPECT_EQ(st.fallbackTrail[0].find("ours: "), 0u)
        << st.fallbackTrail[0];
    EXPECT_EQ(st.fallbackTrail[3].find("naive: "), 0u);

    // The downgrade is visible in PassStats (and thus batch JSON).
    const PassStat *fb = st.stats.find("Fallback");
    ASSERT_NE(fb, nullptr);
    EXPECT_EQ(fb->counter("downgrades", 0), 4);
    EXPECT_EQ(st.stats.passes().size(),
              Pipeline::passNames().size() + 1);
}

TEST_F(Robustness, ComposeFailpointDowngradesOneRung)
{
    // Injected exhaustion inside core::composeFrom only: the first
    // fallback rung (hybridfuse) never calls compose, so it wins.
    failpoints::set("core.compose", failpoints::Action::Budget);
    ir::Program p = smallHarris();
    PipelineOptions opts;
    opts.strategy = Strategy::Ours;
    opts.tileSizes = {8, 8};
    CompileContext ctx;
    CompilationState st = Pipeline(opts).run(p, ctx);
    EXPECT_EQ(st.effectiveStrategy, Strategy::Hybrid);
    ASSERT_EQ(st.fallbackTrail.size(), 1u);
    EXPECT_EQ(st.fallbackTrail[0].find("ours: "), 0u);
}

TEST_F(Robustness, NoFallbackFailsInsteadOfDowngrading)
{
    failpoints::set("core.compose", failpoints::Action::Budget);
    PipelineOptions opts;
    opts.strategy = Strategy::Ours;
    opts.budgetFallback = false;
    CompileContext ctx;
    ir::Program p = smallConv();
    EXPECT_THROW(Pipeline(opts).run(p, ctx), BudgetExceeded);
}

TEST_F(Robustness, CancellationIsNeverRetried)
{
    ir::Program p = smallConv();
    PipelineOptions opts;
    opts.strategy = Strategy::Ours; // fallback enabled by default
    CompileContext ctx;
    ctx.cancel.cancel();
    // A cancelled context must not burn the fallback chain: the run
    // rethrows instead of degrading to naive.
    EXPECT_THROW(Pipeline(opts).run(p, ctx), BudgetExceeded);
}

/** Fill every input (and output, for read-modify-write kernels);
 *  the idiom of test_workloads' differential check. */
void
fillInputs(const ir::Program &p, exec::Buffers &buf)
{
    if (p.name() == "equake") {
        workloads::initEquakeInputs(p, buf, 11);
        return;
    }
    for (size_t t = 0; t < p.tensors().size(); ++t) {
        if (p.tensor(t).kind != ir::TensorKind::Temp)
            buf.fillPattern(t, 1000 + t);
        // Image pipelines expect values in [0, 1].
        if (p.tensor(t).kind == ir::TensorKind::Input)
            for (auto &v : buf.data(t))
                v = std::abs(v);
    }
}

/** Live-out buffer contents after executing @p st over fresh
 *  deterministically filled buffers. */
std::vector<std::vector<double>>
liveOutsAfterRun(const ir::Program &p, const CompilationState &st)
{
    exec::Buffers bufs(p);
    fillInputs(p, bufs);
    exec::run(p, st.ast, bufs);
    std::vector<std::vector<double>> out;
    for (size_t t = 0; t < p.tensors().size(); ++t)
        if (p.tensorLiveOut(int(t)))
            out.push_back(bufs.data(int(t)));
    return out;
}

void
expectNear(const std::vector<std::vector<double>> &a,
           const std::vector<std::vector<double>> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t t = 0; t < a.size(); ++t) {
        ASSERT_EQ(a[t].size(), b[t].size()) << "tensor " << t;
        for (size_t i = 0; i < a[t].size(); ++i)
            ASSERT_NEAR(a[t][i], b[t][i], 1e-9)
                << "tensor " << t << " elem " << i;
    }
}

TEST_F(Robustness, TinyBudgetStillCompilesEveryRegistryWorkload)
{
    // The acceptance bar: every workload x strategy, budget too small
    // for any real schedule, must still deliver a correct program via
    // the fallback chain. Every tiny-budget compile lands on an
    // effectively-naive program, so numeric equivalence is checked
    // against one unguarded naive build per workload, and only for
    // the two interesting requests -- Ours (the longest chain) and
    // Naive (the guarded-attempt-then-reserve path). Executing all
    // eight requests would re-prove the same program repeatedly and
    // makes the sanitizer gates (check_tsan/check_asan) too slow.
    for (const auto &w : workloadRegistry()) {
        WorkloadParams params = w.defaults;
        params.rows = std::min<int64_t>(params.rows, 32);
        params.cols = std::min<int64_t>(params.cols, 32);
        ir::Program p = w.make(params);

        PipelineOptions refOpts;
        refOpts.strategy = Strategy::Naive;
        refOpts.tileSizes = w.defaultTiles;
        CompileContext unguarded;
        CompilationState ref = Pipeline(refOpts).run(p, unguarded);
        EXPECT_FALSE(ref.downgraded());
        const auto refOuts = liveOutsAfterRun(p, ref);

        for (Strategy strategy : allStrategies()) {
            SCOPED_TRACE(std::string(w.name) + "/" +
                         strategyName(strategy));
            PipelineOptions opts;
            opts.strategy = strategy;
            opts.tileSizes = w.defaultTiles;

            CompileContext tiny;
            tiny.budget.fmEliminations = 1;
            CompilationState st = Pipeline(opts).run(p, tiny);
            ASSERT_NE(st.ast, nullptr);
            EXPECT_EQ(st.effectiveStrategy, Strategy::Naive);
            if (strategy != Strategy::Naive) {
                EXPECT_TRUE(st.downgraded());
            }

            if (strategy == Strategy::Ours ||
                strategy == Strategy::Naive) {
                expectNear(liveOutsAfterRun(p, st), refOuts);
            }
        }
    }
}

// ---------------------------------------------------------------
// The fault-injection harness itself.
// ---------------------------------------------------------------

TEST_F(Robustness, DisarmedFailpointsAreNoops)
{
    EXPECT_EQ(failpoints::armedCount(), 0u);
    failpoints::hit("never.armed");
    EXPECT_NO_THROW(pres::parseSet("{ A[i] : 0 <= i < 4 }"));
}

TEST_F(Robustness, EveryActionThrowsItsErrorType)
{
    const std::string text = "{ A[i] : 0 <= i < 4 }";
    failpoints::set("pres.parse", failpoints::Action::Fatal);
    EXPECT_THROW(pres::parseSet(text), FatalError);
    failpoints::set("pres.parse", failpoints::Action::Panic);
    EXPECT_THROW(pres::parseSet(text), PanicError);
    failpoints::set("pres.parse", failpoints::Action::Budget);
    EXPECT_THROW(pres::parseSet(text), BudgetExceeded);
    failpoints::set("pres.parse", failpoints::Action::BadAlloc);
    EXPECT_THROW(pres::parseSet(text), std::bad_alloc);
    failpoints::set("pres.parse", failpoints::Action::Error);
    EXPECT_THROW(pres::parseSet(text), std::runtime_error);
    failpoints::set("pres.parse", failpoints::Action::Off);
    EXPECT_NO_THROW(pres::parseSet(text));
}

TEST_F(Robustness, SkipCountDelaysFiring)
{
    const std::string text = "{ A[i] : 0 <= i < 4 }";
    failpoints::set("pres.parse", failpoints::Action::Fatal, 2);
    EXPECT_NO_THROW(pres::parseSet(text)); // skip 1
    EXPECT_NO_THROW(pres::parseSet(text)); // skip 2
    EXPECT_THROW(pres::parseSet(text), FatalError);
    EXPECT_THROW(pres::parseSet(text), FatalError); // keeps firing
}

TEST_F(Robustness, SpecStringsParse)
{
    std::string err;
    EXPECT_TRUE(failpoints::parseSpec(
        "pres.parse=fatal:2; core.compose=budget", &err))
        << err;
    EXPECT_EQ(failpoints::armedCount(), 2u);
    auto sites = failpoints::armedSites();
    ASSERT_EQ(sites.size(), 2u);
    EXPECT_EQ(sites[0], "core.compose");
    EXPECT_EQ(sites[1], "pres.parse");

    // `off` clears through the spec grammar too.
    EXPECT_TRUE(failpoints::parseSpec("pres.parse=off", &err)) << err;
    EXPECT_EQ(failpoints::armedCount(), 1u);

    EXPECT_FALSE(failpoints::parseSpec("nonsense", &err));
    EXPECT_FALSE(err.empty());
    EXPECT_FALSE(failpoints::parseSpec("a.site=explode", &err));
    EXPECT_FALSE(failpoints::parseSpec("a.site=fatal:xyz", &err));

    failpoints::clearAll();
    EXPECT_EQ(failpoints::armedCount(), 0u);
}

TEST_F(Robustness, FmFailpointsReachTheEngine)
{
    failpoints::set("pres.eliminateCol", failpoints::Action::Budget);
    PipelineOptions opts;
    opts.budgetFallback = false;
    CompileContext ctx;
    ir::Program p = smallConv();
    EXPECT_THROW(Pipeline(opts).run(p, ctx), BudgetExceeded);
    failpoints::clearAll();

    failpoints::set("codegen.generate", failpoints::Action::BadAlloc);
    CompileContext ctx2;
    EXPECT_THROW(Pipeline(opts).run(p, ctx2), std::bad_alloc);
}

// ---------------------------------------------------------------
// Batch isolation, deadlines, exit codes.
// ---------------------------------------------------------------

std::vector<BatchJob>
fourConvJobs()
{
    std::vector<BatchJob> jobs;
    for (int i = 0; i < 4; ++i) {
        BatchJob job;
        job.name = "conv2d/job" + std::to_string(i);
        job.make = [] { return smallConv(); };
        job.options.strategy = Strategy::Ours;
        job.options.tileSizes = {8, 8};
        jobs.push_back(std::move(job));
    }
    return jobs;
}

TEST_F(Robustness, PoisonedJobFailsAloneInBatch)
{
    failpoints::set("driver.job.conv2d/job2",
                    failpoints::Action::Fatal);
    BatchOptions bopts;
    bopts.jobsN = 2; // pool path
    BatchResult batch = compileBatch(fourConvJobs(), bopts);
    ASSERT_EQ(batch.jobs.size(), 4u);
    EXPECT_EQ(batch.failed(), 1u);
    for (size_t i = 0; i < batch.jobs.size(); ++i)
        EXPECT_EQ(batch.jobs[i].ok, i != 2) << i;
    EXPECT_FALSE(batch.jobs[2].error.empty());

    // Exit codes: failures are nonzero with or without --strict.
    EXPECT_EQ(batchExitCode(batch, false), 1);
    EXPECT_EQ(batchExitCode(batch, true), 1);

    // The failure is visible in the JSON report.
    std::string text = json::dump(batch.json());
    EXPECT_NE(text.find("\"ok\": false"), std::string::npos);
    EXPECT_NE(text.find("\"error\""), std::string::npos);
}

TEST_F(Robustness, TimeoutDowngradesButSucceeds)
{
    BatchOptions bopts;
    bopts.jobsN = 1;
    bopts.timeoutMs = 1e-6; // every guarded attempt expires
    BatchResult batch = compileBatch(fourConvJobs(), bopts);
    EXPECT_EQ(batch.failed(), 0u);
    EXPECT_EQ(batch.downgradedCount(), 4u);
    for (const auto &j : batch.jobs) {
        EXPECT_TRUE(j.ok);
        EXPECT_TRUE(j.artifact.downgraded());
        EXPECT_EQ(j.artifact.effectiveStrategy, Strategy::Naive);
    }
    // Downgrades only fail the batch under --strict.
    EXPECT_EQ(batchExitCode(batch, false), 0);
    EXPECT_EQ(batchExitCode(batch, true), 1);

    std::string text = json::dump(batch.json());
    EXPECT_NE(text.find("\"strategy\": \"ours\""), std::string::npos);
    EXPECT_NE(text.find("\"effective\": \"naive\""),
              std::string::npos);
    EXPECT_NE(text.find("\"downgrades\": 4"), std::string::npos);
    std::string summary = batch.summary();
    EXPECT_NE(summary.find("downgraded to naive"), std::string::npos);
}

TEST_F(Robustness, FailFastCancelsRemainingJobs)
{
    failpoints::set("driver.job.conv2d/job0",
                    failpoints::Action::Error);
    BatchOptions bopts;
    bopts.jobsN = 1; // deterministic order: job0 poisons the rest
    bopts.failFast = true;
    BatchResult batch = compileBatch(fourConvJobs(), bopts);
    EXPECT_EQ(batch.failed(), 4u);
    for (size_t i = 1; i < batch.jobs.size(); ++i)
        EXPECT_NE(batch.jobs[i].error.find("cancelled"),
                  std::string::npos)
            << batch.jobs[i].error;
}

TEST_F(Robustness, ExternalTokenCancelsWholeBatch)
{
    CancelToken token;
    token.cancel();
    BatchOptions bopts;
    bopts.jobsN = 2;
    bopts.cancel = &token;
    BatchResult batch = compileBatch(fourConvJobs(), bopts);
    EXPECT_EQ(batch.failed(), 4u);
    for (const auto &j : batch.jobs)
        EXPECT_NE(j.error.find("cancelled"), std::string::npos);
}

TEST_F(Robustness, BatchBudgetAppliesPerJob)
{
    BatchOptions bopts;
    bopts.jobsN = 2;
    bopts.budget.fmEliminations = 1;
    BatchResult batch = compileBatch(fourConvJobs(), bopts);
    // Per-job windows: every job downgrades independently; none is
    // starved by the others' consumption.
    EXPECT_EQ(batch.failed(), 0u);
    EXPECT_EQ(batch.downgradedCount(), 4u);
}

// ---------------------------------------------------------------
// Native-tier fault injection (exec.native.compile / .dlopen).
// ---------------------------------------------------------------

TEST_F(Robustness, NativeCompileFailpointFallsBackToBytecode)
{
    ir::Program p = smallConv();
    PipelineOptions opts;
    opts.strategy = Strategy::Ours;
    opts.tileSizes = {8, 8};
    CompilationState st = Pipeline(opts).run(p);

    failpoints::set("exec.native.compile",
                    failpoints::Action::Error);

    // The factory reports the injected failure as a reason, never
    // as an escaped exception.
    exec::NativeKernel k = exec::NativeKernel::compile(p, st.ast);
    EXPECT_FALSE(k.ok());
    EXPECT_NE(k.reason().find("native tier failed"),
              std::string::npos)
        << k.reason();
    // The engine degrades to the bytecode tier and records why...
    exec::Buffers buf(p);
    EXPECT_THROW(k.run(buf), FatalError);
    exec::ExecOptions eopts;
    eopts.tier = exec::Tier::Native;
    exec::ExecResult r = exec::execute(p, st.ast, buf, eopts);
    EXPECT_EQ(r.tier, exec::Tier::Bytecode);
    EXPECT_NE(r.fallbackReason.find("native tier failed"),
              std::string::npos)
        << r.fallbackReason;

    // ...and the fallback run still computes the right buffers.
    exec::Buffers ref(p);
    exec::execute(p, st.ast, ref, {});
    for (size_t t = 0; t < p.tensors().size(); ++t)
        EXPECT_EQ(buf.data(int(t)), ref.data(int(t)));

    // With fallback disabled the condition is a hard error.
    eopts.allowFallback = false;
    EXPECT_THROW(exec::execute(p, st.ast, buf, eopts), FatalError);
}

TEST_F(Robustness, NativeDlopenFailpointFallsBackToBytecode)
{
    if (!exec::NativeKernel::toolchainAvailable())
        GTEST_SKIP() << "no C toolchain on this machine";

    ir::Program p = smallConv();
    PipelineOptions opts;
    opts.strategy = Strategy::Ours;
    opts.tileSizes = {8, 8};
    CompilationState st = Pipeline(opts).run(p);

    // The compile (cc fork) succeeds; the dlopen step then fails.
    failpoints::set("exec.native.dlopen", failpoints::Action::Error);

    exec::NativeKernel k = exec::NativeKernel::compile(p, st.ast);
    EXPECT_FALSE(k.ok());
    EXPECT_NE(k.reason().find("native tier failed"),
              std::string::npos)
        << k.reason();

    exec::Buffers buf(p);
    exec::ExecOptions eopts;
    eopts.tier = exec::Tier::Native;
    exec::ExecResult r = exec::execute(p, st.ast, buf, eopts);
    EXPECT_EQ(r.tier, exec::Tier::Bytecode);
    EXPECT_FALSE(r.fallbackReason.empty());

    // Disarmed again, the native tier comes back.
    failpoints::clearAll();
    exec::ExecResult ok = exec::execute(p, st.ast, buf, eopts);
    EXPECT_EQ(ok.tier, exec::Tier::Native);
    EXPECT_TRUE(ok.fallbackReason.empty());
}

TEST_F(Robustness, ParSpawnFailpointDegradesToSequentialNative)
{
    if (!exec::NativeKernel::toolchainAvailable())
        GTEST_SKIP() << "no C toolchain on this machine";

    ir::Program p = smallHarris();
    PipelineOptions opts;
    opts.strategy = Strategy::Ours;
    CompilationState st = Pipeline(opts).run(p);

    // Sequential-native reference buffers.
    exec::Buffers ref(p);
    fillInputs(p, ref);
    exec::ExecOptions seq;
    seq.tier = exec::Tier::Native;
    exec::ExecResult rs = exec::execute(p, st.ast, ref, seq);
    ASSERT_EQ(rs.tier, exec::Tier::Native) << rs.fallbackReason;

    // A spawn failure is planned around *before* execution: the
    // run lands one rung down (sequential native), records the
    // typed reason, and the buffers are bit-identical.
    failpoints::set("exec.native.par.spawn",
                    failpoints::Action::Error);
    exec::Buffers buf(p);
    fillInputs(p, buf);
    exec::ExecOptions eopts;
    eopts.tier = exec::Tier::Native;
    eopts.par = exec::ParStrategy::Static;
    eopts.threads = 2;
    eopts.tileBands = &st.tileBands;
    exec::ExecResult r = exec::execute(p, st.ast, buf, eopts);
    EXPECT_EQ(r.tier, exec::Tier::Native) << r.fallbackReason;
    EXPECT_NE(r.parFallbackReason.find("exec.native.par.spawn"),
              std::string::npos)
        << r.parFallbackReason;
    EXPECT_EQ(r.par.threads, 0u);
    for (size_t t = 0; t < p.tensors().size(); ++t)
        EXPECT_EQ(buf.data(int(t)), ref.data(int(t)));

    // Disarmed, the tile-team comes back.
    failpoints::clearAll();
    exec::Buffers again(p);
    fillInputs(p, again);
    exec::ExecResult ok = exec::execute(p, st.ast, again, eopts);
    EXPECT_EQ(ok.tier, exec::Tier::Native) << ok.fallbackReason;
    EXPECT_TRUE(ok.parFallbackReason.empty())
        << ok.parFallbackReason;
    EXPECT_EQ(ok.par.threads, 2u);
}

// ---------------------------------------------------------------
// Thread pool exception containment.
// ---------------------------------------------------------------

TEST_F(Robustness, PoolCapturesEscapedExceptions)
{
    ThreadPool pool(2);
    std::atomic<int> ran{0};
    pool.submit([] { throw std::runtime_error("boom-1"); });
    pool.submit([&] { ++ran; });
    pool.submit([] { throw std::runtime_error("boom-2"); });
    pool.submit([] { throw 42; }); // non-std escapee
    pool.submit([&] { ++ran; });
    pool.wait();

    EXPECT_EQ(ran.load(), 2);
    EXPECT_EQ(pool.failureCount(), 3u);
    std::vector<std::string> failures = pool.takeFailures();
    ASSERT_EQ(failures.size(), 3u);
    int boom = 0, nonstd = 0;
    for (const auto &f : failures) {
        if (f.find("boom-") != std::string::npos)
            ++boom;
        if (f.find("non-std exception") != std::string::npos)
            ++nonstd;
    }
    EXPECT_EQ(boom, 2);
    EXPECT_EQ(nonstd, 1);
    EXPECT_EQ(pool.failureCount(), 0u); // takeFailures drained

    // The pool survives and keeps running jobs.
    pool.submit([&] { ++ran; });
    pool.wait();
    EXPECT_EQ(ran.load(), 3);
    EXPECT_EQ(pool.failureCount(), 0u);
}

} // namespace
} // namespace driver
} // namespace polyfuse
