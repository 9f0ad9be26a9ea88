/**
 * @file
 * End-to-end correctness: every scheduling strategy (initial tree,
 * the four fusion heuristics, and the paper's composition with and
 * without memory promotion) must compute bit-identical results on
 * the convolution example and on a stencil chain, matching a
 * hand-written reference.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>

#include "codegen/generate.hh"
#include "core/compose.hh"
#include "driver/artifact.hh"
#include "driver/pipeline.hh"
#include "driver/registry.hh"
#include "exec/bytecode.hh"
#include "exec/engine.hh"
#include "exec/executor.hh"
#include "exec/kernel_cache.hh"
#include "exec/native.hh"
#include "support/failpoint.hh"
#include "support/logging.hh"
#include "schedule/fusion.hh"
#include "service/server.hh"
#include "support/thread_pool.hh"
#include "workloads/conv2d.hh"

namespace polyfuse {
namespace exec {
namespace {

using codegen::GenOptions;
using service::fillServiceInputs;
using schedule::FusionPolicy;
using schedule::ScheduleTree;

/** Hand-written reference for the Fig. 1(a) program. */
std::vector<double>
convReference(const ir::Program &p, const Buffers &init)
{
    int64_t H = p.paramValue("H"), W = p.paramValue("W");
    int64_t KH = p.paramValue("KH"), KW = p.paramValue("KW");
    std::vector<double> A = init.data(p.tensorId("A"));
    const std::vector<double> &B = init.data(p.tensorId("B"));
    std::vector<double> C((H - KH + 1) * (W - KW + 1), 0.0);
    for (int64_t h = 0; h < H; ++h)
        for (int64_t w = 0; w < W; ++w)
            A[h * W + w] *= 0.5;
    int64_t CW = W - KW + 1;
    for (int64_t h = 0; h <= H - KH; ++h)
        for (int64_t w = 0; w <= W - KW; ++w) {
            C[h * CW + w] = 0.0;
            for (int64_t kh = 0; kh < KH; ++kh)
                for (int64_t kw = 0; kw < KW; ++kw)
                    C[h * CW + w] +=
                        A[(h + kh) * W + (w + kw)] * B[kh * KW + kw];
        }
    for (int64_t h = 0; h <= H - KH; ++h)
        for (int64_t w = 0; w <= W - KW; ++w)
            C[h * CW + w] = std::max(C[h * CW + w], 0.0);
    return C;
}

/** Run @p tree on fresh deterministic inputs; return tensor C. */
std::vector<double>
runTree(const ir::Program &p, const ScheduleTree &tree,
        bool promote = true)
{
    Buffers buffers(p);
    buffers.fillPattern(p.tensorId("A"), 7);
    buffers.fillPattern(p.tensorId("B"), 13);
    GenOptions gopts;
    gopts.promoteIntermediates = promote;
    auto ast = codegen::generateAst(tree, gopts);
    run(p, ast, buffers);
    return buffers.data(p.tensorId("C"));
}

class ConvExec : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        prog_ = workloads::makeConv2D({12, 10, 3, 3});
        graph_ = deps::DependenceGraph::compute(prog_);
        Buffers init(prog_);
        init.fillPattern(prog_.tensorId("A"), 7);
        init.fillPattern(prog_.tensorId("B"), 13);
        ref_ = convReference(prog_, init);
    }

    ir::Program prog_;
    deps::DependenceGraph graph_;
    std::vector<double> ref_;
};

TEST_F(ConvExec, InitialTreeMatchesReference)
{
    ScheduleTree t = ScheduleTree::initial(prog_);
    t.annotate(graph_);
    EXPECT_EQ(runTree(prog_, t), ref_);
}

TEST_F(ConvExec, MinfuseMatchesReference)
{
    auto r = applyFusion(prog_, graph_, FusionPolicy::Min);
    EXPECT_EQ(runTree(prog_, r.tree), ref_);
}

TEST_F(ConvExec, SmartfuseMatchesReference)
{
    auto r = applyFusion(prog_, graph_, FusionPolicy::Smart);
    EXPECT_EQ(runTree(prog_, r.tree), ref_);
}

TEST_F(ConvExec, MaxfuseWithShiftsMatchesReference)
{
    auto r = applyFusion(prog_, graph_, FusionPolicy::Max);
    EXPECT_EQ(runTree(prog_, r.tree), ref_);
}

TEST_F(ConvExec, HybridfuseMatchesReference)
{
    auto r = applyFusion(prog_, graph_, FusionPolicy::Hybrid);
    EXPECT_EQ(runTree(prog_, r.tree), ref_);
}

TEST_F(ConvExec, ComposedMatchesReferenceWithPromotion)
{
    core::ComposeOptions opts;
    opts.tileSizes = {4, 4};
    auto r = core::compose(prog_, graph_, opts);
    EXPECT_EQ(runTree(prog_, r.tree, true), ref_);
}

TEST(ExecNoPromotion, IdempotentProducerIsCorrectWithoutScratchpads)
{
    // Promotion may only be disabled for idempotent producers (see
    // GenOptions); a stencil chain whose producer writes A from its
    // inputs (not in place) qualifies.
    ir::ProgramBuilder b("chain");
    b.param("N", 40);
    b.tensor("X", {"N + 1"}, ir::TensorKind::Input);
    b.tensor("A", {"N + 1"}, ir::TensorKind::Temp);
    b.tensor("C", {"N"}, ir::TensorKind::Output);
    b.statement("S0")
        .domain("[N] -> { S0[i] : 0 <= i <= N }")
        .reads("X", "{ S0[i] -> X[i] }")
        .writes("A", "{ S0[i] -> A[i] }")
        .body(ir::bin(ir::BinOp::Mul, ir::loadAcc(0), ir::lit(2.0)))
        .group(0);
    b.statement("S1")
        .domain("[N] -> { S1[i] : 0 <= i < N }")
        .reads("A", "{ S1[i] -> A[i] }")
        .reads("A", "{ S1[i] -> A[i + 1] }")
        .writes("C", "{ S1[i] -> C[i] }")
        .body(ir::bin(ir::BinOp::Add, ir::loadAcc(0), ir::loadAcc(1)))
        .group(1);
    ir::Program p = b.build();
    auto g = deps::DependenceGraph::compute(p);
    core::ComposeOptions opts;
    opts.tileSizes = {8};
    opts.startup = schedule::FusionPolicy::Min;
    auto r = core::compose(p, g, opts);
    ASSERT_FALSE(r.fusedIntermediates.empty());

    auto runIt = [&](bool promote) {
        Buffers buf(p);
        buf.fillPattern(p.tensorId("X"), 3);
        GenOptions go;
        go.promoteIntermediates = promote;
        run(p, codegen::generateAst(r.tree, go), buf);
        return buf.data(p.tensorId("C"));
    };
    EXPECT_EQ(runIt(false), runIt(true));
}

TEST_F(ConvExec, ComposedMatchesReferenceWithOddTileSizes)
{
    // Partial tiles at the boundaries.
    core::ComposeOptions opts;
    opts.tileSizes = {5, 3};
    auto r = core::compose(prog_, graph_, opts);
    EXPECT_EQ(runTree(prog_, r.tree, true), ref_);
}

TEST_F(ConvExec, ComposedGpuStyleParallelismMatchesReference)
{
    core::ComposeOptions opts;
    opts.tileSizes = {4, 4};
    opts.targetParallelism = 2;
    auto r = core::compose(prog_, graph_, opts);
    EXPECT_EQ(runTree(prog_, r.tree, true), ref_);
}

TEST_F(ConvExec, StatsCountInstancesAndRecomputation)
{
    // Composed with overlapped tiling executes MORE S0 instances
    // than the original (halo recomputation), while minfuse executes
    // exactly H*W.
    auto minr = applyFusion(prog_, graph_, FusionPolicy::Min);
    Buffers b1(prog_);
    b1.fillPattern(prog_.tensorId("A"), 7);
    b1.fillPattern(prog_.tensorId("B"), 13);
    auto s1 = run(prog_, codegen::generateAst(minr.tree), b1);

    core::ComposeOptions opts;
    opts.tileSizes = {4, 4};
    auto comp = core::compose(prog_, graph_, opts);
    Buffers b2(prog_);
    b2.fillPattern(prog_.tensorId("A"), 7);
    b2.fillPattern(prog_.tensorId("B"), 13);
    auto s2 = run(prog_, codegen::generateAst(comp.tree), b2);

    EXPECT_GT(s2.instances, s1.instances);
    EXPECT_GT(s1.instances, 0u);
    EXPECT_GT(s1.flops, 0.0);
}

TEST_F(ConvExec, TraceHookSeesScratchpadSpaces)
{
    core::ComposeOptions opts;
    opts.tileSizes = {4, 4};
    auto comp = core::compose(prog_, graph_, opts);
    Buffers b(prog_);
    b.fillPattern(prog_.tensorId("A"), 7);
    b.fillPattern(prog_.tensorId("B"), 13);
    int ntensors = prog_.tensors().size();
    uint64_t local_accesses = 0, global_accesses = 0;
    run(prog_, codegen::generateAst(comp.tree), b,
        [&](int space, int64_t, bool) {
            if (space >= ntensors)
                ++local_accesses;
            else
                ++global_accesses;
        });
    // The promoted A is accessed through its scratchpad space.
    EXPECT_GT(local_accesses, 0u);
    EXPECT_GT(global_accesses, 0u);
}

// ------------------------------------------------------------------
// Differential suite: every registry workload x every strategy must
// produce bit-identical buffers AND the identical trace sequence on
// the bytecode tier as on the reference interpreter; the native tier
// (when a toolchain is present) must produce bit-identical buffers.
// ------------------------------------------------------------------

/** Trace recorder for the batched sink interface. */
struct RecordingSink final : TraceSink
{
    std::vector<TraceRecord> recs;

    void
    onRecords(const TraceRecord *records, size_t n) override
    {
        recs.insert(recs.end(), records, records + n);
    }
};

/** Reduced problem sizes so the full sweep stays fast (respecting
 *  per-workload alignment requirements). */
driver::WorkloadParams
smallParams(const std::string &name)
{
    if (name == "equake")
        return {96, 6};
    if (name == "convbn")
        return {4, 8};
    if (name == "gemver")
        return {40, 40};
    if (name == "unsharp")
        return {8, 32};
    if (name == "bilateral")
        return {24, 24}; // multiples of 8
    if (name == "interp")
        return {32, 32}; // multiples of 16
    return {20, 20};
}

/** A second reduced size per workload whose extents are multiples
 *  of neither the clamped tile size (8) nor the lane width (4 or 8),
 *  so tiles end partial and lane-block runs end in a scalar tail.
 *  bilateral, interp and laplacian only accept multiples of 8, 16
 *  and 4; there the odd lengths come from their downsampled levels
 *  (bilateral's 5-cell grid, interp's 3-wide coarsest level,
 *  laplacian's 5-wide second level). */
driver::WorkloadParams
oddParams(const std::string &name)
{
    if (name == "equake")
        return {101, 7};
    if (name == "convbn")
        return {5, 11};
    if (name == "unsharp")
        return {11, 37};
    if (name == "bilateral")
        return {40, 40};
    if (name == "interp")
        return {48, 48};
    if (name == "laplacian")
        return {20, 28};
    if (name == "camera")
        return {22, 30};
    return {21, 23};
}

/** Default tiles of the spec, each clamped to 8 so the reduced
 *  domains still split into several (partial) tiles. */
std::vector<int64_t>
smallTiles(const driver::WorkloadSpec &spec)
{
    std::vector<int64_t> tiles;
    for (int64_t t : spec.defaultTiles)
        tiles.push_back(std::min<int64_t>(t, 8));
    return tiles;
}

/** The six PolyMage image pipelines of the registry. */
const char *const kImagePipelines[] = {"bilateral", "camera",
                                       "harris",    "laplacian",
                                       "interp",    "unsharp"};

class TierDifferential
    : public ::testing::TestWithParam<const char *>
{
};

/** Bytecode, traced and untraced, against the traced reference
 *  interpreter on @p p compiled under @p s: buffers, counters and
 *  the trace. The untraced run takes interval runs, nest advance
 *  and lane blocks with their scalar tails. */
void
expectBytecodeMatchesInterpreter(const ir::Program &p,
                                 const driver::WorkloadSpec &spec,
                                 driver::Strategy s)
{
    driver::PipelineOptions popts;
    popts.strategy = s;
    popts.tileSizes = smallTiles(spec);
    auto state = driver::Pipeline(popts).run(p);

    Buffers ref(p);
    fillServiceInputs(p, ref);
    std::vector<TraceRecord> ref_trace;
    ExecStats ref_stats =
        run(p, state.ast, ref, [&](int space, int64_t off, bool w) {
            ref_trace.push_back({off, int32_t(space), uint8_t(w)});
        });

    BytecodeKernel kernel = BytecodeKernel::compile(p, state.ast);
    EXPECT_GT(kernel.numInstructions(), 0u);
    Buffers bc(p);
    fillServiceInputs(p, bc);
    RecordingSink sink;
    ExecStats bc_stats = kernel.run(bc, sink);

    Buffers bc2(p);
    fillServiceInputs(p, bc2);
    ExecStats bc2_stats = kernel.run(bc2);

    for (size_t t = 0; t < p.tensors().size(); ++t) {
        EXPECT_EQ(ref.data(t), bc.data(t))
            << "tensor " << p.tensor(t).name;
        EXPECT_EQ(ref.data(t), bc2.data(t))
            << "untraced, tensor " << p.tensor(t).name;
    }
    for (const ExecStats &got : {bc_stats, bc2_stats}) {
        EXPECT_EQ(ref_stats.instances, got.instances);
        EXPECT_EQ(ref_stats.loads, got.loads);
        EXPECT_EQ(ref_stats.stores, got.stores);
        EXPECT_EQ(ref_stats.guardFails, got.guardFails);
        EXPECT_EQ(ref_stats.instancesParallel, got.instancesParallel);
    }
    EXPECT_EQ(bc_stats.simdLoops, 0u); // traced runs stay scalar

    ASSERT_EQ(ref_trace.size(), sink.recs.size());
    for (size_t i = 0; i < ref_trace.size(); ++i) {
        const TraceRecord &a = ref_trace[i];
        const TraceRecord &b = sink.recs[i];
        ASSERT_TRUE(a.space == b.space && a.offset == b.offset &&
                    a.isWrite == b.isWrite)
            << "trace record " << i << " differs: (" << a.space << ","
            << a.offset << "," << int(a.isWrite) << ") vs ("
            << b.space << "," << b.offset << "," << int(b.isWrite)
            << ")";
    }
}

TEST_P(TierDifferential, BytecodeMatchesInterpreterExactly)
{
    const driver::WorkloadSpec *spec =
        driver::findWorkload(GetParam());
    ASSERT_NE(spec, nullptr);
    for (const driver::WorkloadParams &params :
         {smallParams(spec->name), oddParams(spec->name)}) {
        ir::Program p = spec->make(params);
        for (driver::Strategy s : driver::allStrategies()) {
            SCOPED_TRACE(std::string(spec->name) + " " +
                         std::to_string(params.rows) + "x" +
                         std::to_string(params.cols) + " / " +
                         driver::strategyName(s));
            expectBytecodeMatchesInterpreter(p, *spec, s);
        }
    }
}

/** The sequential native kernel of @p p under @p s and @p tiles
 *  against the reference interpreter, buffer for buffer. */
void
expectNativeMatchesInterpreter(const ir::Program &p, driver::Strategy s,
                               const std::vector<int64_t> &tiles)
{
    driver::PipelineOptions popts;
    popts.strategy = s;
    popts.tileSizes = tiles;
    auto state = driver::Pipeline(popts).run(p);

    Buffers ref(p);
    fillServiceInputs(p, ref);
    run(p, state.ast, ref);

    NativeKernel kernel = NativeKernel::compile(p, state.ast);
    ASSERT_TRUE(kernel.ok()) << kernel.reason();
    Buffers nat(p);
    fillServiceInputs(p, nat);
    kernel.run(nat);
    for (size_t t = 0; t < p.tensors().size(); ++t)
        EXPECT_EQ(ref.data(t), nat.data(t))
            << "tensor " << p.tensor(t).name;
}

TEST_P(TierDifferential, NativeMatchesInterpreterExactly)
{
    // The vectorized point loops, their scalar epilogues and their
    // run-time alias checks: ours at the small size, every strategy
    // at the odd one (partial tiles, odd trip counts), and the image
    // pipelines at 64x80 under their unclamped default tiles, where
    // point loops run many vectors long.
    if (!NativeKernel::toolchainAvailable())
        GTEST_SKIP() << "no C toolchain on this machine";
    const driver::WorkloadSpec *spec =
        driver::findWorkload(GetParam());
    ASSERT_NE(spec, nullptr);
    {
        SCOPED_TRACE("small / ours");
        expectNativeMatchesInterpreter(spec->make(smallParams(spec->name)),
                                       driver::Strategy::Ours,
                                       smallTiles(*spec));
    }
    const driver::WorkloadParams odd = oddParams(spec->name);
    ir::Program p = spec->make(odd);
    for (driver::Strategy s : driver::allStrategies()) {
        SCOPED_TRACE(std::to_string(odd.rows) + "x" +
                     std::to_string(odd.cols) + " / " +
                     driver::strategyName(s));
        expectNativeMatchesInterpreter(p, s, smallTiles(*spec));
    }
    if (std::find(std::begin(kImagePipelines), std::end(kImagePipelines),
                  std::string(spec->name)) != std::end(kImagePipelines)) {
        SCOPED_TRACE("64x80 / ours, default tiles");
        expectNativeMatchesInterpreter(spec->make({64, 80}),
                                       driver::Strategy::Ours,
                                       spec->defaultTiles);
    }
}

// ------------------------------------------------------------------
// Parallel runtime: every workload x strategy x {2, 8} threads must
// be bit-identical to the sequential bytecode run -- buffers and
// stats. (Test names carry "Parallel" so the TSAN gate in
// scripts/check.sh can select the multithreaded subset.)
// ------------------------------------------------------------------

TEST_P(TierDifferential, ParallelMatchesSequentialExactly)
{
    const driver::WorkloadSpec *spec =
        driver::findWorkload(GetParam());
    ASSERT_NE(spec, nullptr);
    ir::Program p = spec->make(smallParams(spec->name));

    for (driver::Strategy s : driver::allStrategies()) {
        driver::PipelineOptions popts;
        popts.strategy = s;
        popts.tileSizes = smallTiles(*spec);
        auto state = driver::Pipeline(popts).run(p);

        Buffers ref(p);
        fillServiceInputs(p, ref);
        ExecOptions seq;
        ExecResult rs = execute(p, state.ast, ref, seq);
        // A fully parallel band always runs on the team, so its
        // tiles must actually be launched.
        bool fully_parallel = std::any_of(
            state.tileBands.begin(), state.tileBands.end(),
            [](const deps::TileBandGraph &b) {
                return b.cls == deps::TileBandClass::FullyParallel;
            });

        for (unsigned threads : {2u, 8u}) {
            SCOPED_TRACE(std::string(spec->name) + " / " +
                         driver::strategyName(s) + " x" +
                         std::to_string(threads));
            Buffers buf(p);
            fillServiceInputs(p, buf);
            ExecOptions eo;
            eo.threads = threads;
            eo.tileBands = &state.tileBands;
            ExecResult rp = execute(p, state.ast, buf, eo);
            EXPECT_EQ(rp.tier, Tier::Bytecode);
            EXPECT_TRUE(rp.parFallbackReason.empty())
                << rp.parFallbackReason;
            EXPECT_EQ(rp.par.threads, threads);
            if (fully_parallel) {
                EXPECT_GT(rp.par.regionsParallel, 0u);
                EXPECT_GT(rp.par.tilesExecuted, 0u);
            }

            for (size_t t = 0; t < p.tensors().size(); ++t)
                EXPECT_EQ(ref.data(t), buf.data(t))
                    << "tensor " << p.tensor(t).name;
            EXPECT_EQ(rs.stats.instances, rp.stats.instances);
            EXPECT_EQ(rs.stats.instancesParallel,
                      rp.stats.instancesParallel);
            EXPECT_EQ(rs.stats.flops, rp.stats.flops);
            EXPECT_EQ(rs.stats.loads, rp.stats.loads);
            EXPECT_EQ(rs.stats.stores, rp.stats.stores);
            EXPECT_EQ(rs.stats.guardFails, rp.stats.guardFails);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, TierDifferential,
    ::testing::Values("conv2d", "bilateral", "camera", "harris",
                      "laplacian", "interp", "unsharp", "equake",
                      "2mm", "gemver", "covariance", "convbn",
                      "seidel"),
    [](const ::testing::TestParamInfo<const char *> &info) {
        return std::string(info.param);
    });

/** Compile @p name under @p strategy at a reduced size; out-params
 *  the program and state. */
driver::CompilationState
compileSmall(const char *name, driver::Strategy strategy,
             ir::Program &p)
{
    const driver::WorkloadSpec *spec = driver::findWorkload(name);
    EXPECT_NE(spec, nullptr);
    p = spec->make(smallParams(name));
    driver::PipelineOptions popts;
    popts.strategy = strategy;
    popts.tileSizes = smallTiles(*spec);
    return driver::Pipeline(popts).run(p);
}

// ------------------------------------------------------------------
// Backend registry sweep: every registered backend (tier x team
// size) on every registry workload under every strategy must produce
// buffers bit-identical to the Tier-0 interpreter; the measured
// deviation is the failure message. (Names carry "Backend" so the
// TSAN gate in scripts/check.sh runs the multithreaded sweep; the
// registry covers each parallel tier at two team sizes.)
// ------------------------------------------------------------------

class BackendSweep : public ::testing::TestWithParam<const char *>
{
};

TEST_P(BackendSweep, HonorsNumericalContractOnEveryStrategy)
{
    const driver::WorkloadSpec *spec =
        driver::findWorkload(GetParam());
    ASSERT_NE(spec, nullptr);
    ir::Program p = spec->make(smallParams(spec->name));
    const bool have_cc = NativeKernel::toolchainAvailable();

    for (driver::Strategy s : driver::allStrategies()) {
        driver::PipelineOptions popts;
        popts.strategy = s;
        popts.tileSizes = smallTiles(*spec);
        auto state = driver::Pipeline(popts).run(p);

        Buffers ref(p);
        fillServiceInputs(p, ref);
        run(p, state.ast, ref);

        for (const BackendSpec &b : backendRegistry()) {
            if (b.tier == Tier::Native && !have_cc)
                continue;
            SCOPED_TRACE(std::string(spec->name) + " / " +
                         driver::strategyName(s) + " / " + b.name);
            Buffers buf(p);
            fillServiceInputs(p, buf);
            ExecOptions eo = backendOptions(b);
            eo.tileBands = &state.tileBands;
            ExecResult r = execute(p, state.ast, buf, eo);
            EXPECT_EQ(r.tier, b.tier) << r.fallbackReason;

            BufferDeviation dev = bufferDeviation(p, ref, buf);
            EXPECT_TRUE(dev.bitIdentical)
                << "maxAbs " << dev.maxAbs << ", maxUlp "
                << dev.maxUlp;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, BackendSweep,
    ::testing::Values("conv2d", "bilateral", "camera", "harris",
                      "laplacian", "interp", "unsharp", "equake",
                      "2mm", "gemver", "covariance", "convbn",
                      "seidel"),
    [](const ::testing::TestParamInfo<const char *> &info) {
        return std::string(info.param);
    });

TEST(BackendRegistry, LookupAndOptionsRoundTrip)
{
    // The cube is tier x team size: the interpreter, and bytecode
    // and native each at 1, 2 and 4 threads.
    EXPECT_EQ(backendRegistry().size(), 7u);
    const BackendSpec *b = findBackend("bytecode-par4");
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->tier, Tier::Bytecode);
    EXPECT_EQ(b->threads, 4u);
    ExecOptions eo = backendOptions(*b);
    EXPECT_EQ(eo.tier, b->tier);
    EXPECT_EQ(eo.threads, b->threads);
    EXPECT_EQ(findBackend("no-such-backend"), nullptr);

    // Two team sizes per parallel tier, so the TSAN gate sees
    // distinct interleavings.
    EXPECT_NE(findBackend("bytecode-par2"), nullptr);
    EXPECT_NE(findBackend("native-par2"), nullptr);
    EXPECT_NE(findBackend("native-par4"), nullptr);
}

TEST(BackendSimd, FastPathEngagesAndReportsLanes)
{
    // harris's elementwise stages are unit-stride single-statement
    // intervals with no same-base loads in vector range: a default
    // bytecode run must actually take lane blocks (simdLoops > 0),
    // execute whole blocks, and still match the interpreter bit for
    // bit and counter for counter -- a silent always-scalar
    // selection would pass the sweep while measuring nothing. (2mm
    // cannot engage: its k-innermost reductions have a zero-stride
    // store, and its init statements fuse with the k loop.)
    ir::Program p;
    auto state = compileSmall("harris", driver::Strategy::Ours, p);

    Buffers ref(p);
    fillServiceInputs(p, ref);
    ExecOptions interp;
    interp.tier = Tier::Interp;
    ExecResult ri = execute(p, state.ast, ref, interp);

    Buffers buf(p);
    fillServiceInputs(p, buf);
    ExecResult rv = execute(p, state.ast, buf, {});

    EXPECT_EQ(rv.tier, Tier::Bytecode);
    EXPECT_GT(rv.stats.simdLoops, 0u);
    EXPECT_GT(rv.stats.simdLanes, 0u);
    EXPECT_EQ(rv.stats.simdLanes % simdWidth(), 0u);
    EXPECT_EQ(ri.stats.instances, rv.stats.instances);
    EXPECT_EQ(ri.stats.instancesParallel, rv.stats.instancesParallel);
    EXPECT_EQ(ri.stats.flops, rv.stats.flops);
    EXPECT_EQ(ri.stats.loads, rv.stats.loads);
    EXPECT_EQ(ri.stats.stores, rv.stats.stores);
    EXPECT_EQ(ri.stats.guardFails, rv.stats.guardFails);
    for (size_t t = 0; t < p.tensors().size(); ++t)
        EXPECT_EQ(ref.data(t), buf.data(t))
            << "tensor " << p.tensor(t).name;

    // seidel's loop-carried flow dependences must make the per-loop
    // dependence check reject the block path lane-for-lane.
    ir::Program sp;
    auto sstate = compileSmall("seidel", driver::Strategy::MinFuse,
                               sp);
    Buffers sref(sp);
    fillServiceInputs(sp, sref);
    execute(sp, sstate.ast, sref, interp);
    Buffers sbuf(sp);
    fillServiceInputs(sp, sbuf);
    execute(sp, sstate.ast, sbuf, {});
    for (size_t t = 0; t < sp.tensors().size(); ++t)
        EXPECT_EQ(sref.data(t), sbuf.data(t))
            << "tensor " << sp.tensor(t).name;
}

TEST(BackendNativePar, ParallelNativeReportsTeamShape)
{
    if (!NativeKernel::parallelToolchain())
        GTEST_SKIP() << "no OpenMP toolchain on this machine";
    ir::Program p;
    auto state = compileSmall("harris", driver::Strategy::Ours, p);

    Buffers ref(p);
    fillServiceInputs(p, ref);
    execute(p, state.ast, ref, {});

    Buffers buf(p);
    fillServiceInputs(p, buf);
    ExecOptions eo;
    eo.tier = Tier::Native;
    eo.threads = 2;
    eo.tileBands = &state.tileBands;
    ExecResult r = execute(p, state.ast, buf, eo);
    ASSERT_EQ(r.tier, Tier::Native) << r.fallbackReason;
    EXPECT_TRUE(r.parFallbackReason.empty())
        << r.parFallbackReason;
    EXPECT_EQ(r.par.threads, 2u);
    EXPECT_GT(r.par.regionsParallel, 0u);
    for (size_t t = 0; t < p.tensors().size(); ++t)
        EXPECT_EQ(ref.data(t), buf.data(t))
            << "tensor " << p.tensor(t).name;
}

TEST(BackendNativePar, WithoutBandProofNativeStaysSequential)
{
    if (!NativeKernel::toolchainAvailable())
        GTEST_SKIP() << "no C toolchain on this machine";
    ir::Program p;
    auto state = compileSmall("harris", driver::Strategy::Ours, p);
    Buffers buf(p);
    fillServiceInputs(p, buf);
    ExecOptions eo;
    eo.tier = Tier::Native;
    eo.threads = 4;
    eo.tileBands = nullptr; // no independence proof
    ExecResult r = execute(p, state.ast, buf, eo);
    ASSERT_EQ(r.tier, Tier::Native) << r.fallbackReason;
    EXPECT_EQ(r.par.threads, 0u);
    EXPECT_FALSE(r.parFallbackReason.empty());
}

TEST(BackendDeviation, MeasuresUlpAndAbsDeviation)
{
    ir::Program p;
    compileSmall("conv2d", driver::Strategy::Ours, p);
    Buffers a(p), b(p);
    fillServiceInputs(p, a);
    fillServiceInputs(p, b);
    EXPECT_TRUE(bufferDeviation(p, a, b).bitIdentical);

    // One lane nudged by one representable step: 1 ulp, tiny abs.
    std::vector<double> &lane = b.data(0);
    ASSERT_FALSE(lane.empty());
    double orig = lane[0];
    lane[0] = std::nextafter(orig, 1e300);
    BufferDeviation dev = bufferDeviation(p, a, b);
    EXPECT_FALSE(dev.bitIdentical);
    EXPECT_EQ(dev.maxUlp, 1u);
    EXPECT_GT(dev.maxAbs, 0.0);

    // NaN vs non-NaN pins the deviation to the contract maximum.
    lane[0] = std::numeric_limits<double>::quiet_NaN();
    dev = bufferDeviation(p, a, b);
    EXPECT_FALSE(dev.bitIdentical);
    EXPECT_EQ(dev.maxUlp, std::numeric_limits<uint64_t>::max());
    EXPECT_TRUE(std::isinf(dev.maxAbs));
}

// Fast, TSAN-scaled differential: the instrumented parallel bytecode
// backends (2 and 4 threads; every worker takes lane blocks) against
// the sequential run, bit-identical, on three keys with very
// different tile graphs: harris/ours and conv2d/ours split
// independent tiles statically (critical path 1), and seidel/minfuse
// drains a wavefront DAG through the ready queue. The registry-wide
// BackendSweep carries the same contract but its native pipeline
// compiles make it minutes-long under TSAN; this suite is the
// interleaving coverage the race gate actually runs (check.sh picks
// it up via the Backend* filter, which the AllWorkloads/BackendSweep
// instantiation prefix deliberately does not match).
TEST(BackendTsanDifferential, ParallelBackendsStayBitIdentical)
{
    const std::pair<const char *, driver::Strategy> keys[] = {
        {"harris", driver::Strategy::Ours},
        {"conv2d", driver::Strategy::Ours},
        {"seidel", driver::Strategy::MinFuse},
    };
    for (const auto &[name, strategy] : keys) {
        ir::Program p;
        auto state = compileSmall(name, strategy, p);

        Buffers ref(p);
        fillServiceInputs(p, ref);
        execute(p, state.ast, ref, {});

        for (const char *bname : {"bytecode-par2", "bytecode-par4"}) {
            const BackendSpec *b = findBackend(bname);
            ASSERT_NE(b, nullptr) << bname;
            SCOPED_TRACE(std::string(name) + " / " + bname);
            Buffers buf(p);
            fillServiceInputs(p, buf);
            ExecOptions eo = backendOptions(*b);
            eo.tileBands = &state.tileBands;
            ExecResult r = execute(p, state.ast, buf, eo);
            EXPECT_EQ(r.tier, Tier::Bytecode) << r.fallbackReason;
            EXPECT_TRUE(r.parFallbackReason.empty())
                << r.parFallbackReason;
            EXPECT_GT(r.par.regionsParallel, 0u);
            if (strategy == driver::Strategy::MinFuse) {
                EXPECT_GT(r.par.criticalPath, 1u); // the queue ran
            }
            for (size_t t = 0; t < p.tensors().size(); ++t)
                EXPECT_EQ(ref.data(t), buf.data(t))
                    << "tensor " << p.tensor(t).name;
        }
    }
}

TEST(ParallelExec, WavefrontGraphDrainsTheTileDag)
{
    // seidel's uniform (1,0)/(0,1)/(1,1) dependences make every
    // rectangular tiling a wavefront with width, so a team run must
    // drain the whole DAG through the ready queue -- with broken
    // in-degree accounting this test deadlocks (workers starve with
    // done < n), which the ctest timeout turns into a failure.
    ir::Program p;
    auto state =
        compileSmall("seidel", driver::Strategy::MinFuse, p);
    ASSERT_EQ(state.tileBands.size(), 1u);
    ASSERT_EQ(state.tileBands[0].cls,
              deps::TileBandClass::Wavefront);
    ASSERT_FALSE(state.tileBands[0].deltas.empty());

    Buffers ref(p);
    fillServiceInputs(p, ref);
    execute(p, state.ast, ref, {});

    Buffers buf(p);
    fillServiceInputs(p, buf);
    ExecOptions eo;
    eo.threads = 8;
    eo.tileBands = &state.tileBands;
    ExecResult r = execute(p, state.ast, buf, eo);
    EXPECT_TRUE(r.parFallbackReason.empty())
        << r.parFallbackReason;
    EXPECT_EQ(r.par.regionsParallel, 1u);
    EXPECT_GT(r.par.tilesExecuted, 1u);
    EXPECT_GT(r.par.criticalPath, 1u);
    EXPECT_LT(r.par.criticalPath, r.par.tilesExecuted);
    EXPECT_EQ(ref.data(p.tensorId("A")), buf.data(p.tensorId("A")));
}

TEST(ParallelExec, ChainWavefrontRunsSequentially)
{
    // gemver/maxfuse fuses its stages into one wavefront band whose
    // tile DAG is a chain (critical path == tile count): there is
    // nothing to overlap, so a team run keeps the region on the
    // launching thread instead of spinning workers on the queue.
    ir::Program p;
    auto state =
        compileSmall("gemver", driver::Strategy::MaxFuse, p);
    ASSERT_EQ(state.tileBands.size(), 1u);
    ASSERT_EQ(state.tileBands[0].cls,
              deps::TileBandClass::Wavefront);

    Buffers ref(p);
    fillServiceInputs(p, ref);
    execute(p, state.ast, ref, {});

    Buffers buf(p);
    fillServiceInputs(p, buf);
    ExecOptions eo;
    eo.threads = 4;
    eo.tileBands = &state.tileBands;
    ExecResult r = execute(p, state.ast, buf, eo);
    EXPECT_TRUE(r.parFallbackReason.empty())
        << r.parFallbackReason;
    EXPECT_EQ(r.par.threads, 4u);
    EXPECT_EQ(r.par.regionsParallel, 0u);
    EXPECT_EQ(r.par.regionsSequential, 1u);
    EXPECT_EQ(r.par.tilesExecuted, 0u);
    EXPECT_EQ(r.par.waits, 0u);
    for (size_t t = 0; t < p.tensors().size(); ++t)
        EXPECT_EQ(ref.data(t), buf.data(t))
            << "tensor " << p.tensor(t).name;
}

TEST(ParallelExec, SpawnFailpointDegradesToSequentialParallel)
{
    failpoints::clearAll();
    failpoints::set("exec.par.spawn", failpoints::Action::Error);
    ir::Program p;
    auto state =
        compileSmall("harris", driver::Strategy::Ours, p);

    Buffers ref(p);
    fillServiceInputs(p, ref);
    execute(p, state.ast, ref, {});

    Buffers buf(p);
    fillServiceInputs(p, buf);
    ExecOptions eo;
    eo.threads = 4;
    eo.tileBands = &state.tileBands;
    ExecResult r = execute(p, state.ast, buf, eo);
    failpoints::clearAll();

    // Planning failed before any tile ran: the whole tape ran
    // sequentially, with the reason recorded.
    EXPECT_FALSE(r.parFallbackReason.empty());
    EXPECT_EQ(r.par.threads, 0u);
    EXPECT_EQ(r.par.tilesExecuted, 0u);
    for (size_t t = 0; t < p.tensors().size(); ++t)
        EXPECT_EQ(ref.data(t), buf.data(t));
}

TEST(ParallelExec, TileGraphFailpointDegradesToSequentialParallel)
{
    failpoints::clearAll();
    failpoints::set("exec.par.tilegraph",
                    failpoints::Action::Budget);
    ir::Program p;
    auto state =
        compileSmall("seidel", driver::Strategy::MinFuse, p);

    Buffers ref(p);
    fillServiceInputs(p, ref);
    execute(p, state.ast, ref, {});

    Buffers buf(p);
    fillServiceInputs(p, buf);
    ExecOptions eo;
    eo.threads = 4;
    eo.tileBands = &state.tileBands;
    ExecResult r = execute(p, state.ast, buf, eo);
    failpoints::clearAll();

    EXPECT_FALSE(r.parFallbackReason.empty());
    EXPECT_EQ(r.par.tilesExecuted, 0u);
    EXPECT_EQ(ref.data(p.tensorId("A")), buf.data(p.tensorId("A")));
}

TEST(ParallelExec, ZeroThreadsMeansHardwareCountParallel)
{
    ir::Program p;
    auto state =
        compileSmall("harris", driver::Strategy::Ours, p);

    Buffers ref(p);
    fillServiceInputs(p, ref);
    execute(p, state.ast, ref, {});

    Buffers buf(p);
    fillServiceInputs(p, buf);
    ExecOptions eo;
    eo.threads = 0;
    eo.tileBands = &state.tileBands;
    ExecResult r = execute(p, state.ast, buf, eo);
    // 0 resolves to one per hardware thread; on a single-CPU host
    // that is a team of one, which runs sequentially.
    const unsigned hw = ThreadPool::defaultThreads();
    EXPECT_EQ(resolveThreads(0), hw);
    EXPECT_EQ(r.par.threads, hw > 1 ? hw : 0u);
    EXPECT_TRUE(r.parFallbackReason.empty())
        << r.parFallbackReason;
    for (size_t t = 0; t < p.tensors().size(); ++t)
        EXPECT_EQ(ref.data(t), buf.data(t));
}

TEST(NativeTier, AllStrategiesMatchOnConv2d)
{
    if (!NativeKernel::toolchainAvailable())
        GTEST_SKIP() << "no C toolchain on this machine";
    const driver::WorkloadSpec *spec = driver::findWorkload("conv2d");
    ir::Program p = spec->make({20, 20});
    for (driver::Strategy s : driver::allStrategies()) {
        driver::PipelineOptions popts;
        popts.strategy = s;
        popts.tileSizes = {8, 8};
        auto state = driver::Pipeline(popts).run(p);
        SCOPED_TRACE(driver::strategyName(s));

        Buffers ref(p);
        fillServiceInputs(p, ref);
        run(p, state.ast, ref);

        NativeKernel kernel = NativeKernel::compile(p, state.ast);
        ASSERT_TRUE(kernel.ok()) << kernel.reason();
        Buffers nat(p);
        fillServiceInputs(p, nat);
        kernel.run(nat);
        for (size_t t = 0; t < p.tensors().size(); ++t)
            EXPECT_EQ(ref.data(t), nat.data(t));
    }
}

TEST(Engine, DispatchesAndReportsTier)
{
    const driver::WorkloadSpec *spec = driver::findWorkload("conv2d");
    ir::Program p = spec->make({16, 16});
    auto state =
        driver::Pipeline(driver::PipelineOptions{}).run(p);

    Buffers a(p), b(p);
    fillServiceInputs(p, a);
    fillServiceInputs(p, b);

    ExecOptions interp;
    interp.tier = Tier::Interp;
    ExecResult ri = execute(p, state.ast, a, interp);
    EXPECT_EQ(ri.tier, Tier::Interp);

    ExecResult rb = execute(p, state.ast, b); // default: bytecode
    EXPECT_EQ(rb.tier, Tier::Bytecode);
    EXPECT_TRUE(rb.fallbackReason.empty());
    for (size_t t = 0; t < p.tensors().size(); ++t)
        EXPECT_EQ(a.data(t), b.data(t));

    // Native + tracing cannot mix: falls back to bytecode.
    struct NoOpSink final : TraceSink
    {
        void onRecords(const TraceRecord *, size_t) override {}
    } no_op;
    Buffers c(p);
    fillServiceInputs(p, c);
    ExecOptions nt;
    nt.tier = Tier::Native;
    nt.sink = &no_op;
    ExecResult rn = execute(p, state.ast, c, nt);
    EXPECT_EQ(rn.tier, Tier::Bytecode);
    EXPECT_FALSE(rn.fallbackReason.empty());
}

TEST(Engine, InterpreterSaysWhyATeamRunsSequentially)
{
    // Every tier answers a team request it cannot honour with a
    // reason; the interpreter has no team at all.
    ir::Program p;
    auto state = compileSmall("conv2d", driver::Strategy::Ours, p);
    for (unsigned threads : {1u, 4u}) {
        SCOPED_TRACE(threads);
        Buffers buf(p);
        fillServiceInputs(p, buf);
        ExecOptions eo;
        eo.tier = Tier::Interp;
        eo.threads = threads;
        eo.tileBands = &state.tileBands;
        ExecResult r = execute(p, state.ast, buf, eo);
        EXPECT_EQ(r.tier, Tier::Interp);
        EXPECT_EQ(r.par.threads, 0u);
        EXPECT_EQ(r.parFallbackReason.empty(), threads == 1)
            << r.parFallbackReason;
    }
}

// The two execute() overloads -- over a bare (program, AST) and over a
// frozen KernelImage -- must walk the same tier ladder: bit-identical
// buffers, the same tier and fallback reasons, the same parallel
// report, the same counters (lane blocks included). Wall-clock
// seconds and ready-queue spins (par.waits) are timing-dependent and
// excluded.
TEST(Engine, ExecuteOverloadsAgree)
{
    const bool have_cc = NativeKernel::toolchainAvailable();
    struct Case
    {
        std::string name;
        ExecOptions options;
        bool sink = false;
    };
    std::vector<Case> cases;
    for (const BackendSpec &b : backendRegistry())
        cases.push_back({b.name, backendOptions(b), false});
    for (const char *name : {"native", "bytecode-par2"})
        cases.push_back({std::string(name) + "+sink",
                         backendOptions(*findBackend(name)), true});

    for (const driver::WorkloadSpec &spec : driver::workloadRegistry()) {
        auto program = std::make_shared<const ir::Program>(
            spec.make(smallParams(spec.name)));
        driver::PipelineOptions popts;
        popts.strategy = driver::Strategy::Ours;
        popts.tileSizes = smallTiles(spec);
        driver::KernelArtifact art =
            driver::compileKernel(driver::Pipeline(popts), program);
        ASSERT_TRUE(art.ok()) << spec.name;
        const KernelImage &image = *art.image;
        const ir::Program &p = *program;

        for (const Case &c : cases) {
            if (c.options.tier == Tier::Native && !have_cc)
                continue;
            SCOPED_TRACE(std::string(spec.name) + " / " + c.name);
            ExecOptions eo = c.options;
            eo.tileBands = &image.tileBands;

            Buffers a(p), b(p);
            fillServiceInputs(p, a);
            fillServiceInputs(p, b);
            RecordingSink sa, sb;
            eo.sink = c.sink ? &sa : nullptr;
            ExecResult ra = execute(p, image.ast, a, eo);
            eo.sink = c.sink ? &sb : nullptr;
            ExecResult rb = execute(image, b, eo);

            EXPECT_TRUE(bufferDeviation(p, a, b).bitIdentical);
            EXPECT_EQ(ra.tier, rb.tier);
            EXPECT_EQ(ra.fallbackReason, rb.fallbackReason);
            EXPECT_EQ(ra.parFallbackReason, rb.parFallbackReason);
            EXPECT_EQ(ra.par.threads, rb.par.threads);
            EXPECT_EQ(ra.par.regionsParallel, rb.par.regionsParallel);
            EXPECT_EQ(ra.par.regionsSequential,
                      rb.par.regionsSequential);
            EXPECT_EQ(ra.par.tilesExecuted, rb.par.tilesExecuted);
            EXPECT_EQ(ra.par.criticalPath, rb.par.criticalPath);
            EXPECT_EQ(ra.stats.instances, rb.stats.instances);
            EXPECT_EQ(ra.stats.loads, rb.stats.loads);
            EXPECT_EQ(ra.stats.stores, rb.stats.stores);
            EXPECT_EQ(ra.stats.simdLoops, rb.stats.simdLoops);
            EXPECT_EQ(ra.stats.simdLanes, rb.stats.simdLanes);
            EXPECT_EQ(sa.recs.size(), sb.recs.size());
        }
    }
}

TEST(Engine, TierNamesRoundTrip)
{
    for (Tier t : {Tier::Interp, Tier::Bytecode, Tier::Native}) {
        Tier out;
        EXPECT_TRUE(parseTier(tierName(t), &out));
        EXPECT_EQ(out, t);
    }
    Tier out;
    EXPECT_FALSE(parseTier("jit", &out));
}

TEST(BytecodeKernel, SinkSeesScratchpadSpaces)
{
    ir::Program p = workloads::makeConv2D({12, 10, 3, 3});
    auto graph = deps::DependenceGraph::compute(p);
    core::ComposeOptions opts;
    opts.tileSizes = {4, 4};
    auto comp = core::compose(p, graph, opts);
    auto ast = codegen::generateAst(comp.tree);

    BytecodeKernel kernel = BytecodeKernel::compile(p, ast);
    Buffers b(p);
    b.fillPattern(p.tensorId("A"), 7);
    b.fillPattern(p.tensorId("B"), 13);
    RecordingSink sink;
    kernel.run(b, sink);
    int nt = p.tensors().size();
    uint64_t local = 0, global = 0;
    for (const TraceRecord &r : sink.recs)
        ++(r.space >= nt ? local : global);
    EXPECT_GT(local, 0u);
    EXPECT_GT(global, 0u);
}

/** Deep copy of @p n with every promotion's copy-in restored; adds
 *  the number of elided copy-ins it restored to @p elided. */
codegen::AstPtr
withEveryCopyIn(const codegen::AstPtr &n, int &elided)
{
    if (!n)
        return n;
    auto copy = std::make_shared<codegen::AstNode>(*n);
    for (codegen::Promotion &promo : copy->promotions) {
        elided += promo.copyIn ? 0 : 1;
        promo.copyIn = true;
    }
    for (codegen::AstPtr &c : copy->children)
        c = withEveryCopyIn(c, elided);
    return copy;
}

/** Interpreter buffers of @p ast with the inputs and every Temp
 *  global buffer filled: a copy-in codegen wrongly dropped then reads
 *  a zeroed scratchpad instead of the global pattern. */
Buffers
runWithPatternedTemps(const ir::Program &p, const codegen::AstPtr &ast)
{
    Buffers buf(p);
    fillServiceInputs(p, buf);
    for (size_t t = 0; t < p.tensors().size(); ++t)
        if (p.tensor(t).kind == ir::TensorKind::Temp)
            buf.fillPattern(int(t), 7000 + t);
    run(p, ast, buf);
    return buf;
}

TEST(Exec, CopyInElisionIsUnobservable)
{
    struct Case
    {
        std::string name;
        driver::WorkloadParams size;
        std::vector<int64_t> tiles;
        driver::Strategy strategy;
    };
    std::vector<Case> cases;
    for (const driver::WorkloadSpec &spec : driver::workloadRegistry())
        for (driver::Strategy s : driver::allStrategies())
            cases.push_back({spec.name, smallParams(spec.name),
                             smallTiles(spec), s});
    // At these sizes the default tiles leave several partial tiles
    // and the promotions of the HD benchmark's pipelines.
    for (const char *name : {"camera", "interp", "unsharp"})
        cases.push_back({name,
                         {64, 128},
                         driver::findWorkload(name)->defaultTiles,
                         driver::Strategy::Ours});

    int elided = 0;
    for (const Case &c : cases) {
        SCOPED_TRACE(c.name + " / " + driver::strategyName(c.strategy));
        ir::Program p = driver::findWorkload(c.name)->make(c.size);
        driver::PipelineOptions popts;
        popts.strategy = c.strategy;
        popts.tileSizes = c.tiles;
        auto state = driver::Pipeline(popts).run(p);
        codegen::AstPtr kept = withEveryCopyIn(state.ast, elided);

        Buffers proven = runWithPatternedTemps(p, state.ast);
        Buffers copied = runWithPatternedTemps(p, kept);
        for (size_t t = 0; t < p.tensors().size(); ++t)
            EXPECT_EQ(proven.data(t), copied.data(t))
                << "tensor " << p.tensor(t).name;
    }
    EXPECT_GT(elided, 0);
}

// ------------------------------------------------------------------
// Tile-team scratchpad arenas: each OpenMP worker of a native team
// and each bytecode worker machine owns its promotions' storage,
// reused across its tiles. The bytecode test carries "Parallel" so
// the TSAN gate runs it. The OpenMP test stays out of it: TSAN
// cannot instrument the compiled kernel, and libgomp's pooled
// workers synchronize through futexes TSAN does not see, so there it
// only reports the kernel reading buffers the main thread filled
// before the region.
// ------------------------------------------------------------------

/** @p name under `ours` at a reduced size, and the buffers of its
 *  sequential native run. */
struct ArenaCase
{
    ir::Program p;
    driver::CompilationState state;
    std::unique_ptr<Buffers> ref;

    explicit ArenaCase(const char *name)
    {
        state = compileSmall(name, driver::Strategy::Ours, p);
        NativeKernel seq = NativeKernel::compile(p, state.ast);
        EXPECT_TRUE(seq.ok()) << seq.reason();
        ref = std::make_unique<Buffers>(p);
        fillServiceInputs(p, *ref);
        if (seq.ok())
            seq.run(*ref);
    }

    void
    expectMatches(const Buffers &buf) const
    {
        for (size_t t = 0; t < p.tensors().size(); ++t)
            EXPECT_EQ(ref->data(t), buf.data(t))
                << "tensor " << p.tensor(t).name;
    }
};

TEST(NativeArena, TileTeamsMatchSequentialNative)
{
    if (!NativeKernel::parallelToolchain())
        GTEST_SKIP() << "no OpenMP toolchain on this machine";
    for (const char *name : kImagePipelines) {
        ArenaCase c(name);
        for (unsigned threads : {2u, 4u}) {
            SCOPED_TRACE(std::string(name) + " x" +
                         std::to_string(threads));
            NativeOptions no = nativeTeam(threads);
            no.tileBands = &c.state.tileBands;
            NativeKernel team = NativeKernel::compile(c.p, c.state.ast, no);
            ASSERT_TRUE(team.ok()) << team.reason();
            EXPECT_EQ(team.threads(), threads);
            EXPECT_GT(team.regionsParallel(), 0u);
            Buffers buf(c.p);
            fillServiceInputs(c.p, buf);
            team.run(buf);
            c.expectMatches(buf);
        }
    }
}

TEST(NativeSource, RestrictTensorsNoHeaders)
{
    // The nest reaches each tensor through its own restrict pointer,
    // the TU declares what it uses instead of including headers, and
    // its first comment names the one compile line (-fopenmp added
    // for a team).
    const std::string flags =
        "cc -O2 -march=native -ftree-vectorize "
        "-fvect-cost-model=dynamic -fno-math-errno -ffp-contract=off";
    for (const char *name : kImagePipelines) {
        SCOPED_TRACE(name);
        ir::Program p;
        auto state = compileSmall(name, driver::Strategy::Ours, p);
        for (unsigned threads : {1u, 2u}) {
            const std::string code =
                emitNativeSource(p, state.ast, threads, &state.tileBands);
            EXPECT_EQ(code.find("#include"), std::string::npos);
            const std::string comment = code.substr(0, code.find("*/"));
            EXPECT_NE(comment.find(flags), std::string::npos) << comment;
            EXPECT_EQ(comment.find(" -fopenmp") != std::string::npos,
                      threads > 1)
                << comment;
            size_t restricts = 0;
            for (size_t at = code.find("*restrict");
                 at != std::string::npos;
                 at = code.find("*restrict", at + 1))
                ++restricts;
            EXPECT_EQ(restricts, p.tensors().size());
            for (size_t t = 0; t < p.tensors().size(); ++t)
                EXPECT_NE(code.find("double *restrict pf_t" +
                                    std::to_string(t)),
                          std::string::npos);
            // Only pf_kernel's forwarding call reads pf_bufs.
            const size_t kernel = code.find("void pf_kernel(double **");
            ASSERT_NE(kernel, std::string::npos);
            EXPECT_GT(code.find("pf_bufs["), kernel);
        }
    }
}

TEST(NativeArena, TileTeamSourceIsWarningFree)
{
    // The OpenMP tile-team TU under the flags cli_emit_c_warning_free
    // holds the sequential TU to.
    if (!NativeKernel::parallelToolchain())
        GTEST_SKIP() << "no OpenMP toolchain on this machine";
    for (const char *name : kImagePipelines) {
        ir::Program p;
        auto state = compileSmall(name, driver::Strategy::Ours, p);
        for (unsigned threads : {2u, 4u}) {
            SCOPED_TRACE(std::string(name) + " x" +
                         std::to_string(threads));
            unsigned parallel = 0;
            const std::string code = emitNativeSource(
                p, state.ast, threads, &state.tileBands, &parallel);
            EXPECT_GT(parallel, 0u);
            EXPECT_NE(code.find("#pragma omp parallel num_threads(" +
                                std::to_string(threads) + ")"),
                      std::string::npos);
            FILE *cc = popen("cc -fopenmp -Wall -Wextra -Werror "
                             "-fsyntax-only -x c -",
                             "w");
            ASSERT_NE(cc, nullptr);
            std::fwrite(code.data(), 1, code.size(), cc);
            EXPECT_EQ(pclose(cc), 0);
        }
    }
}

TEST(NativeArenaParallel, BytecodeTeamsMatchSequentialNative)
{
    if (!NativeKernel::toolchainAvailable())
        GTEST_SKIP() << "no C toolchain on this machine";
    for (const char *name : kImagePipelines) {
        ArenaCase c(name);
        for (unsigned threads : {2u, 4u}) {
            SCOPED_TRACE(std::string(name) + " x" +
                         std::to_string(threads));
            ExecOptions eo;
            eo.tier = Tier::Bytecode;
            eo.threads = threads;
            eo.tileBands = &c.state.tileBands;
            Buffers buf(c.p);
            fillServiceInputs(c.p, buf);
            ExecResult r = execute(c.p, c.state.ast, buf, eo);
            EXPECT_TRUE(r.parFallbackReason.empty())
                << r.parFallbackReason;
            EXPECT_GT(r.par.regionsParallel, 0u);
            c.expectMatches(buf);
        }
    }
}

TEST(Buffers, PatternIsDeterministicAndBoundsChecked)
{
    ir::Program p = workloads::makeConv2D({6, 6, 3, 3});
    Buffers a(p), b(p);
    a.fillPattern(0, 42);
    b.fillPattern(0, 42);
    EXPECT_EQ(a.data(0), b.data(0));
    EXPECT_THROW(a.offsetOf(0, {6, 0}), FatalError);
    EXPECT_THROW(a.offsetOf(0, {0, -1}), FatalError);
    EXPECT_EQ(a.offsetOf(0, {1, 2}), 8);
}

} // namespace
} // namespace exec
} // namespace polyfuse
