/**
 * @file
 * Tests for AST generation on the convolution example: loop
 * structure, tile/point loops, guards, promotion scopes, parallel
 * loop marks, and the emitted C of Fig. 1(b)/Fig. 5 (the native
 * tier's translation unit). On registry workloads: guard rows that
 * enclosing loop bounds imply are pruned, loop bounds carry no
 * repeated term or alternative, and the naive schedule runs exactly
 * every domain point. Every schedule is produced by the driver's
 * pass pipeline.
 */

#include <gtest/gtest.h>

#include "driver/pipeline.hh"
#include "driver/registry.hh"
#include "exec/bytecode.hh"
#include "exec/native.hh"
#include "workloads/conv2d.hh"

namespace polyfuse {
namespace codegen {
namespace {

class ConvCodegen : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        prog_ = workloads::makeConv2D({6, 6, 3, 3});
    }

    /** Compile through the driver with the given strategy/tiles. */
    driver::CompilationState
    compile(driver::Strategy strategy, std::vector<int64_t> tiles,
            unsigned target_parallelism = 1)
    {
        driver::PipelineOptions opts;
        opts.strategy = strategy;
        opts.tileSizes = std::move(tiles);
        opts.targetParallelism = target_parallelism;
        return driver::Pipeline(opts).run(prog_);
    }

    ir::Program prog_;
};

/** Count AST nodes of a kind. */
unsigned
countNodes(const AstPtr &n, AstKind kind)
{
    if (!n)
        return 0;
    unsigned c = n->kind == kind ? 1 : 0;
    for (const auto &ch : n->children)
        c += countNodes(ch, kind);
    return c;
}

/** True when some For node of @p n satisfies @p pred. */
bool
anyLoop(const AstPtr &n, const std::function<bool(const AstNode &)> &pred)
{
    if (!n)
        return false;
    if (n->kind == AstKind::For && pred(*n))
        return true;
    for (const auto &c : n->children)
        if (anyLoop(c, pred))
            return true;
    return false;
}

/** Loop depth of the outermost parallel For (-1 when none). */
int
outermostParallelDepth(const AstPtr &n, int depth = 0)
{
    if (!n)
        return -1;
    if (n->kind == AstKind::For && n->parallel)
        return depth;
    int best = -1;
    for (const auto &c : n->children) {
        int d = outermostParallelDepth(
            c, depth + (n->kind == AstKind::For ? 1 : 0));
        if (d >= 0 && (best < 0 || d < best))
            best = d;
    }
    return best;
}

/** Maximum loop nest depth. */
unsigned
loopDepth(const AstPtr &n)
{
    if (!n)
        return 0;
    unsigned best = 0;
    for (const auto &c : n->children)
        best = std::max(best, loopDepth(c));
    return best + (n->kind == AstKind::For ? 1 : 0);
}

TEST_F(ConvCodegen, InitialTreeProducesThreeNests)
{
    AstPtr ast = compile(driver::Strategy::Naive, {}).ast;
    // S0: 2 loops; S1/S2: 2 + 2; S3: 2 -> 4 statements total.
    EXPECT_EQ(countNodes(ast, AstKind::Stmt), 4u);
    EXPECT_EQ(loopDepth(ast), 4u);
    EXPECT_EQ(countNodes(ast, AstKind::Alloc), 0u);
}

TEST_F(ConvCodegen, ComposedAstHasTilePointLoopsAndPromotion)
{
    AstPtr ast = compile(driver::Strategy::Ours, {2, 2}).ast;
    // Tile loops (2) + S0 copy loops + point loops + reduction loops.
    EXPECT_EQ(countNodes(ast, AstKind::Stmt), 4u);
    EXPECT_EQ(countNodes(ast, AstKind::Alloc), 1u);
    // Two tile loops at the top.
    unsigned tile_loops = 0;
    std::function<void(const AstPtr &)> walk =
        [&](const AstPtr &n) {
            if (n->kind == AstKind::For && n->tileLoop)
                ++tile_loops;
            for (const auto &c : n->children)
                walk(c);
        };
    walk(ast);
    EXPECT_EQ(tile_loops, 2u);
}

TEST_F(ConvCodegen, PromotionBoxMatchesFootprint)
{
    AstPtr ast = compile(driver::Strategy::Ours, {2, 2}).ast;
    // Find the Alloc node.
    AstPtr alloc;
    std::function<void(const AstPtr &)> walk =
        [&](const AstPtr &n) {
            if (n->kind == AstKind::Alloc)
                alloc = n;
            for (const auto &c : n->children)
                walk(c);
        };
    walk(ast);
    ASSERT_TRUE(alloc);
    ASSERT_EQ(alloc->promotions.size(), 1u);
    EXPECT_EQ(alloc->promotions[0].tensor, prog_.tensorId("A"));
    // Box per dim: KH + T2 - 1 = 4 points (checked at runtime by the
    // executor; here just verify the bounds exist per dim).
    EXPECT_EQ(alloc->promotions[0].boxLo.size(), 2u);
    EXPECT_FALSE(alloc->promotions[0].boxLo[0].empty());
    EXPECT_FALSE(alloc->promotions[0].boxHi[0].empty());
}

TEST_F(ConvCodegen, NativeSourceEmitsTilesAndScratchpad)
{
    auto state = compile(driver::Strategy::Ours, {2, 2});
    // Ours keeps a parallel tile loop.
    EXPECT_TRUE(anyLoop(state.ast, [](const AstNode &n) {
        return n.tileLoop && n.parallel;
    }));

    std::string code = exec::emitNativeSource(prog_, state.ast);
    ASSERT_NE(code.find("void pf_kernel("), std::string::npos);
    // The nest lives in pf_body, which pf_kernel calls.
    ASSERT_NE(code.find("static void pf_body("), std::string::npos);
    std::string body = code.substr(code.find("static void pf_body("));
    // Tile-loop bounds divide by the tile size.
    EXPECT_NE(body.find("pf_fdiv("), std::string::npos);
    EXPECT_NE(body.find("/* S2 */"), std::string::npos);
    // The intermediate lives in a tile-local scratchpad carved from
    // an arena the kernel allocates once, not per tile.
    EXPECT_NE(body.find("scratchpad for A"), std::string::npos);
    EXPECT_NE(body.find("pf_grow(&pf_arena_"), std::string::npos);
    EXPECT_EQ(body.find("calloc("), std::string::npos);
    // The skipped original S0 nest is not emitted on its own: S0
    // appears only once (inside the fused tile).
    size_t first = body.find("/* S0 */");
    ASSERT_NE(first, std::string::npos);
    EXPECT_EQ(body.find("/* S0 */", first + 1), std::string::npos);
}

TEST_F(ConvCodegen, TargetParallelismMarksOuterLoopParallel)
{
    auto state =
        compile(driver::Strategy::Ours, {2, 2}, /*parallelism=*/2);
    EXPECT_EQ(outermostParallelDepth(state.ast), 0);
}

TEST_F(ConvCodegen, MaxfuseAstCarriesShiftedBindings)
{
    // Empty tile sizes: maxfuse without tiling, as in Fig. 1(c).
    auto state = compile(driver::Strategy::MaxFuse, {});
    std::string code = exec::emitNativeSource(prog_, state.ast);
    // Shifted statements index with an offset (e.g. "c0 - 2").
    EXPECT_NE(code.find(" - 2"), std::string::npos);
    // The fused nest is serial: no loop is marked parallel.
    EXPECT_EQ(outermostParallelDepth(state.ast), -1);
}

TEST_F(ConvCodegen, GuardsAppearForUnionBounds)
{
    // maxfuse merges S0 (domain HxW) with S1..S3 (smaller domain):
    // guards must protect the smaller statements.
    auto state = compile(driver::Strategy::MaxFuse, {});
    unsigned guarded = 0;
    std::function<void(const AstPtr &)> walk =
        [&](const AstPtr &n) {
            if (n->kind == AstKind::Stmt && !n->guards.empty())
                ++guarded;
            for (const auto &c : n->children)
                walk(c);
        };
    walk(state.ast);
    EXPECT_GT(guarded, 0u);
}

/** Compile registry workload @p name at @p rows x @p cols with its
 *  default tiles; out-params the program. */
driver::CompilationState
compileWorkload(const char *name, driver::Strategy strategy,
                int64_t rows, int64_t cols, ir::Program &p)
{
    const driver::WorkloadSpec *spec = driver::findWorkload(name);
    EXPECT_NE(spec, nullptr);
    p = spec->make({rows, cols});
    driver::PipelineOptions opts;
    opts.strategy = strategy;
    opts.tileSizes = spec->defaultTiles;
    return driver::Pipeline(opts).run(p);
}

/** The Stmt nodes of statement @p name under @p n. */
void
stmtNodes(const ir::Program &p, const AstPtr &n, const std::string &name,
          std::vector<const AstNode *> &out)
{
    if (!n)
        return;
    if (n->kind == AstKind::Stmt && p.statement(n->stmt).name() == name)
        out.push_back(n.get());
    for (const auto &c : n->children)
        stmtNodes(p, c, name, out);
}

TEST(GuardPruning, FusedUnsharpStatementsCarryNoGuards)
{
    // The fused consumers' rows only restate their loops' bounds.
    ir::Program p;
    auto state = compileWorkload("unsharp", driver::Strategy::Ours, 64,
                                 128, p);
    for (const char *name : {"Sbx", "Ssh", "Sm"}) {
        std::vector<const AstNode *> nodes;
        stmtNodes(p, state.ast, name, nodes);
        ASSERT_FALSE(nodes.empty()) << name;
        for (const AstNode *n : nodes)
            EXPECT_TRUE(n->guards.empty()) << name;
    }
    const driver::PassStat *cg = state.stats.find("Codegen");
    ASSERT_NE(cg, nullptr);
    EXPECT_GT(cg->counter("guards_pruned"), 0);
}

TEST(GuardPruning, InterpFirstUpsampleLosesTheDominatedRows)
{
    // The first upsampling level's loops have two upper-bound
    // alternatives that differ only in a constant (R - 1 against
    // R - 2 over the same divisor). With the dominated one dropped,
    // the loop bound is a fact again and the rows restating it go:
    // Su1a keeps none, Su1b only its own column limit (C - 2).
    ir::Program p;
    auto state = compileWorkload("interp", driver::Strategy::Ours, 128,
                                 256, p);
    std::vector<const AstNode *> su1a, su1b;
    stmtNodes(p, state.ast, "Su1a", su1a);
    stmtNodes(p, state.ast, "Su1b", su1b);
    ASSERT_FALSE(su1a.empty());
    ASSERT_FALSE(su1b.empty());
    for (const AstNode *n : su1a)
        EXPECT_TRUE(n->guards.empty());
    for (const AstNode *n : su1b) {
        ASSERT_EQ(n->guards.size(), 1u);
        EXPECT_EQ(n->guards[0].constant, -2);
    }
}

TEST(GuardPruning, InterpUpsampleKeepsItsOwnRows)
{
    // Su4a-d share loops whose union bounds exceed their own domain:
    // those rows are not implied and must stay.
    ir::Program p;
    auto state = compileWorkload("interp", driver::Strategy::Ours, 128,
                                 256, p);
    for (const char *name : {"Su4a", "Su4b", "Su4c", "Su4d"}) {
        std::vector<const AstNode *> nodes;
        stmtNodes(p, state.ast, name, nodes);
        ASSERT_FALSE(nodes.empty()) << name;
        for (const AstNode *n : nodes)
            EXPECT_FALSE(n->guards.empty()) << name;
    }
}

/** Reduced registry sizes (respecting per-workload alignment). */
driver::WorkloadParams
smallSize(const std::string &name)
{
    if (name == "equake")
        return {96, 6};
    if (name == "convbn")
        return {4, 8};
    if (name == "unsharp")
        return {8, 32};
    if (name == "bilateral")
        return {24, 24};
    if (name == "interp")
        return {32, 32};
    return {20, 20};
}

TEST(GuardPruning, NaiveInstancesMatchDomainCardinality)
{
    // Independent count oracle: the naive schedule runs every domain
    // point once, so the executed instances must equal the sum of
    // the domains' cardinalities enumerated by the Presburger layer
    // (no codegen involved on this side).
    for (const driver::WorkloadSpec &spec : driver::workloadRegistry()) {
        SCOPED_TRACE(spec.name);
        ir::Program p = spec.make(smallSize(spec.name));
        uint64_t points = 0;
        for (const ir::Statement &s : p.statements())
            points += s.domain().enumerate(p.paramValues()).size();
        driver::PipelineOptions opts;
        opts.strategy = driver::Strategy::Naive;
        auto state = driver::Pipeline(opts).run(p);
        exec::BytecodeKernel kernel =
            exec::BytecodeKernel::compile(p, state.ast);
        exec::Buffers buf(p);
        EXPECT_EQ(kernel.run(buf).instances, points);
    }
}

/** True when @p a and @p b differ at most in their constant. */
bool
twinTerms(const BoundTerm &a, const BoundTerm &b)
{
    return a.div == b.div && a.varCoeffs == b.varCoeffs &&
           a.paramCoeffs == b.paramCoeffs;
}

/** Every bound of @p n and below: no alternative holds two terms that
 *  differ only in their constant (a repeat included), and no
 *  alternative is dominated by another -- every term of one with a
 *  twin in the other that is no looser (a larger constant for a
 *  lower bound, a smaller one for an upper bound; a superset
 *  included). */
void
expectDedupedBounds(const AstPtr &n)
{
    if (!n)
        return;
    auto check = [](const std::vector<BoundAlt> &alts, bool is_lower) {
        auto dominated = [is_lower](const BoundAlt &a, const BoundAlt &b) {
            for (const BoundTerm &t : a)
                if (std::none_of(b.begin(), b.end(),
                                 [&](const BoundTerm &u) {
                                     return twinTerms(t, u) &&
                                            (is_lower
                                                 ? u.constant >= t.constant
                                                 : u.constant <= t.constant);
                                 }))
                    return false;
            return true;
        };
        for (size_t i = 0; i < alts.size(); ++i) {
            for (size_t k = 0; k < alts[i].size(); ++k)
                for (size_t l = k + 1; l < alts[i].size(); ++l)
                    EXPECT_FALSE(twinTerms(alts[i][k], alts[i][l]));
            for (size_t j = 0; j < alts.size(); ++j)
                EXPECT_FALSE(j != i && dominated(alts[j], alts[i]));
        }
    };
    if (n->kind == AstKind::For) {
        check(n->lb, true);
        check(n->ub, false);
    }
    for (const Promotion &promo : n->promotions)
        for (size_t d = 0; d < promo.boxLo.size(); ++d) {
            check(promo.boxLo[d], true);
            check(promo.boxHi[d], false);
        }
    for (const auto &c : n->children)
        expectDedupedBounds(c);
}

TEST(BoundDedup, NoBoundRepeatsATermOrAlternative)
{
    for (const driver::WorkloadSpec &spec : driver::workloadRegistry()) {
        for (driver::Strategy s :
             {driver::Strategy::Ours, driver::Strategy::MaxFuse}) {
            SCOPED_TRACE(std::string(spec.name) + " / " +
                         driver::strategyName(s));
            ir::Program p = spec.make(smallSize(spec.name));
            driver::PipelineOptions opts;
            opts.strategy = s;
            opts.tileSizes = spec.defaultTiles;
            expectDedupedBounds(driver::Pipeline(opts).run(p).ast);
        }
    }
}

} // namespace
} // namespace codegen
} // namespace polyfuse
