/**
 * @file
 * Property-based tests for the Presburger layer: randomly generated
 * small systems are checked against brute-force enumeration over a
 * bounded grid. Every operation's algebraic law (projection = image
 * of enumeration, intersection = pointwise and, subtraction =
 * pointwise difference, composition = relational join) is validated
 * on hundreds of cases via parameterized suites.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <set>
#include <string>

#include "driver/compile_context.hh"
#include "driver/pipeline.hh"
#include "driver/registry.hh"
#include "exec/native.hh"
#include "pres/affine.hh"
#include "pres/basic_map.hh"
#include "pres/map.hh"
#include "pres/set.hh"
#include "support/small_vec.hh"

namespace polyfuse {
namespace pres {
namespace {

constexpr int64_t kGrid = 4; // brute-force grid: [-kGrid, kGrid]

/** Deterministic small random constraint system generator. */
class RandomSystem
{
  public:
    explicit RandomSystem(unsigned seed) : rng_(seed) {}

    /** A random set over `dims` dims, intersected with the grid box. */
    BasicSet
    randomSet(const std::string &tuple, unsigned dims)
    {
        Space sp = Space::forSet(tuple, dims);
        BasicSet s(sp);
        addBox(s, sp);
        unsigned ncons = 1 + rng_() % 3;
        for (unsigned i = 0; i < ncons; ++i)
            s.addConstraint(randomConstraint(sp));
        return s;
    }

    Constraint
    randomConstraint(const Space &sp)
    {
        std::vector<int64_t> coeffs(sp.numCols(), 0);
        for (auto &c : coeffs)
            c = int64_t(rng_() % 5) - 2; // [-2, 2]
        coeffs.back() = int64_t(rng_() % 9) - 4;
        bool is_eq = (rng_() % 4) == 0;
        return Constraint(is_eq, coeffs);
    }

  private:
    void
    addBox(BasicSet &s, const Space &sp)
    {
        for (unsigned d = 0; d < sp.numOut(); ++d) {
            LinExpr x = LinExpr::setDim(sp, d);
            s.addConstraint(
                geCons(x, LinExpr::constant(sp, -kGrid)));
            s.addConstraint(leCons(x, LinExpr::constant(sp, kGrid)));
        }
    }

    std::mt19937 rng_;
};

/** All grid points of `dims` dims satisfying `s`. */
std::set<std::vector<int64_t>>
bruteForce(const BasicSet &s)
{
    std::set<std::vector<int64_t>> out;
    unsigned dims = s.space().numOut();
    std::vector<int64_t> pt(dims, -kGrid);
    while (true) {
        if (s.contains(pt, {}))
            out.insert(pt);
        unsigned d = 0;
        while (d < dims && ++pt[d] > kGrid) {
            pt[d] = -kGrid;
            ++d;
        }
        if (d == dims)
            break;
    }
    return out;
}

class PresProperty : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(PresProperty, EnumerateMatchesBruteForce)
{
    RandomSystem gen(GetParam());
    BasicSet s = gen.randomSet("S", 2);
    auto brute = bruteForce(s);
    auto pts = s.enumerate({});
    std::set<std::vector<int64_t>> enumerated(pts.begin(), pts.end());
    EXPECT_EQ(enumerated, brute) << s.str();
}

TEST_P(PresProperty, IsEmptyNeverClaimsEmptyWhenPointsExist)
{
    RandomSystem gen(GetParam() * 7919 + 13);
    BasicSet s = gen.randomSet("S", 2);
    auto brute = bruteForce(s);
    if (!brute.empty()) {
        EXPECT_FALSE(s.isEmpty()) << s.str();
    }
    // Converse (isEmpty implies no points) follows since the grid box
    // is part of the set: empty means no points anywhere.
    if (s.isEmpty()) {
        EXPECT_TRUE(brute.empty()) << s.str();
    }
}

TEST_P(PresProperty, IntersectionIsPointwiseAnd)
{
    RandomSystem gen(GetParam() * 104729 + 1);
    BasicSet a = gen.randomSet("S", 2);
    BasicSet b = gen.randomSet("S", 2);
    auto expect = bruteForce(a);
    auto bb = bruteForce(b);
    std::set<std::vector<int64_t>> inter;
    std::set_intersection(expect.begin(), expect.end(), bb.begin(),
                          bb.end(),
                          std::inserter(inter, inter.begin()));
    EXPECT_EQ(bruteForce(a.intersect(b)), inter);
}

TEST_P(PresProperty, ProjectionContainsShadowAndIsTightWhenExact)
{
    RandomSystem gen(GetParam() * 31 + 5);
    BasicSet s = gen.randomSet("S", 3);
    BasicSet p = s.projectOut(2, 1);
    // Shadow: projections of all points of s.
    std::set<std::vector<int64_t>> shadow;
    for (const auto &pt : s.enumerate({}))
        shadow.insert({pt[0], pt[1]});
    auto proj = p.enumerate({});
    std::set<std::vector<int64_t>> projected(proj.begin(), proj.end());
    // Soundness: projection over-approximates.
    for (const auto &pt : shadow)
        EXPECT_TRUE(projected.count(pt))
            << s.str() << " missing " << pt[0] << "," << pt[1];
    // Exactness: when the engine claims exact, sets match.
    if (p.wasExact()) {
        EXPECT_EQ(projected, shadow) << s.str();
    }
}

TEST_P(PresProperty, SubtractionIsPointwiseDifference)
{
    RandomSystem gen(GetParam() * 271 + 9);
    BasicSet a = gen.randomSet("S", 2);
    BasicSet b = gen.randomSet("S", 2);
    auto pa = bruteForce(a);
    auto pb = bruteForce(b);
    std::set<std::vector<int64_t>> expect;
    std::set_difference(pa.begin(), pa.end(), pb.begin(), pb.end(),
                        std::inserter(expect, expect.begin()));
    Set diff = Set(a).subtract(Set(b));
    auto got_v = diff.enumerateTuple("S", {});
    std::set<std::vector<int64_t>> got(got_v.begin(), got_v.end());
    EXPECT_EQ(got, expect) << a.str() << " minus " << b.str();
}

TEST_P(PresProperty, SubsetIsSoundInBothClaimDirections)
{
    // isSubset may be conservatively false when integer emptiness of
    // the difference cannot be proved (rational point survives), but
    // a true answer must be correct, and a brute-force "not subset"
    // must never be reported as subset.
    RandomSystem gen(GetParam() * 53 + 17);
    BasicSet a = gen.randomSet("S", 2);
    BasicSet b = gen.randomSet("S", 2);
    auto pa = bruteForce(a);
    auto pb = bruteForce(b);
    bool brute_subset = std::includes(pb.begin(), pb.end(), pa.begin(),
                                      pa.end());
    bool claimed = Set(a).isSubset(Set(b));
    if (claimed) {
        EXPECT_TRUE(brute_subset) << a.str() << " vs " << b.str();
    }
    if (!brute_subset) {
        EXPECT_FALSE(claimed) << a.str() << " vs " << b.str();
    }
}

TEST_P(PresProperty, ComposeIsRelationalJoin)
{
    RandomSystem gen(GetParam() * 997 + 3);
    // f: S -> B and g: B -> C as constrained relations over the grid.
    Space fsp = Space::forMap("S", 1, "B", 1);
    Space gsp = Space::forMap("B", 1, "C", 1);
    auto build = [&](const Space &sp) {
        BasicMap m(sp);
        for (unsigned d = 0; d < 2; ++d) {
            LinExpr x = d == 0 ? LinExpr::inDim(sp, 0)
                               : LinExpr::outDim(sp, 0);
            m.addConstraint(geCons(x, LinExpr::constant(sp, -kGrid)));
            m.addConstraint(leCons(x, LinExpr::constant(sp, kGrid)));
        }
        m.addConstraint(gen.randomConstraint(sp));
        m.addConstraint(gen.randomConstraint(sp));
        return m;
    };
    BasicMap f = build(fsp);
    BasicMap g = build(gsp);
    BasicMap fg = f.compose(g);

    auto pairsOf = [](const BasicMap &m) {
        std::set<std::pair<int64_t, int64_t>> out;
        for (int64_t i = -kGrid; i <= kGrid; ++i)
            for (int64_t j = -kGrid; j <= kGrid; ++j) {
                // Evaluate constraints directly via wrap().
                if (m.wrap().contains({i, j}, {}))
                    out.insert({i, j});
            }
        return out;
    };
    auto pf = pairsOf(f);
    auto pg = pairsOf(g);
    std::set<std::pair<int64_t, int64_t>> expect;
    for (auto [a, b] : pf)
        for (auto [b2, c] : pg)
            if (b == b2)
                expect.insert({a, c});
    auto got = pairsOf(fg);
    if (fg.wasExact()) {
        EXPECT_EQ(got, expect);
    } else {
        for (auto &p : expect)
            EXPECT_TRUE(got.count(p));
    }
}

TEST_P(PresProperty, ReverseIsInvolutive)
{
    RandomSystem gen(GetParam() * 11 + 29);
    Space sp = Space::forMap("S", 1, "B", 1);
    BasicMap m(sp);
    m.addConstraint(gen.randomConstraint(sp));
    m.addConstraint(gen.randomConstraint(sp));
    EXPECT_TRUE(m.reverse().reverse() == m);
}

TEST_P(PresProperty, DeltasMatchBruteForce)
{
    RandomSystem gen(GetParam() * 5 + 41);
    Space sp = Space::forMap("S", 1, "S", 1);
    BasicMap m(sp);
    for (unsigned d = 0; d < 2; ++d) {
        LinExpr x = d == 0 ? LinExpr::inDim(sp, 0)
                           : LinExpr::outDim(sp, 0);
        m.addConstraint(geCons(x, LinExpr::constant(sp, -kGrid)));
        m.addConstraint(leCons(x, LinExpr::constant(sp, kGrid)));
    }
    m.addConstraint(gen.randomConstraint(sp));
    std::set<int64_t> expect;
    for (int64_t i = -kGrid; i <= kGrid; ++i)
        for (int64_t j = -kGrid; j <= kGrid; ++j)
            if (m.wrap().contains({i, j}, {}))
                expect.insert(j - i);
    BasicSet d = m.deltas();
    std::set<int64_t> got;
    for (const auto &pt : d.enumerate({}))
        got.insert(pt[0]);
    if (d.wasExact()) {
        EXPECT_EQ(got, expect);
    } else {
        for (int64_t v : expect)
            EXPECT_TRUE(got.count(v));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PresProperty,
                         ::testing::Range(0u, 60u));

/**
 * Cache-equivalence sweep over the whole workload registry: the op
 * cache and the SmallVec storage mode are pure performance knobs, so
 * every (cache on/off) x (rows inline/forced-heap) combination must
 * generate byte-identical C for every registry workload. Row storage
 * must not even change the FM counters; the cache legitimately
 * reduces FM work (hits skip recomputation), so across cache settings
 * only the code is compared, plus the invariant that cached runs
 * never do MORE FM work than uncached ones.
 */
class CacheEquivalence
    : public ::testing::TestWithParam<const char *>
{
};

TEST_P(CacheEquivalence, EveryStorageAndCacheModeGeneratesSameCode)
{
    const driver::WorkloadSpec *w =
        driver::findWorkload(GetParam());
    ASSERT_NE(w, nullptr);
    ir::Program p = w->make(w->defaults);

    struct Variant
    {
        bool cache;
        bool inlineRows;
        std::string code;
        fm::Counters fm;
    };
    Variant variants[] = {{true, true, "", {}},
                          {true, false, "", {}},
                          {false, true, "", {}},
                          {false, false, "", {}}};
    for (Variant &v : variants) {
        std::unique_ptr<support::ScopedForceHeap> heap;
        if (!v.inlineRows)
            heap.reset(new support::ScopedForceHeap());
        driver::CompileContext ctx;
        ctx.setOpCacheEnabled(v.cache);
        driver::PipelineOptions opts;
        opts.strategy = driver::Strategy::Ours;
        opts.tileSizes = w->defaultTiles;
        driver::CompilationState state =
            driver::Pipeline(opts).run(p, ctx);
        v.code = exec::emitNativeSource(p, state.ast);
        v.fm = ctx.fmCounters();
    }

    // Byte-identical generated C across all four variants.
    for (const Variant &v : variants)
        EXPECT_EQ(v.code, variants[0].code)
            << "cache=" << v.cache
            << " inlineRows=" << v.inlineRows;

    // Row storage never changes the work done: with the cache
    // setting held fixed, inline and forced-heap runs must agree on
    // every counter, cache fields included.
    for (int c = 0; c < 2; ++c) {
        const Variant &a = variants[c * 2];     // inline
        const Variant &b = variants[c * 2 + 1]; // forced heap
        EXPECT_EQ(a.fm.eliminations, b.fm.eliminations);
        EXPECT_EQ(a.fm.constraintsVisited, b.fm.constraintsVisited);
        EXPECT_EQ(a.fm.cacheHits, b.fm.cacheHits);
        EXPECT_EQ(a.fm.cacheMisses, b.fm.cacheMisses);
        EXPECT_EQ(a.fm.cacheEvictions, b.fm.cacheEvictions);
    }

    // Cache-off runs must not touch a cache at all, and cached runs
    // must never do more FM work than uncached ones.
    EXPECT_EQ(variants[2].fm.cacheHits, 0u);
    EXPECT_EQ(variants[2].fm.cacheMisses, 0u);
    EXPECT_LE(variants[0].fm.eliminations,
              variants[2].fm.eliminations);
}

INSTANTIATE_TEST_SUITE_P(
    Registry, CacheEquivalence,
    ::testing::Values("conv2d", "bilateral", "camera", "harris",
                      "laplacian", "interp", "unsharp", "equake",
                      "2mm", "gemver", "covariance", "convbn"),
    [](const ::testing::TestParamInfo<const char *> &info) {
        return "wl_" + std::string(info.param);
    });

} // namespace
} // namespace pres
} // namespace polyfuse
