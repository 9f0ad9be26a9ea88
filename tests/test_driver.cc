/**
 * @file
 * Tests for the compilation driver: the pass pipeline must produce
 * exactly the same AST as the pre-driver direct-call path
 * (applyFusion/tileAllBands or core::compose followed by
 * generateAst), and the per-pass instrumentation must record every
 * pass exactly once with sane timings.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/compose.hh"
#include "driver/pipeline.hh"
#include "driver/registry.hh"
#include "exec/native.hh"
#include "schedule/fusion.hh"
#include "support/json.hh"
#include "workloads/conv2d.hh"
#include "workloads/pipelines.hh"

namespace polyfuse {
namespace driver {
namespace {

/** The two workloads the identity test runs over. */
std::vector<std::pair<std::string, ir::Program>>
testPrograms()
{
    std::vector<std::pair<std::string, ir::Program>> out;
    out.emplace_back("conv2d", workloads::makeConv2D({16, 16, 3, 3}));
    workloads::PipelineConfig cfg;
    cfg.rows = 32;
    cfg.cols = 32;
    out.emplace_back("harris", workloads::makeHarris(cfg));
    return out;
}

/** Pre-driver reference: heuristic fusion + rectangular tiling. */
std::string
referenceHeuristic(const ir::Program &p, schedule::FusionPolicy policy,
                   const std::vector<int64_t> &tiles)
{
    auto g = deps::DependenceGraph::compute(p);
    auto fusion = schedule::applyFusion(p, g, policy);
    tileAllBands(fusion.tree, tiles);
    return exec::emitNativeSource(p, codegen::generateAst(fusion.tree));
}

/** Pre-driver reference: the post-tiling composition. */
std::string
referenceCompose(const ir::Program &p,
                 const std::vector<int64_t> &tiles)
{
    auto g = deps::DependenceGraph::compute(p);
    core::ComposeOptions opts;
    opts.tileSizes = tiles;
    auto r = core::compose(p, g, opts);
    return exec::emitNativeSource(p, codegen::generateAst(r.tree));
}

/** Driver path for the same options. */
std::string
viaDriver(const ir::Program &p, Strategy strategy,
          const std::vector<int64_t> &tiles)
{
    PipelineOptions opts;
    opts.strategy = strategy;
    opts.tileSizes = tiles;
    auto state = Pipeline(opts).run(p);
    return exec::emitNativeSource(p, state.ast);
}

TEST(DriverIdentity, MinFuseMatchesDirectPath)
{
    const std::vector<int64_t> tiles = {8, 8};
    for (const auto &[name, p] : testPrograms()) {
        SCOPED_TRACE(name);
        EXPECT_EQ(viaDriver(p, Strategy::MinFuse, tiles),
                  referenceHeuristic(
                      p, schedule::FusionPolicy::Min, tiles));
    }
}

TEST(DriverIdentity, OursMatchesDirectPath)
{
    const std::vector<int64_t> tiles = {8, 8};
    for (const auto &[name, p] : testPrograms()) {
        SCOPED_TRACE(name);
        EXPECT_EQ(viaDriver(p, Strategy::Ours, tiles),
                  referenceCompose(p, tiles));
    }
}

TEST(DriverStats, EveryPassRecordedOnceInOrder)
{
    for (auto strategy : allStrategies()) {
        SCOPED_TRACE(strategyName(strategy));
        PipelineOptions opts;
        opts.strategy = strategy;
        opts.tileSizes = {8, 8};
        auto state = Pipeline(opts).run(
            workloads::makeConv2D({16, 16, 3, 3}));

        const auto &passes = state.stats.passes();
        const auto names = Pipeline::passNames();
        ASSERT_EQ(passes.size(), names.size());
        double prev_end = 0;
        for (size_t i = 0; i < passes.size(); ++i) {
            EXPECT_EQ(passes[i].name, names[i]);
            EXPECT_GE(passes[i].ms, 0.0);
            EXPECT_GE(passes[i].endMs, prev_end);
            prev_end = passes[i].endMs;
        }
        // Exactly once: no duplicate names.
        for (const auto &name : names)
            EXPECT_EQ(std::count_if(passes.begin(), passes.end(),
                                    [&](const PassStat &s) {
                                        return s.name == name;
                                    }),
                      1);
        EXPECT_GE(state.compileMs(), 0.0);
        EXPECT_LE(state.compileMs(), state.stats.totalMs());
    }
}

TEST(DriverStats, ComposeCountersSurfaceInReport)
{
    PipelineOptions opts;
    opts.strategy = Strategy::Ours;
    opts.tileSizes = {4, 4};
    auto state =
        Pipeline(opts).run(workloads::makeConv2D({16, 16, 3, 3}));
    const auto *compose = state.stats.find("Compose");
    ASSERT_NE(compose, nullptr);
    EXPECT_GT(compose->counter("extensions", 0), 0);
    std::string report = state.stats.str();
    EXPECT_NE(report.find("Compose"), std::string::npos);
    EXPECT_NE(report.find("extensions"), std::string::npos);
    std::string text = json::dump(state.stats.json());
    EXPECT_NE(text.find("\"passes\""), std::string::npos);
    EXPECT_NE(text.find("\"Codegen\""), std::string::npos);
}

TEST(DriverStats, InexactRangesAreCountedNotPrinted)
{
    // harris's dead-code report projects extension schedules through
    // non-unit FM steps: the over-approximations surface as a
    // Compose counter, in the text table too, and stderr stays
    // empty.
    const WorkloadSpec *spec = findWorkload("harris");
    ASSERT_NE(spec, nullptr);
    PipelineOptions opts;
    opts.tileSizes = spec->defaultTiles;
    ::testing::internal::CaptureStderr();
    auto state = Pipeline(opts).run(spec->make(spec->defaults));
    EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
    const auto *compose = state.stats.find("Compose");
    ASSERT_NE(compose, nullptr);
    EXPECT_GE(compose->counter("inexact", 0), 1);
    EXPECT_NE(state.stats.str().find("inexact="), std::string::npos);
}

/** Rebuild a PassStats from the object its json() wrote. */
PassStats
fromJson(const json::Value &v)
{
    PassStats out;
    for (const auto &p : v.get("passes")->array) {
        PassStat ps;
        ps.name = p.get("name")->string;
        ps.ms = p.get("ms")->number;
        for (const auto &[key, value] : p.get("counters")->object)
            ps.counters.emplace_back(key, int64_t(value.number));
        out.add(std::move(ps));
    }
    return out;
}

TEST(DriverStats, JsonRoundTripsAndEscapes)
{
    PassStats stats;
    PassStat a;
    a.name = "Pass \"quoted\"\\back\nnewline\ttab\x01"
             "ctl";
    a.ms = 1.5;
    // Reported out of key order on purpose: json() must sort.
    a.counters.emplace_back("zeta", 7);
    a.counters.emplace_back("alpha", -3);
    a.counters.emplace_back("mid\"key", 42);
    stats.add(a);
    PassStat b;
    b.name = "Empty";
    b.ms = 0.25;
    stats.add(b);

    std::string text = json::dump(stats.json());
    // Escaping: raw specials never appear unescaped.
    EXPECT_NE(text.find("\\\"quoted\\\""), std::string::npos);
    EXPECT_NE(text.find("\\\\back"), std::string::npos);
    EXPECT_NE(text.find("\\n"), std::string::npos);
    EXPECT_NE(text.find("\\t"), std::string::npos);
    EXPECT_NE(text.find("\\u0001"), std::string::npos);
    EXPECT_EQ(text.find('\n'), std::string::npos);
    // Deterministic key order: sorted, independent of insertion.
    EXPECT_LT(text.find("\"alpha\""), text.find("\"mid\\\"key\""));
    EXPECT_LT(text.find("\"mid\\\"key\""), text.find("\"zeta\""));

    // Round trip: the text parses back to the same tree, and the
    // PassStats rebuilt from it re-serializes to identical bytes with
    // names and values preserved.
    json::Value parsed;
    std::string err;
    ASSERT_TRUE(json::parse(text, &parsed, &err)) << err;
    ASSERT_TRUE(parsed == stats.json()) << text;
    PassStats rebuilt = fromJson(parsed);
    EXPECT_EQ(json::dump(rebuilt.json()), text);
    ASSERT_EQ(rebuilt.passes().size(), 2u);
    EXPECT_EQ(rebuilt.passes()[0].name, a.name);
    EXPECT_EQ(rebuilt.passes()[0].counter("alpha"), -3);
    EXPECT_EQ(rebuilt.passes()[0].counter("mid\"key"), 42);
    EXPECT_EQ(rebuilt.passes()[0].counter("zeta"), 7);
    EXPECT_EQ(rebuilt.passes()[1].ms, 0.25);

    // A real pipeline report round-trips byte for byte too, totalMs
    // included: every number is written exactly.
    PipelineOptions opts;
    opts.strategy = Strategy::Ours;
    opts.tileSizes = {8, 8};
    auto state =
        Pipeline(opts).run(workloads::makeConv2D({16, 16, 3, 3}));
    std::string real = json::dump(state.stats.json());
    ASSERT_TRUE(json::parse(real, &parsed, &err)) << err;
    ASSERT_TRUE(parsed == state.stats.json()) << real;
    EXPECT_EQ(json::dump(fromJson(parsed).json()), real);
}

TEST(DriverStrategy, NamesRoundTripThroughParser)
{
    for (auto strategy : allStrategies()) {
        Strategy parsed{};
        ASSERT_TRUE(parseStrategy(strategyName(strategy), parsed))
            << strategyName(strategy);
        EXPECT_EQ(parsed, strategy);
    }
    Strategy ignored{};
    EXPECT_FALSE(parseStrategy("?", ignored));
    EXPECT_FALSE(parseStrategy("", ignored));
}

} // namespace
} // namespace driver
} // namespace polyfuse
