/**
 * @file
 * Tests for the compilation driver: the pass pipeline must produce
 * exactly the same AST as the pre-driver direct-call path
 * (applyFusion/tileAllBands or core::compose followed by
 * generateAst), and the per-pass instrumentation must record every
 * pass exactly once with sane timings.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <string>

#include "core/compose.hh"
#include "driver/pipeline.hh"
#include "exec/native.hh"
#include "schedule/fusion.hh"
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
    std::string json = state.stats.json();
    EXPECT_NE(json.find("\"passes\""), std::string::npos);
    EXPECT_NE(json.find("\"Codegen\""), std::string::npos);
}

// --- Minimal JSON reader for the PassStats round-trip test --------
// Parses exactly the subset PassStats::json() emits (objects, arrays,
// strings with escapes, numbers) back into a PassStats, so
// serialize -> parse -> serialize must reproduce the bytes.

struct JsonReader
{
    const std::string &s;
    size_t pos = 0;

    explicit JsonReader(const std::string &text) : s(text) {}

    void ws()
    {
        while (pos < s.size() &&
               (s[pos] == ' ' || s[pos] == '\n' || s[pos] == '\t'))
            ++pos;
    }
    bool eat(char c)
    {
        ws();
        if (pos < s.size() && s[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }
    void expect(char c)
    {
        ASSERT_TRUE(eat(c)) << "expected '" << c << "' at " << pos
                            << " in " << s.substr(pos, 40);
    }
    std::string string()
    {
        ws();
        EXPECT_EQ(s[pos], '"');
        ++pos;
        std::string out;
        while (pos < s.size() && s[pos] != '"') {
            char c = s[pos++];
            if (c != '\\') {
                out += c;
                continue;
            }
            char e = s[pos++];
            switch (e) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                out += char(std::stoi(s.substr(pos, 4), nullptr, 16));
                pos += 4;
                break;
              }
              default: ADD_FAILURE() << "bad escape " << e;
            }
        }
        ++pos; // closing quote
        return out;
    }
    double number()
    {
        ws();
        size_t end = pos;
        while (end < s.size() &&
               (std::isdigit((unsigned char)s[end]) ||
                s[end] == '-' || s[end] == '.' || s[end] == 'e'))
            ++end;
        double v = std::stod(s.substr(pos, end - pos));
        pos = end;
        return v;
    }
};

/** Parse PassStats::json() text back into a PassStats. */
PassStats
parsePassStats(const std::string &text)
{
    PassStats out;
    JsonReader r(text);
    r.expect('{');
    EXPECT_EQ(r.string(), "passes");
    r.expect(':');
    r.expect('[');
    if (!r.eat(']')) {
        do {
            PassStat ps;
            r.expect('{');
            EXPECT_EQ(r.string(), "name");
            r.expect(':');
            ps.name = r.string();
            r.expect(',');
            EXPECT_EQ(r.string(), "ms");
            r.expect(':');
            ps.ms = r.number();
            r.expect(',');
            EXPECT_EQ(r.string(), "counters");
            r.expect(':');
            r.expect('{');
            if (!r.eat('}')) {
                do {
                    std::string key = r.string();
                    r.expect(':');
                    ps.counters.emplace_back(
                        key, int64_t(r.number()));
                } while (r.eat(','));
                r.expect('}');
            }
            r.expect('}');
            out.add(std::move(ps));
        } while (r.eat(','));
        r.expect(']');
    }
    // totalMs is derived; just require the key to be present.
    r.expect(',');
    EXPECT_EQ(r.string(), "totalMs");
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

    std::string json = stats.json();
    // Escaping: raw specials never appear unescaped.
    EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
    EXPECT_NE(json.find("\\\\back"), std::string::npos);
    EXPECT_NE(json.find("\\n"), std::string::npos);
    EXPECT_NE(json.find("\\t"), std::string::npos);
    EXPECT_NE(json.find("\\u0001"), std::string::npos);
    EXPECT_EQ(json.find('\n'), std::string::npos);
    // Deterministic key order: sorted, independent of insertion.
    EXPECT_LT(json.find("\"alpha\""), json.find("\"mid\\\"key\""));
    EXPECT_LT(json.find("\"mid\\\"key\""), json.find("\"zeta\""));

    // Round trip: parse back and re-serialize to identical bytes,
    // and the parsed struct preserves names and values.
    PassStats parsed = parsePassStats(json);
    EXPECT_EQ(parsed.json(), json);
    ASSERT_EQ(parsed.passes().size(), 2u);
    EXPECT_EQ(parsed.passes()[0].name, a.name);
    EXPECT_EQ(parsed.passes()[0].counter("alpha"), -3);
    EXPECT_EQ(parsed.passes()[0].counter("mid\"key"), 42);
    EXPECT_EQ(parsed.passes()[0].counter("zeta"), 7);
    EXPECT_DOUBLE_EQ(parsed.passes()[1].ms, 0.25);

    // A real pipeline report round-trips too. totalMs is derived
    // (sum of the full-precision pass times, not of their 4-decimal
    // prints), so it is normalized out of the comparison.
    auto dropTotal = [](const std::string &j) {
        return j.substr(0, j.rfind("\"totalMs\""));
    };
    PipelineOptions opts;
    opts.strategy = Strategy::Ours;
    opts.tileSizes = {8, 8};
    auto state =
        Pipeline(opts).run(workloads::makeConv2D({16, 16, 3, 3}));
    std::string real = state.stats.json();
    EXPECT_EQ(dropTotal(parsePassStats(real).json()),
              dropTotal(real));
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
