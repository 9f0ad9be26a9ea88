/**
 * @file
 * Tests for the PolyMage-style tile-size auto-tuner -- both search
 * drivers (exhaustive oracle and model-guided), the registry-wide
 * guided-search bounds and the provenance of the committed model
 * calibration, the extent-blind shape fingerprint and near-miss
 * seeding, the version-2 tuning store -- and a parser round-trip
 * property: parse(str(set)) must equal the set.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <gtest/gtest.h>
#include <sstream>

#include "driver/registry.hh"
#include "ir/fingerprint.hh"
#include "perfmodel/autotune.hh"
#include "perfmodel/model.hh"
#include "perfmodel/search.hh"
#include "perfmodel/tune_db.hh"
#include "pres/parser.hh"
#include "support/logging.hh"
#include "workloads/conv2d.hh"
#include "workloads/equake.hh"
#include "workloads/pipelines.hh"
#include "workloads/polybench.hh"

namespace polyfuse {
namespace {

TEST(Autotune, PicksAFeasibleSizeAndBeatsTheWorstCandidate)
{
    ir::Program p = workloads::makeConv2D({64, 64, 5, 5});
    auto g = deps::DependenceGraph::compute(p);
    auto init = [&](exec::Buffers &b) {
        b.fillPattern(p.tensorId("A"), 7);
        b.fillPattern(p.tensorId("B"), 13);
    };
    perfmodel::AutotuneOptions opts;
    opts.candidates = {4, 8, 16, 32};
    opts.dims = 2;
    auto r = perfmodel::autotuneTileSizes(p, g, init, opts);
    ASSERT_EQ(r.tileSizes.size(), 2u);
    EXPECT_EQ(r.evaluated, 16u);
    for (int64_t s : r.tileSizes) {
        EXPECT_GE(s, 4);
        EXPECT_LE(s, 32);
    }
    EXPECT_GT(r.modeledMs, 0.0);
}

TEST(Autotune, PrunesCandidatesBeyondTheIterationSpace)
{
    ir::Program p = workloads::makeConv2D({16, 16, 3, 3});
    auto g = deps::DependenceGraph::compute(p);
    auto init = [&](exec::Buffers &b) {
        b.fillPattern(p.tensorId("A"), 7);
        b.fillPattern(p.tensorId("B"), 13);
    };
    perfmodel::AutotuneOptions opts;
    opts.candidates = {8, 512};
    opts.dims = 2;
    auto r = perfmodel::autotuneTileSizes(p, g, init, opts);
    EXPECT_EQ(r.evaluated, 1u); // only {8, 8} is feasible
    EXPECT_EQ(r.tileSizes, (std::vector<int64_t>{8, 8}));
}

TEST(Autotune, RejectsEmptyConfiguration)
{
    ir::Program p = workloads::makeConv2D({16, 16, 3, 3});
    auto g = deps::DependenceGraph::compute(p);
    perfmodel::AutotuneOptions opts;
    opts.dims = 0;
    EXPECT_THROW(perfmodel::autotuneTileSizes(
                     p, g, [](exec::Buffers &) {}, opts),
                 FatalError);
}

void
convInit(const ir::Program &p, exec::Buffers &b)
{
    b.fillPattern(p.tensorId("A"), 7);
    b.fillPattern(p.tensorId("B"), 13);
}

TEST(Autotune, GuidedPrunesAndIsDeterministicAcrossJobs)
{
    ir::Program p = workloads::makeConv2D({64, 64, 3, 3});
    auto g = deps::DependenceGraph::compute(p);
    auto init = [&](exec::Buffers &b) { convInit(p, b); };
    perfmodel::AutotuneOptions opts;
    opts.searchMode = perfmodel::SearchMode::Guided;
    auto seq = perfmodel::autotuneTileSizes(p, g, init, opts);
    ASSERT_EQ(seq.tileSizes.size(), 2u);
    EXPECT_GT(seq.evaluated, 0u);
    EXPECT_LT(seq.evaluated, seq.totalCandidates);
    EXPECT_EQ(seq.pruned, seq.totalCandidates - seq.evaluated);
    EXPECT_EQ(seq.mode, perfmodel::SearchMode::Guided);

    // The winner must be identical for any job count: rounds reduce
    // in ranking order after the pool drains.
    opts.jobs = 4;
    auto par = perfmodel::autotuneTileSizes(p, g, init, opts);
    EXPECT_EQ(par.tileSizes, seq.tileSizes);
    EXPECT_EQ(par.evaluated, seq.evaluated);
    EXPECT_DOUBLE_EQ(par.modeledMs, seq.modeledMs);
}

TEST(Autotune, ParallelSweepReportsCacheCounters)
{
    // The jobs > 1 path used to evaluate with thread-default
    // contexts and silently report zero cache traffic; per-worker
    // counters are now aggregated into the result.
    ir::Program p = workloads::makeConv2D({64, 64, 3, 3});
    auto g = deps::DependenceGraph::compute(p);
    auto init = [&](exec::Buffers &b) { convInit(p, b); };
    perfmodel::AutotuneOptions opts;
    opts.candidates = {8, 16, 32};
    opts.jobs = 4;
    auto r = perfmodel::autotuneTileSizes(p, g, init, opts);
    EXPECT_EQ(r.evaluated, 9u);
    EXPECT_GT(r.cacheHits + r.cacheMisses, 0u);
}

TEST(Autotune, GuidedStaysWithinTheDocumentedOracleBound)
{
    // The registry-sweep form of this gate (every workload, default
    // ladder) is Autotune.RegistrySweepGuidedMeetsTheSearchBounds;
    // here a representative pair fails fast on a broken model.
    struct Case
    {
        ir::Program p;
        unsigned dims;
    };
    std::vector<Case> cases;
    cases.push_back({workloads::makeConv2D({64, 64, 3, 3}), 2});
    cases.push_back({workloads::make2mm(64, 64, 64, 64), 2});
    for (auto &c : cases) {
        auto g = deps::DependenceGraph::compute(c.p);
        auto init = [&](exec::Buffers &b) {
            for (size_t t = 0; t < c.p.tensors().size(); ++t)
                if (c.p.tensor(t).kind != ir::TensorKind::Temp)
                    b.fillPattern(t, 7 + unsigned(t));
        };
        perfmodel::AutotuneOptions opts;
        opts.dims = c.dims;
        opts.searchMode = perfmodel::SearchMode::Guided;
        opts.compareOracle = true;
        auto r = perfmodel::autotuneTileSizes(c.p, g, init, opts);
        EXPECT_GT(r.oracleMs, 0.0) << c.p.name();
        // The documented bound: guided's winner within 5% modeledMs
        // of the exhaustive oracle.
        EXPECT_LE(r.qualityGapPct, 5.0) << c.p.name();
        EXPECT_LT(r.evaluated, r.totalCandidates) << c.p.name();
    }
}

TEST(Autotune, TuningKeyIsStableAcrossSearchModes)
{
    // Guided and exhaustive answer the same question, so either's
    // stored winner must serve both: the exact key may not depend
    // on the search mode or its knobs.
    ir::Program p = workloads::makeConv2D({32, 32, 3, 3});
    perfmodel::AutotuneOptions a;
    perfmodel::AutotuneOptions b;
    b.searchMode = perfmodel::SearchMode::Guided;
    b.searchTopK = 7;
    b.compareOracle = true;
    b.jobs = 8;
    EXPECT_EQ(perfmodel::tuningKey(p, a).hex(),
              perfmodel::tuningKey(p, b).hex());
    EXPECT_EQ(perfmodel::tuningShapeKey(p, a).hex(),
              perfmodel::tuningShapeKey(p, b).hex());
    // A changed ladder re-tunes in both layers.
    b.candidates = {4, 8};
    EXPECT_NE(perfmodel::tuningKey(p, a).hex(),
              perfmodel::tuningKey(p, b).hex());
    EXPECT_NE(perfmodel::tuningShapeKey(p, a).hex(),
              perfmodel::tuningShapeKey(p, b).hex());
}

TEST(Autotune, ShapeFingerprintIsExtentBlindButStructureBound)
{
    ir::Program small = workloads::makeConv2D({32, 32, 3, 3});
    ir::Program large = workloads::makeConv2D({64, 64, 3, 3});
    ir::Program other = workloads::makeConv2D({32, 32, 5, 5});
    auto shape = [](const ir::Program &p) {
        pres::Fingerprinter fp;
        ir::mixProgramShape(fp, p);
        return fp.fingerprint().hex();
    };
    auto full = [](const ir::Program &p) {
        pres::Fingerprinter fp;
        ir::mixProgram(fp, p);
        return fp.fingerprint().hex();
    };
    // Same structure at different sizes: same shape, different full.
    EXPECT_EQ(shape(small), shape(large));
    EXPECT_NE(full(small), full(large));
    // Different kernel size is a different *structure* here (the
    // conv builder bakes KH/KW into domains as parameter values --
    // but the parameter count and names match, so only the values
    // differ... which the shape layer ignores): the shape matches,
    // the exact key separates them.
    EXPECT_EQ(shape(small), shape(other));
    EXPECT_NE(full(small), full(other));
    // A genuinely different pipeline never shares the shape.
    ir::Program unsharp = workloads::makeUnsharpMask({32, 32});
    EXPECT_NE(shape(small), shape(unsharp));
    // The shape stream is tagged: it can never equal a full stream.
    EXPECT_NE(shape(small), full(small));
}

TEST(Autotune, NearMissSeedsTheSearchAndExactKeyStillWins)
{
    std::string path =
        testing::TempDir() + "polyfuse_autotune_nearmiss.json";
    std::remove(path.c_str());
    ir::Program at48 = workloads::makeConv2D({48, 48, 3, 3});
    ir::Program at64 = workloads::makeConv2D({64, 64, 3, 3});
    {
        perfmodel::TuneDb db(path);
        auto tune = [&](ir::Program &p) {
            auto g = deps::DependenceGraph::compute(p);
            auto init = [&](exec::Buffers &b) { convInit(p, b); };
            perfmodel::AutotuneOptions opts;
            opts.searchMode = perfmodel::SearchMode::Guided;
            opts.db = &db;
            return perfmodel::autotuneTileSizes(p, g, init, opts);
        };
        auto cold = tune(at48);
        EXPECT_FALSE(cold.warmStart);
        EXPECT_FALSE(cold.seededFromShape);
        EXPECT_GT(cold.evaluated, 0u);

        // Same structure, different extents: the shape key seeds
        // the ranking and the seeded run measures fewer candidates.
        auto seeded = tune(at64);
        EXPECT_FALSE(seeded.warmStart);
        EXPECT_TRUE(seeded.seededFromShape);
        EXPECT_GT(seeded.evaluated, 0u);
        EXPECT_LT(seeded.evaluated, cold.evaluated);

        // The exact key still wins: re-tuning the original sizes is
        // a full warm start, no search at all.
        auto warm = tune(at48);
        EXPECT_TRUE(warm.warmStart);
        EXPECT_EQ(warm.evaluated, 0u);
        EXPECT_EQ(warm.tileSizes, cold.tileSizes);

        // And the extent-scaled program now warm-starts too (its
        // own exact entry was stored by the seeded search).
        auto warm64 = tune(at64);
        EXPECT_TRUE(warm64.warmStart);
        EXPECT_EQ(warm64.tileSizes, seeded.tileSizes);
    }
    std::remove(path.c_str());
}

// ------------------------------------------------------------------
// Registry-wide gates: every workload over the default ladder. Both
// run the full exhaustive sweep (~20 s each), so the ASAN gate in
// scripts/check.sh leaves the Autotune.Registry* pair out.
// ------------------------------------------------------------------

/** Tuning sizes of the registry gates: small enough that the
 *  exhaustive sweep stays in seconds, big enough that several
 *  ladder rungs are feasible and locality effects separate them.
 *  defaultModelFit() was fitted at exactly these sizes. */
driver::WorkloadParams
registryTuneParams(const std::string &name)
{
    if (name == "equake")
        return {256, 16};
    if (name == "convbn")
        return {32, 8};
    if (name == "2mm" || name == "covariance")
        return {96, 96};
    if (name == "gemver")
        return {256, 256};
    return {64, 64};
}

/** Deterministic non-negative inputs; equake's indirection arrays
 *  need valid indices. */
void
registryInit(const ir::Program &p, exec::Buffers &buf)
{
    if (p.name() == "equake") {
        workloads::initEquakeInputs(p, buf, 11);
        return;
    }
    for (size_t t = 0; t < p.tensors().size(); ++t) {
        if (p.tensor(t).kind == ir::TensorKind::Temp)
            continue;
        buf.fillPattern(t, 1000 + t);
        if (p.tensor(t).kind == ir::TensorKind::Input)
            for (auto &v : buf.data(t))
                v = v < 0 ? -v : v;
    }
}

TEST(Autotune, RegistrySweepGuidedMeetsTheSearchBounds)
{
    // The documented guided-search contract, aggregated over every
    // registry workload: guided measures at most a quarter of the
    // candidates, lands within 5% modeledMs of the exhaustive oracle
    // on every workload, and searches at least 4x faster (geomean of
    // per-workload wall-time ratios).
    const double kMaxMeasuredFrac = 0.25;
    const double kMaxGapPct = 5.0;
    const double kMinGeomeanSpeedup = 4.0;

    unsigned total = 0, measured = 0;
    double log_speedup = 0, max_gap_pct = 0;
    int timed = 0;
    for (const auto &spec : driver::workloadRegistry()) {
        SCOPED_TRACE(spec.name);
        ir::Program p = spec.make(registryTuneParams(spec.name));
        auto g = deps::DependenceGraph::compute(p);
        auto init = [&p](exec::Buffers &b) { registryInit(p, b); };
        perfmodel::AutotuneOptions opts;
        opts.dims = unsigned(spec.defaultTiles.size());

        opts.searchMode = perfmodel::SearchMode::Exhaustive;
        auto oracle = perfmodel::autotuneTileSizes(p, g, init, opts);
        opts.searchMode = perfmodel::SearchMode::Guided;
        auto guided = perfmodel::autotuneTileSizes(p, g, init, opts);

        ASSERT_EQ(guided.totalCandidates, oracle.totalCandidates);
        ASSERT_GT(oracle.modeledMs, 0.0);
        double gap_pct = 100.0 * (guided.modeledMs - oracle.modeledMs) /
                         oracle.modeledMs;
        EXPECT_LE(gap_pct, kMaxGapPct)
            << "guided " << guided.modeledMs << " ms vs oracle "
            << oracle.modeledMs << " ms";
        max_gap_pct = std::max(max_gap_pct, gap_pct);
        total += oracle.totalCandidates;
        measured += guided.evaluated;
        if (oracle.searchMs > 0 && guided.searchMs > 0) {
            log_speedup += std::log(oracle.searchMs / guided.searchMs);
            ++timed;
        }
    }
    ASSERT_GT(total, 0u);
    ASSERT_GT(timed, 0);
    double frac = double(measured) / double(total);
    double geomean = std::exp(log_speedup / timed);
    EXPECT_LE(frac, kMaxMeasuredFrac)
        << measured << " of " << total << " candidates measured";
    EXPECT_GE(geomean, kMinGeomeanSpeedup);
    std::printf("guided measured %u of %u candidates (%.3f), max "
                "gap %.2f%%, geomean search speedup %.2fx\n",
                measured, total, frac, max_gap_pct, geomean);
}

TEST(Autotune, RegistryRefitReproducesTheDefaultModelFit)
{
    // Provenance of the committed calibration: a fresh least-squares
    // fit over every registry workload x the default ladder, each
    // candidate measured through the tuner's own evaluation path,
    // must reproduce defaultModelFit() at its 4 committed decimals.
    // After a change to the cost model, the tuning hierarchy or the
    // CPU model, paste the printed constants into model.cc.
    std::vector<perfmodel::ModelSample> samples;
    for (const auto &spec : driver::workloadRegistry()) {
        ir::Program p = spec.make(registryTuneParams(spec.name));
        auto g = deps::DependenceGraph::compute(p);
        auto init = [&p](exec::Buffers &b) { registryInit(p, b); };
        unsigned dims = unsigned(spec.defaultTiles.size());
        perfmodel::AutotuneOptions opts;
        perfmodel::CostModel model(p, dims, opts.threads);
        for (const auto &tiles : perfmodel::enumerateTileCandidates(
                 p, opts.candidates, dims)) {
            double ms = perfmodel::evaluateCandidate(
                p, g, tiles, init, opts.threads,
                opts.targetParallelism);
            samples.push_back({model.terms(tiles), ms});
        }
    }
    perfmodel::ModelFit fit =
        perfmodel::fitModel(samples, perfmodel::ModelFit{});
    perfmodel::ModelFit committed = perfmodel::defaultModelFit();

    auto fixed4 = [](double v) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.4f", v);
        return std::string(buf);
    };
    std::string paste = "    fit.cCompute = " + fixed4(fit.cCompute) +
                        ";\n    fit.cMem = " + fixed4(fit.cMem) +
                        ";\n    fit.cTraffic = " + fixed4(fit.cTraffic) +
                        ";\n    fit.cTile = " + fixed4(fit.cTile) + ";\n";
    SCOPED_TRACE("refit over " + std::to_string(samples.size()) +
                 " samples; defaultModelFit() in "
                 "src/perfmodel/model.cc should read:\n" + paste);
    EXPECT_EQ(fixed4(fit.cCompute), fixed4(committed.cCompute));
    EXPECT_EQ(fixed4(fit.cMem), fixed4(committed.cMem));
    EXPECT_EQ(fixed4(fit.cTraffic), fixed4(committed.cTraffic));
    EXPECT_EQ(fixed4(fit.cTile), fixed4(committed.cTile));
}

TEST(TuneDbV2, ModelFitAndShapeEntriesRoundTrip)
{
    std::string path =
        testing::TempDir() + "polyfuse_tunedb_v2.json";
    std::remove(path.c_str());
    pres::Fingerprinter fp;
    fp.mix("v2-round-trip");
    perfmodel::ModelFit fit;
    fit.cCompute = 1.25;
    fit.cMem = 0.5;
    fit.cTraffic = 2.0;
    fit.cTile = 0.125;
    fit.samples = 40;
    {
        perfmodel::TuneDb db(path);
        perfmodel::TuneEntry e;
        e.tiles = {32, 64};
        e.modeledMs = 1.5;
        e.evaluated = 4;
        e.kind = "shape";
        db.put(fp.fingerprint(), e);
        db.setModelFit(fit);
        ASSERT_TRUE(db.save());
    }
    perfmodel::TuneDb db(path);
    EXPECT_EQ(db.lastLoadDropped(), 0u);
    perfmodel::ModelFit back;
    ASSERT_TRUE(db.modelFit(&back));
    EXPECT_DOUBLE_EQ(back.cCompute, fit.cCompute);
    EXPECT_DOUBLE_EQ(back.cMem, fit.cMem);
    EXPECT_DOUBLE_EQ(back.cTraffic, fit.cTraffic);
    EXPECT_DOUBLE_EQ(back.cTile, fit.cTile);
    EXPECT_EQ(back.samples, fit.samples);
    perfmodel::TuneEntry got;
    ASSERT_TRUE(db.find(fp.fingerprint(), &got));
    EXPECT_EQ(got.kind, "shape");
    EXPECT_EQ(got.tiles, (std::vector<int64_t>{32, 64}));
    std::remove(path.c_str());
}

TEST(TuneDbV2, NegativeZeroCoefficientSurvivesReload)
{
    // A fit can land on -0.0; the checksum spells it "-0", so the
    // file must too, or the calibration fails its own checksum.
    std::string path =
        testing::TempDir() + "polyfuse_tunedb_negzero.json";
    std::remove(path.c_str());
    for (double tile : {-0.0, 0.0}) {
        SCOPED_TRACE(tile);
        perfmodel::ModelFit fit = perfmodel::defaultModelFit();
        fit.cTile = tile;
        fit.samples = 7;
        {
            perfmodel::TuneDb db(path);
            db.setModelFit(fit);
            ASSERT_TRUE(db.save());
        }
        std::ifstream f(path);
        std::ostringstream text;
        text << f.rdbuf();
        // +0 keeps the spelling stores already on disk use.
        EXPECT_NE(text.str().find(std::signbit(tile)
                                      ? "\"cTile\": -0"
                                      : "\"cTile\": 0"),
                  std::string::npos)
            << text.str();
        perfmodel::TuneDb db(path);
        EXPECT_EQ(db.lastLoadDropped(), 0u);
        perfmodel::ModelFit back;
        ASSERT_TRUE(db.modelFit(&back));
        EXPECT_EQ(std::signbit(back.cTile), std::signbit(tile));
        EXPECT_EQ(back.samples, fit.samples);
    }
    std::remove(path.c_str());
}

TEST(TuneDbV2, LoadsVersionOneStoresBackwardCompatibly)
{
    std::string path =
        testing::TempDir() + "polyfuse_tunedb_v1compat.json";
    std::remove(path.c_str());
    // Fabricate a legacy version-1 file byte-for-byte: no model
    // section, no kind fields, and version-1 checksums (which
    // "exact" records still use).
    pres::Fingerprinter fp;
    fp.mix("v1-legacy-record");
    std::string hex = fp.fingerprint().hex();
    perfmodel::TuneEntry e;
    e.tiles = {16, 16};
    e.modeledMs = 0.25;
    e.evaluated = 9;
    std::string text =
        "{\"version\": 1, \"entries\": [{\"fp\": \"" + hex +
        "\", \"strategy\": \"ours\", \"tiles\": [16, 16], "
        "\"tier\": \"bytecode\", \"modeledMs\": 0.250000, "
        "\"evaluated\": 9, \"crc\": \"" +
        perfmodel::checksumHex(perfmodel::recordChecksum(hex, e)) +
        "\"}]}\n";
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        ASSERT_NE(f, nullptr);
        std::fputs(text.c_str(), f);
        std::fclose(f);
    }
    perfmodel::TuneDb db(path);
    EXPECT_EQ(db.lastLoadDropped(), 0u);
    EXPECT_EQ(db.size(), 1u);
    perfmodel::TuneEntry got;
    ASSERT_TRUE(db.find(fp.fingerprint(), &got));
    EXPECT_EQ(got.kind, "exact");
    EXPECT_EQ(got.tiles, (std::vector<int64_t>{16, 16}));
    perfmodel::ModelFit fit;
    EXPECT_FALSE(db.modelFit(&fit)); // v1 carries no calibration
    // The next save() upgrades in place; the record must survive.
    ASSERT_TRUE(db.save());
    perfmodel::TuneDb db2(path);
    EXPECT_EQ(db2.size(), 1u);
    EXPECT_TRUE(db2.find(fp.fingerprint(), &got));
    std::remove(path.c_str());
}

TEST(TuneDbV2, DropsACorruptModelSectionButKeepsEntries)
{
    std::string path =
        testing::TempDir() + "polyfuse_tunedb_badmodel.json";
    std::remove(path.c_str());
    pres::Fingerprinter fp;
    fp.mix("entry-behind-bad-model");
    {
        perfmodel::TuneDb db(path);
        perfmodel::TuneEntry e;
        e.tiles = {8, 8};
        db.put(fp.fingerprint(), e);
        perfmodel::ModelFit fit = perfmodel::defaultModelFit();
        fit.samples = 12;
        db.setModelFit(fit);
        ASSERT_TRUE(db.save());
    }
    // Flip a digit inside the model section only.
    std::string text;
    {
        std::ifstream f(path);
        std::ostringstream ss;
        ss << f.rdbuf();
        text = ss.str();
    }
    size_t pos = text.find("\"samples\": 12");
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, 13, "\"samples\": 13");
    {
        std::ofstream f(path, std::ios::trunc);
        f << text;
    }
    perfmodel::TuneDb db(path);
    perfmodel::ModelFit fit;
    EXPECT_FALSE(db.modelFit(&fit)); // checksum mismatch: dropped
    EXPECT_EQ(db.size(), 1u);        // the entry survived
    perfmodel::TuneEntry got;
    EXPECT_TRUE(db.find(fp.fingerprint(), &got));
    std::remove(path.c_str());
}

/** parse(str(s)) == s over assorted sets. */
class StrRoundTrip : public ::testing::TestWithParam<const char *>
{
};

TEST_P(StrRoundTrip, ParseOfStrEqualsOriginal)
{
    pres::BasicSet s = pres::parseBasicSet(GetParam());
    pres::BasicSet back = pres::parseBasicSet(s.str());
    EXPECT_TRUE(s == back) << s.str() << " vs " << back.str();
}

INSTANTIATE_TEST_SUITE_P(
    Sets, StrRoundTrip,
    ::testing::Values(
        "[N] -> { S[i, j] : 0 <= i < N and 0 <= j <= i }",
        "{ S[i] : 2i >= 3 and i <= 9 }",
        "[H, KH] -> { S2[h, kh] : 0 <= h <= H - KH and "
        "0 <= kh < KH }",
        "{ T[o0, o1, p] : 4o0 <= p < 4o0 + 4 and 0 <= o1 < 3 }",
        "{ S[] }",
        "[N] -> { X[i] : -3 <= i < 2*N - 7 }"));

} // namespace
} // namespace polyfuse
