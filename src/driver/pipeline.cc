#include "driver/pipeline.hh"

#include <algorithm>

#include "pres/fm.hh"
#include "support/logging.hh"
#include "support/timer.hh"

namespace polyfuse {
namespace driver {

using schedule::FusionPolicy;
using schedule::NodeKind;
using schedule::NodePtr;
using schedule::ScheduleTree;

const std::vector<Strategy> &
allStrategies()
{
    static const std::vector<Strategy> all = {
        Strategy::Naive,    Strategy::MinFuse, Strategy::SmartFuse,
        Strategy::MaxFuse,  Strategy::Hybrid,  Strategy::PolyMage,
        Strategy::Halide,   Strategy::Ours,
    };
    return all;
}

const char *
strategyName(Strategy s)
{
    switch (s) {
      case Strategy::Naive: return "naive";
      case Strategy::MinFuse: return "minfuse";
      case Strategy::SmartFuse: return "smartfuse";
      case Strategy::MaxFuse: return "maxfuse";
      case Strategy::Hybrid: return "hybridfuse";
      case Strategy::PolyMage: return "polymage";
      case Strategy::Halide: return "halide";
      case Strategy::Ours: return "ours";
    }
    panic("strategyName: unknown strategy");
}

bool
parseStrategy(const std::string &name, Strategy &out)
{
    for (Strategy s : allStrategies()) {
        if (name == strategyName(s)) {
            out = s;
            return true;
        }
    }
    return false;
}

namespace {

/** The heuristic of a tiling-after-fusion strategy. */
FusionPolicy
heuristicPolicy(Strategy s)
{
    switch (s) {
      case Strategy::MinFuse: return FusionPolicy::Min;
      case Strategy::SmartFuse: return FusionPolicy::Smart;
      case Strategy::MaxFuse: return FusionPolicy::Max;
      case Strategy::Hybrid: return FusionPolicy::Hybrid;
      case Strategy::Halide: return FusionPolicy::Smart;
      case Strategy::Naive:
      case Strategy::PolyMage:
      case Strategy::Ours:
        break;
    }
    panic("heuristicPolicy: not a heuristic strategy");
}

bool
usesCompose(Strategy s)
{
    return s == Strategy::PolyMage || s == Strategy::Ours;
}

unsigned
countExtensionNodes(const NodePtr &node)
{
    if (!node)
        return 0;
    unsigned n = node->kind == NodeKind::Extension ? 1 : 0;
    for (const auto &c : node->children)
        n += countExtensionNodes(c);
    return n;
}

void
countAstNodes(const codegen::AstPtr &node, int64_t &nodes,
              int64_t &loops, int64_t &stmts, int64_t &allocs)
{
    if (!node)
        return;
    ++nodes;
    switch (node->kind) {
      case codegen::AstKind::For: ++loops; break;
      case codegen::AstKind::Stmt: ++stmts; break;
      case codegen::AstKind::Alloc: ++allocs; break;
      case codegen::AstKind::Block: break;
    }
    for (const auto &c : node->children)
        countAstNodes(c, nodes, loops, stmts, allocs);
}

} // namespace

unsigned
tileAllBands(ScheduleTree &tree, const std::vector<int64_t> &sizes)
{
    NodePtr seq = tree.root()->onlyChild();
    if (!seq || sizes.empty())
        return 0;
    unsigned tiled = 0;
    for (const auto &filter : seq->children) {
        NodePtr band = ScheduleTree::findBand(filter);
        if (!band || !band->permutable || band->numBandDims() == 0 ||
            !band->tileSizes.empty())
            continue;
        std::vector<int64_t> s(band->numBandDims(), sizes.back());
        for (size_t k = 0; k < s.size() && k < sizes.size(); ++k)
            s[k] = sizes[k];
        tree.tileBand(band, s);
        ++tiled;
    }
    return tiled;
}

double
CompilationState::compileMs() const
{
    return stats.totalMs() - stats.msOf("ComputeDeps");
}

Pipeline::Pipeline(PipelineOptions options)
    : options_(std::move(options))
{
}

const std::vector<std::string> &
Pipeline::passNames()
{
    static const std::vector<std::string> names = {
        "ComputeDeps", "Fuse", "Compose", "Tile", "Promote",
        "Codegen", "TileGraph",
    };
    return names;
}

CompilationState
Pipeline::run(const ir::Program &program) const
{
    CompileContext ctx;
    return run(program, ctx);
}

std::vector<Strategy>
fallbackChain(Strategy requested)
{
    static const std::vector<Strategy> ladder = {
        Strategy::Hybrid, Strategy::MinFuse, Strategy::Naive,
    };
    std::vector<Strategy> chain{requested};
    size_t start = 0;
    for (size_t i = 0; i < ladder.size(); ++i) {
        if (ladder[i] == requested) {
            start = i + 1;
            break;
        }
    }
    for (size_t i = start; i < ladder.size(); ++i)
        chain.push_back(ladder[i]);
    return chain;
}

CompilationState
Pipeline::run(const ir::Program &program, CompileContext &ctx) const
{
    // Each attempt gets a fresh budget window (the ceilings bound one
    // attempt's work, not the lifetime totals of the context).
    struct Disarm
    {
        pres::fm::PresCtx &p;
        ~Disarm() { p.disarmBudget(); }
    } disarm{ctx.pres};

    if (!options_.budgetFallback) {
        ctx.pres.armBudget(ctx.budget);
        return runOnce(program, ctx, options_);
    }

    const std::vector<Strategy> chain =
        fallbackChain(options_.strategy);
    std::vector<std::string> trail;
    double wastedMs = 0;
    for (size_t attempt = 0; attempt <= chain.size(); ++attempt) {
        PipelineOptions opt = options_;
        bool reserve = attempt == chain.size();
        // The reserve attempt repeats naive with the budget disarmed:
        // a passthrough schedule must always come out, no matter how
        // tight the limits were. Cancellation stays in force.
        opt.strategy = reserve ? Strategy::Naive : chain[attempt];
        if (reserve)
            ctx.pres.disarmBudget();
        else
            ctx.pres.armBudget(ctx.budget);
        Timer t;
        try {
            CompilationState st = runOnce(program, ctx, opt);
            st.requestedStrategy = options_.strategy;
            st.effectiveStrategy = opt.strategy;
            st.fallbackTrail = std::move(trail);
            if (st.downgraded()) {
                PassStat ps;
                ps.name = "Fallback";
                ps.ms = wastedMs;
                ps.endMs = wastedMs + st.stats.totalMs();
                ps.counters.emplace_back(
                    "downgrades", int64_t(st.fallbackTrail.size()));
                st.stats.add(std::move(ps));
            }
            return st;
        } catch (const BudgetExceeded &e) {
            if (ctx.cancel.cancelled() || reserve)
                throw;
            wastedMs += t.milliseconds();
            trail.push_back(std::string(strategyName(opt.strategy)) +
                            ": " + e.what());
        }
    }
    panic("Pipeline::run: fallback chain exhausted"); // unreachable
}

CompilationState
Pipeline::runOnce(const ir::Program &program, CompileContext &ctx,
                  const PipelineOptions &opt) const
{
    CompilationState st;
    st.program = &program;
    st.requestedStrategy = opt.strategy;
    st.effectiveStrategy = opt.strategy;

    // Everything below (pres ops reached through schedule/core/
    // codegen) charges its work to this run's context.
    pres::fm::ScopedCtx scope(ctx.pres);

    // A fresh memoization table per attempt: results never leak
    // between runs, so a compilation's output (and its FM counters,
    // modulo cache hit/miss tallies) is a function of the program and
    // options alone, no matter what this context compiled before.
    if (ctx.pres.cache)
        ctx.pres.cache->clear();

    Timer pipeline_timer;
    // Each pass is timed individually and reports the FM engine's
    // work (elimination/constraint deltas from the run's context) on
    // top of its own counters.
    auto runPass = [&](const char *name, auto &&body) {
        pres::fm::checkBudget(ctx.pres, name);
        PassStat ps;
        ps.name = name;
        pres::fm::Counters before = ctx.pres.counters;
        Timer t;
        body(ps);
        ps.ms = t.milliseconds();
        ps.endMs = pipeline_timer.milliseconds();
        const pres::fm::Counters &after = ctx.pres.counters;
        if (after.eliminations > before.eliminations) {
            ps.counters.emplace_back(
                "fm_elims",
                int64_t(after.eliminations - before.eliminations));
            ps.counters.emplace_back(
                "fm_rows", int64_t(after.constraintsVisited -
                                   before.constraintsVisited));
        }
        if (after.cacheHits > before.cacheHits ||
            after.cacheMisses > before.cacheMisses) {
            ps.counters.emplace_back(
                "cache_hits",
                int64_t(after.cacheHits - before.cacheHits));
            ps.counters.emplace_back(
                "cache_misses",
                int64_t(after.cacheMisses - before.cacheMisses));
        }
        if (after.inexact > before.inexact)
            ps.counters.emplace_back(
                "inexact", int64_t(after.inexact - before.inexact));
        if (after.cacheEvictions > before.cacheEvictions)
            ps.counters.emplace_back(
                "cache_evictions",
                int64_t(after.cacheEvictions - before.cacheEvictions));
        st.stats.add(std::move(ps));
    };

    runPass("ComputeDeps", [&](PassStat &ps) {
        st.graph = deps::DependenceGraph::compute(program);
        int64_t flow = 0;
        for (const auto &d : st.graph.all())
            flow += d.kind == deps::DepKind::Flow ? 1 : 0;
        ps.counters.emplace_back("deps",
                                 int64_t(st.graph.all().size()));
        ps.counters.emplace_back("flow", flow);
    });

    runPass("Fuse", [&](PassStat &ps) {
        if (opt.strategy == Strategy::Naive) {
            ScheduleTree t = ScheduleTree::initial(program);
            t.annotate(st.graph);
            st.fusion.tree = t;
            st.fusion.clusters.clear();
            for (unsigned g = 0; g < program.numGroups(); ++g)
                st.fusion.clusters.push_back({int(g)});
        } else {
            FusionPolicy policy = usesCompose(opt.strategy)
                                      ? opt.startup
                                      : heuristicPolicy(opt.strategy);
            st.fusion =
                schedule::applyFusion(program, st.graph, policy);
        }
        st.tree = st.fusion.tree;
        ps.counters.emplace_back("clusters",
                                 int64_t(st.fusion.clusters.size()));
    });

    runPass("Compose", [&](PassStat &ps) {
        if (!usesCompose(opt.strategy))
            return;
        core::ComposeOptions copts;
        copts.tileSizes = opt.tileSizes;
        copts.innerTileSizes = opt.innerTileSizes;
        copts.targetParallelism = opt.targetParallelism;
        copts.startup = opt.startup;
        copts.maxRecompute = opt.maxRecompute;
        copts.footprintDilation =
            opt.strategy == Strategy::PolyMage
                ? std::max(1u, opt.footprintDilation)
                : opt.footprintDilation;
        st.composed =
            core::composeFrom(program, st.graph, st.fusion, copts);
        st.tree = st.composed.tree;
        ps.counters.emplace_back(
            "extensions",
            int64_t(st.composed.fusedIntermediates.size()));
        ps.counters.emplace_back(
            "skipped", int64_t(st.composed.skippedStatements.size()));
        ps.counters.emplace_back(
            "tiled_live_outs", int64_t(st.composed.tiledLiveOuts));
        ps.counters.emplace_back("spaces",
                                 int64_t(st.composed.spaces.size()));
        ps.counters.emplace_back(
            "dead_code", st.composed.deadCodeEliminated ? 1 : 0);
    });

    runPass("Tile", [&](PassStat &ps) {
        // Composition strategies tile inside Compose (Algorithm 1);
        // the naive strategy never tiles.
        if (usesCompose(opt.strategy) ||
            opt.strategy == Strategy::Naive)
            return;
        unsigned tiled = tileAllBands(st.tree, opt.tileSizes);
        ps.counters.emplace_back("bands_tiled", int64_t(tiled));
    });

    runPass("Promote", [&](PassStat &ps) {
        // Promotion is applied while scanning the tree (Sec. V-B);
        // this pass accounts for what Codegen will promote.
        int64_t extensions =
            countExtensionNodes(st.tree.root());
        ps.counters.emplace_back("extension_nodes", extensions);
        ps.counters.emplace_back(
            "promoted",
            opt.gen.promoteIntermediates ? extensions : 0);
    });

    runPass("Codegen", [&](PassStat &ps) {
        codegen::GenStats gen;
        st.ast = codegen::generateAst(st.tree, opt.gen, st.genBands,
                                      &gen);
        int64_t nodes = 0, loops = 0, stmts = 0, allocs = 0;
        countAstNodes(st.ast, nodes, loops, stmts, allocs);
        ps.counters.emplace_back("ast_nodes", nodes);
        ps.counters.emplace_back("loops", loops);
        ps.counters.emplace_back("stmts", stmts);
        ps.counters.emplace_back("allocs", allocs);
        ps.counters.emplace_back("tile_bands",
                                 int64_t(st.genBands.size()));
        ps.counters.emplace_back("guards_pruned", gen.guardsPruned);
        ps.counters.emplace_back("copyins_elided", gen.copyInsElided);
    });

    runPass("TileGraph", [&](PassStat &ps) {
        std::vector<deps::TileBandDesc> descs;
        descs.reserve(st.genBands.size());
        for (const codegen::GeneratedBand &b : st.genBands) {
            deps::TileBandDesc d;
            d.id = b.id;
            d.tileSizes = b.tileSizes;
            d.coincident = b.coincident;
            for (const codegen::GeneratedBandMember &m : b.members)
                d.members.push_back({m.stmt, m.dims, m.shifts});
            d.extraStmts = b.extraStmts;
            d.localTensors = b.localTensors;
            descs.push_back(std::move(d));
        }
        try {
            st.tileBands = deps::tileGraph(st.graph, descs);
        } catch (const BudgetExceeded &) {
            // Classification is an optimization; degrade every band
            // to the always-safe answer instead of failing the run.
            st.tileBands.clear();
            for (const deps::TileBandDesc &d : descs) {
                deps::TileBandGraph g;
                g.bandId = d.id;
                g.cls = deps::TileBandClass::Serial;
                g.note = "tile-graph budget exceeded";
                st.tileBands.push_back(std::move(g));
            }
        }
        int64_t par = 0, wave = 0, serial = 0;
        for (const deps::TileBandGraph &g : st.tileBands) {
            switch (g.cls) {
              case deps::TileBandClass::FullyParallel: ++par; break;
              case deps::TileBandClass::Wavefront: ++wave; break;
              case deps::TileBandClass::Serial: ++serial; break;
            }
        }
        ps.counters.emplace_back("bands_parallel", par);
        ps.counters.emplace_back("bands_wavefront", wave);
        ps.counters.emplace_back("bands_serial", serial);
    });

    return st;
}

} // namespace driver
} // namespace polyfuse
