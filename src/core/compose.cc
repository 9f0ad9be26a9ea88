#include "core/compose.hh"

#include <algorithm>
#include <set>

#include "core/footprint.hh"
#include "pres/affine.hh"
#include "pres/fm.hh"
#include "support/failpoint.hh"
#include "support/logging.hh"
#include "support/timer.hh"

namespace polyfuse {
namespace core {

using deps::DependenceGraph;
using ir::Program;
using ir::Statement;
using pres::Map;
using pres::Set;
using schedule::NodeKind;
using schedule::NodePtr;
using schedule::ScheduleTree;

namespace {

/** One computation space produced by the start-up heuristic. */
struct SpaceInfo
{
    int id = -1;
    std::vector<int> groups;
    std::vector<int> stmts;
    std::vector<std::string> stmtNames;
    NodePtr filterNode;
    NodePtr outerBand;
    bool liveOut = false;
    unsigned leadingCoincident = 0; ///< n in Algorithm 1
};

/** Per-live-out fusion plan (the Mixed_Schedules of Algorithm 1). */
struct LiveOutPlan
{
    int space = -1;
    bool tiled = false;
    NodePtr tileBandNode; ///< tile band after the split (if tiled)
    std::string tileTuple;
    /** Intermediate spaces fused into this live-out, exec order. */
    std::vector<int> fusedSpaces;
    /** Extension schedule per fused statement (eq. 6). */
    std::map<std::string, Map> ext;
};

unsigned
countLeadingCoincident(const NodePtr &band)
{
    if (!band)
        return 0;
    unsigned n = 0;
    for (bool c : band->coincident) {
        if (!c)
            break;
        ++n;
    }
    return n;
}

/**
 * Estimated recomputation factor of fusing @p s through extension
 * schedule @p h: tiles x per-(middle-)tile box volume / domain box
 * volume, all under the program's parameter values.
 */
double
recomputeFactor(const Program &program, const Statement &s,
                const pres::BasicMap &h)
{
    pres::BasicMap hh = h;
    for (const auto &[name, value] : program.paramValues())
        hh = hh.fixParam(name, value);
    unsigned nt = hh.space().numIn();

    // Tile count and middle tile coordinates.
    pres::BasicSet tiles = hh.domain();
    double tile_count = 1;
    std::vector<int64_t> mid;
    for (unsigned d = 0; d < nt; ++d) {
        int64_t lo, hi;
        if (!tiles.dimBounds(d, {}, lo, hi))
            return 0.0; // no tiles: nothing recomputed
        tile_count *= double(hi - lo + 1);
        mid.push_back((lo + hi) / 2);
    }

    // Per-tile footprint box volume at the middle tile.
    pres::BasicMap fixed = hh;
    for (unsigned d = 0; d < nt; ++d)
        fixed = fixed.fixInDim(d, mid[d]);
    double per_tile = 1;
    for (unsigned j = 0; j < fixed.space().numOut(); ++j) {
        std::vector<pres::DivBound> lowers, uppers;
        if (!fixed.outDimBounds(j, lowers, uppers))
            return 1e30; // unbounded: reject
        int64_t lo = evalBounds(lowers, mid, {}, true);
        int64_t hi = evalBounds(uppers, mid, {}, false);
        per_tile *= double(std::max<int64_t>(hi - lo + 1, 0));
    }

    // Domain box volume.
    pres::BasicSet dom = s.domain();
    for (const auto &[name, value] : program.paramValues())
        dom = dom.fixParam(name, value);
    double dom_vol = 1;
    for (unsigned d = 0; d < s.numDims(); ++d) {
        int64_t lo, hi;
        if (!dom.dimBounds(d, {}, lo, hi))
            return 0.0;
        dom_vol *= double(hi - lo + 1);
    }
    if (dom_vol <= 0)
        return 0.0;
    return tile_count * per_tile / dom_vol;
}

/** The +/-d dilation relation on a statement's instance space,
 *  clipped to its domain on the output side. */
pres::BasicMap
dilationMap(const Statement &s, unsigned d)
{
    pres::Space sp = pres::Space::forMap(
        s.name(), s.numDims(), s.name(), s.numDims(),
        s.domain().space().params());
    pres::BasicMap m(sp);
    for (unsigned k = 0; k < s.numDims(); ++k) {
        pres::LinExpr in = pres::LinExpr::inDim(sp, k);
        pres::LinExpr out = pres::LinExpr::outDim(sp, k);
        m.addConstraint(pres::geCons(out, in - int64_t(d)));
        m.addConstraint(pres::leCons(out, in + int64_t(d)));
    }
    return m.intersectRange(s.domain());
}

/** Space-level dependence: does space src feed space dst? */
bool
spaceFeeds(const DependenceGraph &graph, const SpaceInfo &src,
           const SpaceInfo &dst)
{
    for (int a : src.stmts)
        for (int b : dst.stmts)
            if (!graph.between(a, b).empty())
                return true;
    return false;
}

} // namespace

ComposeResult
compose(const Program &program, const DependenceGraph &graph,
        const ComposeOptions &options)
{
    // Step 0: start-up conservative fusion -> separated spaces.
    auto startup = schedule::applyFusion(program, graph,
                                         options.startup);
    return composeFrom(program, graph, startup, options);
}

ComposeResult
composeFrom(const Program &program, const DependenceGraph &graph,
            const schedule::FusionResult &startup,
            const ComposeOptions &options)
{
    failpoints::hit("core.compose");
    Timer timer;
    ComposeResult result;

    // Surgery below mutates the tree; keep the caller's copy intact.
    ScheduleTree tree = startup.tree.clone();

    // Collect the computation spaces from the top-level sequence.
    NodePtr top_seq = tree.root()->onlyChild();
    if (!top_seq || top_seq->kind != NodeKind::Sequence)
        panic("compose: unexpected tree shape");

    std::vector<SpaceInfo> spaces;
    for (size_t i = 0; i < top_seq->children.size(); ++i) {
        SpaceInfo info;
        info.id = i;
        info.filterNode = top_seq->children[i];
        info.stmtNames = info.filterNode->filter;
        info.groups = startup.clusters[i];
        for (const auto &name : info.stmtNames) {
            int id = program.statementId(name);
            info.stmts.push_back(id);
            const Statement &s = program.statement(id);
            if (s.writeIndex() >= 0 &&
                program.tensorLiveOut(s.writeAccess().tensor))
                info.liveOut = true;
        }
        info.outerBand = ScheduleTree::findBand(info.filterNode);
        info.leadingCoincident =
            countLeadingCoincident(info.outerBand);
        spaces.push_back(std::move(info));
    }

    // Tensors written by intermediate (non-live-out) spaces.
    std::set<int> intermediate_tensors;
    for (const auto &sp : spaces) {
        if (sp.liveOut)
            continue;
        for (int id : sp.stmts) {
            const Statement &s = program.statement(id);
            if (s.writeIndex() >= 0)
                intermediate_tensors.insert(s.writeAccess().tensor);
        }
    }

    // Step 1 (Algorithms 1 + 3 outer loop): per live-out planning.
    std::vector<LiveOutPlan> plans;
    for (auto &lo : spaces) {
        if (!lo.liveOut)
            continue;
        // The planning loop is the composition's dominant cost (one
        // footprint/extension computation per live-out x intermediate
        // pair); re-check the budget per live-out so the run stops
        // between units of work, not only deep inside the FM engine.
        pres::fm::checkBudget(pres::fm::activeCtx(),
                              "core::composeFrom");
        LiveOutPlan plan;
        plan.space = lo.id;
        plan.tileTuple = "T" + std::to_string(lo.id);

        // Tilability bar (Sec. III-C): enough leading parallel dims.
        bool tilable = lo.outerBand && lo.outerBand->permutable &&
                       lo.leadingCoincident >=
                           options.targetParallelism &&
                       !options.tileSizes.empty() &&
                       lo.outerBand->numBandDims() > 0;
        if (tilable) {
            std::vector<int64_t> sizes(lo.outerBand->numBandDims(),
                                       options.tileSizes.back());
            for (size_t k = 0;
                 k < sizes.size() && k < options.tileSizes.size(); ++k)
                sizes[k] = options.tileSizes[k];
            plan.tileBandNode = tree.tileBand(lo.outerBand, sizes);
            plan.tiled = true;
            ++result.tiledLiveOuts;
            if (!options.innerTileSizes.empty()) {
                NodePtr point = plan.tileBandNode->onlyChild();
                std::vector<int64_t> inner(
                    point->numBandDims(),
                    options.innerTileSizes.back());
                for (size_t k = 0; k < inner.size() &&
                                   k < options.innerTileSizes.size();
                     ++k)
                    inner[k] = options.innerTileSizes[k];
                tree.tileBand(point, inner);
            }
        }

        // The m of Algorithm 1: live-out parallel dims, capped by the
        // parallelism the target consumes.
        unsigned m = std::min<unsigned>(lo.leadingCoincident,
                                        options.targetParallelism);

        // Footprint maps per tensor (eq. 4): tile dims -> elements of
        // upwards exposed data.
        std::map<int, Map> footprint;
        auto addReadsOf = [&](const Statement &s, const Map &to_tile) {
            // to_tile : T -> S instances; extend footprints with the
            // data s reads.
            for (int r : s.readIndices()) {
                const ir::Access &acc = s.accesses()[r];
                if (!intermediate_tensors.count(acc.tensor))
                    continue;
                Map piece = to_tile.compose(
                    Map(acc.rel.intersectDomain(s.domain())));
                footprint[acc.tensor] =
                    footprint[acc.tensor].unite(piece);
            }
        };
        for (const auto &name : lo.stmtNames) {
            const Statement &s =
                program.statement(program.statementId(name));
            pres::BasicMap tm =
                tileMapFor(program,
                           plan.tiled ? plan.tileBandNode : nullptr,
                           name, plan.tileTuple);
            addReadsOf(s, Map(tm.reverse()));
        }

        // Worklist over intermediate spaces in reverse execution
        // order (consumers before producers).
        for (int i = int(spaces.size()) - 1; i >= 0; --i) {
            SpaceInfo &ic = spaces[i];
            if (ic.liveOut || ic.id >= lo.id)
                continue;
            pres::fm::checkBudget(pres::fm::activeCtx(),
                                  "core::composeFrom");
            // The m > n guard of Algorithm 1 (Sec. III-C).
            if (m > ic.leadingCoincident)
                continue;
            // Candidate extension schedules for the whole space;
            // commit only if every statement passes the
            // no-redundancy guard (a partially fused space would be
            // incorrect once its original is skipped). Footprints
            // are propagated within the space through a trial copy
            // so an accepted statement's reads reach its in-space
            // producers (e.g. a reduction's initializer).
            std::map<int, Map> trial = footprint;
            std::vector<std::pair<int, Map>> candidates;
            bool any = false;
            bool acceptable = true;
            auto addTrialReadsOf = [&](const Statement &s,
                                       const Map &to_tile) {
                for (int ri : s.readIndices()) {
                    const ir::Access &acc = s.accesses()[ri];
                    if (!intermediate_tensors.count(acc.tensor))
                        continue;
                    Map piece = to_tile.compose(Map(
                        acc.rel.intersectDomain(s.domain())));
                    trial[acc.tensor] =
                        trial[acc.tensor].unite(piece);
                }
            };
            for (int k = int(ic.stmts.size()) - 1; k >= 0; --k) {
                const Statement &s = program.statement(ic.stmts[k]);
                if (s.writeIndex() < 0)
                    continue;
                const ir::Access &w = s.writeAccess();
                auto it = trial.find(w.tensor);
                if (it == trial.end())
                    continue;
                // Eq. 6: tile dims -> producer instances.
                Map h = it->second.compose(Map(
                    w.rel.intersectDomain(s.domain()).reverse()));
                if (h.isEmpty())
                    continue;
                if (options.footprintDilation > 0)
                    h = h.compose(Map(dilationMap(
                        s, options.footprintDilation)));
                // The code generator needs one convex piece per
                // statement; the simple hull over-approximates the
                // union of per-access pieces, which is safe: extra
                // producer instances recompute identical values
                // inside the tile-local buffer.
                if (h.pieces().size() > 1)
                    h = Map(h.simpleHull());
                if (recomputeFactor(program, s, h.pieces()[0]) >
                    options.maxRecompute) {
                    acceptable = false;
                    break;
                }
                addTrialReadsOf(s, h);
                candidates.emplace_back(ic.stmts[k], std::move(h));
                any = true;
            }
            if (!any || !acceptable)
                continue;
            footprint = std::move(trial);
            for (auto &[sid, h] : candidates)
                plan.ext[program.statement(sid).name()] = h;
            plan.fusedSpaces.insert(plan.fusedSpaces.begin(), ic.id);
        }
        plans.push_back(std::move(plan));
    }

    // Step 2 (Algorithm 3): reject fusions that would introduce
    // redundant computation. An intermediate space stays fused only
    // if (a) every space consuming its output is itself fused (or is
    // the live-out) inside every plan that needs it, and (b) when it
    // is shared by several live-outs, the per-use instance sets do
    // not intersect (Fig. 6).
    auto planOf = [&](int space_id) -> LiveOutPlan * {
        for (auto &p : plans)
            if (p.space == space_id)
                return &p;
        return nullptr;
    };
    auto isFusedIn = [&](const LiveOutPlan &p, int space_id) {
        return std::find(p.fusedSpaces.begin(), p.fusedSpaces.end(),
                         space_id) != p.fusedSpaces.end();
    };
    auto unfuse = [&](int space_id) {
        for (auto &p : plans) {
            auto it = std::find(p.fusedSpaces.begin(),
                                p.fusedSpaces.end(), space_id);
            if (it == p.fusedSpaces.end())
                continue;
            p.fusedSpaces.erase(it);
            for (const auto &name : spaces[space_id].stmtNames)
                p.ext.erase(name);
        }
    };

    bool changed = true;
    while (changed) {
        changed = false;
        for (const auto &ic : spaces) {
            if (ic.liveOut)
                continue;
            bool fused_somewhere = false;
            for (const auto &p : plans)
                fused_somewhere |= isFusedIn(p, ic.id);
            if (!fused_somewhere)
                continue;

            bool ok = true;
            // (a) every consumer covered.
            for (const auto &consumer : spaces) {
                if (consumer.id == ic.id)
                    continue;
                if (!spaceFeeds(graph, ic, consumer))
                    continue;
                if (consumer.liveOut) {
                    LiveOutPlan *p = planOf(consumer.id);
                    if (!p || !isFusedIn(*p, ic.id))
                        ok = false;
                } else {
                    // Intermediate consumer: wherever it is fused,
                    // this producer must be fused too; and it must be
                    // fused somewhere (otherwise the original runs
                    // and needs the original producer).
                    bool consumer_fused = false;
                    for (const auto &p : plans) {
                        if (!isFusedIn(p, consumer.id))
                            continue;
                        consumer_fused = true;
                        if (!isFusedIn(p, ic.id))
                            ok = false;
                    }
                    if (!consumer_fused)
                        ok = false;
                }
            }
            // (b) shared uses must be disjoint.
            if (ok) {
                std::vector<const LiveOutPlan *> uses;
                for (const auto &p : plans)
                    if (isFusedIn(p, ic.id))
                        uses.push_back(&p);
                for (size_t a = 0; a + 1 < uses.size() && ok; ++a) {
                    for (size_t b = a + 1; b < uses.size() && ok;
                         ++b) {
                        for (const auto &name : ic.stmtNames) {
                            auto ia = uses[a]->ext.find(name);
                            auto ib = uses[b]->ext.find(name);
                            if (ia == uses[a]->ext.end() ||
                                ib == uses[b]->ext.end())
                                continue;
                            // An over-approximated range (counted
                            // as pres `inexact`) can only report an
                            // overlap that is not there: unfusing
                            // fails safe.
                            Set ra = ia->second.range();
                            Set rb = ib->second.range();
                            if (!ra.intersect(rb).isEmpty())
                                ok = false;
                        }
                    }
                }
            }
            if (!ok) {
                unfuse(ic.id);
                changed = true;
            }
        }
    }

    // Algorithm 1, line 17/18: intermediate spaces that were not
    // fused anywhere become their own computation spaces and get
    // plain rectangular tiling (when tilable).
    {
        std::set<int> fused_spaces;
        for (const auto &p : plans)
            for (int sid : p.fusedSpaces)
                fused_spaces.insert(sid);
        for (auto &ic : spaces) {
            if (ic.liveOut || fused_spaces.count(ic.id))
                continue;
            bool tilable = ic.outerBand && ic.outerBand->permutable &&
                           ic.leadingCoincident >=
                               options.targetParallelism &&
                           !options.tileSizes.empty() &&
                           ic.outerBand->numBandDims() > 0 &&
                           ic.outerBand->tileSizes.empty();
            if (!tilable)
                continue;
            std::vector<int64_t> sizes(ic.outerBand->numBandDims(),
                                       options.tileSizes.back());
            for (size_t k = 0;
                 k < sizes.size() && k < options.tileSizes.size();
                 ++k)
                sizes[k] = options.tileSizes[k];
            tree.tileBand(ic.outerBand, sizes);
        }
    }

    // Step 3 (Algorithm 2): schedule tree surgery per plan.
    for (auto &plan : plans) {
        if (plan.fusedSpaces.empty())
            continue;
        SpaceInfo &lo = spaces[plan.space];

        // Union extension schedule for the node.
        Map ext_union;
        for (const auto &[name, m] : plan.ext)
            ext_union = ext_union.unite(m);

        std::vector<NodePtr> seq_children;
        for (int sid : plan.fusedSpaces) {
            const SpaceInfo &ic = spaces[sid];
            // Clone the original space's content so the "skipped"
            // mark on the original does not affect this copy.
            NodePtr copy = ScheduleTree(program,
                                        ic.filterNode->onlyChild())
                               .clone()
                               .root();
            seq_children.push_back(
                schedule::makeFilter(ic.stmtNames, copy));
        }

        if (plan.tiled) {
            NodePtr point_subtree = plan.tileBandNode->onlyChild();
            seq_children.push_back(
                schedule::makeFilter(lo.stmtNames, point_subtree));
            plan.tileBandNode->children = {schedule::makeExtension(
                ext_union,
                schedule::makeSequence(std::move(seq_children)))};
        } else {
            NodePtr original = lo.filterNode->onlyChild();
            seq_children.push_back(
                schedule::makeFilter(lo.stmtNames, original));
            lo.filterNode->children = {schedule::makeExtension(
                ext_union,
                schedule::makeSequence(std::move(seq_children)))};
        }

        for (const auto &[name, m] : plan.ext) {
            result.fusedIntermediates.push_back(name);
            result.extensionSchedules[name] =
                result.extensionSchedules[name].unite(m);
        }
    }

    // Mark fused originals "skipped" and detect dead stores.
    for (const auto &ic : spaces) {
        if (ic.liveOut)
            continue;
        bool fused_somewhere = false;
        for (const auto &p : plans)
            fused_somewhere |= isFusedIn(p, ic.id);
        if (!fused_somewhere)
            continue;
        ic.filterNode->children = {schedule::makeMark(
            "skipped", ic.filterNode->onlyChild())};
        for (const auto &name : ic.stmtNames) {
            result.skippedStatements.push_back(name);
            auto it = result.extensionSchedules.find(name);
            if (it == result.extensionSchedules.end())
                continue;
            const Statement &s =
                program.statement(program.statementId(name));
            // Compare under the concrete parameter values: that is
            // what decides whether the generated code computes fewer
            // instances than the original loop nest. An over-
            // approximated range (pres `inexact`) can hide an
            // uncovered point, so dead_code is a lower bound.
            Set covered = it->second.range();
            Set dom = Set(s.domain());
            for (const auto &[pname, pvalue] : program.paramValues()) {
                covered = covered.fixParam(pname, pvalue);
                dom = dom.fixParam(pname, pvalue);
            }
            if (!dom.subtract(covered).isEmpty())
                result.deadCodeEliminated = true;
        }
    }

    // Final computation spaces for reporting.
    std::set<int> consumed;
    for (const auto &p : plans)
        for (int sid : p.fusedSpaces)
            consumed.insert(sid);
    for (const auto &sp : spaces) {
        if (consumed.count(sp.id))
            continue;
        std::vector<int> groups = sp.groups;
        if (sp.liveOut) {
            if (const LiveOutPlan *p = planOf(sp.id)) {
                for (int sid : p->fusedSpaces)
                    for (int g : spaces[sid].groups)
                        groups.insert(groups.begin(), g);
            }
        }
        std::sort(groups.begin(), groups.end());
        result.spaces.push_back(std::move(groups));
    }

    result.tree = tree;
    result.compileMs = timer.milliseconds();
    return result;
}

} // namespace core
} // namespace polyfuse
