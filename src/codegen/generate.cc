#include "codegen/generate.hh"

#include <algorithm>
#include <map>
#include <set>

#include "pres/fm.hh"
#include "support/failpoint.hh"
#include "support/intmath.hh"
#include "support/logging.hh"

namespace polyfuse {
namespace codegen {

using ir::Program;
using ir::Statement;
using pres::Constraint;
using schedule::Node;
using schedule::NodeKind;
using schedule::NodePtr;

namespace {

/**
 * Scanning context of one active statement: constraint rows over the
 * columns [loop vars | own domain dims | params | 1], plus the
 * binding of already-scanned dims to loop vars.
 */
struct StmtCtx
{
    int stmt = -1;
    unsigned ndims = 0;
    std::vector<Constraint> rows;
    std::vector<int> binding;      ///< var id per dim, -1 if unbound
    std::vector<int64_t> offset;   ///< dim = var + offset
};

/** Whole-scan context; copied down tree branches. */
struct GenCtx
{
    const Program *prog = nullptr;
    /** The pres context FM work is charged to; GenCtx is copied down
     *  tree branches, so the handle (not the state) is the member. */
    pres::fm::PresCtx *pres = nullptr;
    unsigned numVars = 0;
    std::vector<std::string> varNames;
    std::vector<StmtCtx> active;
    std::vector<int> bandVars; ///< loop var per enclosing band dim
    /** Shared tile-band side table (nullable); bands append in visit
     *  order, so an entry's index is its id. Shared across the copied
     *  contexts of sibling branches on purpose. */
    std::vector<GeneratedBand> *bands = nullptr;
    /** Rows `coeffs . (vars, params) + constant >= 0` that the
     *  enclosing loops' bounds guarantee on every iteration, in
     *  normalized form (see addLoopFacts). */
    std::vector<GuardRow> facts;
    /** Simplification tallies of the whole scan (never null). */
    GenStats *stats = nullptr;
    /** Tensors the enclosing extensions promote to scratchpads. */
    std::set<int> promoting;
    /** (Stmt node, read access index) pairs of reads of a promoted
     *  tensor proven to see only values written earlier in the same
     *  scope (see coverSequenceReads). Shared across the copies. */
    std::set<std::pair<const AstNode *, int>> *coveredReads = nullptr;
    /** Statements an extension node re-scoped after they were already
     *  active: their rows above that node over-approximate what they
     *  execute, so they never serve as a covering writer. Shared. */
    std::set<int> *extended = nullptr;
};

unsigned
numParams(const GenCtx &ctx)
{
    return ctx.prog->params().size();
}

/** Make a fresh StmtCtx from a statement's domain constraints. */
StmtCtx
freshStmtCtx(const GenCtx &ctx, int stmt_id)
{
    const Statement &s = ctx.prog->statement(stmt_id);
    StmtCtx sc;
    sc.stmt = stmt_id;
    sc.ndims = s.numDims();
    sc.binding.assign(sc.ndims, -1);
    sc.offset.assign(sc.ndims, 0);

    // Domain constraints: [dims, params, 1] -> widen with var cols.
    // The domain's params may be a subset of the program's; remap.
    const pres::Space &dsp = s.domain().space();
    unsigned np = numParams(ctx);
    for (const auto &c : s.domain().constraints()) {
        Constraint row(c.isEq,
                       pres::CoeffRow(
                           ctx.numVars + sc.ndims + np + 1, 0));
        for (unsigned d = 0; d < sc.ndims; ++d)
            row.coeffs[ctx.numVars + d] = c.coeffs[d];
        for (unsigned p = 0; p < dsp.numParams(); ++p) {
            int idx = -1;
            for (unsigned q = 0; q < np; ++q)
                if (ctx.prog->params()[q] == dsp.params()[p])
                    idx = q;
            if (idx < 0)
                panic("domain parameter not in program");
            row.coeffs[ctx.numVars + sc.ndims + idx] =
                c.coeffs[sc.ndims + p];
        }
        row.coeffs.back() = c.constant();
        sc.rows.push_back(std::move(row));
    }
    return sc;
}

/** Append a new loop-variable column to every active context. */
int
newVar(GenCtx &ctx, const std::string &name)
{
    int v = ctx.numVars;
    for (auto &sc : ctx.active)
        for (auto &row : sc.rows)
            row.coeffs.insert(row.coeffs.begin() + v, 0);
    ++ctx.numVars;
    ctx.varNames.push_back(name);
    return v;
}

/** Outcome of a bound extraction. */
enum class BoundStatus
{
    Ok,
    Empty,     ///< the member is infeasible here; contributes nothing
    Unbounded, ///< missing constraint: a code generation bug
};

/**
 * Extract the bounds of variable @p var from @p sc by eliminating
 * the statement's dims and splitting rows on the sign of the var
 * coefficient.
 */
BoundStatus
boundsOf(const GenCtx &ctx, const StmtCtx &sc, int var, BoundAlt &lo,
         BoundAlt &hi)
{
    std::vector<Constraint> rows = sc.rows;
    bool exact = true;
    // Eliminate the dim columns (highest first).
    for (unsigned d = sc.ndims; d-- > 0;) {
        if (!pres::fm::eliminateCol(*ctx.pres, rows,
                                    ctx.numVars + d, exact))
            return BoundStatus::Empty;
    }
    unsigned np = numParams(ctx);
    lo.clear();
    hi.clear();
    for (const auto &row : rows) {
        int64_t a = row.coeffs[var];
        if (a == 0)
            continue;
        auto term = [&](int64_t sign, int64_t div) {
            BoundTerm t;
            t.varCoeffs.assign(ctx.numVars, 0);
            for (unsigned v = 0; v < ctx.numVars; ++v)
                if (int(v) != var)
                    t.varCoeffs[v] = sign * row.coeffs[v];
            t.paramCoeffs.assign(np, 0);
            for (unsigned p = 0; p < np; ++p)
                t.paramCoeffs[p] = sign * row.coeffs[ctx.numVars + p];
            t.constant = sign * row.coeffs.back();
            t.div = div;
            return t;
        };
        if (row.isEq) {
            // a*v + e == 0 -> v == -e/a.
            int64_t div = a > 0 ? a : -a;
            int64_t sign = a > 0 ? -1 : 1;
            lo.push_back(term(sign, div));
            hi.push_back(term(sign, div));
        } else if (a > 0) {
            // a*v + e >= 0 -> v >= ceil(-e/a).
            lo.push_back(term(-1, a));
        } else {
            // -b*v + e >= 0 -> v <= floor(e/b).
            hi.push_back(term(1, -a));
        }
    }
    if (lo.empty() || hi.empty())
        return BoundStatus::Unbounded;
    return BoundStatus::Ok;
}

/** True when @p a and @p b differ at most in their constant. */
bool
twins(const BoundTerm &a, const BoundTerm &b)
{
    return a.div == b.div && a.varCoeffs == b.varCoeffs &&
           a.paramCoeffs == b.paramCoeffs;
}

/** True when term @p a is never looser than its twin @p b: a larger
 *  constant for a lower bound (a ceiling-divided max term), a smaller
 *  one for an upper bound (a floor-divided min term). */
bool
tighter(const BoundTerm &a, const BoundTerm &b, bool is_lower)
{
    return is_lower ? a.constant >= b.constant : a.constant <= b.constant;
}

/**
 * Keep the tightest of each alternative's twin terms, then drop every
 * alternative another one dominates (of mutual dominators, the first
 * stays). An upper bound is the max over alternatives of the min over
 * terms: when every term of alternative A has a twin in B that is no
 * looser, B <= A everywhere and B never wins the max. A lower bound
 * is the mirror image. Term rounding is monotone in the constant, so
 * the bound's value is unchanged.
 */
void
dedupBound(std::vector<BoundAlt> &alts, bool is_lower)
{
    for (BoundAlt &alt : alts) {
        BoundAlt kept;
        for (BoundTerm &t : alt) {
            auto twin = std::find_if(
                kept.begin(), kept.end(),
                [&](const BoundTerm &k) { return twins(k, t); });
            if (twin == kept.end())
                kept.push_back(std::move(t));
            else if (tighter(t, *twin, is_lower))
                *twin = std::move(t);
        }
        alt = std::move(kept);
    }
    // Every term of a has a twin in b that is no looser.
    auto dominated = [is_lower](const BoundAlt &a, const BoundAlt &b) {
        for (const BoundTerm &t : a)
            if (std::none_of(b.begin(), b.end(),
                             [&](const BoundTerm &u) {
                                 return twins(t, u) &&
                                        tighter(u, t, is_lower);
                             }))
                return false;
        return true;
    };
    std::vector<BoundAlt> kept;
    for (size_t i = 0; i < alts.size(); ++i) {
        bool redundant = false;
        for (size_t j = 0; j < alts.size() && !redundant; ++j)
            redundant = j != i && dominated(alts[j], alts[i]) &&
                        (j < i || !dominated(alts[i], alts[j]));
        if (!redundant)
            kept.push_back(alts[i]);
    }
    alts = std::move(kept);
}

/** Divide @p g's variable and parameter coefficients by their GCD,
 *  flooring the constant (exact on integer points); false when the
 *  row has no variable or parameter left. */
bool
normalizeGuard(GuardRow &g)
{
    int64_t d = 0;
    for (int64_t c : g.varCoeffs)
        d = gcd(d, c);
    for (int64_t c : g.paramCoeffs)
        d = gcd(d, c);
    if (d == 0)
        return false;
    for (int64_t &c : g.varCoeffs)
        c /= d;
    for (int64_t &c : g.paramCoeffs)
        c /= d;
    g.constant = floorDiv(g.constant, d);
    return true;
}

/**
 * The fact bound term @p t of loop var @p var guarantees: a lower term
 * gives `div * var - t >= 0`, an upper term `t - div * var >= 0`.
 */
GuardRow
loopFact(const BoundTerm &t, int var, bool is_lower)
{
    int64_t sign = is_lower ? -1 : 1;
    GuardRow f;
    f.varCoeffs = t.varCoeffs;
    f.paramCoeffs = t.paramCoeffs;
    f.constant = sign * t.constant;
    for (int64_t &c : f.varCoeffs)
        c *= sign;
    for (int64_t &c : f.paramCoeffs)
        c *= sign;
    f.varCoeffs[var] -= sign * t.div;
    return f;
}

/**
 * Record on @p ctx the facts of @p loop: every term that appears in
 * all alternatives of a bound holds on every iteration, because the
 * loop bound is the min (lower) or max (upper) over alternatives.
 */
void
addLoopFacts(GenCtx &ctx, const AstNode &loop)
{
    for (bool is_lower : {true, false}) {
        const std::vector<BoundAlt> &alts = is_lower ? loop.lb : loop.ub;
        for (const BoundTerm &t : alts.front()) {
            bool everywhere = std::all_of(
                alts.begin() + 1, alts.end(), [&](const BoundAlt &a) {
                    return std::find(a.begin(), a.end(), t) != a.end();
                });
            GuardRow f = loopFact(t, loop.var, is_lower);
            if (everywhere && normalizeGuard(f))
                ctx.facts.push_back(std::move(f));
        }
    }
}

/** True when some fact has @p g's normalized coefficients and a
 *  constant no larger than its own, so `g >= 0` always holds. */
bool
impliedByFacts(const std::vector<GuardRow> &facts, GuardRow g)
{
    if (g.isEq || !normalizeGuard(g))
        return false;
    for (const GuardRow &f : facts) {
        // Facts predate inner loops: missing trailing vars are zero.
        bool same = f.paramCoeffs == g.paramCoeffs &&
                    f.constant <= g.constant;
        for (size_t v = 0; same && v < g.varCoeffs.size(); ++v)
            same = g.varCoeffs[v] ==
                   (v < f.varCoeffs.size() ? f.varCoeffs[v] : 0);
        if (same)
            return true;
    }
    return false;
}

AstPtr genNode(const NodePtr &node, GenCtx ctx,
               const GenOptions &options);

/** Collect, over a tile band's body subtree, the statements that are
 *  not band members (extension-fused producers) and the tensors
 *  promoted to tile-local scratchpads. */
void
scanTileBody(const AstPtr &n, const std::set<int> &members,
             std::set<int> &extras, std::set<int> &locals)
{
    if (!n)
        return;
    if (n->kind == AstKind::Stmt) {
        if (!members.count(n->stmt))
            extras.insert(n->stmt);
        return;
    }
    if (n->kind == AstKind::Alloc)
        for (const auto &p : n->promotions)
            locals.insert(p.tensor);
    for (const auto &c : n->children)
        scanTileBody(c, members, extras, locals);
}

/** Generate the loops of a band node and recurse into its child. */
AstPtr
genBand(const NodePtr &band, GenCtx ctx, const GenOptions &options)
{
    bool tiled = !band->tileSizes.empty();
    unsigned depth = band->numBandDims();

    // Every active statement must be a member of the band.
    for (const auto &sc : ctx.active) {
        const std::string &name = ctx.prog->statement(sc.stmt).name();
        if (!band->members.count(name))
            panic("active statement " + name + " not a band member");
    }

    // Register tiled bands in the side table up front so nested bands
    // visited while generating the body get later ids.
    std::vector<GeneratedBand> *bands = ctx.bands;
    int band_id = -1;
    size_t band_idx = 0;
    if (tiled && depth > 0 && bands) {
        band_idx = bands->size();
        band_id = int(band_idx);
        GeneratedBand gb;
        gb.id = band_id;
        gb.permutable = band->permutable;
        gb.tileSizes = band->tileSizes;
        gb.coincident.assign(depth, false);
        for (unsigned k = 0;
             k < depth && k < band->coincident.size(); ++k)
            gb.coincident[k] = band->coincident[k];
        for (const auto &sc : ctx.active) {
            const std::string &name =
                ctx.prog->statement(sc.stmt).name();
            const schedule::BandMember &m = band->members.at(name);
            GeneratedBandMember gm;
            gm.stmt = sc.stmt;
            gm.dims = m.dims;
            gm.shifts = m.shifts;
            gb.members.push_back(std::move(gm));
        }
        bands->push_back(std::move(gb));
    }

    AstPtr outer;
    AstNode *attach = nullptr;
    for (unsigned k = 0; k < depth; ++k) {
        std::string vname =
            (tiled ? "t" : "c") + std::to_string(ctx.numVars);
        int v = newVar(ctx, vname);
        ctx.bandVars.push_back(v);

        for (auto &sc : ctx.active) {
            const std::string &name =
                ctx.prog->statement(sc.stmt).name();
            const schedule::BandMember &m = band->members.at(name);
            unsigned dim = m.dims[k];
            int64_t shift = m.shifts[k];
            unsigned dim_col = ctx.numVars + dim;
            unsigned ncols = sc.rows.empty()
                                 ? ctx.numVars + sc.ndims +
                                       numParams(ctx) + 1
                                 : sc.rows[0].coeffs.size();
            if (tiled) {
                int64_t size = band->tileSizes[k];
                // size*v <= dim + shift <= size*v + size - 1.
                Constraint lo(false, pres::CoeffRow(ncols, 0));
                lo.coeffs[dim_col] = 1;
                lo.coeffs[v] = -size;
                lo.coeffs.back() = shift;
                Constraint hi(false, pres::CoeffRow(ncols, 0));
                hi.coeffs[dim_col] = -1;
                hi.coeffs[v] = size;
                hi.coeffs.back() = size - 1 - shift;
                sc.rows.push_back(std::move(lo));
                sc.rows.push_back(std::move(hi));
            } else {
                // v == dim + shift.
                Constraint eq(true, pres::CoeffRow(ncols, 0));
                eq.coeffs[v] = 1;
                eq.coeffs[dim_col] = -1;
                eq.coeffs.back() = -shift;
                sc.rows.push_back(std::move(eq));
                sc.binding[dim] = v;
                sc.offset[dim] = -shift;
            }
        }

        AstPtr loop = astFor(v, vname);
        loop->parallel = k < band->coincident.size() &&
                         band->coincident[k];
        loop->tileLoop = tiled;
        loop->tileSize = tiled ? band->tileSizes[k] : 0;
        loop->permutable = band->permutable;
        loop->bandId = band_id;
        loop->bandLevel = band_id >= 0 ? int(k) : -1;
        if (band_id >= 0)
            (*bands)[band_idx].vars.push_back(v);
        for (const auto &sc : ctx.active) {
            BoundAlt lo, hi;
            BoundStatus st = boundsOf(ctx, sc, v, lo, hi);
            if (st == BoundStatus::Empty)
                continue;
            if (st == BoundStatus::Unbounded)
                panic("unbounded loop in code generation");
            loop->lb.push_back(std::move(lo));
            loop->ub.push_back(std::move(hi));
        }
        if (loop->lb.empty()) {
            // Nothing executes here: the loops built so far are
            // discarded, so drop the (still-last) side-table entry.
            if (band_id >= 0)
                bands->pop_back();
            return astBlock();
        }
        dedupBound(loop->lb, true);
        dedupBound(loop->ub, false);
        addLoopFacts(ctx, *loop);

        if (!outer) {
            outer = loop;
        } else {
            attach->children.push_back(loop);
        }
        attach = loop.get();
    }

    AstPtr body = genNode(band->onlyChild(), std::move(ctx), options);
    if (band_id >= 0) {
        GeneratedBand &gb = (*bands)[band_idx];
        std::set<int> member_stmts, extras, locals;
        for (const auto &m : gb.members)
            member_stmts.insert(m.stmt);
        scanTileBody(body, member_stmts, extras, locals);
        gb.extraStmts.assign(extras.begin(), extras.end());
        gb.localTensors.assign(locals.begin(), locals.end());
    }
    if (!attach)
        return body; // zero-dimensional band
    attach->children.push_back(body);
    return outer;
}

/** The scanning context of active statement @p stmt (null when the
 *  statement is not active here). */
const StmtCtx *
activeCtx(const GenCtx &ctx, int stmt)
{
    for (const auto &c : ctx.active)
        if (c.stmt == stmt)
            return &c;
    return nullptr;
}

/**
 * @p sc's instances joined with access @p acc to a rank-@p rank
 * tensor: rows over [vars | dims | tensor dims | params | 1], or over
 * [vars | dims | tensor dims | 1] with @p fix_params, which folds the
 * program's parameter values into the constants.
 */
std::vector<Constraint>
accessSystem(const GenCtx &ctx, const StmtCtx &sc, const ir::Access &acc,
             unsigned rank, bool fix_params = false)
{
    const auto &params = ctx.prog->params();
    unsigned np = numParams(ctx);
    unsigned nd = sc.ndims;
    unsigned pcol = ctx.numVars + nd + rank;
    unsigned total = pcol + (fix_params ? 0 : np) + 1;
    // Adds parameter q's coefficient @p c to @p row.
    auto param = [&](Constraint &row, unsigned q, int64_t c) {
        if (!fix_params)
            row.coeffs[pcol + q] = c;
        else if (c != 0)
            row.coeffs.back() = checkedAdd(
                row.coeffs.back(),
                checkedMul(c, ctx.prog->paramValue(params[q])));
    };
    std::vector<Constraint> rows;
    for (const auto &r : sc.rows) {
        Constraint row(r.isEq, pres::CoeffRow(total, 0));
        for (unsigned i = 0; i < ctx.numVars + nd; ++i)
            row.coeffs[i] = r.coeffs[i];
        row.coeffs.back() = r.coeffs.back();
        for (unsigned q = 0; q < np; ++q)
            param(row, q, r.coeffs[ctx.numVars + nd + q]);
        rows.push_back(std::move(row));
    }
    const pres::Space &asp = acc.rel.space();
    for (const auto &c : acc.rel.constraints()) {
        Constraint row(c.isEq, pres::CoeffRow(total, 0));
        for (unsigned i = 0; i < nd; ++i)
            row.coeffs[ctx.numVars + i] = c.coeffs[asp.inCol(i)];
        for (unsigned j = 0; j < rank; ++j)
            row.coeffs[ctx.numVars + nd + j] = c.coeffs[asp.outCol(j)];
        row.coeffs.back() = c.constant();
        for (unsigned p = 0; p < asp.numParams(); ++p) {
            int idx = -1;
            for (unsigned q = 0; q < np; ++q)
                if (params[q] == asp.params()[p])
                    idx = q;
            if (idx < 0)
                panic("access parameter not in program");
            param(row, unsigned(idx), c.coeffs[asp.paramCol(p)]);
        }
        rows.push_back(std::move(row));
    }
    return rows;
}

/** False only when FM proves @p rows have no integer point. */
bool
feasible(const GenCtx &ctx, std::vector<Constraint> rows)
{
    bool exact = true;
    if (rows.empty())
        return true;
    for (unsigned c = rows[0].coeffs.size() - 1; c-- > 0;)
        if (!pres::fm::eliminateCol(*ctx.pres, rows, c, exact))
            return false;
    return true;
}

/** Append the Stmt nodes under @p n to @p out in execution order. */
void
collectStmts(const AstPtr &n, std::vector<const AstNode *> &out)
{
    if (!n)
        return;
    if (n->kind == AstKind::Stmt)
        out.push_back(n.get());
    for (const auto &c : n->children)
        collectStmts(c, out);
}

/** True when @p e loads tensor @p t through a LoadIdx. */
bool
loadsIndirect(const ir::ExprPtr &e, int t)
{
    if (!e)
        return false;
    if (e->kind == ir::Expr::Kind::LoadIdx && e->tensor == t)
        return true;
    for (const auto &a : e->args)
        if (loadsIndirect(a, t))
            return true;
    return false;
}

/**
 * The elements access @p acc of @p sc touches, as rows over
 * [vars | tensor dims | 1] with the parameters fixed to the program's
 * values. @p exact is cleared when projecting out the statement's
 * dims may over-approximate; false when no instance performs it.
 */
bool
footprint(const GenCtx &ctx, const StmtCtx &sc, const ir::Access &acc,
          std::vector<Constraint> &rows, bool &exact)
{
    rows = accessSystem(ctx, sc, acc, ctx.prog->tensor(acc.tensor).rank,
                        true);
    for (unsigned d = sc.ndims; d-- > 0;)
        if (!pres::fm::eliminateCol(*ctx.pres, rows, ctx.numVars + d,
                                    exact))
            return false;
    return true;
}

/** The exact footprint of @p pc's write when it writes tensor @p t
 *  through an affine access; empty when there is none or the
 *  projection may over-approximate. */
std::vector<Constraint>
writeFootprint(const GenCtx &ctx, const StmtCtx &pc, int t)
{
    const Statement &p = ctx.prog->statement(pc.stmt);
    std::vector<Constraint> rows;
    bool exact = true;
    if (p.writeIndex() < 0 || p.writeAccess().tensor != t ||
        !p.writeAccess().hasExprs ||
        !footprint(ctx, pc, p.writeAccess(), rows, exact) || !exact)
        return {};
    return rows;
}

/** True when some row of @p rows states @p w outright: the same
 *  coefficients (either sign for an equality row) and a constant
 *  that makes @p w follow. */
bool
rowStated(const std::vector<Constraint> &rows, const Constraint &w)
{
    const size_t n = w.coeffs.size() - 1;
    for (const Constraint &r : rows) {
        for (int64_t sign : {int64_t(1), int64_t(-1)}) {
            if (sign < 0 && !r.isEq)
                continue;
            bool same = true;
            for (size_t i = 0; same && i < n; ++i)
                same = sign * r.coeffs[i] == w.coeffs[i];
            int64_t c = sign * r.coeffs[n];
            if (same && (w.isEq ? r.isEq && c == w.coeffs[n]
                                : c <= w.coeffs[n]))
                return true;
        }
    }
    return false;
}

/**
 * True when footprint @p read lies inside footprint @p written (both
 * over [vars | tensor dims | 1]): `read ∧ ¬w` is infeasible for every
 * row w of @p written, with the loop vars free. Rows @p read states
 * outright skip the FM run.
 */
bool
footprintCovers(const GenCtx &ctx, const std::vector<Constraint> &written,
                const std::vector<Constraint> &read)
{
    if (written.empty())
        return false;
    for (const Constraint &w : written) {
        if (rowStated(read, w))
            continue;
        // ¬(w >= 0) is -w - 1 >= 0; an equality fails either way.
        for (int64_t side : {int64_t(-1), int64_t(1)}) {
            if (side > 0 && !w.isEq)
                continue;
            Constraint neg(false, w.coeffs);
            for (int64_t &c : neg.coeffs)
                c *= side;
            neg.coeffs.back() -= 1;
            std::vector<Constraint> rows = read;
            rows.push_back(std::move(neg));
            if (feasible(ctx, std::move(rows)))
                return false;
        }
    }
    return true;
}

/**
 * Record in ctx.coveredReads the reads of promoted tensors under
 * @p block (a sequence, or a leaf's statement list) that see only
 * values written earlier in the same scope. A read by S in child j
 * qualifies when the write footprint of some statement P != S in an
 * earlier child contains S's read footprint, both taken per
 * iteration of the loops enclosing @p block: P's child completes
 * before S's starts, so every element S reads was written first.
 */
void
coverSequenceReads(const GenCtx &ctx, const AstNode &block)
{
    std::vector<const StmtCtx *> before; // writers of earlier children
    std::map<std::pair<int, int>, std::vector<Constraint>> written;
    for (const AstPtr &child : block.children) {
        std::vector<const AstNode *> stmts;
        collectStmts(child, stmts);
        for (const AstNode *n : stmts) {
            const StmtCtx *sc = activeCtx(ctx, n->stmt);
            if (!sc)
                continue; // introduced below: checked there
            const Statement &s = ctx.prog->statement(n->stmt);
            for (int ri : s.readIndices()) {
                const ir::Access &acc = s.accesses()[ri];
                if (!ctx.promoting.count(acc.tensor) || !acc.hasExprs ||
                    ctx.coveredReads->count({n, ri}))
                    continue;
                std::vector<const std::vector<Constraint> *> writers;
                for (const StmtCtx *pc : before) {
                    auto [it, fresh] =
                        written.try_emplace({pc->stmt, acc.tensor});
                    if (fresh)
                        it->second = writeFootprint(ctx, *pc, acc.tensor);
                    if (pc->stmt != sc->stmt && !it->second.empty())
                        writers.push_back(&it->second);
                }
                if (writers.empty())
                    continue;
                // An over-approximated read keeps the proof sound
                // (exact is not needed); a read no instance performs
                // is trivially covered.
                std::vector<Constraint> read;
                bool exact = true;
                bool covered = !footprint(ctx, *sc, acc, read, exact);
                for (size_t i = 0; !covered && i < writers.size(); ++i)
                    covered = footprintCovers(ctx, *writers[i], read);
                if (covered)
                    ctx.coveredReads->insert({n, ri});
            }
        }
        for (const AstNode *n : stmts) {
            const StmtCtx *pc = activeCtx(ctx, n->stmt);
            if (pc && !ctx.extended->count(n->stmt))
                before.push_back(pc);
        }
    }
}

/**
 * True when the copy-in of tensor @p t into the scratchpad scope over
 * @p body is dead: every read of t under the scope is affine and was
 * recorded covered by a sequence inside the scope (coverSequenceReads
 * runs on inner sequences before their enclosing extension finishes).
 * Reads through LoadIdx keep the copy-in.
 */
bool
copyInDead(const GenCtx &ctx, int t, const AstPtr &body)
{
    std::vector<const AstNode *> stmts;
    collectStmts(body, stmts);
    for (const AstNode *n : stmts) {
        const Statement &s = ctx.prog->statement(n->stmt);
        if (loadsIndirect(s.body(), t))
            return false;
        for (int ri : s.readIndices())
            if (s.accesses()[ri].tensor == t &&
                !ctx.coveredReads->count({n, ri}))
                return false;
    }
    return true;
}

/** Introduce extension statements; optionally add promotion scopes. */
AstPtr
genExtension(const NodePtr &node, GenCtx ctx, const GenOptions &options)
{
    unsigned np = numParams(ctx);
    std::vector<int> ext_stmts;
    for (const auto &piece : node->extension.pieces()) {
        const pres::Space &sp = piece.space();
        if (sp.numIn() != ctx.bandVars.size())
            panic("extension arity does not match enclosing bands");
        int stmt_id = ctx.prog->statementId(sp.outTuple());
        // Find or create the context for this statement.
        StmtCtx *sc = nullptr;
        for (auto &c : ctx.active)
            if (c.stmt == stmt_id)
                sc = &c;
        if (!sc) {
            ctx.active.push_back(freshStmtCtx(ctx, stmt_id));
            sc = &ctx.active.back();
            ext_stmts.push_back(stmt_id);
        } else if (std::find(ext_stmts.begin(), ext_stmts.end(),
                             stmt_id) == ext_stmts.end()) {
            ctx.extended->insert(stmt_id);
        }
        // Translate map rows: in dims -> band var columns, out dims
        // -> statement dim columns.
        for (const auto &c : piece.constraints()) {
            Constraint row(c.isEq,
                           pres::CoeffRow(
                               ctx.numVars + sc->ndims + np + 1, 0));
            for (unsigned i = 0; i < sp.numIn(); ++i)
                row.coeffs[ctx.bandVars[i]] = c.coeffs[sp.inCol(i)];
            for (unsigned d = 0; d < sp.numOut(); ++d)
                row.coeffs[ctx.numVars + d] = c.coeffs[sp.outCol(d)];
            for (unsigned p = 0; p < sp.numParams(); ++p) {
                int idx = -1;
                for (unsigned q = 0; q < np; ++q)
                    if (ctx.prog->params()[q] == sp.params()[p])
                        idx = q;
                if (idx < 0)
                    panic("extension parameter not in program");
                row.coeffs[ctx.numVars + sc->ndims + idx] =
                    c.coeffs[sp.paramCol(p)];
            }
            row.coeffs.back() = c.constant();
            sc->rows.push_back(std::move(row));
        }
    }

    // NOTE: the composition pass guarantees one convex piece per
    // statement (simpleHull), so appending the rows above is exact.

    // Promotion scopes for Temp tensors written by the introduced
    // statements: box bounds of the writes as functions of the
    // enclosing loop vars (Sec. V-B).
    std::set<int> tensors;
    if (options.promoteIntermediates) {
        for (int sid : ext_stmts) {
            const Statement &s = ctx.prog->statement(sid);
            if (s.writeIndex() < 0)
                continue;
            int t = s.writeAccess().tensor;
            if (ctx.prog->tensor(t).kind == ir::TensorKind::Temp)
                tensors.insert(t);
        }
    }
    ctx.promoting.insert(tensors.begin(), tensors.end());

    AstPtr body = genNode(node->onlyChild(), ctx, options);
    if (tensors.empty())
        return body;

    AstPtr alloc = astAlloc();
    for (int t : tensors) {
        Promotion promo;
        promo.tensor = t;
        unsigned rank = ctx.prog->tensor(t).rank;
        promo.boxLo.resize(rank);
        promo.boxHi.resize(rank);
        // The box must cover every access to the tensor under this
        // scope -- the fused producers' writes AND the consumers'
        // reads (which may touch never-written border regions whose
        // values are copied in from the global tensor).
        std::vector<std::pair<int, const ir::Access *>> touching;
        for (const auto &c : ctx.active) {
            const Statement &s = ctx.prog->statement(c.stmt);
            for (const auto &acc : s.accesses())
                if (acc.tensor == t)
                    touching.emplace_back(c.stmt, &acc);
        }
        for (const auto &[sid, accp] : touching) {
            const StmtCtx &sc = *activeCtx(ctx, sid);
            unsigned nd = sc.ndims;
            std::vector<Constraint> rows =
                accessSystem(ctx, sc, *accp, rank);
            // Eliminate the statement dims.
            bool exact = true;
            bool empty = false;
            for (unsigned d = nd; d-- > 0;) {
                if (!pres::fm::eliminateCol(*ctx.pres, rows,
                                            ctx.numVars + d,
                                            exact)) {
                    empty = true;
                    break;
                }
            }
            if (empty)
                continue;
            // Bounds of each tensor dim.
            for (unsigned j = 0; j < rank; ++j) {
                std::vector<Constraint> jrows = rows;
                bool jex = true;
                bool jempty = false;
                for (unsigned o = rank; o-- > 0;) {
                    if (o == j)
                        continue;
                    if (!pres::fm::eliminateCol(
                            *ctx.pres, jrows, ctx.numVars + o,
                            jex)) {
                        jempty = true;
                        break;
                    }
                }
                if (jempty)
                    continue;
                BoundAlt lo, hi;
                unsigned jcol = ctx.numVars; // only remaining tdim
                for (const auto &row : jrows) {
                    int64_t a = row.coeffs[jcol];
                    if (a == 0)
                        continue;
                    BoundTerm term;
                    term.varCoeffs.assign(ctx.numVars, 0);
                    term.paramCoeffs.assign(np, 0);
                    int64_t sign = a > 0 ? -1 : 1;
                    int64_t div = a > 0 ? a : -a;
                    for (unsigned v = 0; v < ctx.numVars; ++v)
                        term.varCoeffs[v] = sign * row.coeffs[v];
                    for (unsigned pp = 0; pp < np; ++pp)
                        term.paramCoeffs[pp] =
                            sign *
                            row.coeffs[ctx.numVars + 1 + pp];
                    term.constant = sign * row.coeffs.back();
                    term.div = div;
                    if (row.isEq) {
                        lo.push_back(term);
                        hi.push_back(term);
                    } else if (a > 0) {
                        lo.push_back(term);
                    } else {
                        hi.push_back(term);
                    }
                }
                if (!lo.empty() && !hi.empty()) {
                    promo.boxLo[j].push_back(std::move(lo));
                    promo.boxHi[j].push_back(std::move(hi));
                }
            }
        }
        bool complete = true;
        for (unsigned j = 0; j < rank; ++j) {
            if (promo.boxLo[j].empty() || promo.boxHi[j].empty())
                complete = false;
            dedupBound(promo.boxLo[j], true);
            dedupBound(promo.boxHi[j], false);
        }
        if (!complete)
            continue;
        promo.copyIn = !copyInDead(ctx, t, body);
        if (!promo.copyIn)
            ++ctx.stats->copyInsElided;
        alloc->promotions.push_back(std::move(promo));
    }
    if (alloc->promotions.empty())
        return body;
    alloc->children = {body};
    return alloc;
}

AstPtr
genLeaf(GenCtx &ctx)
{
    AstPtr block = astBlock();
    unsigned np = numParams(ctx);
    for (auto &sc : ctx.active) {
        AstPtr stmt = astStmt(sc.stmt);
        for (unsigned d = 0; d < sc.ndims; ++d) {
            if (sc.binding[d] < 0)
                panic("statement dim unbound at leaf: " +
                      ctx.prog->statement(sc.stmt).name());
            stmt->bindings.emplace_back(sc.binding[d], sc.offset[d]);
        }
        // Guards: substitute dims with their bindings.
        std::vector<Constraint> rows = sc.rows;
        for (auto &row : rows) {
            for (unsigned d = 0; d < sc.ndims; ++d) {
                int64_t c = row.coeffs[ctx.numVars + d];
                if (c == 0)
                    continue;
                row.coeffs[sc.binding[d]] += c;
                row.coeffs.back() += c * sc.offset[d];
                row.coeffs[ctx.numVars + d] = 0;
            }
        }
        if (!pres::fm::simplifyRows(*ctx.pres, rows))
            continue; // statement never executes here
        for (const auto &row : rows) {
            GuardRow g;
            g.isEq = row.isEq;
            g.varCoeffs.assign(ctx.numVars, 0);
            for (unsigned v = 0; v < ctx.numVars; ++v)
                g.varCoeffs[v] = row.coeffs[v];
            g.paramCoeffs.assign(np, 0);
            for (unsigned p = 0; p < np; ++p)
                g.paramCoeffs[p] = row.coeffs[ctx.numVars + sc.ndims + p];
            g.constant = row.coeffs.back();
            if (impliedByFacts(ctx.facts, g))
                ++ctx.stats->guardsPruned;
            else
                stmt->guards.push_back(std::move(g));
        }
        block->children.push_back(std::move(stmt));
    }
    if (!ctx.promoting.empty())
        coverSequenceReads(ctx, *block);
    return block;
}

AstPtr
genNode(const NodePtr &node, GenCtx ctx, const GenOptions &options)
{
    switch (node->kind) {
      case NodeKind::Domain: {
        for (const auto &s : ctx.prog->statements())
            ctx.active.push_back(
                freshStmtCtx(ctx, ctx.prog->statementId(s.name())));
        return genNode(node->onlyChild(), std::move(ctx), options);
      }
      case NodeKind::Filter: {
        std::vector<StmtCtx> kept;
        for (auto &sc : ctx.active) {
            const std::string &name =
                ctx.prog->statement(sc.stmt).name();
            if (std::find(node->filter.begin(), node->filter.end(),
                          name) != node->filter.end())
                kept.push_back(std::move(sc));
        }
        ctx.active = std::move(kept);
        if (ctx.active.empty())
            return astBlock();
        return genNode(node->onlyChild(), std::move(ctx), options);
      }
      case NodeKind::Sequence: {
        AstPtr block = astBlock();
        for (const auto &child : node->children) {
            AstPtr sub = genNode(child, ctx, options);
            if (sub && !(sub->kind == AstKind::Block &&
                         sub->children.empty()))
                block->children.push_back(std::move(sub));
        }
        if (!ctx.promoting.empty())
            coverSequenceReads(ctx, *block);
        return block;
      }
      case NodeKind::Mark: {
        if (node->markLabel == "skipped")
            return astBlock();
        return genNode(node->onlyChild(), std::move(ctx), options);
      }
      case NodeKind::Band:
        return genBand(node, std::move(ctx), options);
      case NodeKind::Extension:
        return genExtension(node, std::move(ctx), options);
      case NodeKind::Leaf:
        return genLeaf(ctx);
    }
    panic("unreachable node kind");
}

/** Number of loop-variable slots used under @p n (max var + 1). */
int
countLoopVars(const AstPtr &n)
{
    if (!n)
        return 0;
    int vars = n->kind == AstKind::For ? n->var + 1 : 0;
    for (const auto &c : n->children)
        vars = std::max(vars, countLoopVars(c));
    return vars;
}

} // namespace

AstPtr
generateAst(const schedule::ScheduleTree &tree,
            const GenOptions &options)
{
    std::vector<GeneratedBand> bands;
    return generateAst(tree, options, bands);
}

AstPtr
generateAst(const schedule::ScheduleTree &tree,
            const GenOptions &options,
            std::vector<GeneratedBand> &bands, GenStats *stats)
{
    failpoints::hit("codegen.generate");
    bands.clear();
    GenStats local;
    std::set<std::pair<const AstNode *, int>> covered_reads;
    std::set<int> extended;
    GenCtx ctx;
    ctx.coveredReads = &covered_reads;
    ctx.extended = &extended;
    ctx.prog = &tree.program();
    ctx.pres = &pres::fm::activeCtx();
    ctx.bands = &bands;
    ctx.stats = stats ? stats : &local;
    *ctx.stats = GenStats{};
    // Enforce an armed budget / tripped cancel token up front; the
    // scan below re-checks through every eliminateCol it performs.
    pres::fm::checkBudget(*ctx.pres, "codegen::generateAst");
    AstPtr root = genNode(tree.root(), std::move(ctx), options);
    if (root)
        root->numLoopVars = countLoopVars(root);
    return root;
}

} // namespace codegen
} // namespace polyfuse
