#include "pres/basic_map.hh"

#include <algorithm>

#include "pres/fm.hh"
#include "pres/op_cache.hh"
#include "pres/printing.hh"
#include "support/intmath.hh"
#include "support/logging.hh"
#include "support/strutil.hh"

namespace polyfuse {
namespace pres {

namespace {

std::vector<std::string>
mergeParams(const std::vector<std::string> &a,
            const std::vector<std::string> &b)
{
    std::vector<std::string> out = a;
    for (const auto &p : b)
        if (std::find(out.begin(), out.end(), p) == out.end())
            out.push_back(p);
    return out;
}

} // namespace

BasicMap::BasicMap(Space space)
    : space_(std::move(space))
{
    if (!space_.isMap())
        panic("BasicMap constructed with a set space");
}

BasicMap
BasicMap::makeEmpty(Space space)
{
    BasicMap m(std::move(space));
    m.markEmpty();
    return m;
}

void
BasicMap::markEmpty()
{
    markedEmpty_ = true;
    cons_.clear();
    Constraint c(false, CoeffRow(space_.numCols(), 0));
    c.coeffs.back() = -1;
    cons_.push_back(std::move(c));
}

BasicMap
BasicMap::identity(const Space &set_space)
{
    if (set_space.isMap())
        panic("identity expects a set space");
    unsigned n = set_space.numOut();
    BasicMap m(Space::forMap(set_space.outTuple(), n,
                             set_space.outTuple(), n,
                             set_space.params()));
    for (unsigned i = 0; i < n; ++i) {
        Constraint c(true, CoeffRow(m.space_.numCols(), 0));
        c.coeffs[m.space_.inCol(i)] = 1;
        c.coeffs[m.space_.outCol(i)] = -1;
        m.cons_.push_back(std::move(c));
    }
    return m;
}

BasicMap
BasicMap::fromOutExprs(const std::string &in_tuple, unsigned in_dims,
                       const std::string &out_tuple,
                       const std::vector<std::vector<int64_t>> &exprs,
                       std::vector<std::string> params)
{
    unsigned nparams = params.size();
    BasicMap m(Space::forMap(in_tuple, in_dims, out_tuple,
                             exprs.size(), std::move(params)));
    for (unsigned j = 0; j < exprs.size(); ++j) {
        const auto &e = exprs[j];
        if (e.size() != in_dims + nparams + 1)
            panic("fromOutExprs: expression arity mismatch");
        Constraint c(true, CoeffRow(m.space_.numCols(), 0));
        c.coeffs[m.space_.outCol(j)] = -1;
        for (unsigned i = 0; i < in_dims; ++i)
            c.coeffs[m.space_.inCol(i)] = e[i];
        for (unsigned p = 0; p < nparams; ++p)
            c.coeffs[m.space_.paramCol(p)] = e[in_dims + p];
        c.coeffs.back() = e.back();
        m.cons_.push_back(std::move(c));
    }
    return m;
}

void
BasicMap::addConstraint(const Constraint &c)
{
    if (c.coeffs.size() != space_.numCols())
        panic("constraint arity mismatch in BasicMap");
    cons_.push_back(c);
}

void
BasicMap::simplify()
{
    if (markedEmpty_)
        return;
    if (!fm::simplifyRows(fm::activeCtx(), cons_))
        markEmpty();
}

bool
BasicMap::isEmpty() const
{
    if (markedEmpty_)
        return true;
    fm::PresCtx &ctx = fm::activeCtx();
    OpCache *cache = ctx.cache;
    OpCache::Key key;
    if (cache) {
        key = OpCache::makeKey(Op::IsEmptyMap, *this);
        if (const bool *cached = cache->findBool(ctx, key))
            return *cached;
    }
    std::vector<Constraint> rows = cons_;
    bool exact = true;
    unsigned total = space_.numDims() + space_.numParams();
    bool empty = false;
    for (unsigned i = 0; i < total && !empty; ++i)
        if (!fm::eliminateCol(ctx, rows, 0, exact))
            empty = true;
    if (cache)
        cache->storeBool(ctx, key, empty);
    return empty;
}

BasicMap
BasicMap::alignParams(const std::vector<std::string> &params) const
{
    std::vector<int> remap(space_.numParams(), -1);
    for (unsigned i = 0; i < space_.numParams(); ++i) {
        auto it = std::find(params.begin(), params.end(),
                            space_.params()[i]);
        if (it == params.end())
            panic("alignParams target misses " + space_.params()[i]);
        remap[i] = it - params.begin();
    }
    BasicMap out(Space::forMap(space_.inTuple(), space_.numIn(),
                               space_.outTuple(), space_.numOut(),
                               params));
    out.exact_ = exact_;
    out.markedEmpty_ = markedEmpty_;
    unsigned nd = space_.numDims();
    for (const auto &c : cons_) {
        Constraint nc(c.isEq,
                      CoeffRow(out.space_.numCols(), 0));
        for (unsigned i = 0; i < nd; ++i)
            nc.coeffs[i] = c.coeffs[i];
        for (unsigned i = 0; i < space_.numParams(); ++i)
            nc.coeffs[nd + remap[i]] = c.coeffs[nd + i];
        nc.coeffs.back() = c.constant();
        out.cons_.push_back(std::move(nc));
    }
    return out;
}

BasicMap
BasicMap::fixParam(const std::string &name, int64_t value) const
{
    int idx = space_.paramIndex(name);
    if (idx < 0)
        return *this;
    std::vector<std::string> params = space_.params();
    params.erase(params.begin() + idx);
    BasicMap out(Space::forMap(space_.inTuple(), space_.numIn(),
                               space_.outTuple(), space_.numOut(),
                               params));
    out.exact_ = exact_;
    out.cons_ = cons_;
    if (!fm::substituteCol(fm::activeCtx(), out.cons_,
                           space_.paramCol(idx), value))
        out.markEmpty();
    out.markedEmpty_ = out.markedEmpty_ || markedEmpty_;
    return out;
}

BasicMap
BasicMap::fixInDim(unsigned pos, int64_t value) const
{
    if (pos >= space_.numIn())
        panic("fixInDim out of range");
    BasicMap out = *this;
    Constraint c(true, CoeffRow(space_.numCols(), 0));
    c.coeffs[space_.inCol(pos)] = 1;
    c.coeffs.back() = -value;
    out.cons_.push_back(std::move(c));
    out.simplify();
    return out;
}

BasicMap
BasicMap::renameTuples(const std::string &in_tuple,
                       const std::string &out_tuple) const
{
    BasicMap out = *this;
    out.space_ = Space::forMap(in_tuple, space_.numIn(), out_tuple,
                               space_.numOut(), space_.params());
    return out;
}

BasicMap
BasicMap::intersect(const BasicMap &other) const
{
    if (!space_.sameTuples(other.space_))
        panic("BasicMap::intersect tuple mismatch: " + space_.str() +
              " vs " + other.space_.str());
    fm::PresCtx &cctx = fm::activeCtx();
    OpCache *cache = cctx.cache;
    OpCache::Key key;
    if (cache) {
        key = OpCache::makeKey(Op::IntersectMap, *this, other);
        if (const BasicMap *cached = cache->findMap(cctx, key))
            return *cached;
    }
    auto params = mergeParams(space_.params(), other.space_.params());
    BasicMap a = alignParams(params);
    BasicMap b = other.alignParams(params);
    a.exact_ = exact_ && other.exact_;
    for (const auto &c : b.cons_)
        a.cons_.push_back(c);
    a.markedEmpty_ = markedEmpty_ || other.markedEmpty_;
    a.simplify();
    if (cache)
        cache->storeMap(cctx, key, a);
    return a;
}

BasicMap
BasicMap::intersectDomain(const BasicSet &set) const
{
    if (set.space().outTuple() != space_.inTuple() ||
        set.space().numOut() != space_.numIn())
        panic("intersectDomain tuple mismatch");
    fm::PresCtx &cctx = fm::activeCtx();
    OpCache *cache = cctx.cache;
    OpCache::Key key;
    if (cache) {
        key = OpCache::makeKey(Op::IntersectDomain, *this, set);
        if (const BasicMap *cached = cache->findMap(cctx, key))
            return *cached;
    }
    auto params = mergeParams(space_.params(), set.space().params());
    BasicMap a = alignParams(params);
    BasicSet b = set.alignParams(params);
    a.exact_ = exact_ && set.wasExact();
    for (const auto &c : b.constraints()) {
        // Widen set columns [dims, params, 1] to map columns.
        Constraint nc(c.isEq,
                      CoeffRow(a.space_.numCols(), 0));
        for (unsigned i = 0; i < space_.numIn(); ++i)
            nc.coeffs[a.space_.inCol(i)] = c.coeffs[i];
        for (unsigned p = 0; p < params.size(); ++p)
            nc.coeffs[a.space_.paramCol(p)] =
                c.coeffs[space_.numIn() + p];
        nc.coeffs.back() = c.constant();
        a.cons_.push_back(std::move(nc));
    }
    a.markedEmpty_ = markedEmpty_ || set.markedEmpty();
    a.simplify();
    if (cache)
        cache->storeMap(cctx, key, a);
    return a;
}

BasicMap
BasicMap::intersectRange(const BasicSet &set) const
{
    if (set.space().outTuple() != space_.outTuple() ||
        set.space().numOut() != space_.numOut())
        panic("intersectRange tuple mismatch");
    fm::PresCtx &cctx = fm::activeCtx();
    OpCache *cache = cctx.cache;
    OpCache::Key key;
    if (cache) {
        key = OpCache::makeKey(Op::IntersectRange, *this, set);
        if (const BasicMap *cached = cache->findMap(cctx, key))
            return *cached;
    }
    auto params = mergeParams(space_.params(), set.space().params());
    BasicMap a = alignParams(params);
    BasicSet b = set.alignParams(params);
    a.exact_ = exact_ && set.wasExact();
    for (const auto &c : b.constraints()) {
        Constraint nc(c.isEq,
                      CoeffRow(a.space_.numCols(), 0));
        for (unsigned i = 0; i < space_.numOut(); ++i)
            nc.coeffs[a.space_.outCol(i)] = c.coeffs[i];
        for (unsigned p = 0; p < params.size(); ++p)
            nc.coeffs[a.space_.paramCol(p)] =
                c.coeffs[space_.numOut() + p];
        nc.coeffs.back() = c.constant();
        a.cons_.push_back(std::move(nc));
    }
    a.markedEmpty_ = markedEmpty_ || set.markedEmpty();
    a.simplify();
    if (cache)
        cache->storeMap(cctx, key, a);
    return a;
}

BasicMap
BasicMap::reverse() const
{
    fm::PresCtx &cctx = fm::activeCtx();
    OpCache *cache = cctx.cache;
    OpCache::Key key;
    if (cache) {
        key = OpCache::makeKey(Op::Reverse, *this);
        if (const BasicMap *cached = cache->findMap(cctx, key))
            return *cached;
    }
    BasicMap out(space_.reversed());
    out.exact_ = exact_;
    out.markedEmpty_ = markedEmpty_;
    unsigned ni = space_.numIn();
    unsigned no = space_.numOut();
    for (const auto &c : cons_) {
        Constraint nc(c.isEq,
                      CoeffRow(c.coeffs.size(), 0));
        for (unsigned i = 0; i < no; ++i)
            nc.coeffs[i] = c.coeffs[ni + i];
        for (unsigned i = 0; i < ni; ++i)
            nc.coeffs[no + i] = c.coeffs[i];
        for (unsigned i = ni + no; i < c.coeffs.size(); ++i)
            nc.coeffs[i] = c.coeffs[i];
        out.cons_.push_back(std::move(nc));
    }
    if (cache)
        cache->storeMap(cctx, key, out);
    return out;
}

BasicSet
BasicMap::domain() const
{
    fm::PresCtx &ctx = fm::activeCtx();
    OpCache *cache = ctx.cache;
    OpCache::Key key;
    if (cache) {
        key = OpCache::makeKey(Op::Domain, *this);
        if (const BasicSet *cached = cache->findSet(ctx, key))
            return *cached;
    }
    // Project out the output dims.
    std::vector<Constraint> rows = cons_;
    bool exact = true;
    bool empty = markedEmpty_;
    for (unsigned i = 0; i < space_.numOut() && !empty; ++i) {
        unsigned col = space_.numIn() + space_.numOut() - 1 - i;
        if (!fm::eliminateCol(ctx, rows, col, exact))
            empty = true;
    }
    Space sp = space_.domainSpace();
    BasicSet out = empty ? BasicSet::makeEmpty(sp) : BasicSet(sp);
    if (!empty) {
        for (auto &r : rows)
            out.addConstraint(r);
        out.exact_ = exact_ && exact;
    }
    if (cache)
        cache->storeSet(ctx, key, out);
    return out;
}

BasicSet
BasicMap::range() const
{
    fm::PresCtx &ctx = fm::activeCtx();
    OpCache *cache = ctx.cache;
    OpCache::Key key;
    if (cache) {
        key = OpCache::makeKey(Op::Range, *this);
        if (const BasicSet *cached = cache->findSet(ctx, key)) {
            if (!cached->wasExact())
                ++ctx.counters.inexact;
            return *cached;
        }
    }
    std::vector<Constraint> rows = cons_;
    bool exact = true;
    bool empty = markedEmpty_;
    for (unsigned i = 0; i < space_.numIn() && !empty; ++i)
        if (!fm::eliminateCol(ctx, rows, 0, exact))
            empty = true;
    Space sp = space_.rangeSpace();
    BasicSet out = empty ? BasicSet::makeEmpty(sp) : BasicSet(sp);
    if (!empty) {
        for (auto &r : rows)
            out.addConstraint(r);
        out.exact_ = exact_ && exact;
        // Counted, not printed: the caller decides whether an
        // over-approximated range is safe (see core/compose.cc).
        if (!out.exact_)
            ++ctx.counters.inexact;
    }
    if (cache)
        cache->storeSet(ctx, key, out);
    return out;
}

BasicMap
BasicMap::compose(const BasicMap &g) const
{
    if (space_.outTuple() != g.space().inTuple() ||
        space_.numOut() != g.space().numIn())
        panic("compose: mid tuple mismatch " + space_.str() + " then " +
              g.space().str());
    fm::PresCtx &cctx = fm::activeCtx();
    OpCache *cache = cctx.cache;
    OpCache::Key key;
    if (cache) {
        key = OpCache::makeKey(Op::Compose, *this, g);
        if (const BasicMap *cached = cache->findMap(cctx, key))
            return *cached;
    }
    auto params = mergeParams(space_.params(), g.space().params());
    BasicMap a = alignParams(params);
    BasicMap b = g.alignParams(params);

    unsigned na = space_.numIn();
    unsigned nb = space_.numOut();
    unsigned nc = g.space().numOut();
    unsigned np = params.size();
    unsigned total_cols = na + nb + nc + np + 1;

    std::vector<Constraint> rows;
    // Rows of this: [A, B] -> [A, B, C].
    for (const auto &c : a.cons_) {
        Constraint r(c.isEq, CoeffRow(total_cols, 0));
        for (unsigned i = 0; i < na + nb; ++i)
            r.coeffs[i] = c.coeffs[i];
        for (unsigned i = 0; i < np + 1; ++i)
            r.coeffs[na + nb + nc + i] = c.coeffs[na + nb + i];
        rows.push_back(std::move(r));
    }
    // Rows of g: [B, C] -> [A, B, C].
    for (const auto &c : b.cons_) {
        Constraint r(c.isEq, CoeffRow(total_cols, 0));
        for (unsigned i = 0; i < nb + nc; ++i)
            r.coeffs[na + i] = c.coeffs[i];
        for (unsigned i = 0; i < np + 1; ++i)
            r.coeffs[na + nb + nc + i] = c.coeffs[nb + nc + i];
        rows.push_back(std::move(r));
    }

    bool exact = true;
    fm::PresCtx &ctx = fm::activeCtx();
    bool empty = markedEmpty_ || g.markedEmpty_;
    for (unsigned i = 0; i < nb && !empty; ++i)
        if (!fm::eliminateCol(ctx, rows, na + nb - 1 - i, exact))
            empty = true;

    Space sp = Space::forMap(space_.inTuple(), na, g.space().outTuple(),
                             nc, params);
    BasicMap out = empty ? BasicMap::makeEmpty(sp) : BasicMap(sp);
    if (!empty) {
        out.cons_ = std::move(rows);
        out.exact_ = exact_ && g.exact_ && exact;
    }
    if (cache)
        cache->storeMap(cctx, key, out);
    return out;
}

BasicSet
BasicMap::apply(const BasicSet &set) const
{
    return intersectDomain(set).range();
}

BasicSet
BasicMap::deltas() const
{
    if (space_.numIn() != space_.numOut())
        panic("deltas: arity mismatch");
    fm::PresCtx &cctx = fm::activeCtx();
    OpCache *cache = cctx.cache;
    OpCache::Key key;
    if (cache) {
        key = OpCache::makeKey(Op::Deltas, *this);
        if (const BasicSet *cached = cache->findSet(cctx, key))
            return *cached;
    }
    unsigned n = space_.numIn();
    unsigned np = space_.numParams();
    unsigned total = 2 * n + n + np + 1; // [in, out, delta, params, 1]

    std::vector<Constraint> rows;
    for (const auto &c : cons_) {
        Constraint r(c.isEq, CoeffRow(total, 0));
        for (unsigned i = 0; i < 2 * n; ++i)
            r.coeffs[i] = c.coeffs[i];
        for (unsigned i = 0; i < np + 1; ++i)
            r.coeffs[3 * n + i] = c.coeffs[2 * n + i];
        rows.push_back(std::move(r));
    }
    // delta[i] == out[i] - in[i].
    for (unsigned i = 0; i < n; ++i) {
        Constraint r(true, CoeffRow(total, 0));
        r.coeffs[2 * n + i] = 1;
        r.coeffs[n + i] = -1;
        r.coeffs[i] = 1;
        rows.push_back(std::move(r));
    }

    bool exact = true;
    bool empty = markedEmpty_;
    for (unsigned i = 0; i < 2 * n && !empty; ++i)
        if (!fm::eliminateCol(cctx, rows, 0, exact))
            empty = true;

    Space sp = Space::forSet("delta", n, space_.params());
    BasicSet out = empty ? BasicSet::makeEmpty(sp) : BasicSet(sp);
    if (!empty) {
        for (auto &r : rows)
            out.addConstraint(r);
        out.exact_ = exact_ && exact;
    }
    if (cache)
        cache->storeSet(cctx, key, out);
    return out;
}

BasicSet
BasicMap::wrap() const
{
    Space sp = Space::forSet(space_.inTuple() + "->" + space_.outTuple(),
                             space_.numDims(), space_.params());
    if (markedEmpty_)
        return BasicSet::makeEmpty(sp);
    BasicSet out(sp);
    for (const auto &c : cons_)
        out.addConstraint(c);
    return out;
}

bool
BasicMap::outDimBounds(unsigned j, std::vector<DivBound> &lowers,
                       std::vector<DivBound> &uppers) const
{
    if (j >= space_.numOut())
        panic("outDimBounds out of range");
    fm::PresCtx &ctx = fm::activeCtx();
    OpCache *cache = ctx.cache;
    OpCache::Key key;
    if (cache) {
        key = OpCache::makeKey(Op::OutDimBounds, *this, uint64_t(j));
        if (const OpCache::BoundsValue *cached =
                cache->findBounds(ctx, key)) {
            lowers = cached->lowers;
            uppers = cached->uppers;
            return cached->ok;
        }
    }
    std::vector<Constraint> rows = cons_;
    bool exact = true;
    // Eliminate all output dims except j, from the highest down.
    for (unsigned i = space_.numOut(); i-- > 0;) {
        if (i == j)
            continue;
        if (!fm::eliminateCol(ctx, rows, space_.numIn() + i, exact))
            // Empty: no bounds to report. Not cached -- the uncached
            // path leaves the out-params untouched here, and a cached
            // replay must not differ observably.
            return false;
    }
    // j is the only remaining out dim after the eliminations above.
    unsigned jcol = space_.numIn();

    lowers.clear();
    uppers.clear();
    for (const auto &row : rows) {
        int64_t a = row.coeffs[jcol];
        if (a == 0)
            continue;
        DivBound b;
        b.coeffs.reserve(row.coeffs.size() - 1);
        for (size_t i = 0; i < row.coeffs.size(); ++i) {
            if (i == jcol)
                continue;
            b.coeffs.push_back(row.coeffs[i]);
        }
        if (row.isEq) {
            // a*j + e == 0 -> j == -e/a: both a bound below and above.
            DivBound lo = b, hi = b;
            int64_t div = a > 0 ? a : -a;
            int64_t sign = a > 0 ? -1 : 1;
            for (auto &v : lo.coeffs)
                v = checkedMul(v, sign);
            lo.div = div;
            hi = lo;
            lowers.push_back(lo);
            uppers.push_back(hi);
        } else if (a > 0) {
            // a*j + e >= 0 -> j >= ceil(-e / a).
            for (auto &v : b.coeffs)
                v = -v;
            b.div = a;
            lowers.push_back(std::move(b));
        } else {
            // -b*j + e >= 0 -> j <= floor(e / b).
            b.div = -a;
            uppers.push_back(std::move(b));
        }
    }
    bool ok = !lowers.empty() && !uppers.empty();
    if (cache)
        cache->storeBounds(ctx, key, {ok, lowers, uppers});
    return ok;
}

std::string
BasicMap::str() const
{
    std::vector<std::string> in_names, out_names, cols;
    for (unsigned i = 0; i < space_.numIn(); ++i)
        in_names.push_back("i" + std::to_string(i));
    for (unsigned i = 0; i < space_.numOut(); ++i)
        out_names.push_back("o" + std::to_string(i));
    cols = in_names;
    cols.insert(cols.end(), out_names.begin(), out_names.end());
    for (const auto &p : space_.params())
        cols.push_back(p);
    cols.push_back("1");

    std::string out;
    if (!space_.params().empty())
        out += "[" + join(space_.params(), ", ") + "] -> ";
    out += "{ " + space_.inTuple() + "[" + join(in_names, ", ") +
           "] -> " + space_.outTuple() + "[" + join(out_names, ", ") +
           "]";
    if (markedEmpty_) {
        out += " : false }";
        return out;
    }
    if (!cons_.empty())
        out += " : " + renderRows(cons_, cols);
    out += " }";
    return out;
}

bool
BasicMap::operator==(const BasicMap &o) const
{
    if (!(space_ == o.space_))
        return false;
    if (markedEmpty_ || o.markedEmpty_)
        return isEmpty() && o.isEmpty();
    BasicMap a = *this;
    BasicMap b = o;
    a.simplify();
    b.simplify();
    return a.cons_ == b.cons_;
}

} // namespace pres
} // namespace polyfuse
