#include "exec/bytecode.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <mutex>
#include <thread>

#include "support/failpoint.hh"
#include "support/intmath.hh"
#include "support/logging.hh"
#include "support/thread_pool.hh"
#include "support/timer.hh"

namespace polyfuse {
namespace exec {

using codegen::AstKind;
using codegen::AstNode;
using codegen::AstPtr;
using codegen::BoundAlt;
using codegen::BoundTerm;
using ir::Expr;
using ir::Program;
using ir::Statement;

namespace bytecode_detail {

constexpr size_t kMaxRank = 8;

/**
 * Lanes per block of the vectorized inner-loop fast path. The block
 * kernels are plain fixed-trip-count lane loops the compiler can
 * vectorize; 8 lanes give the autovectorizer two 4-wide double ops
 * per tape step on AVX2 (or one 8-wide on AVX-512), 4 keep the
 * blocks tight on baseline SSE2.
 */
#if defined(__AVX512F__) || defined(__AVX2__)
constexpr int64_t kSimdWidth = 8;
#else
constexpr int64_t kSimdWidth = 4;
#endif

/** One sparse linear-term pair: coef * vars[slot]. */
struct LinPair
{
    int32_t slot = 0;
    int64_t coef = 0;
};

/** A sparse linear form over loop-var slots, constants folded. */
struct LinFn
{
    int64_t c = 0;
    int32_t begin = 0; ///< range into Image::pairs
    int32_t end = 0;
};

/** One bound term: lin / div (ceil for lower, floor for upper). */
struct BTerm
{
    LinFn lin;
    int64_t div = 1;
};

/** Half-open range into one of the Image pools. */
struct Range
{
    int32_t begin = 0;
    int32_t end = 0;
};

/** A loop/box bound: alts (ranges of BTerm) combined min/max-wise. */
struct Bound
{
    int32_t altBegin = 0; ///< range into Image::altTerms
    int32_t altEnd = 0;
};

/** One compiled loop. */
struct Loop
{
    int32_t var = 0;
    Bound lb, ub;
    bool parallel = false;
    bool tile = false;      ///< iterates tile coordinates
    int32_t bandId = -1;    ///< owning tile band (codegen side table)
    int32_t bandLevel = -1; ///< level within the owning tile band
    /**
     * When the loop body is nothing but statements, the contiguous
     * range [stmtBegin, stmtEnd) of Image::stmts it executes; the
     * untraced interpreter then runs the whole loop inside one
     * dispatch with strength-reduced access offsets (every offset is
     * affine in the loop var, so per-iteration re-evaluation of the
     * folded dot product collapses to one add per access) and the
     * per-instance counters of guard-free statements hoisted out.
     */
    int32_t stmtBegin = -1, stmtEnd = -1;
    /**
     * When the loop body is exactly one such fast inner loop
     * (a perfect two-level nest), its index: guard bases and access
     * offsets then advance incrementally across inner-loop entries
     * instead of being re-derived from their linear forms, which is
     * what makes short reduction loops (3x3 convolution kernels)
     * cheap despite their heavy boundary-guard sets.
     */
    int32_t nestInner = -1;
};

/** One compiled access of one statement node. */
struct AccessC
{
    int32_t tensor = 0;
    int32_t rank = 0;
    int32_t dimBegin = 0;  ///< per-dim LinFns in Image::dimFns
    int32_t foldBase = 0;  ///< range base into Image::mergedSlots
    int32_t foldCount = 0; ///< merged slot count
    /** Fast-path State::foldCoef slots of the offset steps along
     *  the innermost / next-outer enclosing loop vars (-1: the
     *  access is independent of that var). */
    int32_t innerStepSlot = -1;
    int32_t outerStepSlot = -1;
};

/** One compiled guard row. */
struct GuardC
{
    LinFn fn;
    bool isEq = false;
    /** Per-iteration steps along the innermost / next-outer
     *  enclosing loop vars (used only on the fast path). */
    int64_t innerStep = 0;
    int64_t outerStep = 0;
};

/** Postfix expression opcodes. */
enum class XOp : uint8_t
{
    Const,   ///< push consts[a]
    Iter,    ///< push double(vars[a] + b)
    Load,    ///< push load through access a; b = fast-path step
             ///< slot into State::foldCoef, or -1
    LoadIdx, ///< pop b indices, load tensor a
    Un,      ///< sub = UnOp
    Bin,     ///< sub = BinOp
};

struct XInst
{
    XOp op;
    uint8_t sub = 0;
    int32_t a = 0;
    int32_t b = 0;
};

/** One compiled statement node. */
struct StmtC
{
    int32_t guardBegin = 0, guardEnd = 0;
    int32_t xBegin = 0, xEnd = 0; ///< empty when the body is null
    int32_t writeAccess = -1;     ///< index into Image::accesses
    double ops = 1.0;
    int32_t maxStack = 0;
    /** Load + LoadIdx count of the tape (hoisted loads counter). */
    int32_t loadsPerIter = 0;
    /** Fast-path step slot of the write access (see XOp::Load). */
    int32_t writeStepSlot = -1;
    /** Statically eligible for the vectorized fast path: every load
     *  is affine (no LoadIdx, whose indirection defeats the
     *  base+step form). The per-loop dependence check happens at
     *  selection time (Machine::simdSafe). */
    bool simdOk = false;
};

/** One tile-local promotion of an Alloc scope. */
struct PromoC
{
    int32_t tensor = 0;
    int32_t rank = 0;
    /** 2 * rank Bounds in Image::boxBounds: lo dims then hi dims. */
    int32_t boxBase = 0;
    bool copyIn = true; ///< codegen::Promotion::copyIn
};

struct AllocC
{
    int32_t promoBegin = 0, promoEnd = 0;
};

/** Top-level tape opcodes. */
enum class Op : uint8_t
{
    ForBegin,
    ForEnd,
    Stmt,
    AllocEnter,
    AllocExit,
    Halt,
};

struct Inst
{
    Op op;
    int32_t arg = 0;  ///< loop / stmt / alloc index
    int32_t jump = 0; ///< ForBegin: past ForEnd; ForEnd: body start
};

/**
 * One parallel-schedulable span of the tape: the consecutive
 * top-level tile loops of one band plus their shared body. A tile is
 * an assignment of values to the region's loop vars; launching one
 * means pinning those vars and executing [bodyBegin, bodyEnd).
 * Regions are discovered by a top-level tape scan after compilation;
 * tile bands nested under other loops or inside Alloc scopes are NOT
 * regions (a scratchpad pushed outside the region would live on the
 * launching machine's state, invisible to workers).
 */
struct TileRegion
{
    int32_t bandId = -1;
    int32_t beginPc = 0;  ///< pc of the outermost tile ForBegin
    int32_t endPc = 0;    ///< pc past the outermost ForEnd
    int32_t bodyBegin = 0; ///< pc after the innermost tile ForBegin
    int32_t bodyEnd = 0;   ///< pc of the innermost tile ForEnd
    std::vector<int32_t> loops; ///< tile loop index per level
    int32_t coincidentLevels = 0; ///< levels flagged parallel
};

/** The immutable compiled form. */
struct Image
{
    const Program *program = nullptr;

    std::vector<Inst> insts;
    std::vector<Loop> loops;
    std::vector<TileRegion> tileRegions;
    std::vector<StmtC> stmts;
    std::vector<AllocC> allocs;
    std::vector<PromoC> promos;
    std::vector<AccessC> accesses;
    std::vector<GuardC> guards;
    std::vector<XInst> xinsts;

    // Pools.
    std::vector<LinPair> pairs;
    /** Aligned with `pairs` for access-dim LinFns: the merged fold
     *  slot each pair accumulates into (see foldAccess). */
    std::vector<int32_t> pairMergedIdx;
    std::vector<BTerm> terms;
    std::vector<Range> altTerms; ///< per alt: term range
    std::vector<LinFn> dimFns;   ///< per access dim
    std::vector<int32_t> mergedSlots;
    std::vector<Bound> boxBounds;
    std::vector<double> consts;

    /** Per tensor: indices into `accesses` that touch it. */
    std::vector<std::vector<int32_t>> accessesByTensor;

    int32_t numVars = 0;
    int32_t numTensors = 0;
    int32_t maxStack = 0;
};

// ---------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------

class Compiler
{
  public:
    Compiler(const Program &program, const AstPtr &ast)
        : prog_(program), ast_(ast)
    {
        img_.program = &program;
        img_.numTensors = int32_t(program.tensors().size());
        for (const auto &name : program.params())
            paramValues_.push_back(program.paramValue(name));
    }

    std::shared_ptr<const Image>
    compile()
    {
        img_.numVars = ast_ && ast_->numLoopVars > 0
                           ? ast_->numLoopVars
                           : scanVars(ast_);
        img_.accessesByTensor.resize(img_.numTensors);
        emit(ast_);
        img_.insts.push_back({Op::Halt, 0, 0});
        scanTileRegions();
        return std::make_shared<Image>(std::move(img_));
    }

  private:
    static int
    scanVars(const AstPtr &n)
    {
        if (!n)
            return 0;
        int vars = n->kind == AstKind::For ? n->var + 1 : 0;
        for (const auto &c : n->children)
            vars = std::max(vars, scanVars(c));
        return vars;
    }

    /** Fold a dense (varCoeffs, paramCoeffs, constant) row into a
     *  sparse LinFn over var slots. */
    LinFn
    makeLin(const std::vector<int64_t> &var_coeffs,
            const std::vector<int64_t> &param_coeffs,
            int64_t constant)
    {
        LinFn fn;
        fn.c = constant;
        for (size_t p = 0; p < param_coeffs.size(); ++p)
            fn.c += param_coeffs[p] * paramValues_[p];
        fn.begin = int32_t(img_.pairs.size());
        for (size_t v = 0; v < var_coeffs.size(); ++v)
            if (var_coeffs[v] != 0) {
                img_.pairs.push_back({int32_t(v), var_coeffs[v]});
                img_.pairMergedIdx.push_back(-1);
            }
        fn.end = int32_t(img_.pairs.size());
        return fn;
    }

    Bound
    makeBound(const std::vector<BoundAlt> &alts)
    {
        Bound b;
        b.altBegin = int32_t(img_.altTerms.size());
        for (const auto &alt : alts) {
            Range r;
            r.begin = int32_t(img_.terms.size());
            for (const auto &t : alt) {
                BTerm bt;
                bt.lin =
                    makeLin(t.varCoeffs, t.paramCoeffs, t.constant);
                bt.div = t.div;
                img_.terms.push_back(bt);
            }
            r.end = int32_t(img_.terms.size());
            img_.altTerms.push_back(r);
        }
        b.altEnd = int32_t(img_.altTerms.size());
        return b;
    }

    /**
     * Compile one access of statement node @p n: compose its index
     * rows with the node's bindings, fold parameters, and lay out
     * the merged fold slots the runtime stride-folding writes to.
     * @return index into Image::accesses.
     */
    int32_t
    compileAccess(const AstNode &n, const ir::Access &a)
    {
        if (!a.hasExprs || a.indexExprs.empty())
            fatal("bytecode: affine access without index rows");
        const Statement &s = prog_.statement(n.stmt);
        size_t nd = s.numDims();
        if (n.bindings.size() != nd)
            fatal("bytecode: binding arity mismatch");
        std::vector<int64_t> access_params;
        for (const auto &pname : a.rel.space().params())
            access_params.push_back(prog_.paramValue(pname));

        AccessC ac;
        ac.tensor = a.tensor;
        ac.rank = int32_t(a.indexExprs.size());
        if (ac.rank > int32_t(kMaxRank))
            fatal("bytecode: access rank exceeds limit");
        ac.dimBegin = int32_t(img_.dimFns.size());

        // Per-dim sparse forms over loop-var slots.
        std::vector<int32_t> merged; // sorted unique slots
        for (const auto &row : a.indexExprs) {
            if (row.size() != nd + access_params.size() + 1)
                fatal("bytecode: access row width mismatch");
            LinFn fn;
            fn.c = row.back();
            for (size_t p = 0; p < access_params.size(); ++p)
                fn.c += row[nd + p] * access_params[p];
            // Compose with bindings: dim d of the instance vector is
            // vars[bind.var] + bind.off.
            std::vector<std::pair<int32_t, int64_t>> sparse;
            for (size_t d = 0; d < nd; ++d) {
                if (row[d] == 0)
                    continue;
                fn.c += row[d] * n.bindings[d].second;
                int32_t slot = n.bindings[d].first;
                bool found = false;
                for (auto &pr : sparse)
                    if (pr.first == slot) {
                        pr.second += row[d];
                        found = true;
                    }
                if (!found)
                    sparse.push_back({slot, row[d]});
            }
            fn.begin = int32_t(img_.pairs.size());
            for (const auto &pr : sparse) {
                img_.pairs.push_back({pr.first, pr.second});
                img_.pairMergedIdx.push_back(-1);
                if (std::find(merged.begin(), merged.end(),
                              pr.first) == merged.end())
                    merged.push_back(pr.first);
            }
            fn.end = int32_t(img_.pairs.size());
            img_.dimFns.push_back(fn);
        }

        ac.foldBase = int32_t(img_.mergedSlots.size());
        ac.foldCount = int32_t(merged.size());
        for (int32_t m = 0; m < ac.foldCount; ++m) {
            if (merged[m] == curVar_)
                ac.innerStepSlot = ac.foldBase + m;
            if (merged[m] == curOuterVar_)
                ac.outerStepSlot = ac.foldBase + m;
            img_.mergedSlots.push_back(merged[m]);
        }
        // Second pass: point every dim pair at its merged slot.
        for (int32_t d = 0; d < ac.rank; ++d) {
            const LinFn &fn = img_.dimFns[ac.dimBegin + d];
            for (int32_t i = fn.begin; i < fn.end; ++i) {
                int32_t slot = img_.pairs[i].slot;
                for (int32_t m = 0; m < ac.foldCount; ++m)
                    if (img_.mergedSlots[ac.foldBase + m] == slot)
                        img_.pairMergedIdx[i] = m;
            }
        }

        int32_t idx = int32_t(img_.accesses.size());
        img_.accesses.push_back(ac);
        img_.accessesByTensor[a.tensor].push_back(idx);
        return idx;
    }

    /** Postfix-compile @p e, returning the stack growth high-water
     *  mark relative to entry. */
    int32_t
    compileExpr(const Expr &e, const AstNode &n,
                const std::vector<int32_t> &access_map)
    {
        switch (e.kind) {
          case Expr::Kind::Const: {
            XInst x{XOp::Const, 0, int32_t(img_.consts.size()), 0};
            img_.consts.push_back(e.value);
            img_.xinsts.push_back(x);
            return 1;
          }
          case Expr::Kind::Param: {
            XInst x{XOp::Const, 0, int32_t(img_.consts.size()), 0};
            img_.consts.push_back(
                double(prog_.paramValue(e.param)));
            img_.xinsts.push_back(x);
            return 1;
          }
          case Expr::Kind::Iter: {
            if (e.iter >= n.bindings.size())
                fatal("bytecode: iter index out of range");
            const auto &[var, off] = n.bindings[e.iter];
            img_.xinsts.push_back(
                {XOp::Iter, 0, var, int32_t(off)});
            return 1;
          }
          case Expr::Kind::LoadAcc: {
            const Statement &s = prog_.statement(n.stmt);
            int acc_idx = s.readIndices().at(e.access);
            if (access_map[acc_idx] < 0)
                fatal("LoadAcc on non-affine access; use loadIdx");
            img_.xinsts.push_back(
                {XOp::Load, 0, access_map[acc_idx],
                 img_.accesses[access_map[acc_idx]]
                     .innerStepSlot});
            return 1;
          }
          case Expr::Kind::LoadIdx: {
            int32_t depth = 0;
            for (size_t i = 0; i < e.args.size(); ++i)
                depth = std::max(
                    int32_t(i) + compileExpr(*e.args[i], n,
                                             access_map),
                    depth);
            if (e.args.size() > kMaxRank)
                fatal("bytecode: LoadIdx rank exceeds limit");
            img_.xinsts.push_back({XOp::LoadIdx, 0, e.tensor,
                                   int32_t(e.args.size())});
            return std::max(depth, int32_t(1));
          }
          case Expr::Kind::Unary: {
            int32_t depth = compileExpr(*e.args[0], n, access_map);
            img_.xinsts.push_back(
                {XOp::Un, uint8_t(e.uop), 0, 0});
            return depth;
          }
          case Expr::Kind::Binary: {
            int32_t d0 = compileExpr(*e.args[0], n, access_map);
            int32_t d1 = compileExpr(*e.args[1], n, access_map);
            img_.xinsts.push_back(
                {XOp::Bin, uint8_t(e.bop), 0, 0});
            return std::max(d0, 1 + d1);
          }
        }
        panic("bad expr kind");
    }

    int32_t
    compileStmtNode(const AstNode &n)
    {
        const Statement &s = prog_.statement(n.stmt);
        StmtC sc;
        sc.ops = s.opsPerInstance();

        sc.guardBegin = int32_t(img_.guards.size());
        for (const auto &g : n.guards) {
            GuardC gc;
            gc.isEq = g.isEq;
            gc.fn = makeLin(g.varCoeffs, g.paramCoeffs, g.constant);
            for (int32_t i = gc.fn.begin; i < gc.fn.end; ++i) {
                if (img_.pairs[i].slot == curVar_)
                    gc.innerStep += img_.pairs[i].coef;
                if (img_.pairs[i].slot == curOuterVar_)
                    gc.outerStep += img_.pairs[i].coef;
            }
            img_.guards.push_back(gc);
        }
        sc.guardEnd = int32_t(img_.guards.size());

        // Compile every affine access of this statement node once;
        // non-affine ones (no index rows) stay unmapped and may only
        // be reached through LoadIdx.
        std::vector<int32_t> access_map(s.accesses().size(), -1);
        for (size_t a = 0; a < s.accesses().size(); ++a)
            if (s.accesses()[a].hasExprs &&
                !s.accesses()[a].indexExprs.empty())
                access_map[a] = compileAccess(n, s.accesses()[a]);

        sc.xBegin = int32_t(img_.xinsts.size());
        if (s.body())
            sc.maxStack = compileExpr(*s.body(), n, access_map);
        sc.xEnd = int32_t(img_.xinsts.size());
        img_.maxStack = std::max(img_.maxStack, sc.maxStack);
        sc.simdOk = sc.xBegin != sc.xEnd;
        for (int32_t x = sc.xBegin; x < sc.xEnd; ++x) {
            if (img_.xinsts[x].op == XOp::Load ||
                img_.xinsts[x].op == XOp::LoadIdx)
                ++sc.loadsPerIter;
            if (img_.xinsts[x].op == XOp::LoadIdx)
                sc.simdOk = false;
        }

        if (s.writeIndex() >= 0) {
            if (access_map[s.writeIndex()] < 0)
                fatal("non-affine write access unsupported");
            sc.writeAccess = access_map[s.writeIndex()];
            sc.writeStepSlot =
                img_.accesses[sc.writeAccess].innerStepSlot;
        }

        int32_t idx = int32_t(img_.stmts.size());
        img_.stmts.push_back(sc);
        return idx;
    }

    void
    emit(const AstPtr &n)
    {
        if (!n)
            return;
        switch (n->kind) {
          case AstKind::Block:
            for (const auto &c : n->children)
                emit(c);
            return;
          case AstKind::Alloc: {
            AllocC al;
            al.promoBegin = int32_t(img_.promos.size());
            for (const auto &promo : n->promotions) {
                PromoC pc;
                pc.tensor = promo.tensor;
                pc.rank = int32_t(promo.boxLo.size());
                if (pc.rank > int32_t(kMaxRank))
                    fatal("bytecode: promotion rank exceeds limit");
                pc.boxBase = int32_t(img_.boxBounds.size());
                pc.copyIn = promo.copyIn;
                for (const auto &lo : promo.boxLo)
                    img_.boxBounds.push_back(makeBound(lo));
                for (const auto &hi : promo.boxHi)
                    img_.boxBounds.push_back(makeBound(hi));
                img_.promos.push_back(pc);
            }
            al.promoEnd = int32_t(img_.promos.size());
            int32_t alloc_idx = int32_t(img_.allocs.size());
            img_.allocs.push_back(al);
            img_.insts.push_back(
                {Op::AllocEnter, alloc_idx, 0});
            for (const auto &c : n->children)
                emit(c);
            img_.insts.push_back({Op::AllocExit, alloc_idx, 0});
            return;
          }
          case AstKind::For: {
            Loop loop;
            loop.var = n->var;
            loop.lb = makeBound(n->lb);
            loop.ub = makeBound(n->ub);
            loop.parallel = n->parallel;
            loop.tile = n->tileLoop;
            loop.bandId = n->bandId;
            loop.bandLevel = n->bandLevel;
            int32_t loop_idx = int32_t(img_.loops.size());
            img_.loops.push_back(loop);
            int32_t begin_pc = int32_t(img_.insts.size());
            img_.insts.push_back({Op::ForBegin, loop_idx, 0});
            int32_t saved_var = curVar_;
            int32_t saved_outer = curOuterVar_;
            curOuterVar_ = curVar_;
            curVar_ = n->var;
            for (const auto &c : n->children)
                emit(c);
            curVar_ = saved_var;
            curOuterVar_ = saved_outer;
            int32_t end_pc = int32_t(img_.insts.size());
            img_.insts.push_back(
                {Op::ForEnd, loop_idx, begin_pc + 1});
            img_.insts[begin_pc].jump = end_pc + 1;
            // Innermost-loop detection: a body of only statements
            // compiles to a contiguous Stmt run (fast-path range).
            bool all_stmts = end_pc > begin_pc + 1;
            for (int32_t i = begin_pc + 1; all_stmts && i < end_pc;
                 ++i)
                all_stmts = img_.insts[i].op == Op::Stmt;
            if (all_stmts) {
                img_.loops[loop_idx].stmtBegin =
                    img_.insts[begin_pc + 1].arg;
                img_.loops[loop_idx].stmtEnd =
                    img_.insts[end_pc - 1].arg + 1;
            }
            // Perfect two-level nest: the body is exactly one fast
            // inner loop.
            if (end_pc > begin_pc + 2 &&
                img_.insts[begin_pc + 1].op == Op::ForBegin &&
                img_.insts[end_pc - 1].op == Op::ForEnd &&
                img_.insts[end_pc - 1].arg ==
                    img_.insts[begin_pc + 1].arg &&
                img_.loops[img_.insts[begin_pc + 1].arg]
                        .stmtBegin >= 0)
                img_.loops[loop_idx].nestInner =
                    img_.insts[begin_pc + 1].arg;
            return;
          }
          case AstKind::Stmt:
            img_.insts.push_back(
                {Op::Stmt, compileStmtNode(*n), 0});
            return;
        }
    }

    /** Walk the top level of the finished tape and record every
     *  maximal run of consecutive tile ForBegins of one band (levels
     *  0..L-1) as a TileRegion. Loops and Alloc scopes are never
     *  entered: only outermost tile bands are schedulable. */
    void
    scanTileRegions()
    {
        int32_t pc = 0;
        int alloc_depth = 0;
        while (img_.insts[pc].op != Op::Halt) {
            const Inst &in = img_.insts[pc];
            switch (in.op) {
              case Op::AllocEnter:
                ++alloc_depth;
                ++pc;
                break;
              case Op::AllocExit:
                --alloc_depth;
                ++pc;
                break;
              case Op::Stmt:
                ++pc;
                break;
              case Op::ForBegin: {
                const Loop &l = img_.loops[in.arg];
                if (alloc_depth == 0 && l.bandId >= 0 &&
                    l.bandLevel == 0) {
                    TileRegion r;
                    r.bandId = l.bandId;
                    r.beginPc = pc;
                    r.endPc = in.jump;
                    int32_t p = pc;
                    int32_t level = 0;
                    while (img_.insts[p].op == Op::ForBegin) {
                        const Loop &lp =
                            img_.loops[img_.insts[p].arg];
                        if (lp.bandId != r.bandId ||
                            lp.bandLevel != level)
                            break;
                        r.loops.push_back(img_.insts[p].arg);
                        if (lp.parallel)
                            ++r.coincidentLevels;
                        ++level;
                        ++p;
                    }
                    r.bodyBegin = p;
                    // The innermost tile ForBegin (at p - 1) jumps
                    // past its own ForEnd; the body ends right on it.
                    r.bodyEnd = img_.insts[p - 1].jump - 1;
                    img_.tileRegions.push_back(std::move(r));
                }
                pc = in.jump; // never enter loop bodies
                break;
              }
              case Op::ForEnd:
              case Op::Halt:
                panic("tile-region scan desynchronized");
            }
        }
    }

    const Program &prog_;
    const AstPtr &ast_;
    std::vector<int64_t> paramValues_;
    Image img_;
    /** Vars of the For being compiled and of its parent For
     *  (-1 outside a loop). */
    int32_t curVar_ = -1;
    int32_t curOuterVar_ = -1;
};

// ---------------------------------------------------------------
// Execution
// ---------------------------------------------------------------

/** The active storage of one tensor (global buffer or scratchpad). */
struct Storage
{
    double *base = nullptr;
    int64_t strides[kMaxRank] = {};
    int64_t origin[kMaxRank] = {};
    int64_t extents[kMaxRank] = {};
    int32_t rank = 0;
    int32_t space = 0;
    bool global = true;
};

/** Per-run mutable machine state. */
struct State
{
    std::vector<int64_t> vars;
    std::vector<int64_t> loopHi;
    /** Runtime stride-folded access forms, aligned with
     *  Image::mergedSlots / Image::accesses. */
    std::vector<int64_t> foldCoef;
    std::vector<int64_t> foldConst;
    std::vector<double *> accBase;
    std::vector<int32_t> accSpace;
    std::vector<std::vector<Storage>> storage;     ///< per tensor
    /** Per promotion: its scratchpad, reused by every entry of the
     *  scope and grown to the largest box seen. */
    std::vector<std::vector<double>> scratch;
    std::vector<double> stack;
    /** Lane-block fast path: kSimdWidth lanes per stack slot. */
    std::vector<double> vecStack;
    /** Inner-loop fast path: offsets/guard values at the loop start
     *  plus per-iteration steps, aligned with Image::xinsts (loads),
     *  Image::stmts (writes/mode) and Image::guards. */
    std::vector<int64_t> innerOff, innerStep;
    std::vector<int64_t> writeOff, writeStep;
    /** Per statement: the inclusive range of iteration deltas whose
     *  guards all pass (empty when dLo > dHi). */
    std::vector<int64_t> stmtDLo, stmtDHi;
    /** Per guard: its value at the current inner-loop start (kept
     *  incrementally across the entries of a perfect nest). */
    std::vector<int64_t> guardBase;
    ExecStats stats;
    int parallelDepth = 0;

    TraceSink *sink = nullptr;
    std::vector<TraceRecord> traceBuf;
    size_t traceN = 0;
};

class Machine
{
  public:
    Machine(const Image &img, Buffers &buffers)
        : img_(img), buffers_(buffers)
    {
        st_.vars.assign(img.numVars, 0);
        st_.loopHi.assign(img.loops.size(), 0);
        st_.foldCoef.assign(img.mergedSlots.size(), 0);
        st_.foldConst.assign(img.accesses.size(), 0);
        st_.accBase.assign(img.accesses.size(), nullptr);
        st_.accSpace.assign(img.accesses.size(), 0);
        st_.storage.resize(img.numTensors);
        st_.scratch.resize(img.promos.size());
        st_.stack.assign(std::max(img.maxStack, 1), 0.0);
        st_.vecStack.assign(size_t(std::max(img.maxStack, 1)) *
                                size_t(kSimdWidth),
                            0.0);
        st_.innerOff.assign(img.xinsts.size(), 0);
        st_.innerStep.assign(img.xinsts.size(), 0);
        st_.writeOff.assign(img.stmts.size(), 0);
        st_.writeStep.assign(img.stmts.size(), 0);
        st_.stmtDLo.assign(img.stmts.size(), 0);
        st_.stmtDHi.assign(img.stmts.size(), 0);
        st_.guardBase.assign(img.guards.size(), 0);
        for (int32_t t = 0; t < img.numTensors; ++t) {
            Storage s;
            s.base = buffers.data(t).data();
            const auto &str = buffers.strides(t);
            const auto &ext = buffers.extents(t);
            s.rank = int32_t(str.size());
            for (int32_t d = 0; d < s.rank; ++d) {
                s.strides[d] = str[d];
                s.extents[d] = ext[d];
            }
            s.space = t;
            s.global = true;
            st_.storage[t].push_back(s);
        }
        for (size_t a = 0; a < img.accesses.size(); ++a)
            refold(int32_t(a));
    }

    template <bool Traced>
    ExecStats
    run(TraceSink *sink)
    {
        Timer timer;
        if (Traced) {
            st_.sink = sink;
            st_.traceBuf.resize(kTraceBatch);
        }
        runRange<Traced>(0, int32_t(img_.insts.size()) - 1);
        if (Traced)
            flushTrace();
        st_.stats.seconds = timer.seconds();
        return st_.stats;
    }

    /**
     * The one dispatch loop: execute the well-nested tape span
     * [pc, end_pc). run() passes the whole tape up to Halt; a
     * parallel run passes its sequential glue (spans between tile
     * regions, regions kept sequential) and the body slice of one
     * tile. Returns with the machine's storage stacks and fold state
     * exactly as on entry (Alloc scopes inside the span are
     * balanced). Untraced, innermost loops and perfect two-level
     * nests take the runInner/runNest fast paths; traced, every
     * statement goes through execStmt so the record stream stays
     * per-access and ordered.
     */
    template <bool Traced>
    void
    runRange(int32_t pc, int32_t end_pc)
    {
        const Inst *insts = img_.insts.data();
        while (pc != end_pc) {
            const Inst &in = insts[pc];
            switch (in.op) {
              case Op::ForBegin: {
                const Loop &loop = img_.loops[in.arg];
                int64_t lo = evalBound(loop.lb, true);
                int64_t hi = evalBound(loop.ub, false);
                if (lo > hi) {
                    pc = in.jump;
                    break;
                }
                if (!Traced && loop.nestInner >= 0) {
                    runNest(loop, lo, hi);
                    pc = in.jump;
                    break;
                }
                if (!Traced && loop.stmtBegin >= 0) {
                    runInner(loop, lo, hi);
                    pc = in.jump;
                    break;
                }
                st_.vars[loop.var] = lo;
                st_.loopHi[in.arg] = hi;
                if (loop.parallel)
                    ++st_.parallelDepth;
                ++pc;
                break;
              }
              case Op::ForEnd: {
                const Loop &loop = img_.loops[in.arg];
                if (++st_.vars[loop.var] <= st_.loopHi[in.arg]) {
                    pc = in.jump;
                    break;
                }
                if (loop.parallel)
                    --st_.parallelDepth;
                ++pc;
                break;
              }
              case Op::Stmt:
                execStmt<Traced>(img_.stmts[in.arg]);
                ++pc;
                break;
              case Op::AllocEnter:
                enterAlloc(img_.allocs[in.arg]);
                ++pc;
                break;
              case Op::AllocExit:
                exitAlloc(img_.allocs[in.arg]);
                ++pc;
                break;
              case Op::Halt:
                return;
            }
        }
    }

    /**
     * Execute one tile of region @p r: pin the tile-loop vars to
     * @p coords, preset parallelDepth as if the coincident tile
     * loops had been entered (so instancesParallel matches the
     * sequential run bit-for-bit), and run the body slice.
     */
    void
    runTile(const TileRegion &r, const int64_t *coords)
    {
        for (size_t k = 0; k < r.loops.size(); ++k)
            st_.vars[img_.loops[r.loops[k]].var] = coords[k];
        int saved = st_.parallelDepth;
        st_.parallelDepth = saved + r.coincidentLevels;
        runRange<false>(r.bodyBegin, r.bodyEnd);
        st_.parallelDepth = saved;
    }

    /**
     * Enumerate region @p r's tiles in sequential (lexicographic)
     * order, appending each tile's coordinates (one int64 per level)
     * to @p coords. Inner levels re-evaluate their bounds under the
     * outer coordinates, so non-rectangular (skewed) tile spaces
     * enumerate exactly the tiles the sequential run visits. Reads
     * no buffers -- safe during planning.
     */
    void
    enumerateTiles(const TileRegion &r, std::vector<int64_t> &coords)
    {
        size_t levels = r.loops.size();
        std::vector<int64_t> hi(levels);
        size_t k = 0;
        for (;;) {
            const Loop &loop = img_.loops[r.loops[k]];
            int64_t lo = evalBound(loop.lb, true);
            int64_t h = evalBound(loop.ub, false);
            if (lo <= h) {
                st_.vars[loop.var] = lo;
                hi[k] = h;
                if (k + 1 < levels) {
                    ++k;
                    continue;
                }
                for (;;) {
                    for (size_t j = 0; j < levels; ++j)
                        coords.push_back(
                            st_.vars[img_.loops[r.loops[j]].var]);
                    if (++st_.vars[loop.var] > hi[k])
                        break;
                }
            }
            // Carry: advance the innermost unfinished outer level.
            for (;;) {
                if (k == 0)
                    return;
                --k;
                const Loop &outer = img_.loops[r.loops[k]];
                if (++st_.vars[outer.var] <= hi[k])
                    break;
            }
            ++k;
        }
    }

    ExecStats &stats() { return st_.stats; }

  private:
    /** Scalar unary op, bit-exact with the reference interpreter. */
    static double
    applyUn(uint8_t sub, double v)
    {
        switch (ir::UnOp(sub)) {
          case ir::UnOp::Neg: return -v;
          case ir::UnOp::Exp: return std::exp(v);
          case ir::UnOp::Log: return std::log(std::abs(v) + 1e-12);
          case ir::UnOp::Sqrt: return std::sqrt(std::abs(v));
          case ir::UnOp::Abs: return std::abs(v);
          case ir::UnOp::Relu: return v > 0 ? v : 0.0;
          case ir::UnOp::Floor: return std::floor(v);
        }
        return v;
    }

    /** Scalar binary op, bit-exact with the reference interpreter. */
    static double
    applyBin(uint8_t sub, double a, double b)
    {
        switch (ir::BinOp(sub)) {
          case ir::BinOp::Add: return a + b;
          case ir::BinOp::Sub: return a - b;
          case ir::BinOp::Mul: return a * b;
          case ir::BinOp::Div: return a / (b == 0 ? 1e-12 : b);
          case ir::BinOp::Min: return std::min(a, b);
          case ir::BinOp::Max: return std::max(a, b);
        }
        return 0;
    }

    int64_t
    evalLin(const LinFn &fn) const
    {
        int64_t acc = fn.c;
        const LinPair *pairs = img_.pairs.data();
        const int64_t *vars = st_.vars.data();
        for (int32_t i = fn.begin; i < fn.end; ++i)
            acc += pairs[i].coef * vars[pairs[i].slot];
        return acc;
    }

    int64_t
    evalTerm(const BTerm &t, bool is_lower) const
    {
        int64_t acc = evalLin(t.lin);
        if (t.div == 1)
            return acc;
        return is_lower ? ceilDiv(acc, t.div)
                        : floorDiv(acc, t.div);
    }

    int64_t
    evalBound(const Bound &b, bool is_lower) const
    {
        int64_t best = 0;
        for (int32_t a = b.altBegin; a < b.altEnd; ++a) {
            const Range &r = img_.altTerms[a];
            int64_t alt = evalTerm(img_.terms[r.begin], is_lower);
            for (int32_t t = r.begin + 1; t < r.end; ++t) {
                int64_t v = evalTerm(img_.terms[t], is_lower);
                alt = is_lower ? std::max(alt, v)
                               : std::min(alt, v);
            }
            if (a == b.altBegin)
                best = alt;
            else
                best = is_lower ? std::min(best, alt)
                                : std::max(best, alt);
        }
        return best;
    }

    /** Recompute access @p a's stride-folded linear offset form
     *  against the tensor's currently active storage. */
    void
    refold(int32_t a)
    {
        const AccessC &ac = img_.accesses[a];
        const Storage &sto = st_.storage[ac.tensor].back();
        int64_t *coef = st_.foldCoef.data() + ac.foldBase;
        std::memset(coef, 0, sizeof(int64_t) * ac.foldCount);
        int64_t c = 0;
        for (int32_t d = 0; d < ac.rank; ++d) {
            const LinFn &fn = img_.dimFns[ac.dimBegin + d];
            c += sto.strides[d] * (fn.c - sto.origin[d]);
            for (int32_t i = fn.begin; i < fn.end; ++i)
                coef[img_.pairMergedIdx[i]] +=
                    sto.strides[d] * img_.pairs[i].coef;
        }
        st_.foldConst[a] = c;
        st_.accBase[a] = sto.base;
        st_.accSpace[a] = sto.space;
    }

    int64_t
    accessOffset(int32_t a) const
    {
        const AccessC &ac = img_.accesses[a];
        int64_t off = st_.foldConst[a];
        const int64_t *coef = st_.foldCoef.data() + ac.foldBase;
        const int32_t *slots =
            img_.mergedSlots.data() + ac.foldBase;
        const int64_t *vars = st_.vars.data();
        for (int32_t i = 0; i < ac.foldCount; ++i)
            off += coef[i] * vars[slots[i]];
        return off;
    }

    template <bool Traced>
    void
    trace(int32_t space, int64_t off, bool is_write)
    {
        if (!Traced)
            return;
        st_.traceBuf[st_.traceN++] = {off, space,
                                      uint8_t(is_write ? 1 : 0)};
        if (st_.traceN == kTraceBatch)
            flushTrace();
    }

    void
    flushTrace()
    {
        if (st_.traceN && st_.sink)
            st_.sink->onRecords(st_.traceBuf.data(), st_.traceN);
        st_.traceN = 0;
    }

    /** @tparam Count false on the fast path, where the per-iteration
     *  load count is hoisted out of the loop instead. */
    template <bool Traced, bool Count = true>
    double
    loadIdx(int32_t tensor, const int64_t *idx, size_t rank)
    {
        if (Count)
            ++st_.stats.loads;
        const Storage &sto = st_.storage[tensor].back();
        if (sto.global) {
            int64_t off = buffers_.offsetOf(tensor, idx, rank);
            trace<Traced>(tensor, off, false);
            return sto.base[off];
        }
        int64_t off = 0;
        for (size_t d = 0; d < rank; ++d) {
            int64_t rel = idx[d] - sto.origin[d];
            if (rel < 0 || rel >= sto.extents[d])
                fatal("scratchpad read outside promoted box");
            off += rel * sto.strides[d];
        }
        trace<Traced>(sto.space, off, false);
        return sto.base[off];
    }

    template <bool Traced>
    void
    execStmt(const StmtC &sc)
    {
        for (int32_t g = sc.guardBegin; g < sc.guardEnd; ++g) {
            const GuardC &gc = img_.guards[g];
            int64_t acc = evalLin(gc.fn);
            if (gc.isEq ? acc != 0 : acc < 0) {
                ++st_.stats.guardFails;
                return;
            }
        }
        ++st_.stats.instances;
        if (st_.parallelDepth > 0)
            ++st_.stats.instancesParallel;
        st_.stats.flops += sc.ops;
        if (sc.xBegin == sc.xEnd)
            return;

        double *sp = st_.stack.data(); // next free slot
        const XInst *xs = img_.xinsts.data();
        for (int32_t x = sc.xBegin; x < sc.xEnd; ++x) {
            const XInst &xi = xs[x];
            switch (xi.op) {
              case XOp::Const:
                *sp++ = img_.consts[xi.a];
                break;
              case XOp::Iter:
                *sp++ = double(st_.vars[xi.a] + xi.b);
                break;
              case XOp::Load: {
                ++st_.stats.loads;
                int64_t off = accessOffset(xi.a);
                trace<Traced>(st_.accSpace[xi.a], off, false);
                *sp++ = st_.accBase[xi.a][off];
                break;
              }
              case XOp::LoadIdx: {
                int64_t idx[kMaxRank];
                sp -= xi.b;
                for (int32_t i = 0; i < xi.b; ++i)
                    idx[i] = llround(sp[i]);
                *sp++ = loadIdx<Traced>(xi.a, idx, size_t(xi.b));
                break;
              }
              case XOp::Un:
                sp[-1] = applyUn(xi.sub, sp[-1]);
                break;
              case XOp::Bin: {
                double b = *--sp;
                sp[-1] = applyBin(xi.sub, sp[-1], b);
                break;
              }
            }
        }
        double value = sp[-1];
        if (sc.writeAccess >= 0) {
            ++st_.stats.stores;
            int64_t off = accessOffset(sc.writeAccess);
            trace<Traced>(st_.accSpace[sc.writeAccess], off, true);
            st_.accBase[sc.writeAccess][off] = value;
        }
    }

    /**
     * Untraced innermost-loop fast path: the whole loop runs inside
     * one dispatch. Every access offset and guard value is affine in
     * the loop var, so per-iteration evaluation collapses to
     * base + step * d — and each guard can be *solved* for the
     * iteration interval it passes on, instead of re-checked per
     * iteration. The intersection over a statement's guards yields
     * [dLo, dHi]: guardFails counts the complement (one per failing
     * instance, independent of which guard failed, exactly like the
     * generic short-circuit), and instances, flops, loads and stores
     * hoist over the interval length. The iteration loop then runs
     * only interval membership checks and the expression tape.
     */
    void
    runInner(const Loop &loop, int64_t lo, int64_t hi,
             bool fromNest = false)
    {
        const int64_t n = hi - lo + 1;
        if (loop.parallel)
            ++st_.parallelDepth;
        st_.vars[loop.var] = lo;
        const bool par = st_.parallelDepth > 0;
        int64_t d_start = n, d_end = -1;
        for (int32_t s = loop.stmtBegin; s < loop.stmtEnd; ++s) {
            const StmtC &sc = img_.stmts[s];
            int64_t dlo = 0, dhi = n - 1;
            for (int32_t g = sc.guardBegin; g < sc.guardEnd; ++g) {
                const GuardC &gc = img_.guards[g];
                // On the first entry of a nest (and outside nests)
                // the guard value at d = 0 is evaluated and cached;
                // later nest entries update it incrementally
                // (advanceNest) instead of re-walking the form.
                int64_t base;
                if (fromNest)
                    base = st_.guardBase[g];
                else
                    st_.guardBase[g] = base = evalLin(gc.fn);
                int64_t step = gc.innerStep;
                if (step == 0) {
                    if (gc.isEq ? base != 0 : base < 0)
                        dhi = dlo - 1;
                } else if (gc.isEq) {
                    // base + step * d == 0 at one delta, if integer.
                    if (-base % step != 0)
                        dhi = dlo - 1;
                    else {
                        int64_t d = -base / step;
                        dlo = std::max(dlo, d);
                        dhi = std::min(dhi, d);
                    }
                } else if (step > 0) {
                    dlo = std::max(dlo, ceilDiv(-base, step));
                } else {
                    dhi = std::min(dhi, floorDiv(base, -step));
                }
            }
            // Offsets are primed even for statements whose interval
            // came up empty: a later nest entry advances them by
            // deltas, so they must always hold the d = 0 values.
            if (!fromNest && sc.xBegin != sc.xEnd) {
                for (int32_t x = sc.xBegin; x < sc.xEnd; ++x) {
                    const XInst &xi = img_.xinsts[x];
                    if (xi.op == XOp::Load) {
                        st_.innerOff[x] = accessOffset(xi.a);
                        st_.innerStep[x] =
                            xi.b >= 0 ? st_.foldCoef[xi.b] : 0;
                    }
                }
                if (sc.writeAccess >= 0) {
                    st_.writeOff[s] = accessOffset(sc.writeAccess);
                    st_.writeStep[s] =
                        sc.writeStepSlot >= 0
                            ? st_.foldCoef[sc.writeStepSlot]
                            : 0;
                }
            }
            if (dhi < dlo) {
                st_.stats.guardFails += uint64_t(n);
                st_.stmtDLo[s] = 1;
                st_.stmtDHi[s] = 0;
                continue;
            }
            st_.stmtDLo[s] = dlo;
            st_.stmtDHi[s] = dhi;
            d_start = std::min(d_start, dlo);
            d_end = std::max(d_end, dhi);
            int64_t live = dhi - dlo + 1;
            st_.stats.guardFails += uint64_t(n - live);
            st_.stats.instances += uint64_t(live);
            if (par)
                st_.stats.instancesParallel += uint64_t(live);
            st_.stats.flops += sc.ops * double(live);
            if (sc.xBegin == sc.xEnd)
                continue; // null body: no loads, no store
            st_.stats.loads +=
                uint64_t(sc.loadsPerIter) * uint64_t(live);
            if (sc.writeAccess >= 0)
                st_.stats.stores += uint64_t(live);
        }
        if (loop.stmtEnd - loop.stmtBegin == 1) {
            // Single statement: its pass interval IS the loop.
            const StmtC &sc = img_.stmts[loop.stmtBegin];
            int64_t d = d_start;
            if (sc.simdOk && d_end - d + 1 >= kSimdWidth &&
                simdSafe(loop.stmtBegin, sc)) {
                ++st_.stats.simdLoops;
                for (; d + kSimdWidth - 1 <= d_end;
                     d += kSimdWidth) {
                    execFastStmtBlock(loop.stmtBegin, sc,
                                      loop.var, lo, d);
                    st_.stats.simdLanes += uint64_t(kSimdWidth);
                }
            }
            // Scalar tail (the whole loop when blocks are unsafe).
            for (; d <= d_end; ++d) {
                st_.vars[loop.var] = lo + d;
                execFastStmt(loop.stmtBegin, sc, d);
            }
        } else {
            for (int64_t d = d_start; d <= d_end; ++d) {
                st_.vars[loop.var] = lo + d;
                for (int32_t s = loop.stmtBegin; s < loop.stmtEnd;
                     ++s)
                    if (d >= st_.stmtDLo[s] && d <= st_.stmtDHi[s])
                        execFastStmt(s, img_.stmts[s], d);
            }
        }
        // Leave the var where the generic loop would (hi + 1).
        st_.vars[loop.var] = hi + 1;
        if (loop.parallel)
            --st_.parallelDepth;
    }

    /**
     * Untraced fast path over a perfect two-level nest: the first
     * non-empty inner entry evaluates guard values and access
     * offsets from scratch (runInner with fromNest = false, which
     * caches them); every later entry advances the cached values by
     * the outer/inner deltas since the previous entry, so the
     * per-entry cost is a handful of adds instead of re-walking
     * every linear form. Pays off exactly where tiled code hurts
     * the interpreter most: short innermost trip counts (e.g. a
     * 3-wide convolution window) under guard-heavy tile loops.
     */
    void
    runNest(const Loop &outer, int64_t lo, int64_t hi)
    {
        const Loop &inner = img_.loops[outer.nestInner];
        if (outer.parallel)
            ++st_.parallelDepth;
        bool have_prev = false;
        int64_t prev_w = 0, prev_ilo = 0;
        for (int64_t w = lo; w <= hi; ++w) {
            st_.vars[outer.var] = w;
            int64_t ilo = evalBound(inner.lb, true);
            int64_t ihi = evalBound(inner.ub, false);
            if (ilo > ihi)
                continue;
            if (have_prev) {
                advanceNest(inner, w - prev_w, ilo - prev_ilo);
                runInner(inner, ilo, ihi, true);
            } else {
                runInner(inner, ilo, ihi, false);
            }
            prev_w = w;
            prev_ilo = ilo;
            have_prev = true;
        }
        st_.vars[outer.var] = hi + 1;
        if (outer.parallel)
            --st_.parallelDepth;
    }

    /** Advance the cached guard values and access offsets by
     *  @p dw outer-loop steps and @p di inner-loop-start steps. */
    void
    advanceNest(const Loop &inner, int64_t dw, int64_t di)
    {
        for (int32_t s = inner.stmtBegin; s < inner.stmtEnd; ++s) {
            const StmtC &sc = img_.stmts[s];
            for (int32_t g = sc.guardBegin; g < sc.guardEnd; ++g) {
                const GuardC &gc = img_.guards[g];
                st_.guardBase[g] +=
                    gc.outerStep * dw + gc.innerStep * di;
            }
            if (sc.xBegin == sc.xEnd)
                continue;
            for (int32_t x = sc.xBegin; x < sc.xEnd; ++x) {
                const XInst &xi = img_.xinsts[x];
                if (xi.op != XOp::Load)
                    continue;
                const AccessC &ac = img_.accesses[xi.a];
                if (ac.outerStepSlot >= 0)
                    st_.innerOff[x] +=
                        st_.foldCoef[ac.outerStepSlot] * dw;
                if (ac.innerStepSlot >= 0)
                    st_.innerOff[x] +=
                        st_.foldCoef[ac.innerStepSlot] * di;
            }
            if (sc.writeAccess >= 0) {
                const AccessC &ac = img_.accesses[sc.writeAccess];
                if (ac.outerStepSlot >= 0)
                    st_.writeOff[s] +=
                        st_.foldCoef[ac.outerStepSlot] * dw;
                if (ac.innerStepSlot >= 0)
                    st_.writeOff[s] +=
                        st_.foldCoef[ac.innerStepSlot] * di;
            }
        }
    }

    /**
     * May the vectorized block path run statement @p s of the
     * current inner loop? Block execution loads every lane of every
     * read before storing any lane, so within one kSimdWidth-wide
     * block, loads never observe same-block stores. That changes
     * scalar semantics exactly when a *flow* dependence (store at
     * delta d, load of the same address at delta d+k, k >= 1) falls
     * inside a block -- k in [1, kSimdWidth-1]. Anti dependences
     * (k <= -1: the scalar load happens before the conflicting
     * store) and same-lane read-then-write (k == 0) are preserved by
     * the load-all-then-store-all order; distances >= kSimdWidth
     * land in a later block, which runs strictly after this one.
     * Loads from other tensors cannot alias (disjoint allocations).
     * Only unit-stride stores are selected (contiguous vector
     * writes, and wstep == 0 with a same-base load is a scalar
     * reduction chain); unequal load/store strides over one base
     * walk incommensurate address sets, which we conservatively
     * reject rather than solve.
     */
    bool
    simdSafe(int32_t s, const StmtC &sc) const
    {
        if (sc.writeAccess < 0)
            return true; // no store: loads see frozen memory
        const int64_t wstep = st_.writeStep[s];
        if (wstep != 1)
            return false;
        const double *wbase = st_.accBase[sc.writeAccess];
        const int64_t woff = st_.writeOff[s];
        for (int32_t x = sc.xBegin; x < sc.xEnd; ++x) {
            const XInst &xi = img_.xinsts[x];
            if (xi.op != XOp::Load)
                continue;
            if (st_.accBase[xi.a] != wbase)
                continue;
            if (st_.innerStep[x] != wstep)
                return false;
            int64_t k = woff - st_.innerOff[x];
            if (k >= 1 && k < kSimdWidth)
                return false; // in-block flow dependence
        }
        return true;
    }

    /**
     * One kSimdWidth-wide block of the single-statement fast path:
     * lanes d0 .. d0+kSimdWidth-1 of the inner loop, evaluated
     * slot-parallel on the vector stack. Each lane performs exactly
     * the scalar operation sequence of execFastStmt -- the lane
     * loops apply applyUn/applyBin element-wise, never reassociate,
     * and load/store through the same strength-reduced offsets -- so
     * block results are bit-identical to scalar execution (the
     * selection guard simdSafe() rules out in-block dependences).
     */
    void
    execFastStmtBlock(int32_t s, const StmtC &sc, int32_t loop_var,
                      int64_t lo, int64_t d0)
    {
        constexpr int64_t W = kSimdWidth;
        double *sp = st_.vecStack.data(); // next free slot
        const XInst *xs = img_.xinsts.data();
        const int64_t *off = st_.innerOff.data();
        const int64_t *step = st_.innerStep.data();
        for (int32_t x = sc.xBegin; x < sc.xEnd; ++x) {
            const XInst &xi = xs[x];
            switch (xi.op) {
              case XOp::Const: {
                const double v = img_.consts[xi.a];
                for (int64_t l = 0; l < W; ++l)
                    sp[l] = v;
                sp += W;
                break;
              }
              case XOp::Iter: {
                if (xi.a == loop_var) {
                    const double base = double(lo + d0 + xi.b);
                    for (int64_t l = 0; l < W; ++l)
                        sp[l] = base + double(l);
                } else {
                    const double v =
                        double(st_.vars[xi.a] + xi.b);
                    for (int64_t l = 0; l < W; ++l)
                        sp[l] = v;
                }
                sp += W;
                break;
              }
              case XOp::Load: {
                const double *base =
                    st_.accBase[xi.a] + off[x] + step[x] * d0;
                const int64_t st = step[x];
                for (int64_t l = 0; l < W; ++l)
                    sp[l] = base[st * l];
                sp += W;
                break;
              }
              case XOp::LoadIdx:
                panic("simd block on a LoadIdx statement");
              case XOp::Un:
                for (int64_t l = 0; l < W; ++l)
                    sp[l - W] = applyUn(xi.sub, sp[l - W]);
                break;
              case XOp::Bin:
                sp -= W;
                for (int64_t l = 0; l < W; ++l)
                    sp[l - W] =
                        applyBin(xi.sub, sp[l - W], sp[l]);
                break;
            }
        }
        if (sc.writeAccess >= 0) {
            // simdSafe admitted unit-stride stores only.
            double *out = st_.accBase[sc.writeAccess] +
                          st_.writeOff[s] + st_.writeStep[s] * d0;
            for (int64_t l = 0; l < W; ++l)
                out[l] = sp[l - W];
        }
    }

    /** One statement instance on the fast path, at iteration delta
     *  @p d from the loop start: guards already solved away and
     *  counters hoisted by runInner, offsets strength-reduced. */
    void
    execFastStmt(int32_t s, const StmtC &sc, int64_t d)
    {
        if (sc.xBegin == sc.xEnd)
            return;
        double *sp = st_.stack.data();
        const XInst *xs = img_.xinsts.data();
        const int64_t *off = st_.innerOff.data();
        const int64_t *step = st_.innerStep.data();
        for (int32_t x = sc.xBegin; x < sc.xEnd; ++x) {
            const XInst &xi = xs[x];
            switch (xi.op) {
              case XOp::Const:
                *sp++ = img_.consts[xi.a];
                break;
              case XOp::Iter:
                *sp++ = double(st_.vars[xi.a] + xi.b);
                break;
              case XOp::Load:
                *sp++ = st_.accBase[xi.a][off[x] + step[x] * d];
                break;
              case XOp::LoadIdx: {
                int64_t idx[kMaxRank];
                sp -= xi.b;
                for (int32_t i = 0; i < xi.b; ++i)
                    idx[i] = llround(sp[i]);
                *sp++ = loadIdx<false, false>(xi.a, idx,
                                              size_t(xi.b));
                break;
              }
              case XOp::Un:
                sp[-1] = applyUn(xi.sub, sp[-1]);
                break;
              case XOp::Bin: {
                double b = *--sp;
                sp[-1] = applyBin(xi.sub, sp[-1], b);
                break;
              }
            }
        }
        double value = sp[-1];
        if (sc.writeAccess >= 0)
            st_.accBase[sc.writeAccess]
                       [st_.writeOff[s] + st_.writeStep[s] * d] =
                value;
    }

    void
    enterAlloc(const AllocC &al)
    {
        for (int32_t p = al.promoBegin; p < al.promoEnd; ++p) {
            const PromoC &pc = img_.promos[p];
            const auto &gext = buffers_.extents(pc.tensor);
            Storage s;
            s.rank = pc.rank;
            s.space = img_.numTensors + pc.tensor;
            s.global = false;
            int64_t size = 1;
            for (int32_t d = 0; d < pc.rank; ++d) {
                int64_t lo = evalBound(
                    img_.boxBounds[pc.boxBase + d], true);
                int64_t hi = evalBound(
                    img_.boxBounds[pc.boxBase + pc.rank + d],
                    false);
                lo = std::max<int64_t>(lo, 0);
                hi = std::min<int64_t>(hi, gext[d] - 1);
                if (hi < lo)
                    hi = lo - 1; // empty box
                s.origin[d] = lo;
                s.extents[d] = hi - lo + 1;
                size *= std::max<int64_t>(hi - lo + 1, 0);
            }
            for (int32_t d = pc.rank; d-- > 0;)
                s.strides[d] = d + 1 == pc.rank
                                   ? 1
                                   : s.strides[d + 1] *
                                         std::max<int64_t>(
                                             s.extents[d + 1], 0);
            // No zero-fill: a live copy-in overwrites the whole box,
            // and a dead one is never observed.
            std::vector<double> &data = st_.scratch[size_t(p)];
            if (int64_t(data.size()) < size)
                data.resize(size_t(size));
            s.base = data.data();
            if (size > 0 && pc.copyIn)
                copyIn(pc, s, data.data(), size);
            st_.storage[pc.tensor].push_back(s);
            for (int32_t a : img_.accessesByTensor[pc.tensor])
                refold(a);
        }
    }

    /** Copy-in: producers may read live input values. Reads the
     *  global buffer directly (no trace), like the interpreter. */
    void
    copyIn(const PromoC &pc, const Storage &s, double *data, int64_t n)
    {
        const auto &global = buffers_.data(pc.tensor);
        const auto &gstr = buffers_.strides(pc.tensor);
        for (int64_t i = 0; i < n; ++i) {
            int64_t rem = i, goff = 0;
            for (int32_t d = pc.rank; d-- > 0;) {
                int64_t coord = s.origin[d] + rem % s.extents[d];
                rem /= s.extents[d];
                goff += coord * gstr[d];
            }
            data[i] = global[size_t(goff)];
        }
    }

    void
    exitAlloc(const AllocC &al)
    {
        for (int32_t p = al.promoBegin; p < al.promoEnd; ++p) {
            const PromoC &pc = img_.promos[p];
            st_.storage[pc.tensor].pop_back();
            for (int32_t a : img_.accessesByTensor[pc.tensor])
                refold(a);
        }
    }

    const Image &img_;
    Buffers &buffers_;
    State st_;
};

} // namespace bytecode_detail

using bytecode_detail::Image;
using bytecode_detail::Machine;
using bytecode_detail::TileRegion;

namespace {

/** Merge run counters (seconds excluded: the caller owns timing).
 *  Order-independent for bit-identity: the integer counters are
 *  exact, and flops sums integer-valued per-statement op counts,
 *  which doubles add exactly in any association. */
void
addStats(ExecStats &a, const ExecStats &b)
{
    a.instances += b.instances;
    a.instancesParallel += b.instancesParallel;
    a.flops += b.flops;
    a.loads += b.loads;
    a.stores += b.stores;
    a.guardFails += b.guardFails;
    a.simdLoops += b.simdLoops;
    a.simdLanes += b.simdLanes;
}

/** How one tile region is executed in a parallel run. */
enum class RegionMode
{
    Sequential,
    Static, ///< blocking parallel_for over independent tiles
    Graph,  ///< ready-queue drain of the inter-tile DAG
};

/** Planning result of one region (built before any execution). */
struct RegionPlan
{
    RegionMode mode = RegionMode::Sequential;
    const deps::TileBandGraph *cls = nullptr;
    std::vector<int64_t> tiles; ///< lex-order coords, L per tile
    int64_t n = 0;              ///< tile count
    uint64_t critical = 0;      ///< longest dependence chain (tiles)
    // Graph mode: dense coordinate grid + initial in-degrees.
    std::vector<int64_t> lo, hi, stride;
    std::vector<int32_t> grid; ///< flat coord -> tile index, -1 gap
    std::vector<int32_t> indeg;
};

/** Cap on the dense tile-coordinate grid of one wavefront region. */
constexpr int64_t kMaxGridCells = int64_t(1) << 22;

} // namespace

BytecodeKernel
BytecodeKernel::compile(const Program &program, const AstPtr &ast)
{
    bytecode_detail::Compiler compiler(program, ast);
    return BytecodeKernel(compiler.compile());
}

unsigned
simdWidth()
{
    return unsigned(bytecode_detail::kSimdWidth);
}

ExecStats
BytecodeKernel::run(Buffers &buffers) const
{
    if (!image_)
        fatal("bytecode: run() on an empty kernel");
    Machine m(*image_, buffers);
    return m.run<false>(nullptr);
}

ExecStats
BytecodeKernel::run(Buffers &buffers, TraceSink &sink) const
{
    if (!image_)
        fatal("bytecode: run() on an empty kernel");
    Machine m(*image_, buffers);
    return m.run<true>(&sink);
}

ExecStats
BytecodeKernel::runParallel(Buffers &buffers, unsigned threads,
                            ParStrategy strategy,
                            const std::vector<deps::TileBandGraph> *bands,
                            ParRunStats &par,
                            std::string &fallback_reason) const
{
    if (!image_)
        fatal("bytecode: runParallel() on an empty kernel");
    const Image &img = *image_;
    Timer timer;
    par = ParRunStats{};
    if (threads == 0)
        threads = ThreadPool::defaultThreads();

    Machine main(img, buffers);

    // ---- Planning: classification, tile enumeration, DAG build,
    // worker spawn. Strictly read-only on buffers, so any failure
    // here (including the exec.par.* failpoints) degrades to a full
    // sequential run with nothing to undo.
    std::vector<RegionPlan> plans(img.tileRegions.size());
    std::unique_ptr<ThreadPool> pool;
    try {
        for (size_t ri = 0; ri < img.tileRegions.size(); ++ri) {
            const TileRegion &r = img.tileRegions[ri];
            RegionPlan &p = plans[ri];
            size_t L = r.loops.size();
            if (bands)
                for (const auto &b : *bands)
                    if (b.bandId == r.bandId) {
                        p.cls = &b;
                        break;
                    }
            using deps::TileBandClass;
            if (!p.cls || p.cls->cls == TileBandClass::Serial)
                continue;
            if (p.cls->cls == TileBandClass::FullyParallel) {
                // Independent tiles: the static fast path serves
                // both strategies.
                main.enumerateTiles(r, p.tiles);
                p.n = int64_t(p.tiles.size() / L);
                p.mode = RegionMode::Static;
                p.critical = p.n > 0 ? 1 : 0;
                continue;
            }
            // Wavefront: needs the dynamic executor.
            if (strategy != ParStrategy::Graph)
                continue;
            failpoints::hit("exec.par.tilegraph");
            main.enumerateTiles(r, p.tiles);
            p.n = int64_t(p.tiles.size() / L);
            if (p.n == 0) {
                p.mode = RegionMode::Static;
                continue;
            }
            // Dense grid over the tiles' bounding box.
            p.lo.assign(L, 0);
            p.hi.assign(L, 0);
            for (size_t k = 0; k < L; ++k)
                p.lo[k] = p.hi[k] = p.tiles[k];
            for (int64_t i = 1; i < p.n; ++i)
                for (size_t k = 0; k < L; ++k) {
                    int64_t c = p.tiles[size_t(i) * L + k];
                    p.lo[k] = std::min(p.lo[k], c);
                    p.hi[k] = std::max(p.hi[k], c);
                }
            p.stride.assign(L, 1);
            int64_t cells = 1;
            bool oversize = false;
            for (size_t k = L; k-- > 0;) {
                p.stride[k] = cells;
                int64_t span = p.hi[k] - p.lo[k] + 1;
                if (span > kMaxGridCells ||
                    cells > kMaxGridCells / span) {
                    oversize = true;
                    break;
                }
                cells *= span;
            }
            if (oversize)
                continue; // keep the region sequential
            p.grid.assign(size_t(cells), -1);
            auto flatten = [&](const int64_t *c) {
                int64_t f = 0;
                for (size_t k = 0; k < L; ++k)
                    f += (c[k] - p.lo[k]) * p.stride[k];
                return f;
            };
            for (int64_t i = 0; i < p.n; ++i)
                p.grid[size_t(
                    flatten(&p.tiles[size_t(i) * L]))] =
                    int32_t(i);
            // In-degrees + critical path. Lex tile order is a
            // topological order (stencil vectors are lex-positive),
            // so one forward sweep computes chain depths.
            p.indeg.assign(size_t(p.n), 0);
            std::vector<int32_t> depth(size_t(p.n), 1);
            std::vector<int64_t> pred(L);
            for (int64_t i = 0; i < p.n; ++i) {
                for (const auto &d : p.cls->deltas) {
                    bool inside = true;
                    for (size_t k = 0; k < L; ++k) {
                        pred[k] =
                            p.tiles[size_t(i) * L + k] - d[k];
                        if (pred[k] < p.lo[k] ||
                            pred[k] > p.hi[k]) {
                            inside = false;
                            break;
                        }
                    }
                    if (!inside)
                        continue;
                    int32_t j =
                        p.grid[size_t(flatten(pred.data()))];
                    if (j < 0)
                        continue;
                    ++p.indeg[size_t(i)];
                    depth[size_t(i)] =
                        std::max(depth[size_t(i)],
                                 depth[size_t(j)] + 1);
                }
            }
            p.critical = uint64_t(*std::max_element(
                depth.begin(), depth.end()));
            p.mode = RegionMode::Graph;
        }
        failpoints::hit("exec.par.spawn");
        pool = std::make_unique<ThreadPool>(threads);
    } catch (const std::exception &e) {
        fallback_reason = e.what();
        par = ParRunStats{};
        return main.run<false>(nullptr);
    }

    // ---- Execution: sequential glue on the launching machine,
    // regions per their plan.
    par.threads = pool->size();
    par.strategy = strategy;
    ExecStats total;
    std::mutex mu;
    int32_t cursor = 0;
    for (size_t ri = 0; ri < img.tileRegions.size(); ++ri) {
        const TileRegion &r = img.tileRegions[ri];
        RegionPlan &p = plans[ri];
        size_t L = r.loops.size();
        main.runRange<false>(cursor, r.beginPc);
        cursor = r.endPc;
        if (p.mode == RegionMode::Sequential) {
            ++par.regionsSequential;
            main.runRange<false>(r.beginPc, r.endPc);
            continue;
        }
        ++par.regionsParallel;
        par.tilesExecuted += uint64_t(p.n);
        par.criticalPath = std::max(par.criticalPath, p.critical);
        if (p.n == 0)
            continue; // empty iteration space: nothing runs
        if (p.mode == RegionMode::Static) {
            pool->parallelFor(
                0, p.n, 0, [&](int64_t b, int64_t e) {
                    Machine m(img, buffers);
                    for (int64_t i = b; i < e; ++i)
                        m.runTile(r, &p.tiles[size_t(i) * L]);
                    std::lock_guard<std::mutex> lock(mu);
                    addStats(total, m.stats());
                });
        } else {
            // Ready-queue drain: a fixed ring where every tile is
            // enqueued exactly once when its atomic in-degree hits
            // zero; workers claim head tickets with one CAS -- no
            // locks on the hot path.
            const int64_t n = p.n;
            std::vector<std::atomic<int32_t>> indeg(
                static_cast<size_t>(n));
            std::vector<std::atomic<int32_t>> ring(
                static_cast<size_t>(n));
            for (int64_t i = 0; i < n; ++i) {
                indeg[size_t(i)].store(p.indeg[size_t(i)],
                                       std::memory_order_relaxed);
                ring[size_t(i)].store(-1,
                                      std::memory_order_relaxed);
            }
            int64_t ready0 = 0;
            for (int64_t i = 0; i < n; ++i)
                if (p.indeg[size_t(i)] == 0)
                    ring[size_t(ready0++)].store(
                        int32_t(i), std::memory_order_relaxed);
            std::atomic<int64_t> head{0}, tail{ready0};
            std::atomic<int64_t> done{0};
            std::atomic<uint64_t> wait_sum{0};
            std::atomic<bool> abort{false};
            unsigned nw = unsigned(
                std::min<int64_t>(pool->size(), n));
            for (unsigned w = 0; w < nw; ++w)
                pool->submit([&, L] {
                    Machine m(img, buffers);
                    uint64_t my_waits = 0;
                    for (;;) {
                        if (done.load(std::memory_order_acquire) >=
                                n ||
                            abort.load(std::memory_order_relaxed))
                            break;
                        int64_t h = head.load(
                            std::memory_order_relaxed);
                        if (h >= tail.load(
                                     std::memory_order_acquire)) {
                            ++my_waits;
                            std::this_thread::yield();
                            continue;
                        }
                        if (!head.compare_exchange_weak(
                                h, h + 1,
                                std::memory_order_acq_rel))
                            continue;
                        int32_t t;
                        while ((t = ring[size_t(h)].load(
                                    std::memory_order_acquire)) <
                               0)
                            std::this_thread::yield();
                        try {
                            m.runTile(r,
                                      &p.tiles[size_t(t) * L]);
                        } catch (...) {
                            abort.store(
                                true, std::memory_order_relaxed);
                            {
                                std::lock_guard<std::mutex> lock(
                                    mu);
                                addStats(total, m.stats());
                            }
                            wait_sum.fetch_add(
                                my_waits,
                                std::memory_order_relaxed);
                            throw; // captured by the pool
                        }
                        for (const auto &d : p.cls->deltas) {
                            bool inside = true;
                            int64_t flat = 0;
                            for (size_t k = 0; k < L; ++k) {
                                int64_t c =
                                    p.tiles[size_t(t) * L + k] +
                                    d[k];
                                if (c < p.lo[k] || c > p.hi[k]) {
                                    inside = false;
                                    break;
                                }
                                flat +=
                                    (c - p.lo[k]) * p.stride[k];
                            }
                            if (!inside)
                                continue;
                            int32_t s = p.grid[size_t(flat)];
                            if (s < 0)
                                continue;
                            if (indeg[size_t(s)].fetch_sub(
                                    1,
                                    std::memory_order_acq_rel) ==
                                1) {
                                int64_t pos = tail.fetch_add(
                                    1, std::memory_order_acq_rel);
                                ring[size_t(pos)].store(
                                    s,
                                    std::memory_order_release);
                            }
                        }
                        done.fetch_add(
                            1, std::memory_order_acq_rel);
                    }
                    {
                        std::lock_guard<std::mutex> lock(mu);
                        addStats(total, m.stats());
                    }
                    wait_sum.fetch_add(
                        my_waits, std::memory_order_relaxed);
                });
            pool->wait();
            par.waits +=
                wait_sum.load(std::memory_order_relaxed);
        }
        if (pool->failureCount()) {
            std::vector<std::string> fails = pool->takeFailures();
            fatal("parallel tile execution failed: " +
                  fails.front());
        }
    }
    // Trailing sequential span up to (not including) Halt.
    main.runRange<false>(cursor, int32_t(img.insts.size()) - 1);

    addStats(main.stats(), total);
    main.stats().seconds = timer.seconds();
    return main.stats();
}

size_t
BytecodeKernel::numTileRegions() const
{
    return image_ ? image_->tileRegions.size() : 0;
}

size_t
BytecodeKernel::numInstructions() const
{
    return image_ ? image_->insts.size() : 0;
}

size_t
BytecodeKernel::numStatements() const
{
    return image_ ? image_->stmts.size() : 0;
}

} // namespace exec
} // namespace polyfuse
