#include "exec/executor.hh"

#include <cmath>

#include "support/intmath.hh"
#include "support/logging.hh"
#include "support/timer.hh"

namespace polyfuse {
namespace exec {

using codegen::AstKind;
using codegen::AstNode;
using codegen::AstPtr;
using codegen::BoundAlt;
using codegen::BoundTerm;
using ir::Access;
using ir::Expr;
using ir::Program;
using ir::Statement;

Buffers::Buffers(const Program &program)
{
    for (size_t t = 0; t < program.tensors().size(); ++t) {
        std::vector<int64_t> ext;
        if (program.tensor(t).rank > 8)
            fatal("tensor " + program.tensor(t).name +
                  " exceeds the supported rank (8)");
        for (unsigned d = 0; d < program.tensor(t).rank; ++d)
            ext.push_back(program.tensorExtent(t, d));
        int64_t n = 1;
        for (int64_t e : ext) {
            if (e <= 0)
                fatal("tensor " + program.tensor(t).name +
                      " has non-positive extent");
            n = checkedMul(n, e);
        }
        data_.emplace_back(n, 0.0);
        std::vector<int64_t> str(ext.size(), 1);
        for (size_t d = ext.size(); d-- > 1;)
            str[d - 1] = str[d] * ext[d];
        extents_.push_back(std::move(ext));
        strides_.push_back(std::move(str));
    }
}

int64_t
Buffers::offsetOf(int tensor, const int64_t *idx, size_t rank) const
{
    const auto &ext = extents_.at(tensor);
    if (rank != ext.size())
        fatal("rank mismatch accessing tensor " +
              std::to_string(tensor));
    int64_t off = 0;
    for (size_t d = 0; d < rank; ++d) {
        if (idx[d] < 0 || idx[d] >= ext[d])
            fatal("out-of-bounds access to tensor " +
                  std::to_string(tensor) + " dim " +
                  std::to_string(d) + ": " + std::to_string(idx[d]) +
                  " not in [0, " + std::to_string(ext[d]) + ")");
        off = off * ext[d] + idx[d];
    }
    return off;
}

void
Buffers::fillPattern(int tensor, uint64_t seed)
{
    uint64_t x = seed * 6364136223846793005ULL + 1442695040888963407ULL;
    for (auto &v : data_.at(tensor)) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        v = double(x % 1000) / 500.0 - 1.0;
    }
}

namespace {

/** Deepest tensor rank the fixed index buffers support. */
constexpr size_t kMaxRank = 8;

/** Pre-resolved runtime view of one access. */
struct AccessRt
{
    int tensor = -1;
    /** Per tensor dim: row over [stmt dims, access params, 1]. */
    std::vector<std::vector<int64_t>> rows;
    std::vector<int64_t> paramValues;
};

/** Pre-resolved runtime view of one statement. */
struct StmtRt
{
    const Statement *stmt = nullptr;
    std::vector<AccessRt> accesses; ///< same order as stmt accesses
    int write = -1;
    double ops = 1.0;
};

/** Active scratchpad of one promoted tensor. */
struct Scratch
{
    std::vector<int64_t> origin;
    std::vector<int64_t> extents;
    std::vector<double> data;
};

class Machine
{
  public:
    Machine(const Program &program, Buffers &buffers,
            const TraceHook &trace)
        : prog_(program), buffers_(buffers), trace_(trace)
    {
        for (const auto &name : program.params())
            paramValues_.push_back(program.paramValue(name));
        for (const auto &s : program.statements()) {
            StmtRt rt;
            rt.stmt = &s;
            rt.write = s.writeIndex();
            rt.ops = s.opsPerInstance();
            for (const auto &a : s.accesses()) {
                AccessRt art;
                art.tensor = a.tensor;
                if (a.hasExprs)
                    art.rows = a.indexExprs;
                for (const auto &pname : a.rel.space().params())
                    art.paramValues.push_back(
                        program.paramValue(pname));
                rt.accesses.push_back(std::move(art));
            }
            stmts_.push_back(std::move(rt));
        }
        scratch_.resize(program.tensors().size());
    }

    ExecStats
    run(const AstPtr &ast)
    {
        Timer timer;
        if (ast && ast->numLoopVars > 0)
            vars_.resize(ast->numLoopVars, 0);
        exec(ast);
        stats_.seconds = timer.seconds();
        return stats_;
    }

  private:
    int64_t
    evalTerm(const BoundTerm &t, bool is_lower) const
    {
        int64_t acc = t.constant;
        for (size_t v = 0; v < t.varCoeffs.size(); ++v)
            if (t.varCoeffs[v] != 0)
                acc += t.varCoeffs[v] * vars_[v];
        for (size_t p = 0; p < t.paramCoeffs.size(); ++p)
            if (t.paramCoeffs[p] != 0)
                acc += t.paramCoeffs[p] * paramValues_[p];
        if (t.div == 1)
            return acc;
        return is_lower ? ceilDiv(acc, t.div) : floorDiv(acc, t.div);
    }

    int64_t
    evalAlt(const BoundAlt &alt, bool is_lower) const
    {
        int64_t best = evalTerm(alt[0], is_lower);
        for (size_t i = 1; i < alt.size(); ++i) {
            int64_t v = evalTerm(alt[i], is_lower);
            best = is_lower ? std::max(best, v) : std::min(best, v);
        }
        return best;
    }

    int64_t
    evalBound(const std::vector<BoundAlt> &alts, bool is_lower) const
    {
        int64_t best = evalAlt(alts[0], is_lower);
        for (size_t i = 1; i < alts.size(); ++i) {
            int64_t v = evalAlt(alts[i], is_lower);
            best = is_lower ? std::min(best, v) : std::max(best, v);
        }
        return best;
    }

    double
    loadTensor(int tensor, const int64_t *idx, size_t rank)
    {
        ++stats_.loads;
        const auto &stack = scratch_[tensor];
        if (!stack.empty()) {
            const Scratch &s = stack.back();
            int64_t off = 0;
            for (size_t d = 0; d < rank; ++d) {
                int64_t rel = idx[d] - s.origin[d];
                if (rel < 0 || rel >= s.extents[d])
                    fatal("scratchpad read outside promoted box");
                off = off * s.extents[d] + rel;
            }
            if (trace_)
                trace_(prog_.tensors().size() + tensor, off, false);
            return s.data[off];
        }
        int64_t off = buffers_.offsetOf(tensor, idx, rank);
        if (trace_)
            trace_(tensor, off, false);
        return buffers_.data(tensor)[off];
    }

    void
    storeTensor(int tensor, const int64_t *idx, size_t rank,
                double value)
    {
        ++stats_.stores;
        auto &stack = scratch_[tensor];
        if (!stack.empty()) {
            Scratch &s = stack.back();
            int64_t off = 0;
            for (size_t d = 0; d < rank; ++d) {
                int64_t rel = idx[d] - s.origin[d];
                if (rel < 0 || rel >= s.extents[d])
                    fatal("scratchpad write outside promoted box");
                off = off * s.extents[d] + rel;
            }
            if (trace_)
                trace_(prog_.tensors().size() + tensor, off, true);
            s.data[off] = value;
            return;
        }
        int64_t off = buffers_.offsetOf(tensor, idx, rank);
        if (trace_)
            trace_(tensor, off, true);
        buffers_.data(tensor)[off] = value;
    }

    /** Compute the index vector of access @p a at instance @p iv
     *  into the fixed-capacity @p idx (no per-access allocation). */
    size_t
    accessIndex(const AccessRt &a, const std::vector<int64_t> &iv,
                int64_t *idx) const
    {
        size_t rank = 0;
        for (const auto &row : a.rows) {
            int64_t acc = row.back();
            for (size_t d = 0; d < iv.size(); ++d)
                acc += row[d] * iv[d];
            for (size_t p = 0; p < a.paramValues.size(); ++p)
                acc += row[iv.size() + p] * a.paramValues[p];
            idx[rank++] = acc;
        }
        return rank;
    }

    double
    evalExpr(const Expr &e, const StmtRt &rt,
             const std::vector<int64_t> &iv)
    {
        switch (e.kind) {
          case Expr::Kind::Const:
            return e.value;
          case Expr::Kind::Iter:
            return double(iv.at(e.iter));
          case Expr::Kind::Param:
            return double(prog_.paramValue(e.param));
          case Expr::Kind::LoadAcc: {
            const Statement &s = *rt.stmt;
            int acc_idx = s.readIndices().at(e.access);
            const AccessRt &a = rt.accesses[acc_idx];
            if (a.rows.empty())
                fatal("LoadAcc on non-affine access; use loadIdx");
            int64_t idx[kMaxRank];
            size_t rank = accessIndex(a, iv, idx);
            return loadTensor(a.tensor, idx, rank);
          }
          case Expr::Kind::LoadIdx: {
            int64_t idx[kMaxRank];
            size_t rank = 0;
            for (const auto &arg : e.args)
                idx[rank++] = llround(evalExpr(*arg, rt, iv));
            return loadTensor(e.tensor, idx, rank);
          }
          case Expr::Kind::Unary: {
            double x = evalExpr(*e.args[0], rt, iv);
            switch (e.uop) {
              case ir::UnOp::Neg: return -x;
              case ir::UnOp::Exp: return std::exp(x);
              case ir::UnOp::Log: return std::log(std::abs(x) + 1e-12);
              case ir::UnOp::Sqrt: return std::sqrt(std::abs(x));
              case ir::UnOp::Abs: return std::abs(x);
              case ir::UnOp::Relu: return x > 0 ? x : 0.0;
              case ir::UnOp::Floor: return std::floor(x);
            }
            panic("bad unop");
          }
          case Expr::Kind::Binary: {
            double a = evalExpr(*e.args[0], rt, iv);
            double b = evalExpr(*e.args[1], rt, iv);
            switch (e.bop) {
              case ir::BinOp::Add: return a + b;
              case ir::BinOp::Sub: return a - b;
              case ir::BinOp::Mul: return a * b;
              case ir::BinOp::Div: return a / (b == 0 ? 1e-12 : b);
              case ir::BinOp::Min: return std::min(a, b);
              case ir::BinOp::Max: return std::max(a, b);
            }
            panic("bad binop");
          }
        }
        panic("bad expr kind");
    }

    void
    execStmt(const AstNode &n)
    {
        const StmtRt &rt = stmts_[n.stmt];
        // Guards.
        for (const auto &g : n.guards) {
            int64_t acc = g.constant;
            for (size_t v = 0; v < g.varCoeffs.size(); ++v)
                if (g.varCoeffs[v] != 0)
                    acc += g.varCoeffs[v] * vars_[v];
            for (size_t p = 0; p < g.paramCoeffs.size(); ++p)
                if (g.paramCoeffs[p] != 0)
                    acc += g.paramCoeffs[p] * paramValues_[p];
            if (g.isEq ? acc != 0 : acc < 0) {
                ++stats_.guardFails;
                return;
            }
        }
        // Instance vector.
        iv_.clear();
        for (const auto &[var, off] : n.bindings)
            iv_.push_back(vars_[var] + off);

        ++stats_.instances;
        if (parallelDepth_ > 0)
            ++stats_.instancesParallel;
        stats_.flops += rt.ops;
        if (!rt.stmt->body())
            return;
        double value = evalExpr(*rt.stmt->body(), rt, iv_);
        if (rt.write >= 0) {
            const AccessRt &w = rt.accesses[rt.write];
            if (w.rows.empty())
                fatal("non-affine write access unsupported");
            int64_t idx[kMaxRank];
            size_t rank = accessIndex(w, iv_, idx);
            storeTensor(w.tensor, idx, rank, value);
        }
    }

    void
    enterAlloc(const AstNode &n)
    {
        for (const auto &promo : n.promotions) {
            Scratch s;
            int64_t size = 1;
            unsigned rank = promo.boxLo.size();
            const auto &gext = buffers_.extents(promo.tensor);
            for (unsigned d = 0; d < rank; ++d) {
                int64_t lo = evalBound(promo.boxLo[d], true);
                int64_t hi = evalBound(promo.boxHi[d], false);
                // Clamp to the tensor's global extent.
                lo = std::max<int64_t>(lo, 0);
                hi = std::min<int64_t>(hi, gext[d] - 1);
                if (hi < lo)
                    hi = lo - 1; // empty box
                s.origin.push_back(lo);
                s.extents.push_back(hi - lo + 1);
                size *= std::max<int64_t>(hi - lo + 1, 0);
            }
            s.data.assign(std::max<int64_t>(size, 0), 0.0);
            // Copy-in: producers may read live input values (e.g.
            // in-place quantization). Skipped when codegen proved
            // every read under the scope sees an in-scope write.
            if (size > 0 && promo.copyIn)
                copyIn(promo.tensor, s);
            scratch_[promo.tensor].push_back(std::move(s));
        }
    }

    void
    copyIn(int tensor, Scratch &s)
    {
        std::vector<int64_t> idx(s.origin.size(), 0);
        const auto &global = buffers_.data(tensor);
        int64_t n = s.data.size();
        for (int64_t i = 0; i < n; ++i) {
            // Decode i into box coordinates.
            int64_t rem = i;
            for (int d = int(s.extents.size()) - 1; d >= 0; --d) {
                idx[d] = s.origin[d] + rem % s.extents[d];
                rem /= s.extents[d];
            }
            int64_t off = buffers_.offsetOf(tensor, idx);
            s.data[i] = global[off];
        }
    }

    void
    exitAlloc(const AstNode &n)
    {
        for (const auto &promo : n.promotions)
            scratch_[promo.tensor].pop_back();
    }

    void
    exec(const AstPtr &n)
    {
        if (!n)
            return;
        switch (n->kind) {
          case AstKind::Block:
            for (const auto &c : n->children)
                exec(c);
            return;
          case AstKind::Alloc:
            enterAlloc(*n);
            for (const auto &c : n->children)
                exec(c);
            exitAlloc(*n);
            return;
          case AstKind::For: {
            int64_t lo = evalBound(n->lb, true);
            int64_t hi = evalBound(n->ub, false);
            if (vars_.size() <= size_t(n->var))
                vars_.resize(n->var + 1, 0);
            if (n->parallel)
                ++parallelDepth_;
            for (int64_t v = lo; v <= hi; ++v) {
                vars_[n->var] = v;
                for (const auto &c : n->children)
                    exec(c);
            }
            if (n->parallel)
                --parallelDepth_;
            return;
          }
          case AstKind::Stmt:
            execStmt(*n);
            return;
        }
    }

    const Program &prog_;
    Buffers &buffers_;
    TraceHook trace_;
    std::vector<int64_t> paramValues_;
    std::vector<StmtRt> stmts_;
    std::vector<std::vector<Scratch>> scratch_;
    std::vector<int64_t> vars_;
    std::vector<int64_t> iv_;
    int parallelDepth_ = 0;
    ExecStats stats_;
};

} // namespace

ExecStats
run(const Program &program, const AstPtr &ast, Buffers &buffers,
    const TraceHook &trace)
{
    Machine machine(program, buffers, trace);
    return machine.run(ast);
}

} // namespace exec
} // namespace polyfuse
