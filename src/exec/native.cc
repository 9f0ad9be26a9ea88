#include "exec/native.hh"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <mutex>
#include <set>
#include <sstream>

#include <dlfcn.h>
#include <unistd.h>

#include "support/failpoint.hh"
#include "support/logging.hh"
#include "support/strutil.hh"
#include "support/timer.hh"

namespace polyfuse {
namespace exec {

using codegen::AstKind;
using codegen::AstNode;
using codegen::AstPtr;
using codegen::BoundAlt;
using codegen::BoundTerm;
using codegen::GuardRow;
using ir::Expr;
using ir::Program;
using ir::Statement;

namespace {

/**
 * The one compile line of every native kernel (plus `-fopenmp` for a
 * tile team); the TU's first comment prints it. None of these flags
 * changes a value:
 *   -march=native      the process that builds a kernel loads it;
 *   -ftree-vectorize -fvect-cost-model=dynamic
 *                      loops with run-time trip counts vectorize
 *                      behind a scalar epilogue and a run-time alias
 *                      check (the -O2 "very cheap" model refuses
 *                      both);
 *   -fno-math-errno    lets sqrt inline (IEEE-exact either way);
 *   -ffp-contract=off  the interpreter never fuses a*b+c, so the
 *                      kernel must not either (bit-exactness).
 */
const char *const kCompileFlags =
    "-O2 -march=native -ftree-vectorize -fvect-cost-model=dynamic "
    "-fno-math-errno -ffp-contract=off";

/** kCompileFlags, with `-fopenmp` when the kernel has a tile team. */
std::string
compileFlags(bool team)
{
    return std::string(kCompileFlags) + (team ? " -fopenmp" : "");
}

/**
 * The only outside names the TU uses, declared instead of included:
 * the system headers cost more cc time than the vectorizer does.
 */
const char *const kDeclarations =
    "typedef __INT64_TYPE__ int64_t;\n"
    "typedef __SIZE_TYPE__ size_t;\n"
    "double exp(double);\n"
    "double log(double);\n"
    "double sqrt(double);\n"
    "double fabs(double);\n"
    "double floor(double);\n"
    "long long llround(double);\n"
    "void *malloc(size_t);\n"
    "void free(void *);\n";

/**
 * The helpers every rendered bound relies on. Real functions, not
 * macros: bounds nest pf_min/pf_max tens deep on heavily fused
 * kernels, and a macro doubles the token count per nesting level --
 * a 20-line loop nest can explode to 2^20+ preprocessed tokens and
 * minutes of cc1 time. Functions keep the source linear and inline
 * to the same code at -O2.
 */
const char *const kHelperPreamble =
    "static inline int64_t pf_max(int64_t a, int64_t b)\n"
    "{ return a > b ? a : b; }\n"
    "static inline int64_t pf_min(int64_t a, int64_t b)\n"
    "{ return a < b ? a : b; }\n"
    "static inline int64_t pf_fdiv(int64_t n, int64_t d)\n"
    "{ return n >= 0 ? n / d : -((-n + d - 1) / d); }\n"
    "static inline int64_t pf_cdiv(int64_t n, int64_t d)\n"
    "{ return pf_fdiv(n + d - 1, d); }\n"
    "static inline double *pf_grow(double **arena, int64_t *cap,\n"
    "                              int64_t size)\n"
    "{\n"
    "  if (size > *cap) {\n"
    "    free(*arena);\n"
    "    *arena = (double *)malloc((size_t)size * sizeof(double));\n"
    "    *cap = size;\n"
    "  }\n"
    "  return *arena;\n"
    "}\n";

/** Render a double so the C compiler reparses the exact bits. */
std::string
hexDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%a", v);
    return buf;
}

/** The fully-parallel band ids of @p bands (empty without proof). */
std::set<int>
fullyParallelBands(const std::vector<deps::TileBandGraph> *bands)
{
    std::set<int> out;
    if (bands)
        for (const auto &b : *bands)
            if (b.cls == deps::TileBandClass::FullyParallel)
                out.insert(b.bandId);
    return out;
}

/** The lexically active scratchpad of one tensor. */
struct ScratchScope
{
    std::string buf;                 ///< local array variable
    std::vector<std::string> lo;     ///< per-dim origin variables
    std::vector<std::string> ext;    ///< per-dim extent variables
};

class Emitter
{
  public:
    Emitter(const Program &p, unsigned threads,
            const std::vector<deps::TileBandGraph> *bands)
        : prog_(p), threads_(threads),
          par_bands_(fullyParallelBands(bands)),
          scratch_(p.tensors().size()), touched_(p.tensors().size())
    {
    }

    std::string
    run(const AstPtr &ast)
    {
        collectVarNames(ast);
        // The nest first, so the signature knows which tensors it
        // touches.
        std::ostringstream nest;
        std::swap(os_, nest);
        arenaScope(1, [&] { visit(ast, 1); });
        std::swap(os_, nest);

        const size_t nt = prog_.tensors().size();
        os_ << "/* polyfuse native kernel (" << prog_.name()
            << ") -- generated; do not edit\n"
            << "   cc " << compileFlags(threads_ > 1) << " */\n"
            << kDeclarations << "\n" << kHelperPreamble << "\n";
        // One restrict pointer per tensor: each is its own
        // allocation (pf_kernel's precondition), which is what lets
        // the point loops vectorize without alias checks between
        // tensors.
        os_ << "static void pf_body(";
        for (size_t t = 0; t < nt; ++t)
            os_ << (t ? ",\n                    " : "")
                << "double *restrict " << tensorPtr(int(t));
        os_ << ")\n{\n";
        for (const auto &name : prog_.params())
            line(1) << "const int64_t " << name << " = "
                    << prog_.paramValue(name) << ";\n";
        if (!prog_.params().empty())
            os_ << "\n";
        // Parameters can be unused when codegen folded them away,
        // and tensors when the nest never reaches them.
        for (const auto &name : prog_.params())
            line(1) << "(void)" << name << ";\n";
        for (size_t t = 0; t < nt; ++t)
            if (!touched_[t])
                line(1) << "(void)" << tensorPtr(int(t)) << ";\n";
        os_ << nest.str() << "}\n\n"
            << "void pf_kernel(double **pf_bufs)\n{\n";
        line(1) << "pf_body(";
        for (size_t t = 0; t < nt; ++t)
            os_ << (t ? ", " : "") << "pf_bufs[" << t << "]";
        os_ << ");\n}\n";
        return os_.str();
    }

    /** Top-level tile bands that got a tile-team. */
    unsigned regionsParallel() const { return regions_parallel_; }

    /** Top-level tile bands kept sequential. */
    unsigned regionsSequential() const { return regions_sequential_; }

  private:
    std::ostream &
    line(unsigned depth)
    {
        os_ << std::string(depth * 2, ' ');
        return os_;
    }

    /**
     * Emit @p body at @p depth between the declarations and the
     * release of the scratchpad arenas its Alloc scopes use: one
     * arena per promotion for the kernel call (the outermost scope)
     * or for one tile-team worker, grown by pf_grow when a tile's box
     * outgrows it and reused by every later tile. The arena must stay
     * a local of the worker: a shared or thread-local one is slower
     * or races.
     */
    void
    arenaScope(unsigned depth, const std::function<void()> &body)
    {
        arenas_.emplace_back();
        std::ostringstream inner;
        std::swap(os_, inner);
        body();
        std::swap(os_, inner);
        for (const std::string &tag : arenas_.back())
            line(depth) << "double *pf_arena_" << tag
                        << " = 0;\n";
        for (const std::string &tag : arenas_.back())
            line(depth) << "int64_t pf_cap_" << tag << " = 0;\n";
        os_ << inner.str();
        for (const std::string &tag : arenas_.back())
            line(depth) << "free(pf_arena_" << tag << ");\n";
        arenas_.pop_back();
    }

    void
    collectVarNames(const AstPtr &n)
    {
        if (!n)
            return;
        if (n->kind == AstKind::For) {
            if (var_names_.size() <= size_t(n->var))
                var_names_.resize(n->var + 1);
            var_names_[n->var] = n->varName.empty()
                                     ? "pf_c" + std::to_string(n->var)
                                     : n->varName;
        }
        for (const auto &c : n->children)
            collectVarNames(c);
    }

    /** One affine numerator: coefficients over loop variables and
     *  parameters plus a constant. */
    std::string
    linear(const BoundTerm &t) const
    {
        std::ostringstream os;
        bool first = true;
        auto emit = [&](int64_t c, const std::string &name) {
            if (c == 0)
                return;
            if (first) {
                if (c == -1)
                    os << "-";
                else if (c != 1)
                    os << c << " * ";
            } else {
                os << (c > 0 ? " + " : " - ");
                int64_t a = c > 0 ? c : -c;
                if (a != 1)
                    os << a << " * ";
            }
            os << name;
            first = false;
        };
        for (size_t v = 0; v < t.varCoeffs.size(); ++v)
            emit(t.varCoeffs[v], var_names_[v]);
        for (size_t q = 0; q < t.paramCoeffs.size(); ++q)
            emit(t.paramCoeffs[q], prog_.params()[q]);
        if (first)
            os << t.constant;
        else if (t.constant > 0)
            os << " + " << t.constant;
        else if (t.constant < 0)
            os << " - " << -t.constant;
        return os.str();
    }

    /** A loop or box bound: the min over alternatives of the max
     *  over their terms (lower), or the dual (upper); a divided term
     *  rounds inward via pf_cdiv/pf_fdiv. */
    std::string
    bound(const std::vector<BoundAlt> &alts, bool is_lower) const
    {
        const char *inner = is_lower ? "pf_max(" : "pf_min(";
        const char *outer = is_lower ? "pf_min(" : "pf_max(";
        std::string out;
        for (size_t a = 0; a < alts.size(); ++a) {
            std::string alt;
            for (size_t i = 0; i < alts[a].size(); ++i) {
                const BoundTerm &t = alts[a][i];
                std::string term = linear(t);
                if (t.div != 1)
                    term = std::string(is_lower ? "pf_cdiv("
                                                : "pf_fdiv(") +
                           term + ", " + std::to_string(t.div) + ")";
                alt = i == 0 ? term : inner + alt + ", " + term + ")";
            }
            out = a == 0 ? alt : outer + out + ", " + alt + ")";
        }
        return out;
    }

    /** One guard row as a boolean C expression. */
    std::string
    guard(const GuardRow &g) const
    {
        BoundTerm t;
        t.varCoeffs = g.varCoeffs;
        t.paramCoeffs = g.paramCoeffs;
        t.constant = g.constant;
        return linear(t) + (g.isEq ? " == 0" : " >= 0");
    }

    /** The index expression of instance dimension @p d of node @p n:
     *  loop var + constant offset. */
    std::string
    ivExpr(const AstNode &n, size_t d) const
    {
        const auto &[var, off] = n.bindings[d];
        std::string s = var_names_[var];
        if (off > 0)
            s += " + " + std::to_string(off);
        else if (off < 0)
            s += " - " + std::to_string(-off);
        return s;
    }

    /** Per-dim index expressions of affine access @p a at node @p n,
     *  access parameters folded numerically. */
    std::vector<std::string>
    accessIndexExprs(const AstNode &n, const ir::Access &a) const
    {
        const Statement &s = prog_.statement(n.stmt);
        size_t nd = s.numDims();
        std::vector<int64_t> pvals;
        for (const auto &pname : a.rel.space().params())
            pvals.push_back(prog_.paramValue(pname));
        std::vector<std::string> out;
        for (const auto &row : a.indexExprs) {
            int64_t c = row.back();
            for (size_t p = 0; p < pvals.size(); ++p)
                c += row[nd + p] * pvals[p];
            std::ostringstream e;
            bool first = true;
            for (size_t d = 0; d < nd; ++d) {
                if (row[d] == 0)
                    continue;
                if (!first)
                    e << " + ";
                if (row[d] != 1)
                    e << row[d] << " * ";
                e << "(" << ivExpr(n, d) << ")";
                first = false;
            }
            if (first)
                e << c;
            else if (c > 0)
                e << " + " << c;
            else if (c < 0)
                e << " - " << -c;
            out.push_back(e.str());
        }
        return out;
    }

    /**
     * Horner-form linear offset of @p idx into tensor @p tensor's
     * lexically active storage (scratchpad local or global buffer),
     * matching the interpreter's offset arithmetic exactly.
     */
    std::string
    storageRef(int tensor, const std::vector<std::string> &idx) const
    {
        const auto &stack = scratch_[tensor];
        return stack.empty() ? globalRef(tensor, idx)
                             : scratchRef(stack.back(), idx);
    }

    /** @p idx into scratchpad @p s: offsets from the box origin,
     *  Horner over the box extents. */
    static std::string
    scratchRef(const ScratchScope &s, const std::vector<std::string> &idx)
    {
        if (idx.empty())
            return s.buf + "[0]";
        std::string off = "(" + idx[0] + " - " + s.lo[0] + ")";
        for (size_t d = 1; d < idx.size(); ++d)
            off = "(" + off + ") * " + s.ext[d] + " + (" + idx[d] +
                  " - " + s.lo[d] + ")";
        return s.buf + "[" + off + "]";
    }

    /** The restrict parameter of tensor @p tensor's global buffer. */
    static std::string
    tensorPtr(int tensor)
    {
        return "pf_t" + std::to_string(tensor);
    }

    /** @p idx into tensor @p tensor's global buffer, Horner over the
     *  tensor extents (the copy-in source, and every access outside
     *  a scratchpad scope). */
    std::string
    globalRef(int tensor, const std::vector<std::string> &idx) const
    {
        touched_[tensor] = true;
        std::string buf = tensorPtr(tensor);
        if (idx.empty())
            return buf + "[0]";
        std::string off = "(" + idx[0] + ")";
        for (size_t d = 1; d < idx.size(); ++d)
            off = "(" + off + ") * " +
                  std::to_string(prog_.tensorExtent(tensor, d)) +
                  " + (" + idx[d] + ")";
        return buf + "[" + off + "]";
    }

    /** Render statement body @p e of node @p n as a C expression
     *  bit-identical to the interpreter's evaluation. */
    std::string
    expr(const Expr &e, const AstNode &n) const
    {
        switch (e.kind) {
          case Expr::Kind::Const:
            return hexDouble(e.value);
          case Expr::Kind::Param:
            return hexDouble(double(prog_.paramValue(e.param)));
          case Expr::Kind::Iter:
            return "(double)(" + ivExpr(n, e.iter) + ")";
          case Expr::Kind::LoadAcc: {
            const Statement &s = prog_.statement(n.stmt);
            const ir::Access &a =
                s.accesses()[s.readIndices().at(e.access)];
            if (!a.hasExprs || a.indexExprs.empty())
                fatal("LoadAcc on non-affine access; use loadIdx");
            return storageRef(a.tensor, accessIndexExprs(n, a));
          }
          case Expr::Kind::LoadIdx: {
            std::vector<std::string> idx;
            for (const auto &arg : e.args)
                idx.push_back("(int64_t)llround(" + expr(*arg, n) +
                              ")");
            return storageRef(e.tensor, idx);
          }
          case Expr::Kind::Unary: {
            std::string x = "(" + expr(*e.args[0], n) + ")";
            switch (e.uop) {
              case ir::UnOp::Neg: return "(-" + x + ")";
              case ir::UnOp::Exp: return "exp" + x;
              case ir::UnOp::Log:
                return "log(fabs" + x + " + 1e-12)";
              case ir::UnOp::Sqrt: return "sqrt(fabs" + x + ")";
              case ir::UnOp::Abs: return "fabs" + x;
              case ir::UnOp::Relu:
                return "(" + x + " > 0 ? " + x + " : 0.0)";
              case ir::UnOp::Floor: return "floor" + x;
            }
            panic("bad unop");
          }
          case Expr::Kind::Binary: {
            std::string a = "(" + expr(*e.args[0], n) + ")";
            std::string b = "(" + expr(*e.args[1], n) + ")";
            switch (e.bop) {
              case ir::BinOp::Add: return "(" + a + " + " + b + ")";
              case ir::BinOp::Sub: return "(" + a + " - " + b + ")";
              case ir::BinOp::Mul: return "(" + a + " * " + b + ")";
              case ir::BinOp::Div:
                // Matches the interpreter's guarded division.
                return "(" + a + " / (" + b + " == 0 ? 1e-12 : " +
                       b + "))";
              case ir::BinOp::Min:
                // std::min/std::max tie-breaking, spelled out.
                return "(" + b + " < " + a + " ? " + b + " : " + a +
                       ")";
              case ir::BinOp::Max:
                return "(" + a + " < " + b + " ? " + b + " : " + a +
                       ")";
            }
            panic("bad binop");
          }
        }
        panic("bad expr kind");
    }

    void
    emitAlloc(const AstNode &n, unsigned depth)
    {
        std::vector<int> pushed;
        line(depth) << "{\n";
        ++depth;
        for (const auto &promo : n.promotions) {
            int id = scope_id_++;
            std::string tag = std::to_string(id);
            unsigned rank = unsigned(promo.boxLo.size());
            ScratchScope sc;
            sc.buf = "pf_loc_" + tag;
            line(depth) << "/* scratchpad for "
                        << prog_.tensor(promo.tensor).name
                        << " */\n";
            std::string size = "pf_size_" + tag;
            line(depth) << "int64_t " << size << " = 1;\n";
            for (unsigned d = 0; d < rank; ++d) {
                std::string lo = "pf_lo" + std::to_string(d) + "_" +
                                 tag;
                std::string hi = "pf_hi" + std::to_string(d) + "_" +
                                 tag;
                std::string ext = "pf_ext" + std::to_string(d) +
                                  "_" + tag;
                line(depth)
                    << "int64_t " << lo << " = pf_max("
                    << bound(promo.boxLo[d], true)
                    << ", 0);\n";
                line(depth)
                    << "int64_t " << hi << " = pf_min("
                    << bound(promo.boxHi[d], false)
                    << ", "
                    << prog_.tensorExtent(promo.tensor, d) - 1
                    << ");\n";
                line(depth) << "if (" << hi << " < " << lo << ") "
                            << hi << " = " << lo << " - 1;\n";
                line(depth) << "int64_t " << ext << " = " << hi
                            << " - " << lo << " + 1;\n";
                line(depth) << size << " *= " << ext << " > 0 ? "
                            << ext << " : 0;\n";
                sc.lo.push_back(lo);
                sc.ext.push_back(ext);
            }
            arenas_.back().push_back(tag);
            line(depth) << "double *" << sc.buf << " = pf_grow(&pf_arena_"
                        << tag << ", &pf_cap_" << tag << ", " << size
                        << ");\n";
            // Copy-in from the global buffer, matching the
            // interpreter (promotions never nest per tensor today);
            // codegen drops it when no read can observe it.
            if (promo.copyIn) {
                line(depth) << "if (" << size << " > 0) {\n";
                unsigned d2 = depth + 1;
                std::vector<std::string> idx;
                for (unsigned d = 0; d < rank; ++d) {
                    std::string it = "pf_ci" + std::to_string(d) +
                                     "_" + tag;
                    line(d2) << "for (int64_t " << it << " = "
                             << sc.lo[d] << "; " << it << " < "
                             << sc.lo[d] << " + " << sc.ext[d]
                             << "; ++" << it << ")\n";
                    idx.push_back(it);
                    ++d2;
                }
                line(d2) << scratchRef(sc, idx) << " = "
                         << globalRef(promo.tensor, idx) << ";\n";
                line(depth) << "}\n";
            }
            scratch_[promo.tensor].push_back(std::move(sc));
            pushed.push_back(promo.tensor);
        }
        // Tile loops under an Alloc scope are never team-scheduled
        // (mirrors the bytecode tape's scanTileRegions, which does
        // not enter Alloc scopes).
        ++nest_;
        for (const auto &c : n.children)
            visit(c, depth);
        --nest_;
        for (int tensor : pushed)
            scratch_[tensor].pop_back();
        --depth;
        line(depth) << "}\n";
    }

    void
    emitStmt(const AstNode &n, unsigned depth)
    {
        const Statement &s = prog_.statement(n.stmt);
        line(depth) << "{ /* " << s.name() << " */\n";
        ++depth;
        if (!n.guards.empty()) {
            std::vector<std::string> conds;
            for (const auto &g : n.guards)
                conds.push_back("(" + guard(g) + ")");
            line(depth) << "if (" << join(conds, " && ") << ") {\n";
            ++depth;
        }
        if (s.body()) {
            line(depth) << "double pf_v = " << expr(*s.body(), n)
                        << ";\n";
            if (s.writeIndex() >= 0) {
                const ir::Access &w = s.writeAccess();
                if (!w.hasExprs || w.indexExprs.empty())
                    fatal("non-affine write access unsupported");
                line(depth)
                    << storageRef(w.tensor,
                                  accessIndexExprs(n, w))
                    << " = pf_v;\n";
            } else {
                line(depth) << "(void)pf_v;\n";
            }
        }
        if (!n.guards.empty()) {
            --depth;
            line(depth) << "}\n";
        }
        --depth;
        line(depth) << "}\n";
    }

    void
    visit(const AstPtr &n, unsigned depth)
    {
        if (!n)
            return;
        switch (n->kind) {
          case AstKind::Block:
            for (const auto &c : n->children)
                visit(c, depth);
            return;
          case AstKind::Alloc:
            emitAlloc(*n, depth);
            return;
          case AstKind::For: {
            const std::string &v = var_names_[n->var];
            const bool top_tile =
                nest_ == 0 && n->tileLoop && n->bandLevel == 0;
            const bool team = top_tile && threads_ > 1 &&
                              par_bands_.count(n->bandId) != 0;
            if (top_tile)
                ++(team ? regions_parallel_ : regions_sequential_);
            line(depth) << "{\n";
            ++depth;
            line(depth) << "const int64_t " << v << "_lb = "
                        << bound(n->lb, true)
                        << ";\n";
            line(depth) << "const int64_t " << v << "_ub = "
                        << bound(n->ub, false)
                        << ";\n";
            ++nest_;
            if (team) {
                emitOmpFor(*n, v, depth);
            } else {
                line(depth) << "for (int64_t " << v << " = " << v
                            << "_lb; " << v << " <= " << v
                            << "_ub; ++" << v << ") {\n";
                for (const auto &c : n->children)
                    visit(c, depth + 1);
                line(depth) << "}\n";
            }
            --nest_;
            --depth;
            line(depth) << "}\n";
            return;
          }
          case AstKind::Stmt:
            emitStmt(*n, depth);
            return;
        }
    }

    /**
     * The OpenMP tile-team: a static schedule over the tiles of a
     * band whose classification proves tile independence. The
     * thread count is baked in (it is part of the kernel-cache
     * key), so a cached kernel cannot silently change team shape.
     */
    void
    emitOmpFor(const AstNode &n, const std::string &v,
               unsigned depth)
    {
        line(depth) << "#pragma omp parallel num_threads(" << threads_
                    << ")\n";
        line(depth) << "{\n";
        arenaScope(depth + 1, [&] {
            line(depth + 1) << "#pragma omp for schedule(static)\n";
            line(depth + 1) << "for (int64_t " << v << " = " << v
                            << "_lb; " << v << " <= " << v << "_ub; ++"
                            << v << ") {\n";
            for (const auto &c : n.children)
                visit(c, depth + 2);
            line(depth + 1) << "}\n";
        });
        line(depth) << "}\n";
    }

    const Program &prog_;
    unsigned threads_ = 1;
    std::set<int> par_bands_; ///< fully-parallel band ids
    std::ostringstream os_;
    std::vector<std::string> var_names_;
    std::vector<std::vector<ScratchScope>> scratch_;
    /** Per open arena scope (kernel call, then tile-team workers):
     *  the tags of the promotions whose arenas it owns. */
    std::vector<std::vector<std::string>> arenas_;
    int scope_id_ = 0;
    int nest_ = 0; ///< enclosing For/Alloc depth (0: top level)
    unsigned regions_parallel_ = 0;
    unsigned regions_sequential_ = 0;
    /** Per tensor: the nest reads or writes its global buffer. */
    mutable std::vector<bool> touched_;
};

/** Locate a working C compiler once; empty when there is none. */
const std::string &
compilerPath()
{
    static std::mutex mu;
    static bool probed = false;
    static std::string path;
    std::lock_guard<std::mutex> lock(mu);
    if (probed)
        return path;
    probed = true;
    std::vector<std::string> candidates;
    if (const char *cc = std::getenv("CC"))
        candidates.push_back(cc);
    candidates.insert(candidates.end(), {"cc", "gcc", "clang"});
    for (const auto &c : candidates) {
        std::string cmd = c + " --version > /dev/null 2>&1";
        if (std::system(cmd.c_str()) == 0) {
            path = c;
            break;
        }
    }
    return path;
}

/** One build's mkdtemp directory, C source and shared object (a
 *  kernel, or the OpenMP probe); the destructor removes all three. */
struct BuildDir
{
    std::string dir, src, so;

    explicit BuildDir(const char *created)
        : dir(created), src(dir + "/kernel.c"), so(dir + "/kernel.so")
    {
    }
    BuildDir(const BuildDir &) = delete;
    BuildDir &operator=(const BuildDir &) = delete;

    ~BuildDir()
    {
        std::remove(src.c_str());
        std::remove(so.c_str());
        rmdir(dir.c_str());
    }
};

/** Top-level (not under any For/Alloc) level-0 tile loops whose
 *  band is proven fully parallel -- the loops a tile-team can
 *  legally cover. */
unsigned
countEligibleRegions(const AstPtr &n, const std::set<int> &par_bands)
{
    if (!n)
        return 0;
    if (n->kind == AstKind::For)
        return n->tileLoop && n->bandLevel == 0 &&
                       par_bands.count(n->bandId) != 0
                   ? 1
                   : 0;
    if (n->kind != AstKind::Block)
        return 0;
    unsigned count = 0;
    for (const auto &c : n->children)
        count += countEligibleRegions(c, par_bands);
    return count;
}

} // namespace

NativeTeamPlan
planNativeTeam(const AstPtr &ast, const NativeOptions &options)
{
    NativeTeamPlan plan;
    if (options.par == ParStrategy::Off)
        return plan;
    const std::set<int> par_bands = fullyParallelBands(options.tileBands);
    const unsigned team = resolveThreads(options.threads);
    if (par_bands.empty())
        plan.reason = "no fully-parallel tile bands";
    else if (countEligibleRegions(ast, par_bands) == 0)
        plan.reason = "no top-level tile loop of a fully-parallel band";
    else if (team <= 1)
        plan.reason = "tile-team of one thread runs sequentially";
    else if (!NativeKernel::parallelToolchain())
        plan.reason = "no OpenMP toolchain (cc -fopenmp)";
    else
        plan.threads = team;
    return plan;
}

std::string
emitNativeSource(const Program &program, const AstPtr &ast,
                 unsigned threads,
                 const std::vector<deps::TileBandGraph> *bands,
                 unsigned *regions_parallel,
                 unsigned *regions_sequential)
{
    Emitter em(program, threads, bands);
    std::string code = em.run(ast);
    if (regions_parallel)
        *regions_parallel = em.regionsParallel();
    if (regions_sequential)
        *regions_sequential = em.regionsSequential();
    return code;
}

struct NativeKernel::Handle
{
    void *dl = nullptr;
    void (*fn)(double **) = nullptr;

    ~Handle()
    {
        if (dl)
            dlclose(dl);
    }
};

bool
NativeKernel::toolchainAvailable()
{
    return !compilerPath().empty();
}

bool
NativeKernel::parallelToolchain()
{
    // The probe holds a real parallel-for, so a compiler that takes
    // the flag but cannot link the runtime (a clang without libomp)
    // fails here, not in a kernel compile.
    static std::mutex mu;
    static bool probed = false;
    static bool ok = false;
    std::lock_guard<std::mutex> lock(mu);
    if (probed)
        return ok;
    probed = true;
    const std::string &cc = compilerPath();
    char tmpl[] = "/tmp/pf_probe_XXXXXX";
    if (cc.empty() || !mkdtemp(tmpl))
        return ok;
    const BuildDir probe(tmpl);
    {
        std::ofstream f(probe.src);
        f << "#include <omp.h>\n"
             "int pf_probe(void)\n{\n"
             "  int n = 0;\n"
             "#pragma omp parallel for reduction(+ : n)\n"
             "  for (int i = 0; i < 4; ++i)\n"
             "    n += omp_get_thread_num() + i;\n"
             "  return n;\n}\n";
        if (!f)
            return ok;
    }
    const std::string cmd = cc + " -O1 -fPIC -shared -fopenmp -o " +
                            probe.so + " " + probe.src +
                            " > /dev/null 2>&1";
    ok = std::system(cmd.c_str()) == 0;
    return ok;
}

NativeKernel
NativeKernel::compile(const Program &program, const AstPtr &ast,
                      const NativeOptions &options)
{
    Timer timer;
    NativeKernel k = build(program, ast, options);
    k.build_ms_ = timer.milliseconds();
    return k;
}

NativeKernel
NativeKernel::build(const Program &program, const AstPtr &ast,
                    const NativeOptions &options)
{
    NativeKernel k;
    // The team is decided before anything is emitted or forked; a
    // request that cannot get one compiles the sequential kernel.
    k.threads_ = planNativeTeam(ast, options).threads;
    const bool team = k.threads_ > 1;

    try {
        failpoints::hit("exec.native.compile");
        const std::string &cc = compilerPath();
        if (cc.empty()) {
            // Permanent: no toolchain will appear between retries.
            k.reason_ = "no C compiler found (cc/gcc/clang)";
            return k;
        }
        // Everything past the toolchain probe can fail transiently
        // (full /tmp, a flaky cc fork, dlopen under memory
        // pressure); this site lets tests force exactly that class.
        failpoints::hit("exec.native.transient");

        char tmpl[] = "/tmp/pf_native_XXXXXX";
        if (!mkdtemp(tmpl)) {
            k.reason_ = "mkdtemp failed";
            k.transient_ = true;
            return k;
        }
        // Removed on every way out of this block, a throw included;
        // a loaded object stays mapped without its file.
        const BuildDir build(tmpl);
        const std::string &src_path = build.src;
        const std::string &so_path = build.so;

        {
            std::ofstream src(src_path);
            src << emitNativeSource(program, ast, k.threads_,
                                    options.tileBands,
                                    &k.regions_parallel_,
                                    &k.regions_sequential_);
            if (!src) {
                k.reason_ = "failed to write " + src_path;
                k.transient_ = true;
                return k;
            }
        }

        const std::string cmd = cc + " " + compileFlags(team) +
                                " -fPIC -shared -o " + so_path + " " +
                                src_path + " -lm > /dev/null 2>&1";
        if (std::system(cmd.c_str()) != 0) {
            k.reason_ = "native compile failed (" + cc + ")";
            k.transient_ = true;
            return k;
        }

        failpoints::hit("exec.native.dlopen");
        // An OpenMP kernel pulls libgomp in as a dependency; if
        // this process does not link libgomp itself, dlclosing the
        // last such kernel unmaps the runtime under its parked
        // worker threads, which then wake into unmapped code.
        // RTLD_NODELETE pins the kernel (and thus its libgomp
        // reference) for the life of the process -- bounded by the
        // number of distinct compiled kernels.
        int dl_flags = RTLD_NOW | RTLD_LOCAL;
        if (team)
            dl_flags |= RTLD_NODELETE;
        void *dl = dlopen(so_path.c_str(), dl_flags);
        if (!dl) {
            const char *err = dlerror();
            k.reason_ = std::string("dlopen failed: ") +
                        (err ? err : "unknown");
            k.transient_ = true;
            return k;
        }
        auto handle = std::make_shared<Handle>();
        handle->dl = dl;
        handle->fn = reinterpret_cast<void (*)(double **)>(
            dlsym(dl, "pf_kernel"));
        if (!handle->fn) {
            // Permanent: the emitted source is wrong, not the
            // environment; recompiling yields the same object.
            k.reason_ = "pf_kernel symbol missing";
            return k;
        }
        k.handle_ = std::move(handle);
        k.reason_.clear();
        k.transient_ = false;
    } catch (const std::exception &e) {
        // An exception out of the compile/load machinery (including
        // an armed failpoint) is environmental as far as this layer
        // can tell: classify transient so callers retry then
        // degrade, never crash.
        k.handle_.reset();
        k.reason_ = std::string("native tier failed: ") + e.what();
        k.transient_ = true;
    }
    return k;
}

ExecStats
NativeKernel::run(Buffers &buffers) const
{
    if (!ok())
        fatal("native kernel not runnable: " + reason_);
    std::vector<double *> bufs;
    for (size_t t = 0; t < buffers.numTensors(); ++t)
        bufs.push_back(buffers.data(int(t)).data());
    ExecStats stats;
    Timer timer;
    handle_->fn(bufs.data());
    stats.seconds = timer.seconds();
    return stats;
}

} // namespace exec
} // namespace polyfuse
