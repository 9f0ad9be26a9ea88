/**
 * @file
 * Tier-1 execution: the generated AST compiled once into a flat
 * bytecode tape, then run by a branch-light dispatch loop.
 *
 * What the compilation hoists out of the per-access hot path:
 *
 *  - Access functions. Every affine access row (over statement
 *    dimensions, access parameters and a constant) is composed with
 *    the statement's loop-variable bindings and the program's fixed
 *    parameter values at compile time, then *folded with the active
 *    storage's row-major strides* into a single sparse linear form
 *    `offset = c + sum(coef_i * var_slot_i)`. A scalar access costs
 *    a few multiply-adds instead of a recursive Expr walk plus an
 *    index-vector materialization and a bounds-checked offsetOf.
 *    When a scratchpad promotion activates (Alloc scope entry/exit)
 *    only the affected tensors' folds are recomputed -- once per
 *    tile, not per access.
 *
 *  - Loop descriptors. Bounds are precompiled min/max trees over
 *    sparse terms with parameter coefficients already folded into
 *    the constants; loops evaluate them once at entry.
 *
 *  - Statement bodies. Expr trees flatten to a postfix tape run on a
 *    value stack of precomputed depth; guards become sparse dot
 *    products.
 *
 *  - Trace emission. The run loop is instantiated twice (traced /
 *    untraced), so the untraced path carries no trace branches at
 *    all, and the traced path appends fixed-size records to a batch
 *    buffer flushed to a TraceSink (see exec/trace.hh).
 *
 * The kernel is immutable after compile() and safe to run from
 * several threads at once (each run carries its own machine state).
 * Semantics are differentially tested to be bit-identical to the
 * reference interpreter (tests/test_exec.cc).
 */

#ifndef POLYFUSE_EXEC_BYTECODE_HH
#define POLYFUSE_EXEC_BYTECODE_HH

#include <memory>

#include "exec/engine.hh"
#include "exec/executor.hh"

namespace polyfuse {
namespace exec {

namespace bytecode_detail {
struct Image;
}

/** A compiled program: AST + program lowered to a bytecode tape. */
class BytecodeKernel
{
  public:
    /** An empty (not runnable) kernel; use compile(). */
    BytecodeKernel() = default;

    /**
     * Lower @p ast (generated for @p program) to bytecode. The
     * program must outlive the kernel. Throws FatalError on AST
     * shapes the executor does not support either (e.g. non-affine
     * writes).
     */
    static BytecodeKernel compile(const ir::Program &program,
                                  const codegen::AstPtr &ast);

    bool ok() const { return image_ != nullptr; }

    /**
     * Execute without tracing (the fast path). Single-statement
     * inner loops whose per-loop dependence check passes execute in
     * compiler-vectorizable lane blocks of simdWidth() with a scalar
     * tail -- still bit-identical to scalar execution (each lane
     * applies the exact scalar op sequence; no reassociation).
     * ExecStats::simdLoops/simdLanes count the blocks that ran.
     */
    ExecStats run(Buffers &buffers) const;

    /** Execute, streaming batched trace records into @p sink.
     *  Traced runs stay scalar: records are per-access and ordered. */
    ExecStats run(Buffers &buffers, TraceSink &sink) const;

    /**
     * Execute with up to @p threads workers scheduling the tape's
     * tile regions per @p strategy, gated by the @p bands
     * classifications (see ParStrategy). Untraced only. Guaranteed
     * bit-identical to run(): identical buffers and identical stats
     * (except wall-clock seconds).
     *
     * Planning -- the exec.par.spawn / exec.par.tilegraph failpoint
     * sites, tile enumeration, DAG construction, worker spawn --
     * happens strictly before any statement executes; a planning
     * failure is recorded in @p fallback_reason and the whole tape
     * runs sequentially instead (buffers untouched at that point, so
     * the degrade is deterministic). A failure while tiles are
     * already executing propagates as the error it is.
     */
    ExecStats runParallel(Buffers &buffers, unsigned threads,
                          ParStrategy strategy,
                          const std::vector<deps::TileBandGraph> *bands,
                          ParRunStats &par,
                          std::string &fallback_reason) const;

    /** Parallel-schedulable top-level tile regions of the tape. */
    size_t numTileRegions() const;

    /** Tape length (for tests and stats). */
    size_t numInstructions() const;

    /** Compiled statement-node count (for tests and stats). */
    size_t numStatements() const;

  private:
    explicit BytecodeKernel(
        std::shared_ptr<const bytecode_detail::Image> image)
        : image_(std::move(image)) {}

    std::shared_ptr<const bytecode_detail::Image> image_;
};

} // namespace exec
} // namespace polyfuse

#endif // POLYFUSE_EXEC_BYTECODE_HH
