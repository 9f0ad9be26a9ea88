/**
 * @file
 * AST generation by scanning schedule trees (the code generation
 * strategy of Sec. V): bands become loops with FM-derived bounds,
 * sequences/filters become blocks, extension nodes introduce the
 * fused statements and (optionally) scratchpad promotion scopes for
 * the intermediate tensors they produce (Sec. V-B), and subtrees
 * below a "skipped" mark are bypassed.
 */

#ifndef POLYFUSE_CODEGEN_GENERATE_HH
#define POLYFUSE_CODEGEN_GENERATE_HH

#include "codegen/ast.hh"
#include "schedule/tree.hh"

namespace polyfuse {
namespace codegen {

/** Options for AST generation. */
struct GenOptions
{
    /**
     * Insert Alloc scopes that keep extension-produced intermediate
     * tensors in tile-local scratchpads (the paper's aggressive
     * memory optimization, Sec. V-B).
     *
     * NOTE: promotion is part of the transformation's correctness
     * story for overlapped tiles, not just an optimization: an
     * in-place producer (e.g. A = Quant(A)) re-executed in a halo
     * region would otherwise double-apply to the global tensor.
     * Disable only for idempotent producers.
     */
    bool promoteIntermediates = true;
};

/** One statement's membership in a generated tile band. */
struct GeneratedBandMember
{
    int stmt = -1;
    /** Domain dimension used at each band level. */
    std::vector<unsigned> dims;
    /** Constant added to the dimension at each level. */
    std::vector<int64_t> shifts;
};

/**
 * Side-table record of one **tiled** band the scan turned into tile
 * loops: everything the deps layer needs to project statement-level
 * dependences onto this band's tile coordinates (deps::tileGraph)
 * without reaching back into the schedule tree. The record's index in
 * the table equals the `bandId` stamped on the band's tile-loop For
 * nodes (and, downstream, on bytecode tape loops).
 */
struct GeneratedBand
{
    int id = -1;
    bool permutable = false;
    std::vector<int64_t> tileSizes;  ///< per level
    std::vector<bool> coincident;    ///< per level (padded to depth)
    std::vector<int> vars;           ///< tile-loop var id per level
    std::vector<GeneratedBandMember> members;
    /** Statements executing inside this band's tiles that are NOT
     *  band members (post-tiling fused producers introduced by
     *  extension nodes below the tile loops): their dependences have
     *  no direct tile coordinates, so the projection must treat them
     *  conservatively unless the dependence flows through a tensor
     *  in localTensors. */
    std::vector<int> extraStmts;
    /** Tensors promoted to tile-local scratchpads somewhere under the
     *  tile loops: dependences carried purely through these never
     *  cross tiles (each tile re-computes its own copy). */
    std::vector<int> localTensors;
};

/** What one generateAst call simplified away. */
struct GenStats
{
    /** Guard rows dropped because an enclosing loop bound implies
     *  them (they could never fail). */
    int64_t guardsPruned = 0;
    /** Promotions whose copy-in was proven dead (copyIn == false). */
    int64_t copyInsElided = 0;
};

/** Generate the imperative AST of @p tree. */
AstPtr generateAst(const schedule::ScheduleTree &tree,
                   const GenOptions &options = {});

/** As above, additionally filling @p bands with one record per tiled
 *  band, indexed by the `bandId` on the emitted tile loops, and
 *  (when non-null) @p stats. */
AstPtr generateAst(const schedule::ScheduleTree &tree,
                   const GenOptions &options,
                   std::vector<GeneratedBand> &bands,
                   GenStats *stats = nullptr);

} // namespace codegen
} // namespace polyfuse

#endif // POLYFUSE_CODEGEN_GENERATE_HH
