/**
 * @file
 * The imperative loop AST produced by scanning schedule trees.
 *
 * Loop bounds are min/max combinations of floor/ceil-divided affine
 * expressions over the enclosing loop variables and the program
 * parameters (exactly what CLooG-family generators emit for the
 * band forms this library produces). Statement nodes carry the
 * binding of original domain dimensions to loop variables plus
 * residual guard constraints for union-bound overshoot (rows an
 * enclosing loop bound already implies are left out).
 */

#ifndef POLYFUSE_CODEGEN_AST_HH
#define POLYFUSE_CODEGEN_AST_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace polyfuse {
namespace codegen {

/** One affine bound term: (coeffs . (vars, params, 1)) / div. */
struct BoundTerm
{
    std::vector<int64_t> varCoeffs;   ///< dense, one per loop var
    std::vector<int64_t> paramCoeffs; ///< dense, one per program param
    int64_t constant = 0;
    int64_t div = 1;

    bool operator==(const BoundTerm &) const = default;
};

/**
 * A per-band-member bound: the max (lower) or min (upper) over its
 * terms. A loop bound combines alternatives over members with min
 * (lower) or max (upper) so the loop covers the union.
 */
using BoundAlt = std::vector<BoundTerm>;

/** One guard constraint: coeffs . (vars, params, 1) >= 0 or == 0. */
struct GuardRow
{
    bool isEq = false;
    std::vector<int64_t> varCoeffs;
    std::vector<int64_t> paramCoeffs;
    int64_t constant = 0;
};

/** Tile-local buffer promotion attached to an Alloc node. */
struct Promotion
{
    int tensor = -1;
    /** Per tensor dim: min over alternatives of max over terms. */
    std::vector<std::vector<BoundAlt>> boxLo;
    /** Per tensor dim: max over alternatives of min over terms
     *  (inclusive). */
    std::vector<std::vector<BoundAlt>> boxHi;
    /**
     * Fill the scratchpad from the global tensor on scope entry.
     * Codegen clears it only when it proves every read under the
     * scope is preceded by a write of the same element in the same
     * scope instance, so the copied values are never observed.
     */
    bool copyIn = true;
};

struct AstNode;
using AstPtr = std::shared_ptr<AstNode>;

/** AST node kinds. */
enum class AstKind
{
    Block, ///< ordered children
    For,   ///< loop over `var`
    Stmt,  ///< one statement instance per surrounding iteration
    Alloc, ///< scratchpad allocation scope (memory promotion)
};

/** One imperative AST node. */
struct AstNode
{
    AstKind kind = AstKind::Block;
    std::vector<AstPtr> children;

    /**
     * On the root node generateAst returns: the number of distinct
     * loop-variable slots in the tree (max For var + 1), so executors
     * can size their register files up front instead of rescanning or
     * growing lazily. -1 on hand-built ASTs (executors then fall back
     * to a scan).
     */
    int numLoopVars = -1;

    // --- For ---
    int var = -1;              ///< loop variable id (dense, 0-based)
    std::string varName;       ///< e.g. "ht", "c3"
    std::vector<BoundAlt> lb;  ///< min over members of max over terms
    std::vector<BoundAlt> ub;  ///< max over members of min over terms
    bool parallel = false;     ///< band level was coincident
    bool tileLoop = false;     ///< iterates tile coordinates
    int64_t tileSize = 0;      ///< when tileLoop
    bool permutable = false;   ///< owning band was permutable
    /** When tileLoop: index of the owning band in the GeneratedBand
     *  side table produced by generateAst (see generate.hh), -1 on
     *  non-tile loops or when no table was requested. */
    int bandId = -1;
    int bandLevel = -1;        ///< level within the owning tile band

    // --- Stmt ---
    int stmt = -1;
    /** Per domain dim: (loop var id, offset); dim = var + offset. */
    std::vector<std::pair<int, int64_t>> bindings;
    std::vector<GuardRow> guards;

    // --- Alloc ---
    std::vector<Promotion> promotions;
};

/** Factory helpers. */
inline AstPtr
astBlock()
{
    auto n = std::make_shared<AstNode>();
    n->kind = AstKind::Block;
    return n;
}

inline AstPtr
astFor(int var, std::string name)
{
    auto n = std::make_shared<AstNode>();
    n->kind = AstKind::For;
    n->var = var;
    n->varName = std::move(name);
    return n;
}

inline AstPtr
astStmt(int stmt)
{
    auto n = std::make_shared<AstNode>();
    n->kind = AstKind::Stmt;
    n->stmt = stmt;
    return n;
}

inline AstPtr
astAlloc()
{
    auto n = std::make_shared<AstNode>();
    n->kind = AstKind::Alloc;
    return n;
}

} // namespace codegen
} // namespace polyfuse

#endif // POLYFUSE_CODEGEN_AST_HH
