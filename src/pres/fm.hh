/**
 * @file
 * The constraint-system engine shared by BasicSet and BasicMap:
 * GCD normalization/tightening, row simplification, and integer
 * Fourier-Motzkin elimination with the Omega test's exact
 * unit-coefficient rule.
 *
 * All functions operate on plain rows (Constraint) whose last column
 * is the constant term; they carry no Space knowledge. Callers adjust
 * spaces after columns are erased.
 *
 * Instrumentation is per-context (PresCtx) so independent
 * compilations — including concurrent ones on different threads —
 * never share mutable state. Code that does not care about contexts
 * keeps calling the ctx-less entry points, which route to the
 * thread's active context (a thread-local default when none is
 * installed), so the library is re-entrant either way.
 */

#ifndef POLYFUSE_PRES_FM_HH
#define POLYFUSE_PRES_FM_HH

#include <chrono>
#include <cstdint>
#include <vector>

#include "pres/constraint.hh"
#include "support/budget.hh"

namespace polyfuse {
namespace pres {

class OpCache;

namespace fm {

/**
 * Cumulative instrumentation of the FM engine, feeding the driver's
 * per-pass reporting: how many columns were projected out and how
 * many constraint rows those projections visited, how many
 * over-approximated ranges callers received, plus the hash-consed
 * operation cache's hit/miss/eviction totals (zero when no cache is
 * attached). Owned by a PresCtx; callers snapshot
 * before/after a phase and report the delta.
 */
struct Counters
{
    uint64_t eliminations = 0;       ///< eliminateCol() invocations
    uint64_t constraintsVisited = 0; ///< rows alive at elimination
    uint64_t cacheHits = 0;          ///< OpCache lookups satisfied
    uint64_t cacheMisses = 0;        ///< OpCache lookups computed
    uint64_t cacheEvictions = 0;     ///< entries dropped by the cache
    /** Over-approximated projections handed out (BasicMap::range
     *  after a non-unit FM step), cache hits included. */
    uint64_t inexact = 0;

    Counters &
    operator+=(const Counters &o)
    {
        eliminations += o.eliminations;
        constraintsVisited += o.constraintsVisited;
        cacheHits += o.cacheHits;
        cacheMisses += o.cacheMisses;
        cacheEvictions += o.cacheEvictions;
        inexact += o.inexact;
        return *this;
    }
};

/**
 * Per-compilation state of the presburger layer. One context per
 * independent compilation (the driver's CompileContext owns one);
 * never shared between threads without external synchronization.
 *
 * Besides the instrumentation, the context is where the resource
 * guards live: an armed Budget is enforced cooperatively by
 * eliminateCol/simplifyRows (and re-checked by compose, codegen and
 * every driver pass via checkBudget), and an attached CancelToken is
 * polled at the same points. Exceeding either raises BudgetExceeded;
 * the constraint system being worked on is then in a valid but
 * unspecified state (basic exception guarantee), so callers discard
 * the whole in-flight compilation -- which is exactly what the
 * driver's fallback chain does.
 */
struct PresCtx
{
    Counters counters;

    /** Bytes of constraint-row storage materialized by the engine
     *  (working sets + FM combination rows); the arena proxy the
     *  Budget's allocBytes ceiling is enforced against. */
    uint64_t allocBytes = 0;

    /** Cancellation observed by every cooperative check; non-owning,
     *  may be null (the driver's CompileContext wires its token). */
    const CancelToken *cancel = nullptr;

    /** Hash-consed operation cache consulted by the BasicSet/BasicMap
     *  binary operations; non-owning, null disables memoization (the
     *  driver's CompileContext owns and wires one; the thread-default
     *  context has none, so context-free callers keep the exact
     *  uncached behaviour). */
    OpCache *cache = nullptr;

    /** Arm @p budget: ceilings apply to the work done from now on
     *  (counter baselines are snapshotted; the wall deadline starts
     *  ticking). Re-arming resets the window. */
    void armBudget(const Budget &budget);

    /** Disarm the budget (cancellation stays observed). */
    void disarmBudget();

    /** True when an armed budget is currently enforced. */
    bool budgetArmed() const { return armed_; }

    /** The armed budget's ceilings (meaningful while budgetArmed()). */
    const Budget &budget() const { return budget_; }

  private:
    friend void checkBudget(PresCtx &, const char *);
    friend bool eliminateCol(PresCtx &, std::vector<Constraint> &,
                             unsigned, bool &);
    Budget budget_;
    uint64_t baseElims_ = 0;   ///< counters at armBudget() time
    uint64_t baseRows_ = 0;
    uint64_t baseAlloc_ = 0;
    std::chrono::steady_clock::time_point deadline_{};
    bool hasDeadline_ = false;
    bool armed_ = false;
};

/**
 * Cooperative guard: throws BudgetExceeded when @p ctx's cancel token
 * was tripped or an armed budget ceiling is exceeded, naming @p site
 * in the message. No-op on an unarmed, uncancelled context, so it is
 * safe (and cheap) to sprinkle over every compilation phase.
 */
void checkBudget(PresCtx &ctx, const char *site);

/**
 * The context FM work is attributed to on this thread: the innermost
 * installed ScopedCtx, or a thread-local default context when none is
 * installed. Never null; distinct per thread, so code that ignores
 * contexts entirely is still re-entrant.
 */
PresCtx &activeCtx();

/** RAII installer of a thread's active context (nestable). */
class ScopedCtx
{
  public:
    explicit ScopedCtx(PresCtx &ctx);
    ~ScopedCtx();
    ScopedCtx(const ScopedCtx &) = delete;
    ScopedCtx &operator=(const ScopedCtx &) = delete;

  private:
    PresCtx *prev_;
};

/**
 * Normalize one row: divide by the GCD of the variable coefficients,
 * tightening the constant (floor) for inequalities; detect an
 * infeasible equality (GCD does not divide the constant).
 *
 * @return false iff the row alone proves infeasibility.
 */
bool normalizeRow(Constraint &row);

/**
 * Simplify a system: normalize rows, drop satisfied constant rows,
 * deduplicate, merge opposite inequalities into equalities, keep the
 * tightest of parallel inequalities.
 *
 * @return false iff the system is proved infeasible.
 */
bool simplifyRows(PresCtx &ctx, std::vector<Constraint> &rows);

/** simplifyRows against the thread's active context. */
bool simplifyRows(std::vector<Constraint> &rows);

/**
 * Eliminate (existentially project out) column @p col, erasing it
 * from every row. Counts one elimination (plus the rows visited)
 * in @p ctx.
 *
 * @param exact Cleared when the projection may over-approximate the
 *              integer projection (non-unit coefficients on both
 *              sides of a combination, or a non-unit equality).
 * @return false iff the system is proved infeasible.
 */
bool eliminateCol(PresCtx &ctx, std::vector<Constraint> &rows,
                  unsigned col, bool &exact);

/** eliminateCol against the thread's active context. */
bool eliminateCol(std::vector<Constraint> &rows, unsigned col,
                  bool &exact);

/**
 * Substitute column @p col with the constant @p value, folding the
 * contribution into the constant term and erasing the column.
 *
 * @return false iff the system is proved infeasible afterwards.
 */
bool substituteCol(PresCtx &ctx, std::vector<Constraint> &rows,
                   unsigned col, int64_t value);

/** substituteCol against the thread's active context. */
bool substituteCol(std::vector<Constraint> &rows, unsigned col,
                   int64_t value);

/** True when no row mentions column @p col. */
bool colUnused(const std::vector<Constraint> &rows, unsigned col);

} // namespace fm
} // namespace pres
} // namespace polyfuse

#endif // POLYFUSE_PRES_FM_HH
