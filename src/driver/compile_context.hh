/**
 * @file
 * The per-compilation context the driver threads through the layers.
 * One CompileContext per independent compilation: it owns every piece
 * of state the libraries below mutate while compiling (the presburger
 * layer's FM instrumentation, the resource budget, the cancellation
 * token), so two runs with two contexts share nothing and can execute
 * on different threads.
 *
 * Pipeline::run installs the context's PresCtx as the thread's
 * active pres context for the duration of the run, which is how the
 * unchanged pres/codegen call chains find it without every function
 * signature in the library growing a parameter.
 */

#ifndef POLYFUSE_DRIVER_COMPILE_CONTEXT_HH
#define POLYFUSE_DRIVER_COMPILE_CONTEXT_HH

#include "pres/fm.hh"
#include "pres/op_cache.hh"
#include "support/budget.hh"

namespace polyfuse {
namespace driver {

/** Everything one compilation mutates below the driver. Not
 *  thread-safe: use one context per concurrent job. Non-copyable:
 *  the pres context points at the owned cancellation token. */
struct CompileContext
{
    CompileContext()
    {
        pres.cancel = &cancel;
        pres.cache = &opCache;
    }
    CompileContext(const CompileContext &) = delete;
    CompileContext &operator=(const CompileContext &) = delete;

    /** Presburger-layer state (FM instrumentation + budget). */
    pres::fm::PresCtx pres;

    /** Hash-consed operation cache for this compilation; wired into
     *  the pres context (enabled by default). Pipeline::run clears it
     *  at the start of every attempt so each run is deterministic and
     *  independent of compilation history. */
    pres::OpCache opCache;

    /** Detach/attach the cache (the CacheEquivalence tests use the
     *  detached context as their reference; contents are
     *  preserved). */
    void
    setOpCacheEnabled(bool on)
    {
        pres.cache = on ? &opCache : nullptr;
    }

    bool opCacheEnabled() const { return pres.cache != nullptr; }

    /** Resource limits for runs against this context; all-zero means
     *  unlimited. Pipeline::run arms it per attempt. */
    Budget budget;

    /** Cooperative cancellation; callers (e.g. compileBatch) may trip
     *  it from another thread, or chain it to a batch-level token. */
    CancelToken cancel;

    /** FM totals accumulated by runs against this context. */
    const pres::fm::Counters &fmCounters() const
    {
        return pres.counters;
    }
};

} // namespace driver
} // namespace polyfuse

#endif // POLYFUSE_DRIVER_COMPILE_CONTEXT_HH
