/**
 * @file
 * The tile-size search drivers behind autotuneTileSizes: the
 * exhaustive sweep (today's behaviour, kept as the oracle) and the
 * model-guided search of ROADMAP item 3 -- rank every candidate with
 * the calibrated analytic CostModel (perfmodel/model.hh), then fully
 * evaluate only the top of the ranking with successive-halving early
 * stopping. Guided search visits a fraction of the ladder at
 * near-oracle quality (Autotune.RegistrySweepGuidedMeetsTheSearchBounds
 * in tests/test_autotune.cc gates the tradeoff).
 *
 * Candidate ordering is dimension-matching in the sense of the
 * fusion/tiling heuristics of arXiv 1803.10726: among model-score
 * ties, tile vectors whose spans divide the live-out extents (no
 * ragged boundary tiles) and whose innermost span walks the full
 * contiguous extent are preferred. Seed tiles -- e.g. the stored
 * winner of a shape-key near miss (same program structure, other
 * tensor extents) -- jump the ranking entirely and are measured
 * first.
 *
 * Both drivers share one evaluation path (evaluateCandidate): a full
 * compose -> codegen -> bytecode+memsim run against the tuning
 * hierarchy (tuningHierarchy()), whose L1/L2 capacities are the same
 * constants the cost model interpolates against -- model and
 * measurement never disagree about the machine.
 *
 * Determinism contract: both drivers reduce in ranking/enumeration
 * order after every (possibly parallel) evaluation round, so the
 * chosen tiles are identical for any jobs count.
 */

#ifndef POLYFUSE_PERFMODEL_SEARCH_HH
#define POLYFUSE_PERFMODEL_SEARCH_HH

#include <functional>
#include <string>
#include <vector>

#include "deps/dependences.hh"
#include "exec/executor.hh"
#include "ir/program.hh"
#include "memsim/cache.hh"
#include "perfmodel/model.hh"
#include "pres/fm.hh"

namespace polyfuse {
namespace perfmodel {

/** How autotuneTileSizes explores the candidate space. */
enum class SearchMode
{
    /** Measure every feasible candidate (the oracle). */
    Exhaustive,
    /** Model-rank all candidates, measure only the top-K with
     *  successive halving. */
    Guided,
};

/** CLI spelling of @p mode ("exhaustive" / "guided"). */
const char *searchModeName(SearchMode mode);

/** Parse a CLI spelling. @return false on unknown text. */
bool parseSearchMode(const std::string &text, SearchMode *out);

/** L1 geometry of the tuning hierarchy (16 KiB: small on purpose,
 *  so locality effects show at bench-sized extents). */
memsim::CacheConfig tuneL1Config();

/** L2 geometry of the tuning hierarchy (256 KiB). */
memsim::CacheConfig tuneL2Config();

/**
 * The memory hierarchy every candidate evaluation (and the
 * calibration path) simulates against: tuneL1Config()/tuneL2Config()
 * with one pair of spaces per tensor (tensor + its scratch copy),
 * mirroring the executor's space numbering.
 */
memsim::MemoryHierarchy tuningHierarchy(const ir::Program &p);

/**
 * Measure one candidate: compose with @p tiles, generate the AST,
 * run the bytecode tier against tuningHierarchy(), and return
 * modeledCpuMs at an objective of @p threads.
 */
double evaluateCandidate(
    const ir::Program &p, const deps::DependenceGraph &g,
    const std::vector<int64_t> &tiles,
    const std::function<void(exec::Buffers &)> &init,
    unsigned threads, unsigned target_parallelism);

/** The search configuration a driver needs (a subset of
 *  AutotuneOptions, copied so search.hh and autotune.hh stay
 *  dependency-free of each other). */
struct SearchConfig
{
    unsigned dims = 2;
    unsigned threads = 32;
    unsigned targetParallelism = 1;
    unsigned jobs = 1; ///< 0 = hardware concurrency
    /** Guided: fully evaluate this many top-ranked candidates
     *  (0 = auto, max(3, ceil(total / 5))). */
    unsigned topK = 0;
};

/** One driver invocation. */
struct SearchInput
{
    const ir::Program &program;
    const deps::DependenceGraph &graph;
    const std::function<void(exec::Buffers &)> &init;
    SearchConfig config;
    /** Feasible candidates in ladder enumeration order. */
    std::vector<std::vector<int64_t>> candidates;
    /** Near-miss seed (e.g. a shape-key hit at other extents):
     *  measured first when it appears among candidates, and halves
     *  the guided top-K. Empty = cold. */
    std::vector<int64_t> seedTiles;
};

/** What a driver produced. */
struct SearchOutcome
{
    std::vector<int64_t> tileSizes;
    double modeledMs = 0;
    /** Candidates fully evaluated (compose + simulate). */
    unsigned measured = 0;
    /** Wall time of the model ranking pass (guided; 0 otherwise). */
    double modelRankMs = 0;
    /** Presburger FM/op-cache work of all evaluations, aggregated
     *  across workers (sequential and parallel runs report
     *  comparable numbers). */
    pres::fm::Counters counters;
    /** Estimated wall time the shared/per-worker op caches saved
     *  (cold-minus-warm estimate; see AutotuneResult). */
    double savedMsEstimate = 0;
    /** (terms, measuredMs) per evaluation, for calibration. */
    std::vector<ModelSample> samples;
};

/** Every feasible candidate vector of the options ladder, in
 *  enumeration order (candidates larger than the widest tensor
 *  extent are pruned). */
std::vector<std::vector<int64_t>>
enumerateTileCandidates(const ir::Program &program,
                        const std::vector<int64_t> &ladder,
                        unsigned dims);

/** The oracle: measure every candidate, pick the min (ties broken
 *  by enumeration order). Bit-identical tiles/modeledMs to the
 *  pre-search-driver autotuner. */
SearchOutcome searchExhaustive(const SearchInput &in);

/**
 * Model-guided search: rank all candidates by the calibrated model
 * (with dimension-matching tie-bonuses), then evaluate the top-K in
 * successive-halving rounds, stopping early when a round fails to
 * improve the best modeled time by more than 1%.
 */
SearchOutcome searchGuided(const SearchInput &in,
                           const ModelFit &fit);

} // namespace perfmodel
} // namespace polyfuse

#endif // POLYFUSE_PERFMODEL_SEARCH_HH
