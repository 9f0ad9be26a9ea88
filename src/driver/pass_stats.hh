/**
 * @file
 * Per-pass instrumentation registry of the compilation driver: every
 * pass the Pipeline runs reports its wall time (steady clock) and a
 * small set of named integer counters (FM eliminations / constraint
 * rows from src/pres, fusion cluster counts, extension nodes
 * inserted by core::compose, AST node counts, ...). The registry
 * renders as an aligned table (str()) or a JSON value (json()) and
 * is what gives E7 honest per-pass compile-time numbers instead of
 * one lumped total.
 */

#ifndef POLYFUSE_DRIVER_PASS_STATS_HH
#define POLYFUSE_DRIVER_PASS_STATS_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "support/json.hh"

namespace polyfuse {
namespace driver {

/** One executed pass: name, timing, counters (insertion order). */
struct PassStat
{
    std::string name;
    /** Wall time of the pass in milliseconds (steady clock). */
    double ms = 0;
    /** Cumulative milliseconds since the pipeline started, taken
     *  when the pass finished; monotone across the pass list. */
    double endMs = 0;
    /** Named counters, in the order the pass reported them. */
    std::vector<std::pair<std::string, int64_t>> counters;

    /** Counter value by name; @p fallback when absent. */
    int64_t counter(const std::string &key,
                    int64_t fallback = 0) const;
};

/** The ordered registry of every pass one Pipeline::run produced. */
class PassStats
{
  public:
    void add(PassStat stat);

    const std::vector<PassStat> &passes() const { return passes_; }

    /** The record of pass @p name (null when it never ran). */
    const PassStat *find(const std::string &name) const;

    /** Milliseconds of pass @p name (0 when it never ran). */
    double msOf(const std::string &name) const;

    /** Sum of the per-pass times. */
    double totalMs() const;

    /** Aligned human-readable table, one line per pass. */
    std::string str() const;

    /**
     * One JSON object: {"passes": [{"name", "ms", "counters"}, ...],
     * "totalMs": ...}. Machine-stable: counter keys are emitted in
     * sorted order, so two runs recording the same values dump to
     * byte-identical text (batch mode and the CLI nest this object).
     */
    json::Value json() const;

  private:
    std::vector<PassStat> passes_;
};

} // namespace driver
} // namespace polyfuse

#endif // POLYFUSE_DRIVER_PASS_STATS_HH
