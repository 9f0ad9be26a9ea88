/**
 * @file
 * The workload registry of the production CLI: every program the
 * repository can build, addressable by name, with its default
 * (auto-tuned) tile sizes. Backs `polyfuse --workload <name>` and
 * keeps the benchmark tables and the CLI pointed at the same
 * factories.
 */

#ifndef POLYFUSE_DRIVER_REGISTRY_HH
#define POLYFUSE_DRIVER_REGISTRY_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "ir/program.hh"

namespace polyfuse {
namespace driver {

/** Size parameters of a registry workload. Interpretation is per
 *  workload: image rows/cols, equake nodes/degree, PolyBench n/m. */
struct WorkloadParams
{
    int64_t rows = 256;
    int64_t cols = 256;
};

/** One registered workload. */
struct WorkloadSpec
{
    const char *name;        ///< CLI spelling
    const char *description; ///< one line for --list
    /** Default live-out tiles: for the six image pipelines, the
     *  fastest sequential native `ours` kernel at 1088x1920 in
     *  interleaved sweeps of the tuner's ladder (kept where no
     *  candidate beat the old default by more than its spread); the
     *  modeled auto-tuner's elsewhere. */
    std::vector<int64_t> defaultTiles;
    WorkloadParams defaults; ///< sizes used when the CLI gives none
    std::function<ir::Program(const WorkloadParams &)> make;
};

/** Every registered workload, listing order. */
const std::vector<WorkloadSpec> &workloadRegistry();

/** Lookup by name (null when unknown). */
const WorkloadSpec *findWorkload(const std::string &name);

} // namespace driver
} // namespace polyfuse

#endif // POLYFUSE_DRIVER_REGISTRY_HH
