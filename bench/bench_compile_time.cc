/**
 * @file
 * E7 -- compilation-time comparison (Table I columns + Sec. VI-D):
 * scheduling time of minfuse, smartfuse, maxfuse and our composition
 * on the six image pipelines, now with the driver's per-pass
 * breakdown (Fuse / Compose / Tile / Codegen) instead of one lumped
 * number.
 *
 * Paper expectation (shape): ours stays close to the cheap
 * heuristics and far below maxfuse (which the paper could not finish
 * within a day on four pipelines); Harris is the noted exception
 * where the footprint computation (the Compose pass) dominates for
 * our approach.
 */

#include "bench/common.hh"
#include "workloads/pipelines.hh"

using namespace polyfuse;
using namespace polyfuse::bench;

int
main()
{
    workloads::PipelineConfig cfg{256, 256};
    struct Entry
    {
        const char *name;
        ir::Program (*make)(const workloads::PipelineConfig &);
    };
    std::vector<Entry> entries = {
        {"BilateralGrid", workloads::makeBilateralGrid},
        {"CameraPipeline", workloads::makeCameraPipeline},
        {"HarrisCorner", workloads::makeHarris},
        {"LocalLaplacian", workloads::makeLocalLaplacian},
        {"MultiscaleInterp", workloads::makeMultiscaleInterp},
        {"UnsharpMask", workloads::makeUnsharpMask},
    };
    std::vector<Strategy> strategies = {
        Strategy::MinFuse, Strategy::SmartFuse, Strategy::MaxFuse,
        Strategy::Ours};

    std::printf("=== Compilation time per pass (ms; best of 3) "
                "===\n");
    printRow("benchmark/strategy",
             {"fuse", "compose", "tile", "codegen", "total"}, 10);
    for (const auto &e : entries) {
        ir::Program p = e.make(cfg);
        for (Strategy s : strategies) {
            RunOptions opts;
            opts.tileSizes = {32, 32};
            // Best of three to de-noise; keep the stats of the
            // fastest run so the breakdown matches the total.
            driver::PassStats best;
            double best_ms = 1e30;
            for (int rep = 0; rep < 3; ++rep) {
                auto state = compileStrategy(p, s, opts);
                double ms = state.compileMs();
                if (ms < best_ms) {
                    best_ms = ms;
                    best = state.stats;
                }
            }
            printRow(std::string(e.name) + "/" + strategyName(s),
                     {fmt(best.msOf("Fuse")),
                      fmt(best.msOf("Compose")),
                      fmt(best.msOf("Tile")),
                      fmt(best.msOf("Codegen")), fmt(best_ms)},
                     10);
        }
        std::printf("\n");
    }
    std::printf("Dependence analysis is shared by all strategies "
                "and excluded from the total;\nmaxfuse's shift "
                "search lands in `fuse`, ours' footprint "
                "computation in `compose`.\n");
    return 0;
}
