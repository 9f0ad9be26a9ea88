/**
 * @file
 * Quickstart: the paper's running example end to end, compiled
 * through the driver's pass pipeline.
 *
 * Builds the Fig. 1(a) convolution, shows the initial and composed
 * schedule trees, the extension schedule of eq. (6), the generated C
 * of Fig. 5 (the translation unit the native tier compiles, with the
 * tile-local scratchpad and its copy-in spelled out) with the
 * per-pass compile report, and finally executes both schedules and
 * verifies they agree.
 *
 *   ./examples/quickstart
 */

#include <cstdio>

#include "driver/pipeline.hh"
#include "exec/executor.hh"
#include "exec/native.hh"
#include "workloads/conv2d.hh"

using namespace polyfuse;

int
main()
{
    // 1. The program: quantization, init, reduction, ReLU (Fig. 1a).
    ir::Program prog = workloads::makeConv2D({64, 64, 3, 3});
    std::printf("program '%s': %zu statements in %u loop nests\n\n",
                prog.name().c_str(), prog.statements().size(),
                prog.numGroups());

    // 2. The naive pipeline run: dependence analysis plus the
    //    initial schedule tree (Fig. 2a).
    driver::PipelineOptions naive;
    naive.strategy = driver::Strategy::Naive;
    auto initial = driver::Pipeline(naive).run(prog);
    std::printf("--- initial schedule tree ---\n%s\n",
                initial.tree.str().c_str());

    // 3. The paper's composition: tile the live-out space, derive
    //    the intermediate tile shapes from upwards exposed data,
    //    fuse post-tiling (Algorithms 1-3).
    driver::PipelineOptions ours;
    ours.strategy = driver::Strategy::Ours;
    ours.tileSizes = {16, 16};
    auto composed = driver::Pipeline(ours).run(prog);

    std::printf("--- composed schedule tree (Fig. 5) ---\n%s\n",
                composed.tree.str().c_str());
    for (const auto &[stmt, ext] :
         composed.composed.extensionSchedules)
        std::printf("extension schedule (eq. 6) for %s:\n  %s\n\n",
                    stmt.c_str(), ext.str().c_str());

    // 4. Generated code and the per-pass compile report.
    std::printf("--- generated C ---\n%s\n",
                exec::emitNativeSource(prog, composed.ast).c_str());
    std::printf("--- pass pipeline ---\n%s\n",
                composed.stats.str().c_str());

    // 5. Execute both schedules and compare the outputs.
    auto runIt = [&](const codegen::AstPtr &ast) {
        exec::Buffers buf(prog);
        buf.fillPattern(prog.tensorId("A"), 7);
        buf.fillPattern(prog.tensorId("B"), 13);
        exec::run(prog, ast, buf);
        return buf.data(prog.tensorId("C"));
    };
    auto ref = runIt(initial.ast);
    auto got = runIt(composed.ast);
    std::printf("outputs %s (%zu elements)\n",
                ref == got ? "MATCH" : "DIFFER", ref.size());
    return ref == got ? 0 : 1;
}
