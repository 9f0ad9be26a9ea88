/**
 * @file
 * Domain example: deploying a conv + batchnorm layer on the
 * DaVinci-like accelerator model (Sec. V-A) through the driver
 * pipeline. Shows the fusion decision of the composition on the
 * layer's polyhedral program, the generated C (the convolution
 * result kept in a per-tile scratchpad that the batchnorm reads),
 * the per-pass compile report, and the per-layer cost-model
 * comparison of separated versus post-tiling-fused execution over
 * several ResNet-50 layers.
 *
 *   ./examples/accelerator_conv
 */

#include <cstdio>

#include "driver/pipeline.hh"
#include "exec/native.hh"
#include "memsim/davinci.hh"
#include "workloads/resnet50.hh"

using namespace polyfuse;

int
main()
{
    // The layer program: init + reduction (Cube Unit) feeding a
    // pointwise batchnorm (Vector Unit).
    memsim::ConvLayer layer;
    layer.cin = 64;
    layer.cout = 64;
    layer.height = 18;
    layer.width = 18;
    layer.kernel = 3;
    ir::Program p = workloads::makeConvBnProgram(layer);

    driver::PipelineOptions opts;
    opts.strategy = driver::Strategy::Ours;
    opts.tileSizes = {16, 8, 8};
    opts.startup = schedule::FusionPolicy::Min;
    auto state = driver::Pipeline(opts).run(p);
    std::printf("conv+bn fused into %zu computation space(s); "
                "intermediates kept in the Unified Buffer: %zu\n\n",
                state.composed.spaces.size(),
                state.composed.fusedIntermediates.size());
    std::printf("--- composed schedule tree ---\n%s\n",
                state.tree.str().c_str());
    std::printf("--- generated C ---\n%s\n",
                exec::emitNativeSource(p, state.ast).c_str());
    std::printf("--- pass pipeline ---\n%s\n",
                state.stats.str().c_str());

    // Cost-model sweep over a few representative ResNet-50 layers.
    auto layers = workloads::resnet50Layers();
    std::printf("layer (cin->cout, size, k)   separated(ms)  "
                "fused(ms)  speedup  GM saved(MB)\n");
    for (size_t i : {size_t(0), size_t(2), size_t(15), size_t(30),
                     size_t(50)}) {
        const auto &l = layers[i];
        auto u = memsim::estimateConvBn(l, false);
        auto f = memsim::estimateConvBn(l, true);
        std::printf("%4lld->%-4lld %3lldx%-3lld k=%lld      "
                    "%10.3f %10.3f %7.2fx %10.2f\n",
                    (long long)l.cin, (long long)l.cout,
                    (long long)l.height, (long long)l.width,
                    (long long)l.kernel, u.totalMs, f.totalMs,
                    u.totalMs / f.totalMs,
                    (u.gmBytes - f.gmBytes) / 1e6);
    }
    return 0;
}
