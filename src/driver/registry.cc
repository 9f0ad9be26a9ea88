#include "driver/registry.hh"

#include "workloads/conv2d.hh"
#include "workloads/equake.hh"
#include "workloads/pipelines.hh"
#include "workloads/polybench.hh"
#include "workloads/resnet50.hh"

namespace polyfuse {
namespace driver {

namespace {

workloads::PipelineConfig
imageCfg(const WorkloadParams &p)
{
    return {p.rows, p.cols};
}

std::vector<WorkloadSpec>
buildRegistry()
{
    std::vector<WorkloadSpec> reg;
    reg.push_back({"conv2d",
                   "the paper's running example (Fig. 1a)",
                   {32, 32},
                   {64, 64},
                   [](const WorkloadParams &p) {
                       return workloads::makeConv2D(
                           {p.rows, p.cols, 3, 3});
                   }});
    reg.push_back({"bilateral",
                   "bilateral grid (7 stages)",
                   {8, 512},
                   {256, 256},
                   [](const WorkloadParams &p) {
                       return workloads::makeBilateralGrid(
                           imageCfg(p));
                   }});
    reg.push_back({"camera",
                   "camera pipeline (16 stages)",
                   {8, 32},
                   {256, 256},
                   [](const WorkloadParams &p) {
                       return workloads::makeCameraPipeline(
                           imageCfg(p));
                   }});
    reg.push_back({"harris",
                   "Harris corner detection (11 stages)",
                   {16, 512},
                   {256, 256},
                   [](const WorkloadParams &p) {
                       return workloads::makeHarris(imageCfg(p));
                   }});
    reg.push_back({"laplacian",
                   "local Laplacian filter",
                   {32, 64},
                   {256, 256},
                   [](const WorkloadParams &p) {
                       return workloads::makeLocalLaplacian(
                           imageCfg(p));
                   }});
    reg.push_back({"interp",
                   "multiscale interpolation pyramid",
                   {8, 64},
                   {256, 256},
                   [](const WorkloadParams &p) {
                       return workloads::makeMultiscaleInterp(
                           imageCfg(p));
                   }});
    reg.push_back({"unsharp",
                   "unsharp mask (4 stages)",
                   {8, 128},
                   {256, 256},
                   [](const WorkloadParams &p) {
                       return workloads::makeUnsharpMask(
                           imageCfg(p));
                   }});
    reg.push_back({"equake",
                   "equake sparse FEM kernel (rows = nodes, "
                   "cols = max degree)",
                   {512},
                   {4096, 16},
                   [](const WorkloadParams &p) {
                       return workloads::makeEquake(
                           {p.rows, p.cols});
                   }});
    reg.push_back({"2mm",
                   "PolyBench 2mm (rows = all extents)",
                   {32, 32},
                   {192, 192},
                   [](const WorkloadParams &p) {
                       return workloads::make2mm(p.rows, p.rows,
                                                 p.rows, p.rows);
                   }});
    reg.push_back({"gemver",
                   "PolyBench gemver (rows = n)",
                   {32, 32},
                   {768, 768},
                   [](const WorkloadParams &p) {
                       return workloads::makeGemver(p.rows);
                   }});
    reg.push_back({"seidel",
                   "Gauss-Seidel sweep (rows = n, cols = m; "
                   "wavefront tiles)",
                   {32, 32},
                   {256, 256},
                   [](const WorkloadParams &p) {
                       return workloads::makeSeidel(p.rows, p.cols);
                   }});
    reg.push_back({"covariance",
                   "PolyBench covariance (rows = n, cols = m)",
                   {32, 32},
                   {192, 192},
                   [](const WorkloadParams &p) {
                       return workloads::makeCovariance(p.rows,
                                                        p.cols);
                   }});
    reg.push_back({"convbn",
                   "ResNet-50 conv + batchnorm layer "
                   "(rows = channels, cols = spatial)",
                   {8, 4, 4},
                   {64, 16},
                   [](const WorkloadParams &p) {
                       memsim::ConvLayer layer;
                       layer.cin = p.rows;
                       layer.cout = p.rows;
                       layer.height = p.cols;
                       layer.width = p.cols;
                       layer.kernel = 3;
                       return workloads::makeConvBnProgram(layer);
                   }});
    return reg;
}

} // namespace

const std::vector<WorkloadSpec> &
workloadRegistry()
{
    static const std::vector<WorkloadSpec> reg = buildRegistry();
    return reg;
}

const WorkloadSpec *
findWorkload(const std::string &name)
{
    for (const auto &w : workloadRegistry())
        if (name == w.name)
            return &w;
    return nullptr;
}

} // namespace driver
} // namespace polyfuse
