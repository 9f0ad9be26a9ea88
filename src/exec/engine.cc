#include "exec/engine.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "exec/kernel_cache.hh"

namespace polyfuse {
namespace exec {

const char *
tierName(Tier tier)
{
    switch (tier) {
      case Tier::Interp: return "interp";
      case Tier::Bytecode: return "bytecode";
      case Tier::Native: return "native";
    }
    return "?";
}

bool
parseTier(const std::string &text, Tier *out)
{
    if (text == "interp")
        *out = Tier::Interp;
    else if (text == "bytecode")
        *out = Tier::Bytecode;
    else if (text == "native")
        *out = Tier::Native;
    else
        return false;
    return true;
}

const char *
parStrategyName(ParStrategy strategy)
{
    switch (strategy) {
      case ParStrategy::Off: return "off";
      case ParStrategy::Static: return "static";
      case ParStrategy::Graph: return "graph";
    }
    return "?";
}

bool
parseParStrategy(const std::string &text, ParStrategy *out)
{
    if (text == "off")
        *out = ParStrategy::Off;
    else if (text == "static")
        *out = ParStrategy::Static;
    else if (text == "graph")
        *out = ParStrategy::Graph;
    else
        return false;
    return true;
}

ExecResult
execute(const ir::Program &program, const codegen::AstPtr &ast,
        Buffers &buffers, const ExecOptions &options)
{
    if (options.tier != Tier::Interp) {
        // A transient image that borrows the program: the tier ladder
        // lives once, in execute(image, ...).
        KernelImage image;
        image.program = std::shared_ptr<const ir::Program>(
            std::shared_ptr<const ir::Program>(), &program);
        image.ast = ast;
        image.bytecode = BytecodeKernel::compile(program, ast);
        return execute(image, buffers, options);
    }

    ExecResult result;
    result.tier = Tier::Interp;
    if (!options.sink) {
        result.stats = run(program, ast, buffers);
        return result;
    }
    TraceSink &sink = *options.sink;
    result.stats = run(program, ast, buffers,
                       [&sink](int space, int64_t off, bool w) {
                           TraceRecord r{off, int32_t(space),
                                         uint8_t(w ? 1 : 0)};
                           sink.onRecords(&r, 1);
                       });
    return result;
}

const std::vector<BackendSpec> &
backendRegistry()
{
    static const std::vector<BackendSpec> registry = {
        {"interp", Tier::Interp, ParStrategy::Off, 1},
        {"bytecode", Tier::Bytecode, ParStrategy::Off, 1},
        {"bytecode-par2", Tier::Bytecode, ParStrategy::Static, 2},
        {"bytecode-par4", Tier::Bytecode, ParStrategy::Static, 4},
        {"bytecode-graph2", Tier::Bytecode, ParStrategy::Graph, 2},
        {"bytecode-graph4", Tier::Bytecode, ParStrategy::Graph, 4},
        {"native", Tier::Native, ParStrategy::Off, 1},
        {"native-par2", Tier::Native, ParStrategy::Static, 2},
        {"native-par4", Tier::Native, ParStrategy::Static, 4},
    };
    return registry;
}

const BackendSpec *
findBackend(const std::string &name)
{
    for (const auto &spec : backendRegistry())
        if (name == spec.name)
            return &spec;
    return nullptr;
}

ExecOptions
backendOptions(const BackendSpec &spec)
{
    ExecOptions options;
    options.tier = spec.tier;
    options.par = spec.par;
    options.threads = spec.threads;
    return options;
}

namespace {

/** Map double bits onto an ordering where adjacent representable
 *  values differ by 1 (sign-magnitude flipped into a total order),
 *  so ulp distance is plain integer subtraction. */
uint64_t
orderedKey(uint64_t bits)
{
    return bits >> 63 ? ~bits : bits | (uint64_t(1) << 63);
}

} // namespace

BufferDeviation
bufferDeviation(const ir::Program &program, const Buffers &ref,
                const Buffers &got)
{
    BufferDeviation dev;
    for (size_t t = 0; t < program.tensors().size(); ++t) {
        const auto &a = ref.data(int(t));
        const auto &b = got.data(int(t));
        size_t n = std::min(a.size(), b.size());
        for (size_t i = 0; i < n; ++i) {
            uint64_t ba, bb;
            std::memcpy(&ba, &a[i], sizeof(ba));
            std::memcpy(&bb, &b[i], sizeof(bb));
            if (ba == bb)
                continue;
            dev.bitIdentical = false;
            bool na = std::isnan(a[i]), nb = std::isnan(b[i]);
            if (na != nb) {
                dev.maxAbs =
                    std::numeric_limits<double>::infinity();
                dev.maxUlp = std::numeric_limits<uint64_t>::max();
                continue;
            }
            if (na && nb)
                continue; // both NaN; payloads don't matter
            double d = std::fabs(a[i] - b[i]);
            if (d > dev.maxAbs)
                dev.maxAbs = d;
            uint64_t ka = orderedKey(ba), kb = orderedKey(bb);
            uint64_t ulp = ka > kb ? ka - kb : kb - ka;
            if (ulp > dev.maxUlp)
                dev.maxUlp = ulp;
        }
    }
    return dev;
}

} // namespace exec
} // namespace polyfuse
