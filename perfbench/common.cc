#include "bench.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "driver/pipeline.hh"
#include "exec/engine.hh"
#include "service/server.hh"
#include "support/json.hh"

namespace perfbench {

// ------------------------------------------------------------ stats

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t rank = size_t(std::ceil(p / 100.0 * double(v.size())));
    return v[std::min(std::max<size_t>(rank, 1), v.size()) - 1];
}

double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0;
    double s = 0;
    for (double x : v)
        s += std::log(std::max(x, 1e-9));
    return std::exp(s / double(v.size()));
}

double
nowMs()
{
    auto t = std::chrono::steady_clock::now().time_since_epoch();
    return std::chrono::duration<double, std::milli>(t).count();
}

uint64_t
Rng::next()
{
    uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

// ----------------------------------------------------------- tracing

int
Tracer::begin(const std::string &name, uint64_t op)
{
    if (!on_)
        return -1;
    double t = nowMs();
    return add(name, t, t, -1, op);
}

void
Tracer::end(int id)
{
    if (!on_ || id < 0)
        return;
    double t = nowMs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[size_t(id)].end = t - t0_;
}

int
Tracer::add(const std::string &name, double start, double end,
            int parent, uint64_t op)
{
    if (!on_)
        return -1;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, start - t0_, end - t0_, parent, op});
    return int(spans_.size() - 1);
}

double
Tracer::selfMs(const std::string &name, size_t *count) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> childMs(spans_.size(), 0.0);
    for (const Span &s : spans_)
        if (s.parent >= 0)
            childMs[size_t(s.parent)] += s.end - s.start;
    double total = 0;
    size_t n = 0;
    for (size_t i = 0; i < spans_.size(); ++i) {
        if (spans_[i].name != name)
            continue;
        total += std::max(0.0, spans_[i].end - spans_[i].start -
                                   childMs[i]);
        ++n;
    }
    if (count)
        *count = n;
    return total;
}

std::vector<double>
Tracer::durations(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> d;
    for (const Span &s : spans_)
        if (s.name == name)
            d.push_back(s.end - s.start);
    return d;
}

bool
Tracer::writeChrome(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream out(path);
    if (!out)
        return false;
    out << "{\"traceEvents\": [";
    char buf[512];
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::snprintf(buf, sizeof(buf),
                      "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                      "\"tid\": %llu, \"ts\": %.3f, \"dur\": %.3f, "
                      "\"args\": {\"id\": %zu, \"parent\": %d}}",
                      i ? "," : "", json::escape(s.name).c_str(),
                      (unsigned long long)s.op, s.start * 1e3,
                      (s.end - s.start) * 1e3, i, s.parent);
        out << buf;
    }
    out << "\n]}\n";
    return bool(out);
}

// ----------------------------------------------------------- report

void
Report::add(const std::string &name, const std::string &unit,
            double value, size_t samples)
{
    for (Metric &m : metrics) {
        if (m.name == name) {
            m = {name, unit, value, samples};
            return;
        }
    }
    metrics.push_back({name, unit, value, samples});
}

const Metric *
Report::find(const std::string &name) const
{
    for (const Metric &m : metrics)
        if (m.name == name)
            return &m;
    return nullptr;
}

// ----------------------------------------------------------- oracle

bool
Oracle::load(const std::string &path, std::string *error)
{
    std::ifstream in(path);
    if (!in) {
        *error = "cannot read " + path;
        return false;
    }
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string key, hash;
        if (!(ls >> key >> hash)) {
            *error = "malformed line in " + path + ": " + line;
            return false;
        }
        hashes_[key] = hash;
    }
    return true;
}

bool
Oracle::save(const std::string &path) const
{
    std::ofstream out(path);
    out << "# Expected outputs of the benchmark, computed on the Tier-0\n"
           "# interpreter. Regenerate: python3 perfbench/run.py "
           "--regen-expected\n";
    for (const auto &[key, hash] : hashes_)
        out << key << " " << hash << "\n";
    return bool(out);
}

std::string
Oracle::get(const std::string &key) const
{
    auto it = hashes_.find(key);
    return it == hashes_.end() ? std::string() : it->second;
}

void
Oracle::set(const std::string &key, const std::string &hash)
{
    hashes_[key] = hash;
}

std::string
liveOutKey(const std::string &program, int64_t rows, int64_t cols)
{
    return "liveout:" + program + ":" + std::to_string(rows) + "x" +
           std::to_string(cols);
}

std::string
allBuffersKey(const std::string &program, int64_t rows, int64_t cols,
              const std::string &strategy,
              const std::vector<int64_t> &tiles)
{
    std::string t;
    for (int64_t x : tiles)
        t += (t.empty() ? "" : "x") + std::to_string(x);
    return "all:" + program + ":" + std::to_string(rows) + "x" +
           std::to_string(cols) + ":" + strategy + ":" + t;
}

std::string
hashLiveOuts(const ir::Program &program, const exec::Buffers &buffers)
{
    uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](uint64_t v) { h = (h ^ v) * 0x100000001b3ull; };
    for (size_t t = 0; t < program.tensors().size(); ++t) {
        if (program.tensor(int(t)).kind != ir::TensorKind::Output)
            continue;
        const std::vector<double> &d = buffers.data(int(t));
        mix(t);
        mix(d.size());
        for (double x : d) {
            uint64_t bits;
            std::memcpy(&bits, &x, sizeof(bits));
            mix(bits);
        }
    }
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx", (unsigned long long)h);
    return buf;
}

std::string
referenceLiveOuts(const ir::Program &program)
{
    driver::PipelineOptions po;
    po.strategy = driver::Strategy::Naive;
    driver::Pipeline pipeline(po);
    driver::CompilationState st = pipeline.run(program);
    exec::Buffers buffers(program);
    service::fillServiceInputs(program, buffers);
    exec::ExecOptions eo;
    eo.tier = exec::Tier::Interp;
    exec::execute(program, st.ast, buffers, eo);
    return hashLiveOuts(program, buffers);
}

// ------------------------------------------------ compile and build

void
LayerTally::addPasses(const driver::PassStats &stats)
{
    ++kernels;
    for (const driver::PassStat &p : stats.passes()) {
        fmElims += p.counter("fm_elims");
        fmRows += p.counter("fm_rows");
        cacheHits += p.counter("cache_hits");
        cacheMisses += p.counter("cache_misses");
        if (p.name == "Fuse")
            clusters += p.counter("clusters");
        if (p.name == "Compose")
            extensions += p.counter("extensions");
        if (p.name == "Codegen") {
            astNodes += p.counter("ast_nodes");
            allocs += p.counter("allocs");
        }
        if (p.name == "LowerBytecode")
            instructions += p.counter("instructions");
    }
}

Kernel
compileKernel(const std::shared_ptr<const ir::Program> &prog,
              driver::Strategy strategy,
              const std::vector<int64_t> &tiles, bool build,
              Tracer &tracer, uint64_t op, LayerTally *tally)
{
    Kernel k;
    k.strategy = strategy;
    k.prog = prog;
    driver::PipelineOptions po;
    po.strategy = strategy;
    po.tileSizes = tiles;
    driver::Pipeline pipeline(po);

    if (tracer.on() && tally) {
        double f0 = nowMs();
        driver::programFingerprint(*prog, po, exec::Tier::Bytecode);
        double f1 = nowMs();
        tracer.add("driver::programFingerprint", f0, f1, -1, op);
        tally->fingerprintUs.push_back((f1 - f0) * 1e3);
    }

    driver::CompileContext ctx;
    double t0 = nowMs();
    k.art = driver::compileKernel(pipeline, prog, ctx);
    double t1 = nowMs();
    k.compileMs = t1 - t0;
    int span = tracer.add("driver::compileKernel", t0, t1, -1, op);
    for (const driver::PassStat &p : k.art.stats.passes())
        tracer.add("pass." + p.name, t0 + p.endMs - p.ms, t0 + p.endMs,
                   span, op);
    if (tally)
        tally->addPasses(k.art.stats);

    if (!build)
        return k;
    if (tracer.on() && tally) {
        double e0 = nowMs();
        std::string src = exec::emitNativeSource(*prog, k.art.image->ast);
        tracer.add("exec::emitNativeSource", e0, nowMs(), -1, op);
        tally->sourceBytes += int64_t(src.size());
    }
    double b0 = nowMs();
    k.native = exec::NativeKernel::compile(*prog, k.art.image->ast);
    double b1 = nowMs();
    k.buildMs = b1 - b0;
    tracer.add("exec::NativeKernel::compile", b0, b1, -1, op);
    return k;
}

std::shared_ptr<const ir::Program>
makeProgram(const driver::WorkloadSpec &spec, int64_t rows, int64_t cols,
            Tracer &tracer, uint64_t op, LayerTally *tally)
{
    double t0 = nowMs();
    auto prog = std::make_shared<const ir::Program>(
        spec.make(driver::WorkloadParams{rows, cols}));
    double t1 = nowMs();
    tracer.add("WorkloadSpec::make", t0, t1, -1, op);
    if (tracer.on() && tally)
        tally->makeMs.push_back(t1 - t0);
    return prog;
}

void
reportCompileLayers(Report &r, const Tracer &tracer,
                    const LayerTally &tally)
{
    size_t compiles = 0;
    tracer.selfMs("driver::compileKernel", &compiles);
    double n = double(std::max<size_t>(compiles, 1));
    auto perKernel = [&](std::initializer_list<const char *> names) {
        double total = 0;
        for (const char *name : names)
            total += tracer.selfMs(name);
        return total / n;
    };
    size_t k = tally.kernels;
    r.add("pres.fm_elims", "count", double(tally.fmElims), k);
    r.add("pres.fm_rows", "count", double(tally.fmRows), k);
    int64_t lookups = tally.cacheHits + tally.cacheMisses;
    r.add("pres.op_cache.hit_ratio", "ratio",
          lookups ? double(tally.cacheHits) / double(lookups) : 0, k);
    r.add("deps.compute_ms", "ms", perKernel({"pass.ComputeDeps"}), k);
    r.add("deps.tile_graph_ms", "ms", perKernel({"pass.TileGraph"}), k);
    r.add("schedule.fuse_ms", "ms", perKernel({"pass.Fuse", "pass.Tile"}),
          k);
    r.add("schedule.clusters", "count", double(tally.clusters), k);
    r.add("core.compose_ms", "ms", perKernel({"pass.Compose"}), k);
    r.add("core.extensions", "count", double(tally.extensions), k);
    r.add("codegen.ms", "ms", perKernel({"pass.Promote", "pass.Codegen"}),
          k);
    r.add("codegen.ast_nodes", "count", double(tally.astNodes), k);
    r.add("codegen.allocs", "count", double(tally.allocs), k);
    r.add("exec.bytecode.lower_ms", "ms", perKernel({"pass.LowerBytecode"}),
          k);
    r.add("exec.bytecode.instructions", "count",
          double(tally.instructions), k);

    std::vector<double> emit = tracer.durations("exec::emitNativeSource");
    std::vector<double> build =
        tracer.durations("exec::NativeKernel::compile");
    if (!build.empty()) {
        double emitMean = 0, buildMean = 0;
        for (double x : emit)
            emitMean += x / double(emit.size());
        for (double x : build)
            buildMean += x / double(build.size());
        r.add("exec.native.emit_ms", "ms", emitMean, emit.size());
        r.add("exec.native.cc_ms", "ms", buildMean - emitMean,
              build.size());
        r.add("exec.native.build_ms", "ms", buildMean, build.size());
        r.add("exec.native.source_kb", "kB",
              double(tally.sourceBytes) / 1024.0, emit.size());
    }
    if (!tally.fingerprintUs.empty())
        r.add("ir.fingerprint_us", "us", median(tally.fingerprintUs),
              tally.fingerprintUs.size());
    if (!tally.makeMs.empty()) {
        double mean = 0;
        for (double x : tally.makeMs)
            mean += x / double(tally.makeMs.size());
        r.add("ir.make_ms", "ms", mean, tally.makeMs.size());
    }
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;
}

} // namespace perfbench
