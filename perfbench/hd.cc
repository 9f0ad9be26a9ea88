/**
 * @file
 * pipelines-hd: the six PolyMage pipelines at 1088x1920, compiled
 * under `ours` and `naive` with the registry's default tiles to
 * sequential native kernels during set-up; the timed part runs the
 * twelve kernels on one thread, interleaved round-robin in a seeded
 * order, refilling the inputs untimed before each run.
 */

#include <cstdio>

#include "bench.hh"
#include "exec/engine.hh"
#include "service/server.hh"

namespace perfbench {

namespace {

const char *const kPipelines[] = {"bilateral", "camera",  "harris",
                                  "laplacian", "interp", "unsharp"};

const driver::Strategy kStrategies[] = {driver::Strategy::Ours,
                                        driver::Strategy::Naive};

/** Frame size of the timed runs and of the bytecode work counts.
 *  1088 is 1080p rounded up to the multiple of 16 interp needs. */
struct HdSizes
{
    int64_t rows, cols;
    int64_t workRows, workCols;
};

HdSizes
hdSizes(bool smoke)
{
    return smoke ? HdSizes{64, 128, 32, 64} : HdSizes{1088, 1920, 272, 480};
}

/** Programs, buffers and the twelve kernels (index 2 * p + s). */
struct HdSetup
{
    std::vector<std::shared_ptr<const ir::Program>> progs;
    std::vector<std::unique_ptr<exec::Buffers>> bufs;
    std::vector<Kernel> kernels;
};

HdSetup
setUp(const HdSizes &sz, Tracer &tracer, LayerTally *tally)
{
    HdSetup s;
    for (size_t p = 0; p < std::size(kPipelines); ++p) {
        const driver::WorkloadSpec &spec =
            *driver::findWorkload(kPipelines[p]);
        s.progs.push_back(
            makeProgram(spec, sz.rows, sz.cols, tracer, p, tally));
        for (driver::Strategy st : kStrategies) {
            s.kernels.push_back(compileKernel(s.progs.back(), st,
                                              spec.defaultTiles, true,
                                              tracer, p, tally));
            s.kernels.back().program = spec.name;
        }
        s.bufs.push_back(std::make_unique<exec::Buffers>(*s.progs.back()));
        service::fillServiceInputs(*s.progs.back(), *s.bufs.back());
    }
    return s;
}

std::string
kernelName(const Kernel &k)
{
    return k.program + "." + driver::strategyName(k.strategy);
}

/** Geomean over the pipelines of a per-pipeline time. */
double
geomeanOver(const std::vector<std::vector<double>> &samples, size_t s)
{
    std::vector<double> v;
    for (size_t p = 0; p < std::size(kPipelines); ++p)
        if (!samples[2 * p + s].empty())
            v.push_back(median(samples[2 * p + s]));
    return geomean(v);
}

/** Traced-only rows: the 2-thread tile team and bytecode work counts. */
void
traceExtras(const HdSizes &sz, const HdSetup &s, Tracer &tracer,
            Report &r)
{
    // ours on a 2-thread static tile team over the same buffers.
    std::vector<double> par;
    size_t parallelRegions = 0;
    for (size_t p = 0; p < std::size(kPipelines); ++p) {
        const Kernel &k = s.kernels[2 * p];
        exec::NativeOptions no;
        no.par = exec::ParStrategy::Static;
        no.threads = 2;
        no.tileBands = &k.art.image->tileBands;
        exec::NativeKernel team =
            exec::NativeKernel::compile(*k.prog, k.art.image->ast, no);
        if (!team.ok())
            continue;
        parallelRegions += team.regionsParallel();
        std::vector<double> times;
        for (int rep = 0; rep < 3; ++rep) {
            service::fillServiceInputs(*k.prog, *s.bufs[p]);
            int span = tracer.begin("exec::NativeKernel::run.par2", p);
            double t0 = nowMs();
            team.run(*s.bufs[p]);
            times.push_back(nowMs() - t0);
            tracer.end(span);
        }
        par.push_back(median(times));
    }
    r.add("exec.native.par2_run_ms", "ms", geomean(par), par.size());
    r.notes.push_back("par2: " + std::to_string(parallelRegions) +
                      " tile bands ran on the 2-thread team; parallel "
                      "runs do not gate (team times are not steady on "
                      "this class of host)");

    // One bytecode run of each kernel at the reduced size.
    uint64_t inst[2] = {0, 0};
    exec::ExecStats sum;
    Tracer untraced(false);
    for (size_t p = 0; p < std::size(kPipelines); ++p) {
        const driver::WorkloadSpec &spec =
            *driver::findWorkload(kPipelines[p]);
        auto prog = std::make_shared<const ir::Program>(
            spec.make({sz.workRows, sz.workCols}));
        for (size_t si = 0; si < 2; ++si) {
            Kernel k = compileKernel(prog, kStrategies[si],
                                     spec.defaultTiles, false, untraced,
                                     0, nullptr);
            exec::Buffers b(*prog);
            service::fillServiceInputs(*prog, b);
            exec::ExecStats st = driver::executeKernel(k.art, b).stats;
            inst[si] += st.instances;
            sum.instances += st.instances;
            sum.loads += st.loads;
            sum.stores += st.stores;
            sum.guardFails += st.guardFails;
        }
    }
    r.add("exec.instances", "count", double(sum.instances), 12);
    r.add("exec.loads", "count", double(sum.loads), 12);
    r.add("exec.stores", "count", double(sum.stores), 12);
    r.add("exec.guard_fails", "count", double(sum.guardFails), 12);
    r.add("exec.recompute_ratio", "ratio",
          inst[1] ? double(inst[0]) / double(inst[1]) : 0, 12);
    r.notes.push_back("work counts: bytecode tier at " +
                      std::to_string(sz.workRows) + "x" +
                      std::to_string(sz.workCols));
}

} // namespace

void
runPipelinesHd(const Config &cfg, const Oracle &oracle, Tracer &tracer,
               Report &r)
{
    HdSizes sz = hdSizes(cfg.smoke);
    const int setups = cfg.smoke ? 1 : 3;
    const size_t nk = 2 * std::size(kPipelines);

    // Set-up, repeated; the last one is kept for the timed phase.
    std::vector<double> setupS;
    std::vector<std::vector<double>> compileMs(nk), firstUseMs(nk);
    LayerTally tally;
    HdSetup s;
    for (int rep = 0; rep < setups; ++rep) {
        s = HdSetup{}; // free the previous buffers before allocating
        double t0 = nowMs();
        s = setUp(sz, tracer, rep == 0 ? &tally : nullptr);
        setupS.push_back((nowMs() - t0) / 1e3);
        for (size_t k = 0; k < nk; ++k) {
            compileMs[k].push_back(s.kernels[k].compileMs);
            firstUseMs[k].push_back(s.kernels[k].compileMs +
                                    s.kernels[k].buildMs);
            bool ok = s.kernels[k].native.ok();
            r.op(ok);
            if (!ok)
                std::fprintf(stderr, "perfbench: %s: native build failed: "
                             "%s\n", kernelName(s.kernels[k]).c_str(),
                             s.kernels[k].native.reason().c_str());
        }
    }

    // Timed phase: seeded round-robin until the time is up.
    Rng rng(cfg.seed);
    std::vector<size_t> order(nk);
    for (size_t k = 0; k < nk; ++k)
        order[k] = k;
    shuffle(order, rng);
    std::vector<std::vector<double>> runMs(nk);
    double deadline = nowMs() + cfg.seconds * 1e3;
    int rounds = 0;
    do {
        for (size_t k : order) {
            const Kernel &kern = s.kernels[k];
            if (!kern.native.ok())
                continue;
            size_t p = k / 2;
            service::fillServiceInputs(*kern.prog, *s.bufs[p]);
            int span = tracer.begin("exec::NativeKernel::run", k);
            double t0 = nowMs();
            kern.native.run(*s.bufs[p]);
            runMs[k].push_back(nowMs() - t0);
            tracer.end(span);
            std::string want =
                oracle.get(liveOutKey(kern.program, sz.rows, sz.cols));
            r.op(!want.empty() &&
                 hashLiveOuts(*kern.prog, *s.bufs[p]) == want);
        }
        ++rounds;
    } while (nowMs() < deadline || rounds < (cfg.smoke ? 1 : 3));

    std::vector<double> firstUse, compile;
    for (size_t k = 0; k < nk; ++k) {
        firstUse.push_back(median(firstUseMs[k]));
        compile.push_back(median(compileMs[k]));
    }
    r.add("setup_s", "s", median(setupS), setupS.size());
    r.add("first_use_ms", "ms", geomean(firstUse), nk * setups);
    r.add("compile_ms", "ms", geomean(compile), nk * setups);
    r.add("ours_run_ms", "ms", geomeanOver(runMs, 0),
          size_t(rounds) * nk / 2);
    r.add("naive_run_ms", "ms", geomeanOver(runMs, 1),
          size_t(rounds) * nk / 2);
    for (size_t k = 0; k < nk; ++k) {
        r.add("exec.native.run_ms." + kernelName(s.kernels[k]), "ms",
              median(runMs[k]), runMs[k].size());
        char line[160];
        std::snprintf(line, sizeof(line),
                      "%-16s run %8.2f ms (n=%zu)  compile %7.2f ms  "
                      "native build %7.1f ms",
                      kernelName(s.kernels[k]).c_str(), median(runMs[k]),
                      runMs[k].size(), median(compileMs[k]),
                      median(firstUseMs[k]) - median(compileMs[k]));
        r.notes.push_back(line);
    }
    r.notes.push_back("frame " + std::to_string(sz.rows) + "x" +
                      std::to_string(sz.cols) + ", " +
                      std::to_string(rounds) + " rounds");

    if (tracer.on()) {
        reportCompileLayers(r, tracer, tally);
        traceExtras(sz, s, tracer, r);
    }
}

void
regenPipelinesHd(const Config &cfg, Oracle &oracle)
{
    HdSizes sz = hdSizes(cfg.smoke);
    for (const char *name : kPipelines) {
        const driver::WorkloadSpec &spec = *driver::findWorkload(name);
        ir::Program prog = spec.make({sz.rows, sz.cols});
        oracle.set(liveOutKey(name, sz.rows, sz.cols),
                   referenceLiveOuts(prog));
    }
}

} // namespace perfbench
