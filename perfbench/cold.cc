/**
 * @file
 * compile-cold: every registry program, in a seeded order, pays what
 * it costs the first time it is compiled -- a guided tile search with
 * no tuning store, a compile with a fresh CompileContext and no kernel
 * cache, and a sequential native build -- under `ours` (with the tuned
 * tiles) and `naive`. Each kernel then runs 15 times to check its
 * output against the interpreter reference.
 */

#include <cstdio>

#include "bench.hh"
#include "deps/dependences.hh"
#include "perfmodel/autotune.hh"
#include "service/server.hh"

namespace perfbench {

namespace {

/** The program sizes of this workload: the registry defaults, except
 *  four programs whose guided search simulates hundreds of millions
 *  of accesses at the default size and are halved to fit a run. */
driver::WorkloadParams
coldSize(const driver::WorkloadSpec &spec, bool smoke)
{
    std::string n = spec.name;
    if (smoke) {
        if (n == "equake")
            return {256, 16};
        if (n == "convbn")
            return {8, 8};
        if (n == "conv2d" || n == "2mm" || n == "seidel" ||
            n == "covariance")
            return {16, 16};
        return {32, 32};
    }
    if (n == "2mm" || n == "covariance")
        return {96, 96};
    if (n == "gemver")
        return {384, 384};
    if (n == "convbn")
        return {32, 16};
    return spec.defaults;
}

constexpr int kRunsPerKernel = 15;

/** Results of one program in one round. */
struct ColdProgram
{
    double tuneMs = 0;
    double firstUse[2] = {0, 0}; ///< ours, naive
    double compile[2] = {0, 0};
    std::vector<double> run[2];
    perfmodel::AutotuneResult tuned;
};

ColdProgram
coldCompile(const driver::WorkloadSpec &spec,
            const std::shared_ptr<const ir::Program> &prog,
            exec::Buffers &buf, const Oracle &oracle,
            const driver::WorkloadParams &size, Tracer &tracer,
            uint64_t op, LayerTally *tally, Report &r)
{
    ColdProgram out;
    double g0 = nowMs();
    deps::DependenceGraph graph = deps::DependenceGraph::compute(*prog);
    perfmodel::AutotuneOptions ao;
    ao.dims = unsigned(spec.defaultTiles.size());
    ao.searchMode = perfmodel::SearchMode::Guided;
    ao.jobs = 1;
    double t0 = nowMs();
    out.tuned = perfmodel::autotuneTileSizes(
        *prog, graph,
        [&](exec::Buffers &b) { service::fillServiceInputs(*prog, b); },
        ao);
    double t1 = nowMs();
    out.tuneMs = t1 - t0;
    tracer.add("perfmodel::autotuneTileSizes", t0, t1, -1, op);

    const driver::Strategy strategies[2] = {driver::Strategy::Ours,
                                            driver::Strategy::Naive};
    const std::string want =
        oracle.get(liveOutKey(spec.name, size.rows, size.cols));
    for (int s = 0; s < 2; ++s) {
        Kernel k = compileKernel(
            prog, strategies[s],
            s == 0 ? out.tuned.tileSizes : spec.defaultTiles, true,
            tracer, op, tally);
        out.compile[s] = k.compileMs;
        out.firstUse[s] = k.compileMs + k.buildMs +
                          (s == 0 ? t1 - g0 : 0.0);
        bool built = k.native.ok();
        r.op(built);
        if (!built) {
            std::fprintf(stderr, "perfbench: %s: native build failed: %s\n",
                         spec.name, k.native.reason().c_str());
            continue;
        }
        for (int rep = 0; rep < kRunsPerKernel; ++rep) {
            service::fillServiceInputs(*prog, buf);
            int span = tracer.begin("exec::NativeKernel::run", op);
            double r0 = nowMs();
            k.native.run(buf);
            out.run[s].push_back(nowMs() - r0);
            tracer.end(span);
            r.op(!want.empty() && hashLiveOuts(*prog, buf) == want);
        }
    }
    return out;
}

} // namespace

void
runCompileCold(const Config &cfg, const Oracle &oracle, Tracer &tracer,
               Report &r)
{
    const auto &reg = driver::workloadRegistry();
    const size_t np = reg.size();

    // Set-up: build every program and its buffers; repeated, the last
    // one is kept.
    std::vector<double> setupS;
    std::vector<std::shared_ptr<const ir::Program>> progs;
    std::vector<std::unique_ptr<exec::Buffers>> bufs;
    LayerTally tally;
    for (int rep = 0; rep < (cfg.smoke ? 1 : 7); ++rep) {
        progs.clear();
        bufs.clear();
        double t0 = nowMs();
        for (size_t p = 0; p < np; ++p) {
            driver::WorkloadParams sz = coldSize(reg[p], cfg.smoke);
            progs.push_back(makeProgram(reg[p], sz.rows, sz.cols, tracer,
                                        p, rep == 0 ? &tally : nullptr));
            bufs.push_back(std::make_unique<exec::Buffers>(*progs.back()));
            service::fillServiceInputs(*progs.back(), *bufs.back());
        }
        setupS.push_back((nowMs() - t0) / 1e3);
    }

    Rng rng(cfg.seed);
    std::vector<size_t> order(np);
    for (size_t p = 0; p < np; ++p)
        order[p] = p;
    shuffle(order, rng);

    // Timed phase: whole rounds while the next one still fits.
    std::vector<std::vector<double>> tune(np), firstUse(2 * np),
        compile(2 * np), run(2 * np);
    std::vector<perfmodel::AutotuneResult> tuned(np);
    double deadline = nowMs() + cfg.seconds * 1e3;
    int rounds = 0;
    double roundMs = 0;
    do {
        double r0 = nowMs();
        for (size_t p : order) {
            ColdProgram c = coldCompile(
                reg[p], progs[p], *bufs[p], oracle,
                coldSize(reg[p], cfg.smoke), tracer, p,
                rounds == 0 ? &tally : nullptr, r);
            tune[p].push_back(c.tuneMs);
            if (rounds == 0)
                tuned[p] = c.tuned;
            for (int s = 0; s < 2; ++s) {
                firstUse[2 * p + s].push_back(c.firstUse[s]);
                compile[2 * p + s].push_back(c.compile[s]);
                run[2 * p + s].insert(run[2 * p + s].end(),
                                      c.run[s].begin(), c.run[s].end());
            }
        }
        roundMs = nowMs() - r0;
        ++rounds;
    } while (nowMs() + roundMs < deadline);

    std::vector<double> fu, cm, runs[2], tunes;
    for (size_t p = 0; p < np; ++p) {
        tunes.push_back(median(tune[p]));
        for (int s = 0; s < 2; ++s) {
            size_t k = 2 * p + s;
            fu.push_back(median(firstUse[k]));
            cm.push_back(median(compile[k]));
            if (!run[k].empty())
                runs[s].push_back(median(run[k]));
        }
        char line[200];
        std::snprintf(line, sizeof(line),
                      "%-11s tune %8.1f ms  compile %6.2f/%6.2f ms  "
                      "first use %8.1f/%6.1f ms  run %8.3f/%8.3f ms "
                      "(ours/naive)",
                      reg[p].name, median(tune[p]), median(compile[2 * p]),
                      median(compile[2 * p + 1]), median(firstUse[2 * p]),
                      median(firstUse[2 * p + 1]), median(run[2 * p]),
                      median(run[2 * p + 1]));
        r.notes.push_back(line);
    }
    size_t kernels = 2 * np * size_t(rounds);
    r.add("setup_s", "s", median(setupS), setupS.size());
    r.add("first_use_ms", "ms", geomean(fu), kernels);
    r.add("compile_ms", "ms", geomean(cm), kernels);
    r.add("ours_run_ms", "ms", geomean(runs[0]),
          np * size_t(rounds) * kRunsPerKernel);
    r.add("naive_run_ms", "ms", geomean(runs[1]),
          np * size_t(rounds) * kRunsPerKernel);
    r.notes.push_back(std::to_string(rounds) + " round(s), tune geomean " +
                      std::to_string(geomean(tunes)) + " ms");

    if (tracer.on()) {
        reportCompileLayers(r, tracer, tally);
        double rank = 0, search = 0, measured = 0, candidates = 0;
        std::vector<double> winner;
        for (size_t p = 0; p < np; ++p) {
            rank += tuned[p].modelRankMs / double(np);
            search += tuned[p].searchMs / double(np);
            measured += tuned[p].evaluated;
            candidates += tuned[p].totalCandidates;
            winner.push_back(tuned[p].modeledMs);
        }
        r.add("perfmodel.tune_ms", "ms", geomean(tunes), np);
        r.add("perfmodel.rank_ms", "ms", rank, np);
        r.add("perfmodel.search_ms", "ms", search, np);
        r.add("perfmodel.measured", "count", measured, np);
        r.add("perfmodel.candidates", "count", candidates, np);
        r.add("perfmodel.winner_modeled_ms", "ms", geomean(winner), np);
    }
}

void
regenCompileCold(const Config &cfg, Oracle &oracle)
{
    for (const driver::WorkloadSpec &spec : driver::workloadRegistry()) {
        driver::WorkloadParams sz = coldSize(spec, cfg.smoke);
        ir::Program prog = spec.make(sz);
        oracle.set(liveOutKey(spec.name, sz.rows, sz.cols),
                   referenceLiveOuts(prog));
    }
}

} // namespace perfbench
