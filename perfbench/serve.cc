/**
 * @file
 * serve-mixed: an in-process compile service (service::Server, 2
 * workers) and 2 closed-loop connections, each sending compile+run
 * requests on the default bytecode tier. Keys -- a small registry
 * program x ours/naive/smartfuse x a tile ladder -- are split between
 * the connections by the seed, so no two connections share a key.
 * The run is split into epochs that each start with a cleared kernel
 * cache, so every key misses exactly once per epoch; within an epoch
 * each connection draws its keys with Zipf popularity.
 */

#include <algorithm>
#include <filesystem>
#include <stdexcept>
#include <thread>
#include <unistd.h>

#include "bench.hh"
#include "exec/engine.hh"
#include "exec/kernel_cache.hh"
#include "service/client.hh"
#include "service/server.hh"

namespace perfbench {

namespace {

struct Key
{
    const char *program;
    int64_t rows, cols;
    const char *strategy;
    std::vector<int64_t> tiles;
};

std::vector<Key>
keyUniverse(bool smoke)
{
    struct Prog
    {
        const char *name;
        int64_t rows, cols;
    };
    std::vector<Prog> progs = {
        {"conv2d", 64, 64},  {"bilateral", 64, 64}, {"camera", 64, 64},
        {"harris", 64, 64},  {"laplacian", 64, 64}, {"interp", 64, 64},
        {"unsharp", 64, 64}, {"2mm", 32, 32},       {"gemver", 64, 64},
        {"covariance", 32, 32},
    };
    std::vector<std::vector<int64_t>> ladder = {{16, 16}, {32, 32}};
    if (smoke) {
        progs = {{"conv2d", 32, 32}, {"harris", 32, 32}, {"unsharp", 32, 32}};
    }
    std::vector<Key> keys;
    for (const Prog &p : progs)
        for (const char *s : {"ours", "naive", "smartfuse"})
            for (const auto &t : ladder)
                keys.push_back({p.name, p.rows, p.cols, s, t});
    return keys;
}

std::string
oracleKey(const Key &k)
{
    return allBuffersKey(k.program, k.rows, k.cols, k.strategy, k.tiles);
}

/** @p n Zipf(1) draws over ranks [0, m), every rank at least once. */
std::vector<size_t>
zipfSequence(size_t n, size_t m, Rng &rng)
{
    std::vector<double> cdf(m);
    double total = 0;
    for (size_t i = 0; i < m; ++i)
        cdf[i] = (total += 1.0 / double(i + 1));
    std::vector<size_t> seq(n), count(m, 0);
    for (size_t &x : seq) {
        double u = rng.unit() * total;
        x = size_t(std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
        x = std::min(x, m - 1);
        ++count[x];
    }
    for (size_t k = 0; k < m; ++k) {
        while (count[k] == 0) {
            size_t pos = rng.below(n);
            if (count[seq[pos]] > 1) {
                --count[seq[pos]];
                seq[pos] = k;
                ++count[k];
            }
        }
    }
    return seq;
}

/** One answered request. */
struct Sample
{
    size_t key = 0;
    double latencyMs = 0;
    service::Response resp;
    bool ok = false;
};

/** Server plus connected clients. */
struct Daemon
{
    std::unique_ptr<service::Server> server;
    std::vector<service::Client> clients;
};

/** Build every key's program and check that no two keys share a
 *  fingerprint: the exact miss count rests on it. */
void
checkKeysDistinct(const std::vector<Key> &keys)
{
    std::vector<std::string> fps;
    for (const Key &k : keys) {
        const driver::WorkloadSpec &spec = *driver::findWorkload(k.program);
        ir::Program prog = spec.make({k.rows, k.cols});
        driver::PipelineOptions po;
        driver::parseStrategy(k.strategy, po.strategy);
        po.tileSizes = k.tiles;
        fps.push_back(
            driver::programFingerprint(prog, po, exec::Tier::Bytecode).hex());
    }
    std::sort(fps.begin(), fps.end());
    if (std::adjacent_find(fps.begin(), fps.end()) != fps.end())
        throw std::runtime_error("two serve keys share a fingerprint");
}

std::unique_ptr<Daemon>
startDaemon(const std::string &path, unsigned connections)
{
    auto d = std::make_unique<Daemon>();
    exec::KernelCache::process().clear();
    service::ServerOptions opts;
    opts.workers = 2;
    d->server = std::make_unique<service::Server>(path, opts);
    std::string err;
    if (!d->server->start(&err))
        throw std::runtime_error("server start: " + err);
    d->clients.resize(connections);
    for (service::Client &c : d->clients)
        if (!c.connect(path, &err))
            throw std::runtime_error("connect: " + err);
    // One compile outside the key set, so the daemon's lazy
    // initialisation is not charged to the first timed miss.
    service::Request warm;
    warm.workload = "seidel";
    warm.rows = warm.cols = 32;
    service::Response resp;
    if (!d->clients[0].call(warm, &resp, &err) || !resp.ok)
        throw std::runtime_error("warm-up request failed: " + err +
                                 resp.message);
    return d;
}

service::Request
requestFor(const Key &k, uint64_t id)
{
    service::Request req;
    req.id = id;
    req.workload = k.program;
    req.rows = k.rows;
    req.cols = k.cols;
    req.strategy = k.strategy;
    req.tiles = k.tiles;
    req.tilesGiven = true;
    return req;
}

} // namespace

void
runServeMixed(const Config &cfg, const Oracle &oracle, Tracer &tracer,
              Report &r)
{
    const unsigned kConnections = 2;
    const std::vector<Key> keys = keyUniverse(cfg.smoke);
    // The cache is cleared at the start of every epoch, so each key
    // misses exactly once per epoch.
    const unsigned kEpochs = cfg.smoke ? 1 : 4;
    const size_t perEpoch =
        cfg.smoke ? 40 : std::max<size_t>(250, size_t(25 * cfg.seconds));

    std::filesystem::create_directories(".bench_build/run");
    const std::string path =
        ".bench_build/run/serve-" + std::to_string(::getpid()) + ".sock";

    // Inputs: a seeded split of the keys and, per epoch, one Zipf
    // stream per connection over its own keys.
    Rng rng(cfg.seed);
    std::vector<size_t> perm(keys.size());
    for (size_t i = 0; i < perm.size(); ++i)
        perm[i] = i;
    shuffle(perm, rng);
    size_t share = keys.size() / kConnections;
    std::vector<std::vector<size_t>> streams(kConnections);
    for (unsigned c = 0; c < kConnections; ++c)
        for (unsigned e = 0; e < kEpochs; ++e)
            for (size_t rank : zipfSequence(perEpoch, share, rng))
                streams[c].push_back(perm[c * share + rank]);

    // Set-up: check the keys, start the server, connect, warm up;
    // repeated, the last daemon serves the timed phase.
    std::vector<double> setupS;
    std::unique_ptr<Daemon> daemon;
    for (int rep = 0; rep < (cfg.smoke ? 1 : 7); ++rep) {
        if (daemon)
            daemon->server->stop();
        daemon.reset();
        double t0 = nowMs();
        checkKeysDistinct(keys);
        daemon = startDaemon(path, kConnections);
        setupS.push_back((nowMs() - t0) / 1e3);
    }
    exec::KernelCache::Counters before =
        exec::KernelCache::process().counters();

    std::vector<std::vector<Sample>> samples(kConnections);
    auto client = [&](unsigned c, unsigned epoch) {
        uint64_t id = (c * kEpochs + epoch) * perEpoch;
        for (size_t i = 0; i < perEpoch; ++i) {
            size_t key = streams[c][epoch * perEpoch + i];
            Sample s;
            s.key = key;
            int span = tracer.begin("service::Client::call", id);
            double t0 = nowMs();
            std::string err;
            bool sent = daemon->clients[c].call(requestFor(keys[key], id),
                                                &s.resp, &err);
            s.latencyMs = nowMs() - t0;
            tracer.end(span);
            s.ok = sent && s.resp.ok &&
                   s.resp.bufferHash == oracle.get(oracleKey(keys[key]));
            samples[c].push_back(std::move(s));
            ++id;
        }
    };
    for (unsigned e = 0; e < kEpochs; ++e) {
        exec::KernelCache::process().clear();
        std::vector<std::thread> threads;
        for (unsigned c = 0; c < kConnections; ++c)
            threads.emplace_back(client, c, e);
        for (std::thread &t : threads)
            t.join();
    }

    exec::KernelCache::Counters after =
        exec::KernelCache::process().counters();
    service::Response stats;
    {
        service::Request req;
        req.op = "stats";
        std::string err;
        daemon->clients[0].call(req, &stats, &err);
    }
    daemon->server->stop();
    daemon.reset();

    // Per key: the misses (one per epoch) and the warm hits.
    std::vector<std::vector<double>> missLatency(keys.size()),
        missCompile(keys.size()), hits(keys.size());
    std::vector<double> all, queue, compile, run, wire;
    for (const auto &conn : samples) {
        for (const Sample &s : conn) {
            r.op(s.ok);
            all.push_back(s.latencyMs);
            queue.push_back(s.resp.queueMs);
            compile.push_back(s.resp.compileMs);
            run.push_back(s.resp.runMs);
            wire.push_back(s.latencyMs - s.resp.queueMs -
                           s.resp.compileMs - s.resp.runMs);
            if (!s.resp.fromCache) {
                missLatency[s.key].push_back(s.latencyMs);
                missCompile[s.key].push_back(s.resp.compileMs);
            } else {
                hits[s.key].push_back(s.latencyMs);
            }
        }
    }
    std::vector<double> firstUse, compileCold, ours, naive;
    size_t oursHits = 0, naiveHits = 0;
    for (size_t k = 0; k < keys.size(); ++k) {
        firstUse.push_back(median(missLatency[k]));
        compileCold.push_back(median(missCompile[k]));
        if (hits[k].empty())
            continue;
        std::string st = keys[k].strategy;
        if (st == "ours") {
            ours.push_back(median(hits[k]));
            oursHits += hits[k].size();
        } else if (st == "naive") {
            naive.push_back(median(hits[k]));
            naiveHits += hits[k].size();
        }
    }

    r.add("setup_s", "s", median(setupS), setupS.size());
    r.add("first_use_ms", "ms", geomean(firstUse), keys.size() * kEpochs);
    r.add("compile_ms", "ms", geomean(compileCold), keys.size() * kEpochs);
    r.add("ours_run_ms", "ms", geomean(ours), oursHits);
    r.add("naive_run_ms", "ms", geomean(naive), naiveHits);
    char line[200];
    std::snprintf(line, sizeof(line),
                  "%zu requests over %zu keys on %u connections: "
                  "p50 %.3f ms, p99 %.3f ms",
                  all.size(), keys.size(), kConnections,
                  percentile(all, 50), percentile(all, 99));
    r.notes.push_back(line);

    if (tracer.on()) {
        uint64_t lookups = (after.hits - before.hits) +
                           (after.misses - before.misses);
        r.add("exec.kernel_cache.hits", "count",
              double(after.hits - before.hits), lookups);
        r.add("exec.kernel_cache.misses", "count",
              double(after.misses - before.misses), lookups);
        r.add("exec.kernel_cache.lookup_us", "us",
              lookups ? double(after.lookupNs - before.lookupNs) / 1e3 /
                            double(lookups)
                      : 0,
              lookups);
        r.add("service.request_ms.p50", "ms", percentile(all, 50),
              all.size());
        r.add("service.request_ms.p99", "ms", percentile(all, 99),
              all.size());
        r.add("service.queue_ms", "ms", median(queue), queue.size());
        r.add("service.compile_ms", "ms", median(compile), compile.size());
        r.add("service.run_ms", "ms", median(run), run.size());
        r.add("service.wire_ms", "ms", median(wire), wire.size());
        r.add("service.shed", "count", double(stats.server.shed), 1);
        r.add("service.errors", "count", double(stats.server.errors), 1);

        // The server's compiles are opaque to the client: replay each
        // key's compile directly to attribute it to the layers.
        LayerTally tally;
        for (size_t k = 0; k < keys.size(); ++k) {
            driver::PipelineOptions po;
            const driver::WorkloadSpec &spec =
                *driver::findWorkload(keys[k].program);
            auto prog = makeProgram(spec, keys[k].rows, keys[k].cols,
                                    tracer, 1000000 + k, &tally);
            driver::Strategy st;
            driver::parseStrategy(keys[k].strategy, st);
            compileKernel(prog, st, keys[k].tiles, false, tracer,
                          1000000 + k, &tally);
        }
        reportCompileLayers(r, tracer, tally);
    }
}

void
regenServeMixed(const Config &cfg, Oracle &oracle)
{
    for (const Key &k : keyUniverse(cfg.smoke)) {
        const driver::WorkloadSpec &spec = *driver::findWorkload(k.program);
        auto prog = std::make_shared<const ir::Program>(
            spec.make({k.rows, k.cols}));
        driver::PipelineOptions po;
        driver::parseStrategy(k.strategy, po.strategy);
        po.tileSizes = k.tiles;
        driver::KernelArtifact art =
            driver::compileKernel(driver::Pipeline(po), prog);
        exec::Buffers buf(*prog);
        service::fillServiceInputs(*prog, buf);
        exec::ExecOptions eo;
        eo.tier = exec::Tier::Interp;
        driver::executeKernel(art, buf, eo);
        oracle.set(oracleKey(k), service::hashBuffers(buf));
    }
}

} // namespace perfbench
