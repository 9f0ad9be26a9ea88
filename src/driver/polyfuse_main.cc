/**
 * @file
 * The production command-line entry point of the compiler:
 *
 *   polyfuse --workload harris --strategy ours --tiles 32,128 \
 *            --emit c|tree|stats|json
 *   polyfuse --all --jobs 8 --emit stats|json
 *
 * Builds the named workload, runs the driver's pass pipeline with
 * the chosen strategy, and emits the generated C (the translation
 * unit the native tier compiles), the final schedule tree, or the
 * per-pass timing/counter report.
 * `--all` batch-compiles every registered workload under every
 * strategy through driver::compileBatch, `--jobs N` of them
 * concurrently, and prints the cross-job summary table (or one
 * merged JSON object with `--emit json`).
 */

#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "deps/dependences.hh"
#include "driver/artifact.hh"
#include "driver/batch.hh"
#include "driver/pipeline.hh"
#include "driver/registry.hh"
#include "exec/engine.hh"
#include "exec/kernel_cache.hh"
#include "exec/native.hh"
#include "perfmodel/autotune.hh"
#include "perfmodel/tune_db.hh"
#include "service/client.hh"
#include "service/server.hh"
#include "support/budget.hh"
#include "support/failpoint.hh"
#include "support/json.hh"
#include "support/thread_pool.hh"

using namespace polyfuse;

namespace {

void
usage(FILE *to)
{
    std::fprintf(
        to,
        "usage: polyfuse --workload <name> [options]\n"
        "       polyfuse --all [--jobs N] [options]\n"
        "\n"
        "options:\n"
        "  --workload <name>     workload to compile (see --list)\n"
        "  --all                 batch-compile every registered\n"
        "                        workload under every strategy\n"
        "  --jobs N              concurrent compilations for --all\n"
        "                        (default 1; 0 = all hardware\n"
        "                        threads)\n"
        "  --strategy <name>     naive|minfuse|smartfuse|maxfuse|\n"
        "                        hybridfuse|polymage|halide|ours\n"
        "                        (default: ours)\n"
        "  --tiles a,b,...       live-out tile sizes (default: the\n"
        "                        workload's auto-tuned sizes)\n"
        "  --inner-tiles a,b,... second-level tile sizes\n"
        "  --parallelism N       1 = OpenMP CPU, 2 = GPU grid\n"
        "  --rows N / --cols N   workload size parameters\n"
        "  --no-promote          keep intermediates in DRAM\n"
        "  --timeout-ms N        per-job wall-clock budget; over-\n"
        "                        budget jobs fall back to cheaper\n"
        "                        strategies (see --no-fallback)\n"
        "  --budget-elims N      cap FM eliminations per job\n"
        "  --no-fallback         fail over-budget jobs instead of\n"
        "                        downgrading the strategy\n"
        "  --strict              exit nonzero when any job was\n"
        "                        downgraded (failures always do)\n"
        "  --failpoints SPEC     arm fault-injection sites, e.g.\n"
        "                        'core.compose=budget;pres.parse=off'\n"
        "                        (also: POLYFUSE_FAILPOINTS env)\n"
        "  --run                 execute the compiled program and\n"
        "                        report runtime statistics\n"
        "  --exec <tier>         execution tier for --run:\n"
        "                        interp|bytecode|native (default:\n"
        "                        bytecode; implies --run)\n"
        "  --native              shorthand for --exec native\n"
        "  --threads N           tile team for --run: 1 runs\n"
        "                        sequentially (the default), N > 1\n"
        "                        runs the parallel and wavefront\n"
        "                        tile bands on N workers, 0 = one\n"
        "                        per hardware thread (implies --run)\n"
        "  --cache               consult/populate the process-wide\n"
        "                        kernel cache (fingerprint-keyed;\n"
        "                        repeat compiles of the same program\n"
        "                        + options skip the whole pipeline)\n"
        "  --cache-bytes N       kernel cache capacity in bytes\n"
        "                        (implies --cache; default 256 MiB)\n"
        "  --repeat N            compile+run N times in-process (with\n"
        "                        --cache, iterations 2..N are warm)\n"
        "  --autotune            pick tile sizes with the perfmodel\n"
        "                        auto-tuner before compiling\n"
        "                        (--workload only)\n"
        "  --tune-db PATH        persistent fingerprint-keyed tuning\n"
        "                        store for --autotune: hits warm-\n"
        "                        start, searches are saved back\n"
        "  --search MODE         autotune search driver: 'guided'\n"
        "                        (model-ranked top-K, the default)\n"
        "                        or 'exhaustive' (measure every\n"
        "                        candidate; the oracle)\n"
        "  --search-top-k N      guided: fully measure the N top-\n"
        "                        ranked candidates (default: auto,\n"
        "                        ~20%% of the ladder)\n"
        "  --search-report       also run the exhaustive oracle and\n"
        "                        report the guided quality gap\n"
        "  --emit c|tree|stats|json\n"
        "                        what to print (default: stats; c\n"
        "                        is the C the native tier compiles;\n"
        "                        --all supports stats and json)\n"
        "  --serve SOCKET        run as a long-lived compile daemon\n"
        "                        on the unix socket (SIGTERM or a\n"
        "                        shutdown request drains gracefully)\n"
        "  --serve-workers N     daemon compile workers (default 4)\n"
        "  --queue-depth N       daemon admission cap; excess\n"
        "                        requests are shed as 'overloaded'\n"
        "                        (default 16)\n"
        "  --drain-ms N          daemon drain deadline on shutdown\n"
        "                        (default 2000)\n"
        "  --connect SOCKET      send one request to a daemon and\n"
        "                        print the response (uses --workload,\n"
        "                        --strategy, --tiles, --exec, ...)\n"
        "  --deadline-ms N       whole-request deadline for\n"
        "                        --connect (queue + compile + run)\n"
        "  --shutdown            with --connect: ask the daemon to\n"
        "                        drain and exit\n"
        "  --list                list registered workloads\n"
        "  --help                this text\n");
}

/**
 * The value of numeric flag @p flag: all of @p text as an integer
 * (T = int64_t) or a real number (T = double) in [lo, hi]. Anything
 * else prints `polyfuse: bad <flag> '<text>'` and exits 2.
 */
template <typename T>
T
numericFlag(const std::string &flag, const char *text, T lo, T hi)
{
    static_assert(std::is_same_v<T, int64_t> || std::is_same_v<T, double>);
    char *end = nullptr;
    errno = 0;
    T v;
    if constexpr (std::is_same_v<T, double>)
        v = std::strtod(text, &end);
    else
        v = std::strtoll(text, &end, 10);
    // !(v >= lo) also refuses NaN.
    if (end == text || *end != '\0' || errno == ERANGE || !(v >= lo) ||
        v > hi) {
        std::fprintf(stderr, "polyfuse: bad %s '%s'\n", flag.c_str(),
                     text);
        std::exit(2);
    }
    return v;
}

/** Bounds of the numeric flags. */
constexpr int64_t kMaxUnsigned = std::numeric_limits<unsigned>::max();
constexpr int64_t kMaxInt64 = std::numeric_limits<int64_t>::max();
/** Workload extents: the compile service's decode range. */
constexpr int64_t kMaxExtent = int64_t(1) << 24;
/** The smallest positive double: a bound for "more than 0 ms". */
constexpr double kPositiveMs = std::numeric_limits<double>::denorm_min();
constexpr double kForever = std::numeric_limits<double>::infinity();

bool
parseTiles(const std::string &arg, std::vector<int64_t> &out)
{
    out.clear();
    size_t pos = 0;
    while (pos < arg.size()) {
        size_t comma = arg.find(',', pos);
        std::string tok = arg.substr(
            pos, comma == std::string::npos ? std::string::npos
                                            : comma - pos);
        char *end = nullptr;
        long long v = std::strtoll(tok.c_str(), &end, 10);
        if (!end || *end != '\0' || v <= 0)
            return false;
        out.push_back(v);
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return !out.empty();
}

void
listWorkloads()
{
    std::printf("%-12s %-10s %s\n", "name", "tiles", "description");
    for (const auto &w : driver::workloadRegistry()) {
        std::string tiles;
        for (int64_t t : w.defaultTiles)
            tiles += (tiles.empty() ? "" : ",") + std::to_string(t);
        std::printf("%-12s %-10s %s\n", w.name, tiles.c_str(),
                    w.description);
    }
}

/** Set by SIGTERM/SIGINT; the serve loop polls it (the handler must
 *  stay async-signal-safe, so it only flips this flag). */
volatile std::sig_atomic_t g_signal = 0;

void
onSignal(int)
{
    g_signal = 1;
}

} // namespace

/** The --all batch: every workload x every strategy. */
int
runAll(const driver::BatchOptions &bopts,
       const driver::PipelineOptions &base, bool tiles_given,
       const driver::WorkloadParams &params, bool rows_given,
       bool cols_given, const std::string &emit, bool strict)
{
    std::vector<driver::BatchJob> jobs;
    for (const auto &w : driver::workloadRegistry()) {
        driver::WorkloadParams p = w.defaults;
        if (rows_given)
            p.rows = params.rows;
        if (cols_given)
            p.cols = params.cols;
        for (auto strategy : driver::allStrategies()) {
            driver::BatchJob job;
            job.name = std::string(w.name) + "/" +
                       driver::strategyName(strategy);
            job.options = base;
            job.options.strategy = strategy;
            if (!tiles_given)
                job.options.tileSizes = w.defaultTiles;
            // The registry spec outlives the batch; capture cheaply.
            const auto &make = w.make;
            job.make = [&make, p] { return make(p); };
            jobs.push_back(std::move(job));
        }
    }

    driver::BatchResult batch =
        driver::compileBatch(std::move(jobs), bopts);
    if (emit == "json")
        std::printf("%s\n", json::dump(batch.json()).c_str());
    else
        std::printf("%s", batch.summary().c_str());
    for (const auto &j : batch.jobs) {
        if (!j.ok)
            std::fprintf(stderr, "polyfuse: job %s FAILED: %s\n",
                         j.name.c_str(), j.error.c_str());
        else if (j.artifact.downgraded())
            std::fprintf(
                stderr,
                "polyfuse: job %s downgraded %s -> %s "
                "(%zu attempts over budget)%s\n",
                j.name.c_str(),
                driver::strategyName(j.artifact.requestedStrategy),
                driver::strategyName(j.artifact.effectiveStrategy),
                j.artifact.fallbackTrail.size(),
                strict ? " [strict]" : "");
    }
    return driver::batchExitCode(batch, strict);
}

int
main(int argc, char **argv)
{
    std::string workload;
    std::string emit = "stats";
    driver::PipelineOptions opts;
    bool tiles_given = false;
    bool all = false;
    unsigned jobsN = 1;
    driver::WorkloadParams params;
    bool rows_given = false, cols_given = false;
    double timeout_ms = 0;
    uint64_t budget_elims = 0;
    bool strict = false;
    bool do_run = false;
    exec::Tier tier = exec::Tier::Bytecode;
    unsigned run_threads = 1;
    bool use_cache = false;
    uint64_t cache_bytes = 0;
    unsigned repeatN = 1;
    bool do_autotune = false;
    std::string tune_db_path;
    // The CLI defaults to the guided driver (the library default
    // stays exhaustive for backward compatibility).
    perfmodel::SearchMode search_mode = perfmodel::SearchMode::Guided;
    unsigned search_top_k = 0;
    bool search_report = false;
    std::string serve_path;
    std::string connect_path;
    unsigned serve_workers = 4;
    size_t queue_depth = 16;
    double drain_ms = 2000;
    double deadline_ms = 0;
    bool do_shutdown = false;

    auto value = [&](int &i) -> const char * {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "polyfuse: %s needs a value\n",
                         argv[i]);
            std::exit(2);
        }
        return argv[++i];
    };

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            usage(stdout);
            return 0;
        } else if (arg == "--list") {
            listWorkloads();
            return 0;
        } else if (arg == "--workload") {
            workload = value(i);
        } else if (arg == "--all") {
            all = true;
        } else if (arg == "--jobs") {
            const int64_t n =
                numericFlag<int64_t>(arg, value(i), 0, kMaxUnsigned);
            jobsN = n == 0
                        ? polyfuse::ThreadPool::defaultThreads()
                        : unsigned(n);
        } else if (arg == "--strategy") {
            std::string name = value(i);
            if (!driver::parseStrategy(name, opts.strategy)) {
                std::fprintf(stderr,
                             "polyfuse: unknown strategy '%s'\n",
                             name.c_str());
                return 2;
            }
        } else if (arg == "--tiles") {
            if (!parseTiles(value(i), opts.tileSizes)) {
                std::fprintf(stderr, "polyfuse: bad --tiles\n");
                return 2;
            }
            tiles_given = true;
        } else if (arg == "--inner-tiles") {
            if (!parseTiles(value(i), opts.innerTileSizes)) {
                std::fprintf(stderr, "polyfuse: bad --inner-tiles\n");
                return 2;
            }
        } else if (arg == "--parallelism") {
            opts.targetParallelism = unsigned(
                numericFlag<int64_t>(arg, value(i), 0, kMaxUnsigned));
        } else if (arg == "--rows") {
            params.rows =
                numericFlag<int64_t>(arg, value(i), 1, kMaxExtent);
            rows_given = true;
        } else if (arg == "--cols") {
            params.cols =
                numericFlag<int64_t>(arg, value(i), 1, kMaxExtent);
            cols_given = true;
        } else if (arg == "--no-promote") {
            opts.gen.promoteIntermediates = false;
        } else if (arg == "--timeout-ms") {
            timeout_ms = numericFlag<double>(arg, value(i), kPositiveMs,
                                             kForever);
        } else if (arg == "--budget-elims") {
            budget_elims = uint64_t(
                numericFlag<int64_t>(arg, value(i), 1, kMaxInt64));
        } else if (arg == "--no-fallback") {
            opts.budgetFallback = false;
        } else if (arg == "--strict") {
            strict = true;
        } else if (arg == "--failpoints") {
            std::string err;
            if (!failpoints::parseSpec(value(i), &err)) {
                std::fprintf(stderr,
                             "polyfuse: bad --failpoints: %s\n",
                             err.c_str());
                return 2;
            }
        } else if (arg == "--run") {
            do_run = true;
        } else if (arg == "--exec") {
            std::string name = value(i);
            if (!exec::parseTier(name, &tier)) {
                std::fprintf(stderr,
                             "polyfuse: unknown --exec tier '%s'\n",
                             name.c_str());
                return 2;
            }
            do_run = true;
        } else if (arg == "--native") {
            tier = exec::Tier::Native;
            do_run = true;
        } else if (arg == "--threads") {
            run_threads = unsigned(
                numericFlag<int64_t>(arg, value(i), 0, kMaxUnsigned));
            do_run = true;
        } else if (arg == "--cache") {
            use_cache = true;
        } else if (arg == "--cache-bytes") {
            cache_bytes = uint64_t(
                numericFlag<int64_t>(arg, value(i), 1, kMaxInt64));
            use_cache = true;
        } else if (arg == "--repeat") {
            repeatN = unsigned(
                numericFlag<int64_t>(arg, value(i), 1, kMaxUnsigned));
        } else if (arg == "--autotune") {
            do_autotune = true;
        } else if (arg == "--search") {
            const char *v = value(i);
            if (!perfmodel::parseSearchMode(v, &search_mode)) {
                std::fprintf(stderr,
                             "polyfuse: bad --search '%s' (use "
                             "exhaustive|guided)\n",
                             v);
                return 2;
            }
        } else if (arg == "--search-top-k") {
            search_top_k = unsigned(
                numericFlag<int64_t>(arg, value(i), 1, kMaxUnsigned));
        } else if (arg == "--search-report") {
            search_report = true;
        } else if (arg == "--tune-db") {
            tune_db_path = value(i);
        } else if (arg == "--serve") {
            serve_path = value(i);
        } else if (arg == "--serve-workers") {
            serve_workers = unsigned(
                numericFlag<int64_t>(arg, value(i), 0, kMaxUnsigned));
        } else if (arg == "--queue-depth") {
            queue_depth = size_t(
                numericFlag<int64_t>(arg, value(i), 1, kMaxInt64));
        } else if (arg == "--drain-ms") {
            drain_ms = numericFlag<double>(arg, value(i), 0, kForever);
        } else if (arg == "--connect") {
            connect_path = value(i);
        } else if (arg == "--deadline-ms") {
            deadline_ms = numericFlag<double>(arg, value(i), kPositiveMs,
                                              kForever);
        } else if (arg == "--shutdown") {
            do_shutdown = true;
        } else if (arg == "--emit") {
            emit = value(i);
        } else {
            std::fprintf(stderr, "polyfuse: unknown option '%s'\n",
                         arg.c_str());
            usage(stderr);
            return 2;
        }
    }

    if (emit != "stats" && emit != "json" && emit != "tree" &&
        emit != "c") {
        std::fprintf(stderr, "polyfuse: unknown --emit '%s'\n",
                     emit.c_str());
        return 2;
    }

    // Daemon mode: serve compile requests until SIGTERM/SIGINT or a
    // shutdown request, then drain gracefully.
    if (!serve_path.empty()) {
        if (all || !workload.empty() || !connect_path.empty()) {
            std::fprintf(stderr,
                         "polyfuse: --serve excludes --all, "
                         "--workload and --connect\n");
            return 2;
        }
        std::unique_ptr<perfmodel::TuneDb> db;
        if (!tune_db_path.empty())
            db = std::make_unique<perfmodel::TuneDb>(tune_db_path);
        service::ServerOptions sopts;
        sopts.workers = serve_workers;
        sopts.maxQueueDepth = queue_depth;
        sopts.drainMs = drain_ms;
        sopts.tuneDb = db.get();
        if (cache_bytes)
            exec::KernelCache::process().setCapacityBytes(
                cache_bytes);
        service::Server server(serve_path, sopts);
        std::string err;
        if (!server.start(&err)) {
            std::fprintf(stderr, "polyfuse: --serve: %s\n",
                         err.c_str());
            return 1;
        }
        std::signal(SIGTERM, onSignal);
        std::signal(SIGINT, onSignal);
        std::fprintf(stderr,
                     "polyfuse: serving on %s (%u workers, queue "
                     "depth %zu)\n",
                     serve_path.c_str(),
                     sopts.workers ? sopts.workers
                                   : ThreadPool::defaultThreads(),
                     sopts.maxQueueDepth);
        server.run([] { return g_signal != 0; });
        std::fprintf(stderr, "polyfuse: daemon drained, exiting\n");
        return 0;
    }

    // Client mode: one request against a serving daemon.
    if (!connect_path.empty()) {
        service::Client client;
        std::string err;
        if (!client.connect(connect_path, &err)) {
            std::fprintf(stderr, "polyfuse: --connect: %s\n",
                         err.c_str());
            return 1;
        }
        service::Request req;
        req.id = 1;
        if (do_shutdown) {
            req.op = "shutdown";
        } else {
            if (workload.empty()) {
                std::fprintf(stderr,
                             "polyfuse: --connect needs --workload "
                             "(or --shutdown)\n");
                return 2;
            }
            req.op = "compile";
            req.workload = workload;
            if (rows_given)
                req.rows = params.rows;
            if (cols_given)
                req.cols = params.cols;
            req.strategy = driver::strategyName(opts.strategy);
            if (tiles_given) {
                req.tiles = opts.tileSizes;
                req.tilesGiven = true;
            }
            req.innerTiles = opts.innerTileSizes;
            req.tier = exec::tierName(tier);
            req.run = do_run;
            req.deadlineMs = deadline_ms;
            req.threads = run_threads;
        }
        service::Response resp;
        if (!client.call(req, &resp, &err)) {
            std::fprintf(stderr, "polyfuse: --connect: %s\n",
                         err.c_str());
            return 1;
        }
        std::printf("%s\n",
                    service::encodeResponse(resp).c_str());
        if (!resp.ok) {
            std::fprintf(stderr, "polyfuse: %s: %s\n",
                         service::errorKindName(resp.kind),
                         resp.message.c_str());
            return 1;
        }
        return 0;
    }

    if (all) {
        if (!workload.empty()) {
            std::fprintf(stderr, "polyfuse: --all and --workload "
                                 "are mutually exclusive\n");
            return 2;
        }
        if (emit != "stats" && emit != "json") {
            std::fprintf(stderr, "polyfuse: --all supports --emit "
                                 "stats|json only\n");
            return 2;
        }
        if (do_autotune) {
            std::fprintf(stderr, "polyfuse: --autotune needs "
                                 "--workload\n");
            return 2;
        }
        driver::BatchOptions bopts;
        bopts.jobsN = jobsN;
        bopts.timeoutMs = timeout_ms;
        bopts.budget.fmEliminations = budget_elims;
        bopts.tier = tier;
        if (use_cache) {
            bopts.kernelCache = &exec::KernelCache::process();
            if (cache_bytes)
                bopts.kernelCache->setCapacityBytes(cache_bytes);
        }
        return runAll(bopts, opts, tiles_given, params, rows_given,
                      cols_given, emit, strict);
    }
    if (workload.empty()) {
        usage(stderr);
        return 2;
    }
    const driver::WorkloadSpec *spec =
        driver::findWorkload(workload);
    if (!spec) {
        std::fprintf(stderr, "polyfuse: unknown workload '%s' "
                     "(try --list)\n",
                     workload.c_str());
        return 2;
    }
    if (!rows_given)
        params.rows = spec->defaults.rows;
    if (!cols_given)
        params.cols = spec->defaults.cols;
    if (!tiles_given)
        opts.tileSizes = spec->defaultTiles;

    // A workload refuses parameters it cannot take (bilateral's grid
    // needs multiples of 8) by throwing.
    std::shared_ptr<const ir::Program> program;
    try {
        program = std::make_shared<const ir::Program>(spec->make(params));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "polyfuse: %s\n", e.what());
        return 2;
    }

    auto fill_inputs = [&](exec::Buffers &buffers) {
        service::fillServiceInputs(*program, buffers);
    };

    // Plan stage: auto-tuned tile sizes first (they are part of the
    // artifact fingerprint), warm-started from the tuning store.
    std::unique_ptr<perfmodel::TuneDb> tune_db;
    if (!tune_db_path.empty())
        tune_db = std::make_unique<perfmodel::TuneDb>(tune_db_path);
    perfmodel::AutotuneResult tuned;
    bool tuned_ok = false;
    if (do_autotune) {
        try {
            auto graph = deps::DependenceGraph::compute(*program);
            perfmodel::AutotuneOptions aopts;
            aopts.dims = opts.tileSizes.empty()
                             ? 2u
                             : unsigned(opts.tileSizes.size());
            aopts.targetParallelism = opts.targetParallelism;
            aopts.searchMode = search_mode;
            aopts.searchTopK = search_top_k;
            aopts.compareOracle = search_report;
            aopts.db = tune_db.get();
            tuned = perfmodel::autotuneTileSizes(*program, graph,
                                                 fill_inputs, aopts);
            tuned_ok = true;
            opts.tileSizes = tuned.tileSizes;
            std::string tiles;
            for (int64_t t : tuned.tileSizes)
                tiles +=
                    (tiles.empty() ? "" : ",") + std::to_string(t);
            if (tuned.warmStart) {
                std::fprintf(stderr,
                             "polyfuse: autotune picked tiles %s "
                             "(tuning-store warm start)\n",
                             tiles.c_str());
            } else {
                std::fprintf(
                    stderr,
                    "polyfuse: autotune picked tiles %s (%s "
                    "search%s, %u of %u candidates measured, "
                    "%u model-pruned)\n",
                    tiles.c_str(),
                    perfmodel::searchModeName(tuned.mode),
                    tuned.seededFromShape ? ", shape-key seeded"
                                          : "",
                    tuned.evaluated, tuned.totalCandidates,
                    tuned.pruned);
            }
            if (search_report && !tuned.warmStart &&
                tuned.mode == perfmodel::SearchMode::Guided)
                std::fprintf(
                    stderr,
                    "polyfuse: search report: modeled %.4f ms vs "
                    "oracle %.4f ms (gap %.2f%%), rank %.2f ms, "
                    "sweep %.2f ms\n",
                    tuned.modeledMs, tuned.oracleMs,
                    tuned.qualityGapPct, tuned.modelRankMs,
                    tuned.searchMs);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "polyfuse: autotune failed: %s\n",
                         e.what());
            return 1;
        }
    }

    driver::Pipeline pipeline(opts);
    driver::CompileContext ctx;
    ctx.budget.wallMs = timeout_ms;
    ctx.budget.fmEliminations = budget_elims;

    driver::ArtifactOptions aopts;
    aopts.tier = tier;
    if (use_cache) {
        aopts.cache = &exec::KernelCache::process();
        if (cache_bytes)
            aopts.cache->setCapacityBytes(cache_bytes);
    }

    // The tree emitter needs the schedule tree, which the frozen
    // artifact deliberately does not carry; it stays on the direct
    // pipeline path (and supports no --run/--repeat extras).
    if (emit == "tree") {
        try {
            driver::CompilationState state =
                pipeline.run(*program, ctx);
            std::printf("%s", state.tree.str().c_str());
            return 0;
        } catch (const std::exception &e) {
            std::fprintf(stderr, "polyfuse: %s\n", e.what());
            return 1;
        }
    }

    // Compile stage (x --repeat): every iteration goes through the
    // kernel cache when --cache is on, so iterations 2..N hit and
    // skip the whole Presburger/codegen pipeline.
    driver::KernelArtifact artifact;
    exec::ExecResult result;
    bool ran = false;
    for (unsigned rep = 0; rep < repeatN; ++rep) {
        try {
            artifact =
                driver::compileKernel(pipeline, program, ctx, aopts);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "polyfuse: %s\n", e.what());
            return 1;
        }
        if (artifact.downgraded()) {
            std::fprintf(
                stderr,
                "polyfuse: downgraded %s -> %s "
                "(%zu attempts over budget)%s\n",
                driver::strategyName(artifact.requestedStrategy),
                driver::strategyName(artifact.effectiveStrategy),
                artifact.fallbackTrail.size(),
                strict ? " [strict]" : "");
            if (strict)
                return 1;
        }

        // Execute stage. Run before emitting: --emit json folds the
        // run report (the effective tier, fallback reasons, parallel
        // counters) into the one JSON object instead of dropping it.
        if (do_run) {
            exec::ExecOptions eopts;
            eopts.tier = tier;
            eopts.threads = run_threads;
            try {
                exec::Buffers buffers(*program);
                fill_inputs(buffers);
                result =
                    driver::executeKernel(artifact, buffers, eopts);
                ran = true;
            } catch (const std::exception &e) {
                std::fprintf(stderr, "polyfuse: run failed: %s\n",
                             e.what());
                return 1;
            }
            if (!result.fallbackReason.empty())
                std::fprintf(
                    stderr,
                    "polyfuse: fell back from %s to %s: %s\n",
                    exec::tierName(tier),
                    exec::tierName(result.tier),
                    result.fallbackReason.c_str());
            if (!result.parFallbackReason.empty())
                std::fprintf(stderr,
                             "polyfuse: parallel run degraded: %s\n",
                             result.parFallbackReason.c_str());
        }
    }

    if (emit == "stats") {
        std::printf("workload %s, strategy %s, %zu statements%s\n",
                    spec->name,
                    driver::strategyName(artifact.effectiveStrategy),
                    program->statements().size(),
                    artifact.fromCache ? " [kernel-cache hit]" : "");
        std::printf("fingerprint %s\n",
                    artifact.fingerprint.hex().c_str());
        std::printf("%s", artifact.stats.str().c_str());
        std::printf("compile (scheduling + codegen): %.3f ms\n",
                    artifact.compileMs());
    } else if (emit == "json") {
        // The stats object, with the artifact's identity and, when
        // they happened, the tuning outcome and the run report.
        json::Value out = artifact.stats.json();
        json::Value art;
        art.set("fingerprint", artifact.fingerprint.hex());
        art.set("fromCache", artifact.fromCache);
        out.set("artifact", std::move(art));
        if (tuned_ok) {
            json::Value tj;
            tj.set("tiles", tuned.tileSizes);
            tj.set("mode", perfmodel::searchModeName(tuned.mode));
            tj.set("warmStart", tuned.warmStart);
            tj.set("seededFromShape", tuned.seededFromShape);
            tj.set("modeledMs", tuned.modeledMs);
            tj.set("measured", tuned.evaluated);
            tj.set("totalCandidates", tuned.totalCandidates);
            tj.set("pruned", tuned.pruned);
            tj.set("modelRankMs", tuned.modelRankMs);
            tj.set("searchMs", tuned.searchMs);
            if (search_report &&
                tuned.mode == perfmodel::SearchMode::Guided) {
                tj.set("oracleMs", tuned.oracleMs);
                tj.set("qualityGapPct", tuned.qualityGapPct);
            }
            out.set("autotune", std::move(tj));
        }
        if (ran) {
            const exec::ParRunStats &p = result.par;
            json::Value par;
            par.set("threads", p.threads);
            par.set("regionsParallel", p.regionsParallel);
            par.set("regionsSequential", p.regionsSequential);
            par.set("tilesExecuted", p.tilesExecuted);
            par.set("waits", p.waits);
            par.set("criticalPath", p.criticalPath);
            par.set("fallbackReason", result.parFallbackReason);
            json::Value sv;
            sv.set("width", exec::simdWidth());
            sv.set("loops", result.stats.simdLoops);
            sv.set("lanes", result.stats.simdLanes);
            json::Value run;
            run.set("requestedTier", exec::tierName(tier));
            run.set("tier", exec::tierName(result.tier));
            run.set("fallbackReason", result.fallbackReason);
            run.set("ms", result.stats.seconds * 1e3);
            run.set("instances", result.stats.instances);
            run.set("loads", result.stats.loads);
            run.set("stores", result.stats.stores);
            run.set("par", std::move(par));
            run.set("simd", std::move(sv));
            out.set("run", std::move(run));
        }
        std::printf("%s\n", json::dump(out).c_str());
    } else {
        // emit == "c"; the spelling was validated up front.
        std::printf("%s", exec::emitNativeSource(*program,
                                                 artifact.image->ast)
                              .c_str());
    }

    if (ran && emit != "json") {
        std::printf("run: tier %s, %.3f ms",
                    exec::tierName(result.tier),
                    result.stats.seconds * 1e3);
        if (result.tier != exec::Tier::Native)
            std::printf(
                ", %llu instances, %llu loads, %llu stores",
                (unsigned long long)result.stats.instances,
                (unsigned long long)result.stats.loads,
                (unsigned long long)result.stats.stores);
        if (result.par.threads > 0)
            std::printf(
                ", par x%u (%llu tiles, %llu waits, "
                "critical path %llu)",
                result.par.threads,
                (unsigned long long)result.par.tilesExecuted,
                (unsigned long long)result.par.waits,
                (unsigned long long)result.par.criticalPath);
        if (result.stats.simdLoops > 0)
            std::printf(", simd x%u (%llu loops, %llu lanes)",
                        exec::simdWidth(),
                        (unsigned long long)result.stats.simdLoops,
                        (unsigned long long)result.stats.simdLanes);
        std::printf("\n");
    }
    return 0;
}
