/**
 * @file
 * Shared pieces of the repository benchmark: run configuration,
 * statistics, the in-memory span recorder, the metric report, the
 * expected-output oracle, and the compile/build helpers every
 * workload times. The benchmark measures PolyFuse from outside: it
 * only calls public functions of src/ and reads the counters those
 * functions already return.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "driver/artifact.hh"
#include "driver/registry.hh"
#include "exec/native.hh"

namespace perfbench {

using namespace polyfuse;

/** One benchmark invocation. */
struct Config
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 20;
    bool trace = false;
    /** Tiny sizes, same checks: the benchmark's own test. */
    bool smoke = false;
    /** Recompute the oracle instead of checking against it. */
    bool regen = false;
    std::string expectedPath = "perfbench/expected.txt";
    std::string outDir = ".bench_build/results";
    std::string gitSha = "unknown";
};

// ------------------------------------------------------------ stats

double median(std::vector<double> v);

/** Nearest-rank percentile, @p p in (0, 100]. */
double percentile(std::vector<double> v, double p);

/** Geometric mean of positive values (0 when empty). */
double geomean(const std::vector<double> &v);

/** Milliseconds on the steady clock since an arbitrary epoch. */
double nowMs();

/** Splitmix64-style deterministic generator (seeded inputs). */
class Rng
{
  public:
    explicit Rng(uint64_t seed) : s_(seed * 0x9e3779b97f4a7c15ull + 1) {}
    uint64_t next();
    /** Uniform in [0, 1). */
    double unit() { return double(next() >> 11) * 0x1.0p-53; }
    /** Uniform in [0, n). */
    size_t below(size_t n) { return size_t(next() % n); }

  private:
    uint64_t s_;
};

/** Seeded Fisher-Yates shuffle. */
template <typename T>
void
shuffle(std::vector<T> &v, Rng &rng)
{
    for (size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.below(i)]);
}

// ----------------------------------------------------------- tracing

/** One recorded span (times in ms since the tracer started). */
struct Span
{
    std::string name;
    double start = 0;
    double end = 0;
    int parent = -1;
    uint64_t op = 0;
};

/**
 * In-memory spans around calls into the layers. Disabled (every call
 * a no-op) in untraced runs. Thread-safe: the serve workload records
 * from two client threads.
 */
class Tracer
{
  public:
    explicit Tracer(bool on) : on_(on), t0_(nowMs()) {}

    bool on() const { return on_; }

    /** Open a top-level span; @return its id (-1 when tracing is
     *  off). */
    int begin(const std::string &name, uint64_t op);
    void end(int id);

    /** Record a finished span with explicit bounds (absolute ms, as
     *  returned by nowMs()). */
    int add(const std::string &name, double start, double end,
            int parent, uint64_t op);

    /** Summed self time (duration minus the part covered by child
     *  spans) of every span named @p name, and their count. */
    double selfMs(const std::string &name, size_t *count = nullptr) const;

    /** Durations of every span named @p name. */
    std::vector<double> durations(const std::string &name) const;

    /** Chrome trace-event JSON ("X" events, one tid per op). */
    bool writeChrome(const std::string &path) const;

  private:
    bool on_;
    double t0_;
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

// ----------------------------------------------------------- report

/** One reported metric. */
struct Metric
{
    std::string name;
    std::string unit;
    double value = 0;
    size_t samples = 0;
};

/** Everything one run reports. */
struct Report
{
    std::vector<Metric> metrics;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** Free-form lines for the human-readable part of the output. */
    std::vector<std::string> notes;

    void add(const std::string &name, const std::string &unit,
             double value, size_t samples);

    /** The metric named @p name (null when not measured). */
    const Metric *find(const std::string &name) const;

    /** Record one checked operation. */
    void op(bool ok)
    {
        ++attempted;
        failed += ok ? 0 : 1;
    }
};

// ----------------------------------------------------------- oracle

/**
 * Expected outputs (perfbench/expected.txt): one "key hash" line per
 * program instance, computed on the Tier-0 interpreter. Keys:
 *   liveout:<program>:<rows>x<cols>          naive schedule, live-outs
 *   all:<program>:<rows>x<cols>:<strategy>:<tiles>   every buffer
 */
class Oracle
{
  public:
    bool load(const std::string &path, std::string *error);
    bool save(const std::string &path) const;

    /** Expected hash; "" when the key is unknown. */
    std::string get(const std::string &key) const;
    void set(const std::string &key, const std::string &hash);

  private:
    std::map<std::string, std::string> hashes_;
};

std::string liveOutKey(const std::string &program, int64_t rows,
                       int64_t cols);

std::string allBuffersKey(const std::string &program, int64_t rows,
                          int64_t cols, const std::string &strategy,
                          const std::vector<int64_t> &tiles);

/** FNV over the bit patterns of every Output tensor, 16 hex digits. */
std::string hashLiveOuts(const ir::Program &program,
                         const exec::Buffers &buffers);

/** Naive schedule on the interpreter: the live-out reference. */
std::string referenceLiveOuts(const ir::Program &program);

// ------------------------------------------------ compile and build

/** Per-layer tallies summed over the compiles of one round. */
struct LayerTally
{
    uint64_t kernels = 0;
    int64_t fmElims = 0, fmRows = 0, cacheHits = 0, cacheMisses = 0;
    int64_t clusters = 0, extensions = 0, astNodes = 0, allocs = 0;
    int64_t instructions = 0;
    int64_t sourceBytes = 0;
    std::vector<double> fingerprintUs;
    std::vector<double> makeMs;

    void addPasses(const driver::PassStats &stats);
};

/** A program compiled to an artifact and, optionally, native code. */
struct Kernel
{
    std::string program; ///< registry name (set by the caller)
    driver::Strategy strategy = driver::Strategy::Ours;
    std::shared_ptr<const ir::Program> prog;
    driver::KernelArtifact art;
    exec::NativeKernel native;
    double compileMs = 0;
    double buildMs = 0;
};

/**
 * Cold compile (fresh CompileContext, no kernel cache) of @p prog
 * under @p strategy / @p tiles, then a sequential native build when
 * @p build. Records spans (compile + one child per pass, emit + build)
 * under operation @p op and, when traced, fills @p tally.
 */
Kernel compileKernel(const std::shared_ptr<const ir::Program> &prog,
                     driver::Strategy strategy,
                     const std::vector<int64_t> &tiles, bool build,
                     Tracer &tracer, uint64_t op, LayerTally *tally);

/** Time @p spec.make under a span; fills tally->makeMs when traced. */
std::shared_ptr<const ir::Program>
makeProgram(const driver::WorkloadSpec &spec, int64_t rows, int64_t cols,
            Tracer &tracer, uint64_t op, LayerTally *tally);

/** The per-layer compile metrics of @p tally and @p tracer's spans. */
void reportCompileLayers(Report &r, const Tracer &tracer,
                         const LayerTally &tally);

/** Peak resident set of this process, MB. */
double peakRssMb();

// --------------------------------------------------------- workloads

/** Run one workload into @p r. A wrong output or a failed native
 *  build counts in r.failed; anything else throws. */
void runPipelinesHd(const Config &cfg, const Oracle &oracle,
                    Tracer &tracer, Report &r);
void runCompileCold(const Config &cfg, const Oracle &oracle,
                    Tracer &tracer, Report &r);
void runServeMixed(const Config &cfg, const Oracle &oracle,
                   Tracer &tracer, Report &r);

/** Expected hashes each workload needs (regeneration mode). */
void regenPipelinesHd(const Config &cfg, Oracle &oracle);
void regenCompileCold(const Config &cfg, Oracle &oracle);
void regenServeMixed(const Config &cfg, Oracle &oracle);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
