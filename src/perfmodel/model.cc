#include "perfmodel/model.hh"

#include <algorithm>
#include <cmath>

#include "perfmodel/parallel.hh"

namespace polyfuse {
namespace perfmodel {

namespace {

/** Capacities of the tuning hierarchy (search.cc builds the memsim
 *  levels from the same values, so model and measurement agree). */
constexpr int64_t kL1Bytes = 16 * 1024;
constexpr int64_t kL2Bytes = 256 * 1024;
constexpr int kElemBytes = 8; ///< buffers are double

/**
 * Effective access latency for a per-tile footprint of @p bytes:
 * piecewise log-linear between the L1 / L2 / DRAM latencies of the
 * CPU model. Smooth (not a step) so candidates straddling a
 * capacity boundary rank sensibly instead of cliff-jumping.
 */
double
latencyCycles(double bytes, const CpuModelConfig &cfg)
{
    if (bytes <= kL1Bytes)
        return cfg.l1LatCycles;
    double logF = std::log2(bytes);
    if (bytes <= kL2Bytes) {
        double t = (logF - std::log2(double(kL1Bytes))) /
                   (std::log2(double(kL2Bytes)) -
                    std::log2(double(kL1Bytes)));
        return cfg.l1LatCycles +
               t * (cfg.l2LatCycles - cfg.l1LatCycles);
    }
    // An L2-spilling footprint degrades towards DRAM latency over
    // the next three doublings (fully DRAM-bound at 8x L2).
    double hi = std::log2(double(kL2Bytes)) + 3;
    if (logF >= hi)
        return cfg.dramLatCycles;
    double t = (logF - std::log2(double(kL2Bytes))) /
               (hi - std::log2(double(kL2Bytes)));
    return cfg.l2LatCycles + t * (cfg.dramLatCycles - cfg.l2LatCycles);
}

/** Solve the n x n system a x = b by Gaussian elimination with
 *  partial pivoting. @return false when (near-)singular. */
bool
solveLinear(std::vector<std::vector<double>> a,
            std::vector<double> b, std::vector<double> &x)
{
    const size_t n = b.size();
    for (size_t col = 0; col < n; ++col) {
        size_t pivot = col;
        for (size_t r = col + 1; r < n; ++r)
            if (std::fabs(a[r][col]) > std::fabs(a[pivot][col]))
                pivot = r;
        if (std::fabs(a[pivot][col]) < 1e-12)
            return false;
        std::swap(a[col], a[pivot]);
        std::swap(b[col], b[pivot]);
        for (size_t r = col + 1; r < n; ++r) {
            double f = a[r][col] / a[col][col];
            for (size_t c = col; c < n; ++c)
                a[r][c] -= f * a[col][c];
            b[r] -= f * b[col];
        }
    }
    x.assign(n, 0.0);
    for (size_t i = n; i-- > 0;) {
        double acc = b[i];
        for (size_t c = i + 1; c < n; ++c)
            acc -= a[i][c] * x[c];
        x[i] = acc / a[i][i];
    }
    return true;
}

} // namespace

ModelFit
defaultModelFit()
{
    // The committed calibration: a registry-wide least-squares fit
    // over every workload x the default candidate ladder, measured
    // through the same compose + codegen + bytecode + memsim path
    // the tuner minimizes. The test
    //   Autotune.RegistryRefitReproducesTheDefaultModelFit
    // (tests/test_autotune.cc) re-fits and compares at these 4
    // decimals; after changing the cost model, the tuning hierarchy
    // or the CPU model it fails and prints the values to paste here.
    ModelFit fit;
    fit.cCompute = 0.1920;
    fit.cMem = 0.0071;
    fit.cTraffic = 0.0000;
    fit.cTile = 0.0000;
    fit.samples = 0; // the built-in fit; db fits carry real counts
    return fit;
}

double
predictMs(const ModelTerms &t, const ModelFit &fit)
{
    return fit.cCompute * t.compute + fit.cMem * t.mem +
           fit.cTraffic * t.traffic + fit.cTile * t.tile;
}

ModelFit
fitModel(const std::vector<ModelSample> &samples,
         const ModelFit &prior)
{
    const size_t kTerms = 4;
    if (samples.size() < kTerms)
        return prior;

    auto termVec = [](const ModelTerms &t) {
        return std::vector<double>{t.compute, t.mem, t.traffic,
                                   t.tile};
    };

    // Non-negative least squares by clamp-and-refit: solve the
    // normal equations over the active columns, zero any negative
    // weight, repeat. Terminates (the active set only shrinks).
    //
    // Rows are scaled by 1/measuredMs: the model exists to *rank*
    // candidates, so each sample should contribute its relative
    // error. Unweighted, a 5-second matmul sweep outvotes a
    // 5-microsecond stencil a million to one and the fit happily
    // inverts the small workload's ordering.
    std::vector<bool> active(kTerms, true);
    std::vector<double> weights(kTerms, 0.0);
    for (size_t round = 0; round <= kTerms; ++round) {
        std::vector<size_t> cols;
        for (size_t c = 0; c < kTerms; ++c)
            if (active[c])
                cols.push_back(c);
        if (cols.empty())
            return prior;
        std::vector<std::vector<double>> ata(
            cols.size(), std::vector<double>(cols.size(), 0.0));
        std::vector<double> atb(cols.size(), 0.0);
        for (const ModelSample &s : samples) {
            auto t = termVec(s.terms);
            double w = 1.0 / std::max(s.measuredMs, 1e-9);
            for (auto &v : t)
                v *= w;
            for (size_t i = 0; i < cols.size(); ++i) {
                for (size_t j = 0; j < cols.size(); ++j)
                    ata[i][j] += t[cols[i]] * t[cols[j]];
                atb[i] += t[cols[i]] * (s.measuredMs * w);
            }
        }
        std::vector<double> x;
        if (!solveLinear(ata, atb, x))
            return prior;
        bool clamped = false;
        std::fill(weights.begin(), weights.end(), 0.0);
        for (size_t i = 0; i < cols.size(); ++i) {
            if (x[i] < 0) {
                active[cols[i]] = false;
                clamped = true;
            } else {
                weights[cols[i]] = x[i];
            }
        }
        if (!clamped)
            break;
    }

    ModelFit fitted;
    fitted.cCompute = weights[0];
    fitted.cMem = weights[1];
    fitted.cTraffic = weights[2];
    fitted.cTile = weights[3];
    fitted.samples = uint64_t(samples.size());
    if (prior.samples == 0)
        return fitted;

    // Blend with the prior by sample count so one small search
    // cannot yank an established calibration around.
    double wp = double(prior.samples) /
                double(prior.samples + fitted.samples);
    ModelFit blended;
    blended.cCompute =
        wp * prior.cCompute + (1 - wp) * fitted.cCompute;
    blended.cMem = wp * prior.cMem + (1 - wp) * fitted.cMem;
    blended.cTraffic =
        wp * prior.cTraffic + (1 - wp) * fitted.cTraffic;
    blended.cTile = wp * prior.cTile + (1 - wp) * fitted.cTile;
    // Cap the count so the blend keeps adapting instead of freezing.
    blended.samples =
        std::min<uint64_t>(prior.samples + fitted.samples, 4096);
    return blended;
}

CostModel::CostModel(const ir::Program &program, unsigned dims,
                     unsigned threads)
    : dims_(dims), threads_(threads == 0 ? 1 : threads)
{
    const auto &params = program.paramValues();
    tensorBytes_.resize(program.tensors().size());
    tensorExtents_.resize(program.tensors().size());
    for (size_t t = 0; t < program.tensors().size(); ++t) {
        tensorBytes_[t] = program.tensorSize(t) * kElemBytes;
        const ir::TensorInfo &info = program.tensor(t);
        for (unsigned d = 0; d < info.rank; ++d)
            tensorExtents_[t].push_back(
                std::max<int64_t>(1, program.tensorExtent(t, d)));
    }

    for (const ir::Statement &s : program.statements()) {
        StmtFeat f;
        unsigned nd = s.numDims();
        f.instances = 1;
        for (unsigned j = 0; j < nd; ++j) {
            int64_t lo, hi;
            int64_t extent = 1;
            if (s.domain().dimBounds(j, params, lo, hi) && hi >= lo)
                extent = hi - lo + 1;
            f.extents.push_back(extent);
            f.instances *= double(extent);
        }
        f.flops = f.instances * s.opsPerInstance();
        f.accessCount = unsigned(s.accesses().size());
        f.liveOut = s.writeIndex() >= 0 &&
                    program.tensorLiveOut(s.writeAccess().tensor);
        for (const ir::Access &a : s.accesses()) {
            AccessFeat af;
            af.tensor = a.tensor;
            if (a.hasExprs) {
                for (const auto &row : a.indexExprs) {
                    // Rows span [stmt dims..., params..., 1]; only
                    // the statement-dim coefficients stretch the
                    // per-tile footprint.
                    std::vector<int64_t> abs_row;
                    for (unsigned j = 0; j < nd && j < row.size();
                         ++j)
                        abs_row.push_back(row[j] < 0 ? -row[j]
                                                     : row[j]);
                    af.absCoeffs.push_back(std::move(abs_row));
                }
            }
            // !hasExprs leaves absCoeffs empty: terms() falls back
            // to the whole-tensor footprint for that access.
            f.accesses.push_back(std::move(af));
        }
        totalFlops_ += f.flops;
        totalAccesses_ += f.instances * f.accessCount;
        stmts_.push_back(std::move(f));
    }
}

void
CostModel::tileSpans(const StmtFeat &s,
                     const std::vector<int64_t> &tiles,
                     std::vector<int64_t> &spans) const
{
    spans.clear();
    for (size_t j = 0; j < s.extents.size(); ++j) {
        if (j < dims_ && j < tiles.size())
            spans.push_back(
                std::min<int64_t>(tiles[j], s.extents[j]));
        else if (j < dims_ && !tiles.empty())
            spans.push_back(
                std::min<int64_t>(tiles.back(), s.extents[j]));
        else
            spans.push_back(s.extents[j]);
    }
}

ModelTerms
CostModel::terms(const std::vector<int64_t> &tiles) const
{
    const CpuModelConfig cfg;
    ModelTerms t;
    t.compute = totalFlops_ / cfg.opsPerCycle / (cfg.ghz * 1e6);

    // Per-tile footprint per tensor: the max over all accesses of
    // the |coeff|-weighted span box (eq. (4)/(5) on the bounding
    // box), capped at the whole tensor. Tensors shared by several
    // fused statements are counted once (the paper's point: fused
    // intermediates live tile-locally).
    std::vector<double> foot(tensorBytes_.size(), 0.0);
    double tile_count = 1;
    std::vector<int64_t> spans;
    for (const StmtFeat &s : stmts_) {
        tileSpans(s, tiles, spans);
        if (s.liveOut) {
            double st_tiles = 1;
            unsigned tiled =
                std::min<unsigned>(dims_, unsigned(spans.size()));
            for (unsigned j = 0; j < tiled; ++j)
                st_tiles *= std::ceil(double(s.extents[j]) /
                                      double(spans[j]));
            tile_count = std::max(tile_count, st_tiles);
        }
        for (const AccessFeat &a : s.accesses) {
            if (a.tensor < 0)
                continue;
            double fe;
            if (a.absCoeffs.empty() &&
                !tensorExtents_[a.tensor].empty()) {
                fe = double(tensorBytes_[a.tensor]) / kElemBytes;
            } else {
                fe = 1;
                for (size_t d = 0; d < a.absCoeffs.size(); ++d) {
                    double span = 1;
                    for (size_t j = 0; j < a.absCoeffs[d].size();
                         ++j)
                        span += double(a.absCoeffs[d][j]) *
                                double(spans[j] - 1);
                    if (d < tensorExtents_[a.tensor].size())
                        span = std::min(
                            span,
                            double(tensorExtents_[a.tensor][d]));
                    fe *= span;
                }
            }
            foot[a.tensor] = std::max(foot[a.tensor], fe);
        }
    }
    double foot_bytes = 0;
    for (double fe : foot)
        foot_bytes += fe * kElemBytes;

    t.mem = totalAccesses_ * latencyCycles(foot_bytes, cfg) /
            cfg.mlp / (cfg.ghz * 1e6);
    t.traffic = tile_count * foot_bytes / (cfg.dramGBs * 1e6);

    // Loop overhead (~0.1 us per tile) plus a parallel-grain
    // penalty: fewer tiles than objective threads leaves cores
    // idle, so the compute term is stretched by the shortfall.
    t.tile = tile_count * 1e-4;
    if (tile_count < double(threads_))
        t.tile += t.compute *
                  (double(threads_) / std::max(tile_count, 1.0) -
                   1.0);
    return t;
}

double
CostModel::score(const std::vector<int64_t> &tiles,
                 const ModelFit &fit) const
{
    return predictMs(terms(tiles), fit);
}

bool
CostModel::dividesExtents(const std::vector<int64_t> &tiles) const
{
    bool saw_live_out = false;
    std::vector<int64_t> spans;
    for (const StmtFeat &s : stmts_) {
        if (!s.liveOut)
            continue;
        saw_live_out = true;
        tileSpans(s, tiles, spans);
        unsigned tiled =
            std::min<unsigned>(dims_, unsigned(spans.size()));
        for (unsigned j = 0; j < tiled; ++j)
            if (spans[j] <= 0 || s.extents[j] % spans[j] != 0)
                return false;
    }
    return saw_live_out;
}

bool
CostModel::innermostContiguous(const std::vector<int64_t> &tiles,
                               int64_t widest_candidate) const
{
    bool saw_live_out = false;
    std::vector<int64_t> spans;
    for (const StmtFeat &s : stmts_) {
        if (!s.liveOut)
            continue;
        saw_live_out = true;
        tileSpans(s, tiles, spans);
        unsigned tiled =
            std::min<unsigned>(dims_, unsigned(spans.size()));
        if (tiled == 0)
            continue;
        unsigned j = tiled - 1;
        bool full = spans[j] >= s.extents[j];
        bool widest = j < tiles.size()
                          ? tiles[j] >= widest_candidate
                          : false;
        if (!full && !widest)
            return false;
    }
    return saw_live_out;
}

} // namespace perfmodel
} // namespace polyfuse
