#include "locble/core/location_solver.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "locble/common/linalg.hpp"
#include "locble/obs/obs.hpp"

namespace locble::core {

namespace {

constexpr double kLog10 = 2.302585092994046;

using KernelMode = LocationSolver::Config::KernelMode;
constexpr std::size_t kW = kernels::kLaneWidth;

/// The sample stream as the kernels see it: the packed structure-of-arrays
/// mirror (lanes mode), the AoS span (scalar_reference mode), and the
/// segment runs tiling both. The pointers alias SolverWorkspace storage
/// packed in solve_impl and cover the same `count` samples.
struct SampleView {
    const FusedSample* samples;
    const double* p;
    const double* q;
    const double* rssi;
    const SegmentRun* runs;
    std::size_t run_count;
    std::size_t count;
    KernelMode mode;
};

/// Assemble ResidualStats from the kernel outputs (sum / sum-of-squares /
/// centered second moment).
ResidualStats residual_stats_from_moments(std::size_t count, double sum, double ss,
                                          double m2) {
    ResidualStats out;
    out.mean_db = sum / static_cast<double>(count);
    out.stddev_db = std::sqrt(m2 / static_cast<double>(count));
    out.rms_db = std::sqrt(ss / static_cast<double>(count));
    const double sigma = std::max(out.stddev_db, 1e-6);
    out.confidence = std::exp(-(out.mean_db * out.mean_db) / (2.0 * sigma * sigma));
    return out;
}

// Every sweep below visits the segment runs in stream order, calls one lane
// kernel (or its scalar-reference twin) per run against that run's Gamma,
// and folds the per-run sums in that fixed order. Lane accumulators start
// at +0.0, so a reduced sum is never -0.0 and `0.0 + a == a` exactly: a
// single-run (k == 1) walk gets the kernel's sums unchanged.

/// Residual statistics with per-segment gammas. One prediction pass per run
/// (residuals parked in `resid_buf`, sized >= count by the caller) plus one
/// pass for the centered second moment — no allocation.
ResidualStats residual_stats_kernel(const SampleView& v, const locble::Vec2& location,
                                    double exponent, const double* gammas,
                                    double* resid_buf) {
    if (v.count == 0) return {};
    double sum = 0.0, ss = 0.0;
    for (std::size_t r = 0; r < v.run_count; ++r) {
        const SegmentRun& run = v.runs[r];
        const std::size_t b = run.begin;
        const double g = gammas[run.seg];
        double rs, rss;
        if (v.mode == KernelMode::lanes)
            kernels::residual2_lanes<kW>(v.p + b, v.q + b, v.rssi + b, run.len,
                                         location.x, location.y, g, exponent,
                                         resid_buf + b, rs, rss);
        else
            kernels::residual2_ref(v.samples + b, run.len, location.x, location.y, g,
                                   exponent, resid_buf + b, rs, rss);
        sum += rs;
        ss += rss;
    }
    const double mean = sum / static_cast<double>(v.count);
    const double m2 = v.mode == KernelMode::lanes
                          ? kernels::centered_m2_lanes<kW>(resid_buf, v.count, mean)
                          : kernels::centered_m2_ref(resid_buf, v.count, mean);
    return residual_stats_from_moments(v.count, sum, ss, m2);
}

/// Gauss-Newton refinement of (x, h, Gamma_1..Gamma_k) at fixed exponent,
/// minimizing the dB-domain residual — the maximum-likelihood objective
/// under Gaussian RSS noise, with one power offset per environment segment
/// (the paper's Gamma(e)). Gammas are projected into [gamma_min, gamma_max]
/// each step.
///
/// Allocation-free: a sample's jacobian row has exactly three nonzeros
/// (d/dx, d/dh and its segment's Gamma), so each run's lane-kernel sums
/// land in the shared x/h rows plus that segment's Gamma row of the flat
/// workspace JtJ/Jtr (jtj is dim*dim, jtr and delta are dim,
/// caller-sized); the normal system is solved in place with
/// solve_linear_flat.
void refine_fit_db(double* jtj, double* jtr, double* delta, const SampleView& v,
                   double exponent, locble::Vec2& location, double* gammas,
                   std::size_t k, double gamma_min, double gamma_max) {
    constexpr int kIterations = 12;
    const std::size_t dim = 2 + k;
    const double c = -10.0 * exponent / kLog10;
    double x = location.x, h = location.y;
    int sweeps = 0;
    while (sweeps < kIterations) {
        std::fill_n(jtj, dim * dim, 0.0);
        std::fill_n(jtr, dim, 0.0);
        for (std::size_t r = 0; r < v.run_count; ++r) {
            const SegmentRun& run = v.runs[r];
            const std::size_t b = run.begin;
            const std::size_t g = 2 + static_cast<std::size_t>(run.seg);
            kernels::GnSums2 sums;
            if (v.mode == KernelMode::lanes)
                kernels::gn2_lanes<kW>(v.p + b, v.q + b, v.rssi + b, run.len, x, h,
                                       gammas[run.seg], exponent, c, sums);
            else
                kernels::gn2_ref(v.samples + b, run.len, x, h, gammas[run.seg],
                                 exponent, c, sums);
            // Upper triangle; mirrored once after the sweep.
            jtj[0] += sums.a00;
            jtj[1] += sums.a01;
            jtj[g] += sums.a02;
            jtj[dim + 1] += sums.a11;
            jtj[dim + g] += sums.a12;
            jtj[g * dim + g] += sums.a22;
            jtr[0] += sums.r0;
            jtr[1] += sums.r1;
            jtr[g] += sums.r2;
        }
        for (std::size_t a = 0; a < dim; ++a)
            for (std::size_t b = 0; b < a; ++b) jtj[a * dim + b] = jtj[b * dim + a];

        // Levenberg damping keeps early steps conservative; a small ridge
        // also guards segments with very few (or no) samples.
        const double damping = 1e-6 + (sweeps < 3 ? 0.1 : 0.0);
        ++sweeps;
        for (std::size_t a = 0; a < dim; ++a)
            jtj[a * dim + a] = jtj[a * dim + a] * (1.0 + damping) + 1e-9;

        if (!locble::solve_linear_flat(jtj, jtr, delta, dim)) break;
        x += delta[0];
        h += delta[1];
        double step = std::abs(delta[0]) + std::abs(delta[1]);
        for (std::size_t s = 0; s < k; ++s) {
            gammas[s] = std::clamp(gammas[s] + delta[2 + s], gamma_min, gamma_max);
            step += std::abs(delta[2 + s]);
        }
        if (step < 1e-6) break;
    }
    LOCBLE_COUNT("solver.gn_iterations", sweeps);
    location = {x, h};
}

/// Initialize per-segment gammas from a single-gamma seed: each segment's
/// offset is the mean residual of its samples under the seed parameters.
/// Writes k gammas into `gammas`; `sum`/`cnt` are caller-provided scratch
/// of k entries each.
void init_segment_gammas(double* sum, std::size_t* cnt, const SampleView& v,
                         const locble::Vec2& location, double exponent,
                         double gamma_seed, std::size_t k, double gamma_min,
                         double gamma_max, double* gammas) {
    std::fill_n(sum, k, 0.0);
    std::fill_n(cnt, k, std::size_t{0});
    for (std::size_t r = 0; r < v.run_count; ++r) {
        const SegmentRun& run = v.runs[r];
        const std::size_t b = run.begin;
        sum[run.seg] +=
            v.mode == KernelMode::lanes
                ? kernels::seed_sum_lanes<kW>(v.p + b, v.q + b, v.rssi + b, run.len,
                                              location.x, location.y, gamma_seed,
                                              exponent)
                : kernels::seed_sum_ref(v.samples + b, run.len, location.x,
                                        location.y, gamma_seed, exponent);
        cnt[run.seg] += run.len;
    }
    for (std::size_t s = 0; s < k; ++s) {
        gammas[s] = gamma_seed;
        if (cnt[s] > 0) gammas[s] += sum[s] / static_cast<double>(cnt[s]);
        gammas[s] = std::clamp(gammas[s], gamma_min, gamma_max);
    }
}

}  // namespace

ResidualStats residual_stats(const std::vector<FusedSample>& samples,
                             const locble::Vec2& location, double exponent,
                             double gamma_dbm) {
    std::vector<double> resid(samples.size());
    const double gammas[1] = {gamma_dbm};
    // No packed SoA mirror here; the scalar-reference twin reads the AoS
    // span directly and is bit-identical to the lane kernels the solver's
    // internal scoring uses — so stats computed here EXPECT_EQ-match the
    // solver's reported residual_db for a single-segment fit.
    const SegmentRun all{0, samples.size(), 0};
    const SampleView v{samples.data(), nullptr, nullptr, nullptr, &all, 1,
                       samples.size(), KernelMode::scalar_reference};
    return residual_stats_kernel(v, location, exponent, gammas, resid.data());
}

std::pair<double, double> exponent_band_for(channel::PropagationClass cls) {
    switch (cls) {
        case channel::PropagationClass::los: return {1.6, 2.4};
        case channel::PropagationClass::plos: return {2.1, 3.1};
        case channel::PropagationClass::nlos: return {2.7, 4.2};
    }
    return {1.2, 6.0};
}

bool LocationSolver::evaluate_grid_point(SolverWorkspace& ws,
                                         SolverWorkspace::GridPoint& gp,
                                         const FusedSample* samples, std::size_t count,
                                         bool lateral_ok, double gamma_min,
                                         double gamma_max, std::size_t k, double mean_rssi,
                                         bool warm,
                                         SolverWorkspace::CandidateSlot& slot) const {
    const double exponent = gp.n;
    const SampleView v{samples,          ws.soa_p.data(), ws.soa_q.data(),
                       ws.soa_rssi.data(), ws.runs.data(),  ws.runs.size(),
                       count,            cfg_.kernel_mode};

    // Plausibility screen: discard non-physical attempts so a noise-
    // favoured exponent cannot launch the target outside radio range.
    const auto plausible = [&](const locble::Vec2& loc, const double* gammas) {
        if (loc.norm() > cfg_.max_range_m) return false;
        for (std::size_t s = 0; s < k; ++s)
            if (gammas[s] < gamma_min - 1e-9 || gammas[s] > gamma_max + 1e-9)
                return false;
        return true;
    };

    // Gather refined attempts and keep the best *plausible* one.
    double best_rms = 1e300;
    locble::Vec2 best_loc;
    ResidualStats best_stats;
    const auto consider = [&](locble::Vec2 loc, double gamma_seed) {
        init_segment_gammas(ws.gam_sum.data(), ws.gam_cnt.data(), v, loc, exponent,
                            gamma_seed, k, gamma_min, gamma_max, ws.gam_cur.data());
        if (cfg_.use_gn_refinement)
            refine_fit_db(ws.jtj.data(), ws.jtr.data(), ws.delta.data(), v, exponent,
                          loc, ws.gam_cur.data(), k, gamma_min, gamma_max);
        if (!plausible(loc, ws.gam_cur.data())) return;
        const ResidualStats st = residual_stats_kernel(v, loc, exponent,
                                                       ws.gam_cur.data(), ws.resid.data());
        if (st.rms_db < best_rms) {
            best_rms = st.rms_db;
            best_loc = loc;
            best_stats = st;
            std::copy_n(ws.gam_cur.data(), k, ws.gam_best.data());
        }
    };

    bool used_multistart = false;
    if (warm) {
        // Warm start (coarse_to_fine sessions): Gauss-Newton seeded from
        // the previous flush's fit at this grid point. The carried gammas
        // are re-clamped to the current band and extended if new
        // environment segments appeared since.
        locble::Vec2 loc = gp.warm_loc;
        const std::size_t have = gp.warm_gammas.size();
        for (std::size_t s = 0; s < k; ++s) {
            const double g = s < have ? gp.warm_gammas[s]
                                      : (have > 0 ? gp.warm_gammas[have - 1]
                                                  : 0.5 * (gamma_min + gamma_max));
            ws.gam_cur[s] = std::clamp(g, gamma_min, gamma_max);
        }
        if (cfg_.use_gn_refinement)
            refine_fit_db(ws.jtj.data(), ws.jtr.data(), ws.delta.data(), v, exponent,
                          loc, ws.gam_cur.data(), k, gamma_min, gamma_max);
        if (!plausible(loc, ws.gam_cur.data())) return false;
        best_stats = residual_stats_kernel(v, loc, exponent, ws.gam_cur.data(),
                                           ws.resid.data());
        best_rms = best_stats.rms_db;
        best_loc = loc;
        std::copy_n(ws.gam_cur.data(), k, ws.gam_best.data());
    } else {
        // --- Catch up this grid point's cached rho powers (the only
        // exponent-dependent per-sample quantity) on samples added since
        // the last flush. A sticky failure marks the exponent degenerate.
        if (!gp.rho_bad && gp.rho_count < count) {
            ws.ensure_size(gp.rho, count);
            for (std::size_t i = gp.rho_count; i < count; ++i) {
                const double r = std::pow(gp.eta, samples[i].rssi);
                if (!(r > 0.0) || !std::isfinite(r)) {
                    gp.rho_bad = true;
                    break;
                }
                gp.rho[i] = r;
                gp.rho_scale = std::max(gp.rho_scale, r);
                gp.rho_count = i + 1;
            }
        }
        if (gp.rho_bad) return false;

        // --- Linear elliptical seed (paper Eq. 3) on all samples with a
        // single Gamma; rho is exponential in RSS, so dB noise becomes
        // multiplicative. Weighting rows by 1/rho_i minimizes relative
        // error — the first-order equivalent of fitting in the dB domain,
        // in the same linear form.
        //
        // The normal equations are folded incrementally: raw row products
        // accumulate append-only per grid point, and the conditioning
        // scales (a running per-column max) are divided out of the m x m
        // aggregate at solve time. Plain LS (ablation) keeps the paper's
        // raw Eq. 3 rows, uniformly scaled by 1/rho_scale — which factors
        // out of the sums, so the same raw folds serve both modes.
        const std::size_t m = lateral_ok ? 4 : 3;
        const double* rho = gp.rho.data();
        if (gp.ls_count == 0 || gp.ls_lateral != lateral_ok) {
            std::fill_n(gp.ls_ata, 16, 0.0);
            std::fill_n(gp.ls_atb, 4, 0.0);
            std::fill_n(gp.ls_max, 4, 0.0);
            gp.ls_count = 0;
            gp.ls_lateral = lateral_ok;
        }
        for (std::size_t i = gp.ls_count; i < count; ++i) {
            const auto& s = samples[i];
            const double u = cfg_.use_wls ? 1.0 / rho[i] : 1.0;
            double row[4];
            if (lateral_ok) {
                row[0] = (s.p * s.p + s.q * s.q) * u;
                row[1] = s.p * u;
                row[2] = s.q * u;
                row[3] = u;
            } else {
                row[0] = s.p * s.p * u;
                row[1] = s.p * u;
                row[2] = u;
            }
            const double t = cfg_.use_wls ? 1.0 : rho[i];
            for (std::size_t j = 0; j < m; ++j) {
                gp.ls_max[j] = std::max(gp.ls_max[j], std::abs(row[j]));
                gp.ls_atb[j] += row[j] * t;
                for (std::size_t jk = j; jk < m; ++jk)
                    gp.ls_ata[j * 4 + jk] += row[j] * row[jk];
            }
        }
        gp.ls_count = count;

        // x_ij = raw_ij * f with f the uniform mode factor; dividing the
        // aggregates by f-adjusted column scales reproduces the scaled
        // normal equations of locble::least_squares.
        const double f = cfg_.use_wls ? 1.0 : 1.0 / gp.rho_scale;
        const double f2 = f * f;
        double scale[4];
        for (std::size_t j = 0; j < m; ++j) {
            scale[j] = gp.ls_max[j] * f;
            if (scale[j] < 1e-300) scale[j] = 1.0;
        }
        for (std::size_t j = 0; j < m; ++j) {
            ws.atb[j] = f2 * gp.ls_atb[j] / scale[j];
            for (std::size_t jk = j; jk < m; ++jk)
                ws.ata[j * m + jk] = f2 * gp.ls_ata[j * 4 + jk] / (scale[j] * scale[jk]);
        }
        for (std::size_t j = 0; j < m; ++j)
            for (std::size_t jk = 0; jk < j; ++jk) ws.ata[j * m + jk] = ws.ata[jk * m + j];

        bool linear_seed_ok =
            count >= m && locble::solve_linear_flat(ws.ata, ws.atb, ws.beta, m);
        if (linear_seed_ok)
            for (std::size_t j = 0; j < m; ++j) ws.beta[j] /= scale[j];
        if (linear_seed_ok && !(ws.beta[0] > 0.0))
            linear_seed_ok = false;  // eps = 1/A > 0

        // The linear seed when it exists, plus multi-start Gauss-Newton
        // from the level-implied range when it does not (weak quadratic
        // excitation makes the linear system lose the sign of A) or when
        // its refinement ran away.
        double gamma_seed = 0.5 * (gamma_min + gamma_max);
        if (linear_seed_ok) {
            const double a = ws.beta[0];
            const double eps = 1.0 / a;
            gamma_seed =
                std::clamp(5.0 * exponent * std::log10(eps), gamma_min, gamma_max);
            if (lateral_ok) {
                consider({ws.beta[1] / (2.0 * a), ws.beta[2] / (2.0 * a)}, gamma_seed);
            } else {
                const double x0 = ws.beta[1] / (2.0 * a);
                const double g = ws.beta[2];
                const double h2 = g * eps - x0 * x0;
                consider({x0, std::sqrt(std::max(h2, 0.0))}, gamma_seed);
            }
        }
        if (best_rms >= 1e300) {
            used_multistart = true;
            const double d0 = std::clamp(
                std::pow(10.0, (gamma_seed - mean_rssi) / (10.0 * exponent)), 0.5,
                cfg_.max_range_m);
            constexpr int kBearings = 8;
            for (int b = 0; b < kBearings; ++b) {
                const double angle = 2.0 * std::numbers::pi * b / kBearings;
                consider(locble::unit_from_angle(angle) * d0, gamma_seed);
            }
        }
        if (best_rms >= 1e300) return false;
    }

    slot.exponent = exponent;
    slot.raw_loc = best_loc;
    slot.loc = best_loc;
    slot.ambiguous = !lateral_ok;
    slot.multistart = used_multistart;
    if (slot.ambiguous) slot.loc.y = std::abs(slot.loc.y);

    // The winning consider() already evaluated the residuals at this exact
    // (loc, gammas); recompute only when the ambiguity convention actually
    // moved the location.
    const ResidualStats stats =
        slot.loc.y == best_loc.y
            ? best_stats
            : residual_stats_kernel(v, slot.loc, exponent, ws.gam_best.data(),
                                    ws.resid.data());
    slot.score = stats.rms_db;
    slot.residual_db = stats.rms_db;
    slot.confidence = stats.confidence;
    return true;
}

void SolverWorkspace::rebuild_grid(double n_min, double n_max, double step) {
    std::size_t points = 0;
    for (double n = n_min; n <= n_max + 1e-9; n += step) ++points;
    ensure_size(grid, points);
    std::size_t idx = 0;
    for (double n = n_min; n <= n_max + 1e-9; n += step) {
        auto& gp = grid[idx++];
        gp.n = n;
        gp.eta = std::pow(10.0, -1.0 / (5.0 * n));
        gp.rho_scale = 0.0;
        gp.rho_count = 0;
        gp.rho_bad = false;
        gp.ls_count = 0;
        gp.has_fit = false;
    }
    grid_valid = true;
    grid_n_min = n_min;
    grid_n_max = n_max;
    grid_step = step;
}

SolverWorkspace::WarmGrid SolverWorkspace::export_warm_grid() const {
    WarmGrid wg;
    if (!grid_valid) return wg;
    wg.valid = true;
    wg.n_min = grid_n_min;
    wg.n_max = grid_n_max;
    wg.step = grid_step;
    wg.points.reserve(grid.size());
    for (const GridPoint& gp : grid) {
        WarmGrid::Point pt;
        pt.has_fit = gp.has_fit;
        if (gp.has_fit) {
            pt.loc = gp.warm_loc;
            pt.gammas = gp.warm_gammas;
        }
        wg.points.push_back(std::move(pt));
    }
    return wg;
}

void SolverWorkspace::import_warm_grid(const WarmGrid& wg) {
    if (!wg.valid) return;
    // Validate before enumerating: a corrupted (or adversarial) checkpoint
    // must not drive an unbounded loop or allocation.
    if (!(wg.step > 0.0) || !(wg.n_min <= wg.n_max) ||
        !std::isfinite(wg.n_min) || !std::isfinite(wg.n_max) ||
        (wg.n_max - wg.n_min) / wg.step > 1e6)
        throw std::invalid_argument("WarmGrid: implausible grid parameters");
    rebuild_grid(wg.n_min, wg.n_max, wg.step);
    if (wg.points.size() != grid.size())
        throw std::invalid_argument("WarmGrid: point count does not match grid");
    for (std::size_t i = 0; i < grid.size(); ++i) {
        GridPoint& gp = grid[i];
        const WarmGrid::Point& pt = wg.points[i];
        gp.has_fit = pt.has_fit;
        if (pt.has_fit) {
            gp.warm_loc = pt.loc;
            gp.warm_gammas = pt.gammas;
        }
    }
}

bool LocationSolver::solve_impl(const FusedSample* samples, std::size_t count,
                                const SolveHints& hints, SolveDiagnostics* diag,
                                SolverWorkspace& ws, LocationFit& out,
                                bool incremental) const {
    LOCBLE_SPAN("solver.solve");
    LOCBLE_COUNT("solver.solve_calls", 1);
    if (diag) *diag = SolveDiagnostics{};
    if (!incremental || count < ws.agg_count) ws.invalidate();
    const std::uint64_t grows_before = ws.grow_events_;
    if (count < cfg_.min_samples) {
        LOCBLE_COUNT("solver.too_few_samples", 1);
        return false;
    }

    // Fold samples added since the previous solve into the running
    // aggregates (same left-to-right folds a cold start performs, so the
    // values are bit-identical either way).
    if (ws.agg_count == 0 && count > 0) {
        ws.q_min = ws.q_max = samples[0].q;
        ws.seg_lo = ws.seg_hi = samples[0].segment;
    }
    if (ws.agg_count < count)
        LOCBLE_COUNT("solver.samples_folded", count - ws.agg_count);
    // Pack the structure-of-arrays mirror and the segment runs alongside
    // the aggregate fold: the lane kernels (solver_kernels.hpp) stream the
    // contiguous arrays one run at a time. Append-only like every other
    // per-sample aggregate.
    ws.ensure_size(ws.soa_p, count);
    ws.ensure_size(ws.soa_q, count);
    ws.ensure_size(ws.soa_rssi, count);
    for (std::size_t i = ws.agg_count; i < count; ++i) {
        const auto& s = samples[i];
        ws.seg_lo = std::min(ws.seg_lo, s.segment);
        ws.seg_hi = std::max(ws.seg_hi, s.segment);
        if (!ws.runs.empty() && ws.runs.back().seg == s.segment) {
            ++ws.runs.back().len;
        } else {
            if (ws.runs.size() == ws.runs.capacity()) ++ws.grow_events_;
            ws.runs.push_back({i, 1, s.segment});
        }
        ws.q_min = std::min(ws.q_min, s.q);
        ws.q_max = std::max(ws.q_max, s.q);
        ws.rssi_sum += s.rssi;
        ws.soa_p[i] = s.p;
        ws.soa_q[i] = s.q;
        ws.soa_rssi[i] = s.rssi;
    }
    ws.agg_count = count;

    // Segment tags index the per-segment Gammas: a negative tag would index
    // before them, and a tag >= count would size the normal equations
    // beyond anything the samples can constrain.
    if (ws.seg_lo < 0 || static_cast<std::size_t>(ws.seg_hi) >= count) {
        LOCBLE_COUNT("solver.invalid_segments", 1);
        return false;
    }

    // Is there usable lateral (q) excitation, or is the walk effectively 1-D?
    const bool lateral_ok = (ws.q_max - ws.q_min) >= cfg_.min_lateral_spread;
    const std::size_t k = static_cast<std::size_t>(ws.seg_hi) + 1;
    const double mean_rssi = ws.rssi_sum / static_cast<double>(count);

    double n_min = cfg_.exponent_min;
    double n_max = cfg_.exponent_max;
    if (hints.exponent_band) {
        n_min = std::max(n_min, hints.exponent_band->first);
        n_max = std::min(n_max, hints.exponent_band->second);
    }
    double gamma_min = cfg_.gamma_min_dbm;
    double gamma_max = cfg_.gamma_max_dbm;
    if (hints.gamma_band_dbm) {
        gamma_min = std::max(gamma_min, hints.gamma_band_dbm->first);
        gamma_max = std::min(gamma_max, hints.gamma_band_dbm->second);
    }

    // (Re)build the exponent grid when the hint-narrowed band changed; the
    // per-point incremental state (rho caches, warm fits) survives as long
    // as the grid does.
    if (!ws.grid_valid || ws.grid_n_min != n_min || ws.grid_n_max != n_max ||
        ws.grid_step != cfg_.exponent_step) {
        ws.rebuild_grid(n_min, n_max, cfg_.exponent_step);
        LOCBLE_COUNT("solver.grid_rebuilds", 1);
    }
    const std::size_t grid_size = ws.grid.size();

    // Size the flat scratch once per solve (no-ops after warm-up).
    const std::size_t dim = 2 + k;
    ws.ensure_size(ws.jtj, dim * dim);
    ws.ensure_size(ws.jtr, dim);
    ws.ensure_size(ws.delta, dim);
    ws.ensure_size(ws.gam_cur, k);
    ws.ensure_size(ws.gam_best, k);
    ws.ensure_size(ws.gam_sum, k);
    ws.ensure_size(ws.gam_cnt, k);
    ws.ensure_size(ws.best_gammas, k);
    ws.ensure_size(ws.resid, count);
    ws.ensure_size(ws.evaluated, grid_size);
    std::fill(ws.evaluated.begin(), ws.evaluated.end(), std::uint8_t{0});
    ws.candidates.clear();
    if (ws.candidates.capacity() < grid_size) {
        ++ws.grow_events_;
        ws.candidates.reserve(grid_size);
    }

    const bool coarse = cfg_.search_mode == SearchMode::coarse_to_fine;
    int grid_points = 0, failures = 0, multistarts = 0, warm_starts = 0;
    double best_score = 1e300;
    int best_idx = -1;

    const auto eval_point = [&](std::size_t gi) {
        if (ws.evaluated[gi]) return;
        ws.evaluated[gi] = 1;
        ++grid_points;
        auto& gp = ws.grid[gi];
        SolverWorkspace::CandidateSlot slot;
        bool ok = false;
        if (coarse && incremental && gp.has_fit) {
            ++warm_starts;
            LOCBLE_COUNT("solver.warm_starts", 1);
            ok = evaluate_grid_point(ws, gp, samples, count, lateral_ok, gamma_min,
                                     gamma_max, k, mean_rssi, /*warm=*/true, slot);
            if (!ok) LOCBLE_COUNT("solver.warm_fallbacks", 1);
        }
        if (!ok)
            ok = evaluate_grid_point(ws, gp, samples, count, lateral_ok, gamma_min,
                                     gamma_max, k, mean_rssi, /*warm=*/false, slot);
        if (coarse) {
            // Remember this flush's fit as the next flush's GN seed.
            gp.has_fit = ok;
            if (ok) {
                gp.warm_loc = slot.raw_loc;
                ws.ensure_size(gp.warm_gammas, k);
                std::copy_n(ws.gam_best.data(), k, gp.warm_gammas.data());
            }
        }
        if (!ok) {
            ++failures;
            return;
        }
        if (slot.multistart) ++multistarts;
        slot.grid_idx = static_cast<int>(gi);
        ws.candidates.push_back(slot);
        if (slot.score < best_score) {
            best_score = slot.score;
            best_idx = static_cast<int>(ws.candidates.size()) - 1;
            std::copy_n(ws.gam_best.data(), k, ws.best_gammas.data());
        }
    };

    if (!coarse) {
        for (std::size_t gi = 0; gi < grid_size; ++gi) eval_point(gi);
    } else {
        // Coarse pass at 2x the grid step (endpoints always included)...
        for (std::size_t gi = 0; gi < grid_size; gi += 2) eval_point(gi);
        if (grid_size > 0) eval_point(grid_size - 1);
        // ...then hill-descend on the fine grid around the running argmin
        // until both neighbours have been evaluated and neither wins.
        int prev_best = -2;
        while (best_idx >= 0 && prev_best != best_idx) {
            prev_best = best_idx;
            const int bg = ws.candidates[static_cast<std::size_t>(best_idx)].grid_idx;
            for (const int d : {-1, 1}) {
                const int j = bg + d;
                if (j >= 0 && j < static_cast<int>(grid_size) &&
                    !ws.evaluated[static_cast<std::size_t>(j)]) {
                    LOCBLE_COUNT("solver.refine_evals", 1);
                    eval_point(static_cast<std::size_t>(j));
                }
            }
        }
    }

    LOCBLE_COUNT("solver.exponent_candidates", grid_points);
    LOCBLE_COUNT("solver.candidate_failures", failures);
    LOCBLE_COUNT("solver.multistart_runs", multistarts);
    if (ws.grow_events_ != grows_before)
        LOCBLE_COUNT("solver.workspace_grows", ws.grow_events_ - grows_before);
    if (diag) {
        diag->exponent_candidates = grid_points;
        diag->candidate_failures = failures;
        diag->multistart_runs = multistarts;
        diag->warm_starts = warm_starts;
        diag->converged = best_idx >= 0;
    }
    if (best_idx < 0) {
        LOCBLE_COUNT("solver.convergence_failures", 1);
        return false;
    }
    const auto& best = ws.candidates[static_cast<std::size_t>(best_idx)];
    LOCBLE_HISTOGRAM("solver.residual_db", best.residual_db, 0.5, 1.0, 2.0, 3.0, 4.0,
                     6.0, 8.0, 12.0);

    out.location = best.loc;
    out.exponent = best.exponent;
    out.segment_gammas.resize(k);
    std::copy_n(ws.best_gammas.data(), k, out.segment_gammas.data());
    out.gamma_dbm = out.segment_gammas.back();
    out.residual_db = best.residual_db;
    out.confidence = best.confidence;
    out.ambiguous = best.ambiguous;

    // The residual is nearly flat across neighbouring exponents; averaging
    // the near-optimal candidates (within 15% of the best residual) damps
    // the jitter a hard argmin would inherit from noise.
    if (!cfg_.use_model_averaging) return true;

    locble::Vec2 loc_acc{0.0, 0.0};
    double n_acc = 0.0, weight_acc = 0.0;
    for (const auto& c : ws.candidates) {
        if (c.score > best.score * 1.15 + 1e-9) continue;
        if (c.ambiguous != best.ambiguous) continue;
        const double w = 1.0 / std::max(c.score, 1e-6);
        loc_acc += c.loc * w;
        n_acc += c.exponent * w;
        weight_acc += w;
    }
    if (weight_acc > 0.0) {
        out.location = loc_acc / weight_acc;
        out.exponent = n_acc / weight_acc;
        const SampleView v{samples,          ws.soa_p.data(), ws.soa_q.data(),
                           ws.soa_rssi.data(), ws.runs.data(),  ws.runs.size(),
                           count,            cfg_.kernel_mode};
        const ResidualStats stats = residual_stats_kernel(
            v, out.location, out.exponent, ws.best_gammas.data(), ws.resid.data());
        out.residual_db = stats.rms_db;
        out.confidence = stats.confidence;
    }
    return true;
}

std::optional<LocationFit> LocationSolver::solve(const std::vector<FusedSample>& samples,
                                                 const SolveHints& hints,
                                                 SolveDiagnostics* diag) const {
    SolverWorkspace ws;
    LocationFit out;
    if (!solve_impl(samples.data(), samples.size(), hints, diag, ws, out,
                    /*incremental=*/false))
        return std::nullopt;
    return out;
}

bool LocationSolver::solve(const std::vector<FusedSample>& samples,
                           const SolveHints& hints, SolveDiagnostics* diag,
                           SolverWorkspace& ws, LocationFit& out) const {
    return solve_impl(samples.data(), samples.size(), hints, diag, ws, out,
                      /*incremental=*/false);
}

std::optional<LocationFit> LocationSolver::resolve_l_shape(
    const LocationFit& leg1, const LocationFit& leg2, const locble::Vec2& leg2_origin,
    double leg2_heading) {
    // Each ambiguous leg fit yields two mirror candidates in its own frame.
    const auto candidates_of = [](const LocationFit& fit) {
        std::vector<locble::Vec2> out{fit.location};
        if (fit.ambiguous) out.push_back({fit.location.x, -fit.location.y});
        return out;
    };
    // Leg 1's frame *is* the observer frame. Leg 2 candidates must be
    // rotated/translated out of the second leg's local frame.
    std::vector<locble::Vec2> c1 = candidates_of(leg1);
    std::vector<locble::Vec2> c2;
    for (const auto& c : candidates_of(leg2))
        c2.push_back(leg2_origin + c.rotated(leg2_heading));

    double best_gap = 1e300;
    locble::Vec2 best_point;
    for (const auto& a : c1) {
        for (const auto& b : c2) {
            const double gap = locble::Vec2::distance(a, b);
            if (gap < best_gap) {
                best_gap = gap;
                best_point = (a + b) * 0.5;
            }
        }
    }
    if (best_gap >= 1e300) return std::nullopt;

    LocationFit out;
    out.location = best_point;
    // Blend the per-leg parameter estimates, weighting by confidence.
    const double w1 = std::max(leg1.confidence, 1e-6);
    const double w2 = std::max(leg2.confidence, 1e-6);
    out.exponent = (leg1.exponent * w1 + leg2.exponent * w2) / (w1 + w2);
    out.gamma_dbm = (leg1.gamma_dbm * w1 + leg2.gamma_dbm * w2) / (w1 + w2);
    out.segment_gammas = {out.gamma_dbm};
    out.residual_db = 0.5 * (leg1.residual_db + leg2.residual_db);
    out.confidence = std::min(leg1.confidence, leg2.confidence);
    out.ambiguous = false;
    return out;
}

}  // namespace locble::core
