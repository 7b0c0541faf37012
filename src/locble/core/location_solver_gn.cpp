#include "locble/core/location_solver_gn.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <numeric>
#include <utility>

#include "locble/common/linalg.hpp"
#include "locble/obs/obs.hpp"

namespace locble::core::gn {

namespace {

constexpr double kLog10 = 2.302585092994046;
constexpr std::size_t kW = kernels::kLaneWidth;

}  // namespace

// Every sweep below visits the segment runs in stream order, calls one lane
// kernel (or its scalar-reference twin) per run against that run's Gamma,
// and folds the per-run sums in that fixed order. Lane accumulators start
// at +0.0, so a reduced sum is never -0.0 and `0.0 + a == a` exactly: a
// single-run (k == 1) walk gets the kernel's sums unchanged.

/// Gauss-Newton refinement of (x, h, Gamma_1..Gamma_k) at fixed exponent,
/// minimizing the dB-domain residual — the maximum-likelihood objective
/// under Gaussian RSS noise, with one power offset per environment segment
/// (the paper's Gamma(e)). Gammas are projected into [gamma_min, gamma_max]
/// each step.
///
/// A sample's jacobian row has exactly three nonzeros (d/dx, d/dh and its
/// segment's Gamma), so each run's lane-kernel sums land in the shared x/h
/// rows plus that segment's Gamma row of the flat JtJ/Jtr; the normal
/// system is solved in place with solve_linear_flat.
void refine(double* jtj, double* jtr, double* delta, const FitProblem& fp,
            locble::Vec2& location, double* gammas, RefineProgress& progress,
            int sweep_end) {
    const SampleView& v = fp.v;
    const std::size_t k = fp.k;
    const std::size_t dim = 2 + k;
    const double c = -10.0 * fp.exponent / kLog10;
    const int end = std::min(sweep_end, kMaxSweeps);
    const int first = progress.sweeps;
    double x = location.x, h = location.y;
    int sweeps = first;
    while (!progress.stopped && sweeps < end) {
        std::fill_n(jtj, dim * dim, 0.0);
        std::fill_n(jtr, dim, 0.0);
        for (std::size_t r = 0; r < v.run_count; ++r) {
            const SegmentRun& run = v.runs[r];
            const std::size_t b = run.begin;
            const std::size_t g = 2 + static_cast<std::size_t>(run.seg);
            kernels::GnSums2 sums;
            if (v.mode == KernelMode::lanes)
                kernels::gn2_lanes<kW>(v.p + b, v.q + b, v.rssi + b, run.len, x, h,
                                       gammas[run.seg], fp.exponent, c, sums);
            else
                kernels::gn2_ref(v.samples + b, run.len, x, h, gammas[run.seg],
                                 fp.exponent, c, sums);
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
        const double damping = 1e-6 + (sweeps < kDampedSweeps ? 0.1 : 0.0);
        ++sweeps;
        for (std::size_t a = 0; a < dim; ++a)
            jtj[a * dim + a] = jtj[a * dim + a] * (1.0 + damping) + 1e-9;

        if (!locble::solve_linear_flat(jtj, jtr, delta, dim)) {
            progress.stopped = true;
            break;
        }
        x += delta[0];
        h += delta[1];
        double step = std::abs(delta[0]) + std::abs(delta[1]);
        for (std::size_t s = 0; s < k; ++s) {
            gammas[s] = std::clamp(gammas[s] + delta[2 + s], fp.gamma_min, fp.gamma_max);
            step += std::abs(delta[2 + s]);
        }
        if (step < 1e-6) progress.stopped = true;
    }
    LOCBLE_COUNT("solver.gn_iterations", sweeps - first);
    progress.sweeps = sweeps;
    location = {x, h};
}

void init_segment_gammas(double* sum, std::size_t* cnt, const FitProblem& fp,
                         const locble::Vec2& location, double gamma_seed,
                         double* gammas) {
    const SampleView& v = fp.v;
    const std::size_t k = fp.k;
    std::fill_n(sum, k, 0.0);
    std::fill_n(cnt, k, std::size_t{0});
    for (std::size_t r = 0; r < v.run_count; ++r) {
        const SegmentRun& run = v.runs[r];
        const std::size_t b = run.begin;
        sum[run.seg] +=
            v.mode == KernelMode::lanes
                ? kernels::seed_sum_lanes<kW>(v.p + b, v.q + b, v.rssi + b, run.len,
                                              location.x, location.y, gamma_seed,
                                              fp.exponent)
                : kernels::seed_sum_ref(v.samples + b, run.len, location.x,
                                        location.y, gamma_seed, fp.exponent);
        cnt[run.seg] += run.len;
    }
    for (std::size_t s = 0; s < k; ++s) {
        gammas[s] = gamma_seed;
        if (cnt[s] > 0) gammas[s] += sum[s] / static_cast<double>(cnt[s]);
        gammas[s] = std::clamp(gammas[s], fp.gamma_min, fp.gamma_max);
    }
}

bool plausible(const FitProblem& fp, const locble::Vec2& location, const double* gammas,
               double max_range_m) {
    // Discard non-physical attempts so a noise-favoured exponent cannot
    // launch the target outside radio range.
    if (location.norm() > max_range_m) return false;
    for (std::size_t s = 0; s < fp.k; ++s)
        if (gammas[s] < fp.gamma_min - 1e-9 || gammas[s] > fp.gamma_max + 1e-9)
            return false;
    return true;
}

Moments moments(const FitProblem& fp, const locble::Vec2& location, const double* gammas,
                double* resid) {
    const SampleView& v = fp.v;
    Moments m;
    for (std::size_t r = 0; r < v.run_count; ++r) {
        const SegmentRun& run = v.runs[r];
        const std::size_t b = run.begin;
        const double g = gammas[run.seg];
        double rs, rss;
        if (v.mode == KernelMode::lanes)
            kernels::residual2_lanes<kW>(v.p + b, v.q + b, v.rssi + b, run.len,
                                         location.x, location.y, g, fp.exponent,
                                         resid + b, rs, rss);
        else
            kernels::residual2_ref(v.samples + b, run.len, location.x, location.y, g,
                                   fp.exponent, resid + b, rs, rss);
        m.sum += rs;
        m.ss += rss;
    }
    return m;
}

ResidualStats stats(const FitProblem& fp, const Moments& m, const double* resid) {
    const std::size_t count = fp.v.count;
    if (count == 0) return {};
    const double n = static_cast<double>(count);
    ResidualStats out;
    out.mean_db = m.sum / n;
    const double m2 = fp.v.mode == KernelMode::lanes
                          ? kernels::centered_m2_lanes<kW>(resid, count, out.mean_db)
                          : kernels::centered_m2_ref(resid, count, out.mean_db);
    out.stddev_db = std::sqrt(m2 / n);
    out.rms_db = m.rms(count);
    const double sigma = std::max(out.stddev_db, 1e-6);
    out.confidence = std::exp(-(out.mean_db * out.mean_db) / (2.0 * sigma * sigma));
    return out;
}

FanResult multistart_fan(const FitProblem& fp, const FanScratch& sc, double d0,
                         double gamma_seed, double max_range_m, bool use_gn) {
    const std::size_t k = fp.k;
    const std::size_t count = fp.v.count;
    locble::Vec2 loc[kFanBearings];
    RefineProgress progress[kFanBearings];
    double probe_rms[kFanBearings];

    // Probe: every bearing through the damped phase, scored by rms.
    for (int b = 0; b < kFanBearings; ++b) {
        double* gammas = sc.bearing_gammas + static_cast<std::size_t>(b) * k;
        const double angle = 2.0 * std::numbers::pi * b / kFanBearings;
        loc[b] = locble::unit_from_angle(angle) * d0;
        init_segment_gammas(sc.gam_sum, sc.gam_cnt, fp, loc[b], gamma_seed, gammas);
        if (use_gn)
            refine(sc.jtj, sc.jtr, sc.delta, fp, loc[b], gammas, progress[b],
                   kDampedSweeps);
        else
            progress[b].stopped = true;
        probe_rms[b] = moments(fp, loc[b], gammas, sc.resid).rms(count);
    }

    // Rank by probe rms, lower index first on ties and every non-finite
    // rms last. A total order, so std::sort (which does not allocate) gives
    // one ranking.
    FanResult out;
    std::iota(out.order.begin(), out.order.end(), 0);
    std::sort(out.order.begin(), out.order.end(), [&](int a, int b) {
        const double ra = probe_rms[a], rb = probe_rms[b];
        const bool fa = std::isfinite(ra), fb = std::isfinite(rb);
        if (fa != fb) return fa;
        if (fa && ra != rb) return ra < rb;
        return a < b;
    });

    // Finish: down the ranking, resume each bearing one sweep at a time
    // while it stays plausible, until kFanAccepts bearings are accepted. A
    // bearing that leaves the plausible region is set aside; if the ranking
    // runs out with none accepted, the set-aside bearings are finished in
    // rank order until one is. The first accepted bearing keeps ties, as a
    // full fan in index order would.
    double best_rms = 1e300;
    Moments best_m;
    double* resid = sc.resid;
    double* resid_best = sc.resid_spare;
    int accepted = 0;
    const auto take = [&](int b, const double* gammas) {
        const Moments m = moments(fp, loc[b], gammas, resid);
        const double rms = m.rms(count);
        if (!(rms < 1e300)) return;
        ++accepted;
        if (rms < best_rms) {
            best_rms = rms;
            best_m = m;
            out.ok = true;
            out.winner = b;
            out.loc = loc[b];
            std::copy_n(gammas, k, sc.gam_best);
            std::swap(resid, resid_best);
        }
    };
    bool set_aside[kFanBearings] = {};
    for (const int b : out.order) {
        if (accepted >= kFanAccepts) break;
        ++out.finished;
        double* gammas = sc.bearing_gammas + static_cast<std::size_t>(b) * k;
        bool in_range = plausible(fp, loc[b], gammas, max_range_m);
        while (in_range && !progress[b].done()) {
            refine(sc.jtj, sc.jtr, sc.delta, fp, loc[b], gammas, progress[b],
                   progress[b].sweeps + 1);
            in_range = plausible(fp, loc[b], gammas, max_range_m);
        }
        if (in_range)
            take(b, gammas);
        else
            set_aside[b] = true;
    }
    for (int i = 0; i < out.finished && !out.ok; ++i) {
        const int b = out.order[static_cast<std::size_t>(i)];
        if (!set_aside[b]) continue;
        double* gammas = sc.bearing_gammas + static_cast<std::size_t>(b) * k;
        if (!progress[b].done())
            refine(sc.jtj, sc.jtr, sc.delta, fp, loc[b], gammas, progress[b], kMaxSweeps);
        if (plausible(fp, loc[b], gammas, max_range_m)) take(b, gammas);
    }
    LOCBLE_COUNT("solver.multistart_finishes", out.finished);
    if (out.ok) out.stats = stats(fp, best_m, resid_best);
    return out;
}

}  // namespace locble::core::gn
