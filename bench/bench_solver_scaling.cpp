// Solver hot-path scaling: naive cold re-solve per batch flush versus the
// incremental SolverWorkspace Session (ISSUE 3 tentpole).
//
// The pipeline's per-batch pattern is "append a batch, re-solve the whole
// accumulated regression". The naive baseline pays the full cold cost at
// every flush; the Session folds only the new samples into the
// per-exponent state (rho powers, linear-seed normal equations, sample
// aggregates) and, in coarse_to_fine mode, warm-starts Gauss-Newton from
// the previous flush's fit while scanning the exponent grid coarse-first.
//
// Sweep: samples-per-batch x batches x exponent-grid size, plus one walk
// that crosses three environment segments (one Gamma each, Table 1's
// blocked environments) so the multi-segment path is timed and identity-
// checked too. For each point we report the per-walk wall time of
//   naive   — cold LocationSolver::solve over the accumulated samples in
//             KernelMode::scalar_reference (the AoS scalar twins — the
//             pre-lane-kernel implementation),
//   incr    — Session in exhaustive mode on the production lane kernels
//             (bit-identical results by the determinism contract),
//   coarse  — Session in coarse_to_fine mode (the production fast path),
// plus the speedup ratios. speedup_exhaustive therefore measures the lane
// kernels *and* incremental reuse against the scalar cold baseline, and
// `exhaustive_identical` doubles as the end-to-end cross-mode identity
// gate of solver_kernels.hpp. The headline gate (CI) is the largest
// point's coarse ratio; medium+ points also gate speedup_exhaustive.
//
// A kernel.* micro-section times the raw gn2/residual2 kernels (scalar
// reference vs lane kernels at the build's kLaneWidth) on a synthetic SoA
// problem, isolating the SIMD win from the incremental one.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "locble/common/rng.hpp"
#include "locble/common/table.hpp"
#include "locble/core/location_solver.hpp"

using namespace locble;
using core::FusedSample;
using core::LocationFit;
using core::LocationSolver;

namespace {

struct SweepPoint {
    const char* key;
    int per_batch;
    int batches;
    double exponent_step;  // grid resolution: points ~ 4.8 / step
    int segments{1};       // environment segments the walk crosses, in thirds
};

/// Insertion loss (dB) per environment segment of a multi-segment walk:
/// open, then blocked (a Table 1 NLoS environment), then partly open.
constexpr double kSegmentLossDb[] = {0.0, 8.0, 3.0};

/// Noisy L-walk RSS stream split into per-flush batches.
std::vector<std::vector<FusedSample>> make_batches(const SweepPoint& pt,
                                                   std::uint64_t seed) {
    locble::Rng rng(seed);
    const locble::Vec2 target{5.0, 2.0};
    const int total = pt.per_batch * pt.batches;
    const int half = total / 2;
    std::vector<std::vector<FusedSample>> out(pt.batches);
    for (int i = 0; i < total; ++i) {
        // L-shape: first half along +x, second half along +y.
        locble::Vec2 obs;
        if (i < half) {
            obs = {4.0 * i / std::max(half - 1, 1), 0.0};
        } else {
            obs = {4.0, 3.0 * (i - half) / std::max(total - half - 1, 1)};
        }
        FusedSample s;
        s.t = 0.1 * i;
        s.p = -obs.x;
        s.q = -obs.y;
        s.segment = i * pt.segments / total;
        const double l = locble::Vec2::distance(target, obs);
        s.rssi = -59.0 - 10.0 * 2.1 * std::log10(std::max(l, 0.1)) +
                 rng.gaussian(0.0, 3.0) - kSegmentLossDb[s.segment];
        out[i / pt.per_batch].push_back(s);
    }
    return out;
}

double now_us() {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

bool bitwise_equal(const LocationFit& a, const LocationFit& b) {
    return a.location.x == b.location.x && a.location.y == b.location.y &&
           a.exponent == b.exponent && a.gamma_dbm == b.gamma_dbm &&
           a.residual_db == b.residual_db && a.confidence == b.confidence &&
           a.ambiguous == b.ambiguous && a.segment_gammas == b.segment_gammas;
}

struct ModeResult {
    double us{1e300};              // best-of-trials wall time for the whole walk
    std::vector<double> trial_us;  // per-trial wall times, in trial order
    LocationFit fit;
    bool got_fit{false};
};

/// Median of per-trial ratios a/b. Each trial times both modes
/// back-to-back, so transient machine load cancels inside the ratio —
/// far more stable on a busy host than a ratio of independent minima.
double median_ratio(const ModeResult& a, const ModeResult& b) {
    std::vector<double> r;
    for (std::size_t i = 0; i < a.trial_us.size() && i < b.trial_us.size(); ++i)
        r.push_back(a.trial_us[i] / b.trial_us[i]);
    std::sort(r.begin(), r.end());
    if (r.empty()) return 0.0;
    const std::size_t n = r.size();
    return n % 2 ? r[n / 2] : 0.5 * (r[n / 2 - 1] + r[n / 2]);
}

/// One walk with all three modes advanced in lockstep: at every flush the
/// naive cold solve, the exhaustive Session solve, and the coarse Session
/// solve run back-to-back (milliseconds apart), so transient machine load
/// inflates all three near-identically and cancels out of the per-trial
/// time ratios. Accumulates each mode's total solve time for the walk.
void run_pass(const std::vector<std::vector<FusedSample>>& batches,
              const LocationSolver& naive_solver, const LocationSolver& exhaustive,
              const LocationSolver& coarse_solver, ModeResult& naive,
              ModeResult& incr, ModeResult& coarse) {
    LocationSolver::Session incr_session(exhaustive);
    LocationSolver::Session coarse_session(coarse_solver);
    std::vector<FusedSample> accumulated;
    double t_naive = 0.0, t_incr = 0.0, t_coarse = 0.0;
    naive.got_fit = incr.got_fit = coarse.got_fit = false;
    for (const auto& batch : batches) {
        accumulated.insert(accumulated.end(), batch.begin(), batch.end());
        incr_session.add(batch);
        coarse_session.add(batch);

        double t0 = now_us();
        if (auto fit = naive_solver.solve(accumulated)) {
            naive.fit = std::move(*fit);
            naive.got_fit = true;
        }
        t_naive += now_us() - t0;

        t0 = now_us();
        incr.got_fit = incr_session.solve_into(incr.fit) || incr.got_fit;
        t_incr += now_us() - t0;

        t0 = now_us();
        coarse.got_fit = coarse_session.solve_into(coarse.fit) || coarse.got_fit;
        t_coarse += now_us() - t0;
    }
    naive.trial_us.push_back(t_naive);
    incr.trial_us.push_back(t_incr);
    coarse.trial_us.push_back(t_coarse);
    naive.us = std::min(naive.us, t_naive);
    incr.us = std::min(incr.us, t_incr);
    coarse.us = std::min(coarse.us, t_coarse);
}

/// Min-over-trials for all three lockstep modes; one untimed warm-up pass.
void run_point(const std::vector<std::vector<FusedSample>>& batches,
               const LocationSolver& naive_solver, const LocationSolver& exhaustive,
               const LocationSolver& coarse_solver, int trials, ModeResult& naive,
               ModeResult& incr, ModeResult& coarse) {
    ModeResult warmup_n, warmup_i, warmup_c;
    run_pass(batches, naive_solver, exhaustive, coarse_solver, warmup_n, warmup_i,
             warmup_c);
    for (int trial = 0; trial < trials; ++trial)
        run_pass(batches, naive_solver, exhaustive, coarse_solver, naive, incr,
                 coarse);
}

/// Raw-kernel micro-benchmark: the GN accumulation and residual pass on a
/// synthetic SoA problem, scalar reference vs the build's lane width. The
/// checksum of every timed pass is folded into the report so the compiler
/// cannot discard the loops.
void bench_kernels(bench::Runner& runner, int trials) {
    constexpr std::size_t kN = 4096;
    constexpr std::size_t kReps = 64;
    locble::Rng rng(runner.sweep_seed(9));
    std::vector<core::FusedSample> aos(kN);
    std::vector<double> p(kN), q(kN), rssi(kN), resid(kN);
    for (std::size_t i = 0; i < kN; ++i) {
        aos[i].p = p[i] = rng.uniform(-15.0, 15.0);
        aos[i].q = q[i] = rng.uniform(-15.0, 15.0);
        aos[i].rssi = rssi[i] = rng.uniform(-90.0, -40.0);
    }
    const double x = 5.0, h = 2.0, gamma = -59.0, exponent = 2.1;
    const double c = -10.0 * exponent / 2.302585092994046;
    constexpr std::size_t kW = core::kernels::kLaneWidth;

    double gn_ref_us = 1e300, gn_lanes_us = 1e300;
    double res_ref_us = 1e300, res_lanes_us = 1e300;
    double checksum = 0.0;
    for (int trial = 0; trial < trials + 1; ++trial) {  // first pass warms up
        double t0 = now_us();
        for (std::size_t rep = 0; rep < kReps; ++rep) {
            core::kernels::GnSums2 s{};
            core::kernels::gn2_ref(aos.data(), kN, x, h, gamma, exponent, c, s);
            checksum += s.r0;
        }
        const double t_gn_ref = now_us() - t0;

        t0 = now_us();
        for (std::size_t rep = 0; rep < kReps; ++rep) {
            core::kernels::GnSums2 s{};
            core::kernels::gn2_lanes<kW>(p.data(), q.data(), rssi.data(), kN, x,
                                         h, gamma, exponent, c, s);
            checksum += s.r0;
        }
        const double t_gn_lanes = now_us() - t0;

        t0 = now_us();
        for (std::size_t rep = 0; rep < kReps; ++rep) {
            double sum = 0.0, ss = 0.0;
            core::kernels::residual2_ref(aos.data(), kN, x, h, gamma, exponent,
                                         resid.data(), sum, ss);
            checksum += ss;
        }
        const double t_res_ref = now_us() - t0;

        t0 = now_us();
        for (std::size_t rep = 0; rep < kReps; ++rep) {
            double sum = 0.0, ss = 0.0;
            core::kernels::residual2_lanes<kW>(p.data(), q.data(), rssi.data(),
                                               kN, x, h, gamma, exponent,
                                               resid.data(), sum, ss);
            checksum += ss;
        }
        const double t_res_lanes = now_us() - t0;

        if (trial == 0) continue;
        gn_ref_us = std::min(gn_ref_us, t_gn_ref);
        gn_lanes_us = std::min(gn_lanes_us, t_gn_lanes);
        res_ref_us = std::min(res_ref_us, t_res_ref);
        res_lanes_us = std::min(res_lanes_us, t_res_lanes);
    }

    const double per = 1e3 / (static_cast<double>(kN) * kReps);  // us -> ns/sample
    std::printf("kernels (n=%zu, W=%zu): gn2 %.2f -> %.2f ns/sample (x%.2f), "
                "residual2 %.2f -> %.2f ns/sample (x%.2f)\n\n",
                kN, kW, gn_ref_us * per, gn_lanes_us * per,
                gn_ref_us / gn_lanes_us, res_ref_us * per, res_lanes_us * per,
                res_ref_us / res_lanes_us);
    runner.report().add_scalar("kernel.gn2_ref_ns_per_sample", gn_ref_us * per);
    runner.report().add_scalar("kernel.gn2_lanes_ns_per_sample", gn_lanes_us * per);
    runner.report().add_scalar("kernel.gn2_speedup", gn_ref_us / gn_lanes_us);
    runner.report().add_scalar("kernel.residual2_ref_ns_per_sample",
                               res_ref_us * per);
    runner.report().add_scalar("kernel.residual2_lanes_ns_per_sample",
                               res_lanes_us * per);
    runner.report().add_scalar("kernel.residual2_speedup",
                               res_ref_us / res_lanes_us);
    runner.report().add_scalar("kernel.checksum", checksum);
}

}  // namespace

int main(int argc, char** argv) {
    const auto opt = bench::parse_options(argc, argv);
    bench::Runner runner("solver_scaling", opt, 47000);

    bench::print_header(
        "Solver scaling — naive cold re-solve vs incremental Session",
        "per-flush walk cost; 'incr' is bit-identical exhaustive, 'coarse' is "
        "the coarse_to_fine warm-started production fast path");

    const SweepPoint sweep[] = {
        {"small", 8, 4, 0.1},
        {"medium", 16, 8, 0.05},
        {"large", 24, 12, 0.05},
        {"xlarge", 24, 24, 0.025},
        // A walk across three environments (one Gamma each): the
        // run-blocked multi-segment kernel path.
        {"multiseg", 24, 12, 0.05, 3},
    };
    const int trials = runner.trials_or(5);

    TextTable table({"point", "samples", "grid", "naive us", "incr us", "coarse us",
                     "x incr", "x coarse"});
    const char* largest_key = "xlarge";

    for (std::size_t i = 0; i < std::size(sweep); ++i) {
        const auto& pt = sweep[i];
        const auto batches = make_batches(pt, runner.sweep_seed(i));

        LocationSolver::Config cfg;
        cfg.exponent_step = pt.exponent_step;
        const LocationSolver exhaustive(cfg);
        // The naive baseline runs the scalar-reference kernels: its fits
        // must still match the lane-kernel Session bitwise (the cross-mode
        // identity gate).
        LocationSolver::Config naive_cfg = cfg;
        naive_cfg.kernel_mode = LocationSolver::Config::KernelMode::scalar_reference;
        const LocationSolver naive_solver(naive_cfg);
        LocationSolver::Config coarse_cfg = cfg;
        coarse_cfg.search_mode = LocationSolver::SearchMode::coarse_to_fine;
        const LocationSolver coarse_solver(coarse_cfg);

        ModeResult naive, incr, coarse;
        run_point(batches, naive_solver, exhaustive, coarse_solver, trials, naive,
                  incr, coarse);

        const bool identical = naive.got_fit == incr.got_fit &&
                               (!naive.got_fit || bitwise_equal(naive.fit, incr.fit));
        double coarse_err = 0.0;
        if (naive.got_fit && coarse.got_fit)
            coarse_err = locble::Vec2::distance(naive.fit.location, coarse.fit.location);

        const double x_incr = median_ratio(naive, incr);
        const double x_coarse = median_ratio(naive, coarse);
        const int grid = static_cast<int>((cfg.exponent_max - cfg.exponent_min) /
                                          cfg.exponent_step) + 1;
        table.add_row(pt.key,
                      {static_cast<double>(pt.per_batch * pt.batches),
                       static_cast<double>(grid), naive.us, incr.us, coarse.us,
                       x_incr, x_coarse},
                      2);

        const std::string k(pt.key);
        runner.report().add_scalar(k + ".samples", pt.per_batch * pt.batches);
        runner.report().add_scalar(k + ".grid_points", grid);
        runner.report().add_scalar(k + ".batches", pt.batches);
        runner.report().add_scalar(k + ".segments", pt.segments);
        runner.report().add_scalar(k + ".naive_us", naive.us);
        runner.report().add_scalar(k + ".incremental_us", incr.us);
        runner.report().add_scalar(k + ".coarse_us", coarse.us);
        runner.report().add_scalar(k + ".speedup_exhaustive", x_incr);
        runner.report().add_scalar(k + ".speedup_coarse_warm", x_coarse);
        runner.report().add_scalar(k + ".exhaustive_identical", identical ? 1.0 : 0.0);
        runner.report().add_scalar(k + ".coarse_location_delta_m", coarse_err);
        if (!identical)
            std::printf("WARNING: %s exhaustive incremental != naive!\n", pt.key);
    }
    std::printf("%s\n", table.str().c_str());
    bench_kernels(runner, trials);
    runner.report().add_scalar("lane_width",
                               static_cast<double>(core::kernels::kLaneWidth));
    runner.report().add_text("largest_point", largest_key);
    std::printf("headline (CI gate): %s.speedup_coarse_warm — the incremental\n"
                "warm-started production path vs naive cold re-solve\n\n",
                largest_key);
    return runner.finish();
}
