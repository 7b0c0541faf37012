#pragma once

#include <array>
#include <cmath>
#include <cstddef>

#include "locble/common/vec2.hpp"
#include "locble/core/location_solver.hpp"

/// The Gauss-Newton half of LocationSolver's Eq. 5 search: at one fixed
/// exponent, the dB-domain refinement of (x, h, Gamma_1..Gamma_k), the
/// per-segment Gamma seed, residual scoring, and the 8-bearing multistart
/// fan a grid point falls back to when its linear seed fails. Everything
/// here is allocation-free over caller-owned scratch (SolverWorkspace in
/// production). The solver is the only production caller; the header is
/// separate so the fan tests (tests/core/test_multistart_fan.cpp) can hold
/// the fan to a full-refine oracle built from the same pieces.
namespace locble::core::gn {

using KernelMode = LocationSolver::Config::KernelMode;

/// The sample stream as the kernels see it: the packed structure-of-arrays
/// mirror (lanes mode), the AoS span (scalar_reference mode), and the
/// segment runs tiling both. Both cover the same `count` samples.
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

/// One exponent's fit: the samples, the fixed exponent, and the band the
/// k per-segment Gammas (Sec. 5's Gamma(e)) are projected into.
struct FitProblem {
    SampleView v;
    double exponent;
    std::size_t k;
    double gamma_min;
    double gamma_max;
};

/// Sweep cap of one refine, and how many opening sweeps carry Levenberg
/// damping (the "damped phase").
inline constexpr int kMaxSweeps = 12;
inline constexpr int kDampedSweeps = 3;

/// How far a refine has run. A refine resumed from a saved progress (with
/// its location and Gammas) continues exactly where it stopped: running
/// sweeps [0, 3) and then [3, 12) is bit-identical to running [0, 12).
struct RefineProgress {
    int sweeps{0};         ///< sweeps run so far
    bool stopped{false};   ///< stopped early: converged step or singular system
    bool done() const { return stopped || sweeps >= kMaxSweeps; }
};

/// Run Gauss-Newton sweeps on (location, gammas) until `sweep_end` (capped
/// at kMaxSweeps) or an early stop. `jtj` (dim*dim), `jtr` and `delta`
/// (dim each, dim = 2 + k) are caller-sized scratch.
void refine(double* jtj, double* jtr, double* delta, const FitProblem& fp,
            locble::Vec2& location, double* gammas, RefineProgress& progress,
            int sweep_end);

/// Seed the k per-segment Gammas at `location`: each segment's offset is
/// the mean residual of its samples under `gamma_seed`, clamped to the
/// band. `sum`/`cnt` are caller-provided scratch of k entries each.
void init_segment_gammas(double* sum, std::size_t* cnt, const FitProblem& fp,
                         const locble::Vec2& location, double gamma_seed,
                         double* gammas);

/// The plausibility screen of every candidate fit: inside radio range and
/// every Gamma inside the band.
bool plausible(const FitProblem& fp, const locble::Vec2& location,
               const double* gammas, double max_range_m);

/// Residual sum and sum of squares of one candidate — all a comparison
/// between candidates needs. The residuals are parked in `resid` (count
/// entries) for stats().
struct Moments {
    double sum{0.0};
    double ss{0.0};
    double rms(std::size_t count) const {
        return std::sqrt(ss / static_cast<double>(count));
    }
};
Moments moments(const FitProblem& fp, const locble::Vec2& location,
                const double* gammas, double* resid);

/// Full residual statistics (mean, stddev, rms, confidence) from a
/// candidate's moments and the residuals moments() parked for it.
ResidualStats stats(const FitProblem& fp, const Moments& m, const double* resid);

/// Bearings of the multistart fan (evenly spaced, bearing b at 2 pi b / 8),
/// and how many accepted bearings end the walk down the ranking.
inline constexpr int kFanBearings = 8;
inline constexpr int kFanAccepts = 3;

/// Scratch one fan writes into.
struct FanScratch {
    double* jtj;             ///< dim * dim (dim = 2 + k)
    double* jtr;             ///< dim
    double* delta;           ///< dim
    double* gam_sum;         ///< k
    std::size_t* gam_cnt;    ///< k
    double* bearing_gammas;  ///< kFanBearings * k, bearing-major
    double* resid;           ///< count
    double* resid_spare;     ///< count
    double* gam_best;        ///< k: receives the winner's Gammas
};

struct FanResult {
    bool ok{false};  ///< some finished bearing was accepted
    locble::Vec2 loc{};
    ResidualStats stats{};
    // The solver reads only the fields above; the ones below let the fan
    // tests hold the walk to a full-refine oracle.
    int winner{-1};  ///< the accepted bearing with the lowest rms
    /// Bearings by rms after the damped phase (ties: lower index first,
    /// non-finite rms last); order[0, finished) were walked: each one
    /// finished or set aside.
    std::array<int, kFanBearings> order{};
    int finished{0};
};

/// The multistart fan: bearing b starts at unit(2 pi b / 8) * d0 with
/// Gammas seeded from `gamma_seed`. Probe, then finish: every bearing runs
/// the damped phase and the bearings are ranked by rms. Down the ranking,
/// each bearing is resumed one sweep at a time while it stays plausible,
/// until kFanAccepts bearings are accepted (plausible at the end, with an
/// rms below 1e300). A bearing that leaves the plausible region is set
/// aside; if no bearing is accepted, the set-aside ones are finished in
/// rank order until one is. So the fan fails exactly when refining all 8
/// bearings to the end would, and each accepted bearing is bit-identical
/// to that full refine. With `use_gn` false nothing is refined and the
/// result is the best accepted start, as in a full fan.
FanResult multistart_fan(const FitProblem& fp, const FanScratch& scratch, double d0,
                         double gamma_seed, double max_range_m, bool use_gn);

}  // namespace locble::core::gn
