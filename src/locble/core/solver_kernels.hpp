#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

/// SIMD structure-of-arrays solver kernels with a lane-width determinism
/// contract (docs/PERFORMANCE.md "Lane kernels and the determinism
/// contract").
///
/// The solver's two hot inner loops — the Gauss-Newton normal-equation
/// accumulation and the residual/score pass — are data-parallel sweeps over
/// contiguous sample arrays. This header declares them as *lane kernels*:
/// every per-element contribution is routed to one of kAccLanes == 8
/// logical partial accumulators by its element index (`lane = i % 8`), and
/// the eight partials are combined with one fixed-order tree reduction.
/// The template parameter W only controls *physical* sub-blocking of the
/// 8-wide accumulator block, so for any W in {1, 2, 4, 8} — and for any
/// instruction set the compiler targets (scalar, SSE, AVX, NEON) — the
/// per-lane addition sequences are identical and the results bit-exact.
/// This is the same determinism idiom as the obs bucket-sum merge.
///
/// The kernels are *defined* in solver_kernels.cpp (the only TU compiled
/// with the optional AVX2 flags — see LOCBLE_KERNEL_SIMD in the top-level
/// CMakeLists.txt) and explicitly instantiated for W in {1, 2, 4, 8};
/// callers pick the build-selected width via kLaneWidth. Each lane kernel
/// has an AoS scalar-reference twin (`*_ref`) that performs the same
/// canonical 8-lane accumulation over FusedSample structs: the bench's
/// naive baseline, the cross-mode identity gate, and the anchor of the
/// W-sweep property tests (tests/core/test_solver_kernels.cpp).
///
/// Determinism rules for this file and solver_kernels.cpp (enforced by the
/// `kernel-reduce` lint rule, which ignores allow() pragmas here): no
/// OpenMP reductions, no std::execution parallel reduces, no atomic
/// floating-point accumulators — the fixed-order tree is the only allowed
/// reduction.

namespace locble::core {

struct FusedSample;
struct FusedSample3;

namespace kernels {

/// Logical partial-accumulator count of the determinism contract. Fixed
/// forever at 8: changing it changes every lane kernel's results.
inline constexpr std::size_t kAccLanes = 8;

/// Physical sub-block width the library's hot paths run with. Build-time
/// selectable (-DLOCBLE_LANE_WIDTH=1|2|4|8, default 8); by the contract
/// above the choice is performance-only, never observable in results.
#ifndef LOCBLE_LANE_WIDTH
#define LOCBLE_LANE_WIDTH 8
#endif
inline constexpr std::size_t kLaneWidth = LOCBLE_LANE_WIDTH;
static_assert(kLaneWidth >= 1 && kAccLanes % kLaneWidth == 0,
              "LOCBLE_LANE_WIDTH must be 1, 2, 4 or 8");

/// The fixed-order tree reduction of the 8 logical lanes. Every kernel
/// result is produced by exactly this expression — never a left-to-right
/// fold, never a pairwise order chosen by the compiler.
inline double reduce_lanes(const double (&acc)[kAccLanes]) {
    return ((acc[0] + acc[1]) + (acc[2] + acc[3])) +
           ((acc[4] + acc[5]) + (acc[6] + acc[7]));
}

/// Deterministic base-10 logarithm for the kernel hot loops: bit-identical
/// on every ISA (plain +,-,*,/ in a fixed order; FMA contraction is off
/// tree-wide via -ffp-contract=off) and branchless, so the surrounding
/// sample loops vectorize. Domain: finite normal x > 0 — every caller
/// clamps its argument to >= kMinDistanceSq first. Max relative error vs
/// glibc log10 is ~9e-16 over the solver's distance range (property-tested
/// in tests/core/test_solver_kernels.cpp).
inline double det_log10(double x) {
    // Decompose x = 2^e * m with m in [1, 2): the exponent field becomes a
    // double via the 2^52 magic-number trick (integer or + fp subtract —
    // vectorizes without an int64->double conversion), the mantissa via
    // bit masking.
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(x);
    const std::uint64_t expfield = bits >> 52;  // in [1, 2046] for normal x > 0
    double e = std::bit_cast<double>(expfield | 0x4330000000000000ULL) -
               (4503599627370496.0 + 1023.0);  // 2^52 + exponent bias
    double m = std::bit_cast<double>((bits & 0xfffffffffffffULL) |
                                     0x3ff0000000000000ULL);
    // Normalize m to [sqrt(1/2), sqrt(2)) with if-converted selects.
    const bool big = m > 1.4142135623730951;
    e = big ? e + 1.0 : e;
    m = big ? m * 0.5 : m;
    // atanh series: ln(m) = 2t (1 + u/3 + u^2/5 + ... + u^8/17) with
    // t = (m-1)/(m+1), u = t^2; |t| < 0.1716 keeps 9 terms past 1 ulp.
    const double t = (m - 1.0) / (m + 1.0);
    const double u = t * t;
    double poly = 1.0 / 17.0;
    poly = poly * u + 1.0 / 15.0;
    poly = poly * u + 1.0 / 13.0;
    poly = poly * u + 1.0 / 11.0;
    poly = poly * u + 1.0 / 9.0;
    poly = poly * u + 1.0 / 7.0;
    poly = poly * u + 1.0 / 5.0;
    poly = poly * u + 1.0 / 3.0;
    poly = poly * u + 1.0;
    const double ln_m = 2.0 * t * poly;
    constexpr double kLog10E = 0.43429448190325182;  // log10(e)
    constexpr double kLog102 = 0.30102999566398120;  // log10(2)
    return e * kLog102 + ln_m * kLog10E;
}

/// Normal-equation sums of one 2-D Gauss-Newton iteration at fixed
/// exponent over one segment run (a single Gamma): jacobian row
/// (jx, jy, 1) against residual r, upper triangle of JtJ plus Jtr. The
/// solver folds one of these per run into the shared x/h rows and the
/// run's Gamma row.
struct GnSums2 {
    double a00, a01, a02, a11, a12, a22;
    double r0, r1, r2;
};

/// Normal-equation sums of one 3-D Gauss-Newton iteration. When the walk
/// carries no vertical excitation (solve_z == false) the z row is frozen:
/// the *_z sums stay exactly 0.0 and the caller assembles a 3x3 system.
struct GnSums3 {
    double a_xx, a_xy, a_xz, a_x;
    double a_yy, a_yz, a_y;
    double a_zz, a_z, n;
    double r_x, r_y, r_z, r_g;
};

// --- 2-D kernels (LocationSolver, one call per segment run) -----------------
//
// LocationSolver sweeps the samples one SegmentRun at a time: every call
// below covers one run's sub-range against that segment's Gamma, and the
// solver folds the per-run results in run order. Since that call sequence
// is identical in both kernel modes and at every W, the contract holds for
// every segment count k, not only for single-segment walks.

/// SoA lane kernel: GN accumulation over (p[i], q[i], rssi[i]) at candidate
/// (x, h, gamma, exponent); c = -10 * exponent / ln(10) is the shared
/// jacobian factor the caller hoists.
template <std::size_t W>
void gn2_lanes(const double* p, const double* q, const double* rssi,
               std::size_t n, double x, double h, double gamma, double exponent,
               double c, GnSums2& out);

/// AoS scalar-reference twin: same canonical 8-lane accumulation order over
/// FusedSample structs — bit-identical to gn2_lanes<W> for every W.
void gn2_ref(const FusedSample* s, std::size_t n, double x, double h,
             double gamma, double exponent, double c, GnSums2& out);

/// SoA lane kernel: residual pass at (x, h, gamma, exponent). Writes each
/// dB residual into resid[i] and returns the lane-reduced sum and sum of
/// squares.
template <std::size_t W>
void residual2_lanes(const double* p, const double* q, const double* rssi,
                     std::size_t n, double x, double h, double gamma,
                     double exponent, double* resid, double& sum, double& ss);

void residual2_ref(const FusedSample* s, std::size_t n, double x, double h,
                   double gamma, double exponent, double* resid, double& sum,
                   double& ss);

/// Centered second moment of a residual buffer about `mean` (the stddev
/// pass of ResidualStats), lane-accumulated.
template <std::size_t W>
double centered_m2_lanes(const double* resid, std::size_t n, double mean);

double centered_m2_ref(const double* resid, std::size_t n, double mean);

/// Residual sum under a trial (gamma_seed, exponent) model over one run —
/// the per-segment Gamma initialization (mean residual offset).
template <std::size_t W>
double seed_sum_lanes(const double* p, const double* q, const double* rssi,
                      std::size_t n, double x, double h, double gamma,
                      double exponent);

double seed_sum_ref(const FusedSample* s, std::size_t n, double x, double h,
                    double gamma, double exponent);

// --- 3-D kernels (LocationSolver3) ------------------------------------------

template <std::size_t W>
void gn3_lanes(const double* p, const double* q, const double* r,
               const double* rssi, std::size_t n, double x, double h, double z,
               double gamma, double exponent, double c, bool solve_z,
               GnSums3& out);

void gn3_ref(const FusedSample3* s, std::size_t n, double x, double h, double z,
             double gamma, double exponent, double c, bool solve_z, GnSums3& out);

template <std::size_t W>
void residual3_lanes(const double* p, const double* q, const double* r,
                     const double* rssi, std::size_t n, double x, double h,
                     double z, double gamma, double exponent, double* resid,
                     double& sum, double& ss);

void residual3_ref(const FusedSample3* s, std::size_t n, double x, double h,
                   double z, double gamma, double exponent, double* resid,
                   double& sum, double& ss);

// The lane kernels are instantiated once, in solver_kernels.cpp, for every
// contract width — the library hot path links kLaneWidth, the W-sweep
// property tests link all four.
#define LOCBLE_KERNELS_EXTERN(W)                                                 \
    extern template void gn2_lanes<W>(const double*, const double*,              \
                                      const double*, std::size_t, double,        \
                                      double, double, double, double, GnSums2&); \
    extern template void residual2_lanes<W>(                                     \
        const double*, const double*, const double*, std::size_t, double,        \
        double, double, double, double*, double&, double&);                      \
    extern template double centered_m2_lanes<W>(const double*, std::size_t,      \
                                                double);                         \
    extern template double seed_sum_lanes<W>(const double*, const double*,       \
                                             const double*, std::size_t, double, \
                                             double, double, double);            \
    extern template void gn3_lanes<W>(const double*, const double*,              \
                                      const double*, const double*,              \
                                      std::size_t, double, double, double,       \
                                      double, double, double, bool, GnSums3&);   \
    extern template void residual3_lanes<W>(                                     \
        const double*, const double*, const double*, const double*,              \
        std::size_t, double, double, double, double, double, double*, double&,   \
        double&);

LOCBLE_KERNELS_EXTERN(1)
LOCBLE_KERNELS_EXTERN(2)
LOCBLE_KERNELS_EXTERN(4)
LOCBLE_KERNELS_EXTERN(8)
#undef LOCBLE_KERNELS_EXTERN

}  // namespace kernels
}  // namespace locble::core
