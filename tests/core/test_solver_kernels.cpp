#include "locble/core/solver_kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "locble/common/rng.hpp"
#include "locble/core/location_solver.hpp"
#include "locble/core/location_solver3.hpp"

// Property tests of the lane-width determinism contract
// (solver_kernels.hpp): the SoA pack mirrors the AoS stream exactly, every
// lane kernel is bit-identical to its scalar reference twin at every
// physical width, and whole solves are bit-identical across kernel modes
// and warm/cold sessions.

namespace locble::core {
namespace {

using kernels::GnSums2;
using kernels::GnSums3;
using KernelMode = LocationSolver::Config::KernelMode;

constexpr double kLn10 = 2.302585092994046;

// ---------------------------------------------------------------------------
// det_log10

TEST(DetLog10Test, ExactAtOne) {
    EXPECT_EQ(kernels::det_log10(1.0), 0.0);
}

TEST(DetLog10Test, MatchesLibmOverSolverRange) {
    // The solver evaluates log10 on squared distances clamped to
    // [kMinDistanceSq, ~max_range^2]; sweep well past both ends.
    double max_rel = 0.0;
    locble::Rng rng(7);
    for (int i = 0; i < 200000; ++i) {
        const double x = std::exp(rng.uniform(std::log(1e-4), std::log(1e8)));
        const double got = kernels::det_log10(x);
        const double want = std::log10(x);
        const double rel = std::abs(got - want) /
                           std::max(std::abs(want), 1e-30);
        max_rel = std::max(max_rel, rel);
    }
    EXPECT_LT(max_rel, 5e-15);
    // Spot-check exact powers of ten stay within 1 ulp-ish territory.
    EXPECT_NEAR(kernels::det_log10(10.0), 1.0, 1e-15);
    EXPECT_NEAR(kernels::det_log10(0.01), -2.0, 1e-14);
}

TEST(DetLog10Test, DeterministicAcrossCallSites) {
    // Same input, any call pattern -> same bits (pure function of x).
    locble::Rng rng(11);
    for (int i = 0; i < 1000; ++i) {
        const double x = std::exp(rng.uniform(std::log(0.01), std::log(1e4)));
        EXPECT_EQ(kernels::det_log10(x), kernels::det_log10(x));
    }
}

// ---------------------------------------------------------------------------
// SoA pack round-trip

std::vector<FusedSample> random_samples(std::size_t n, std::uint64_t seed,
                                        int segments = 1) {
    locble::Rng rng(seed);
    std::vector<FusedSample> out(n);
    for (std::size_t i = 0; i < n; ++i) {
        out[i].t = static_cast<double>(i) * 0.1;
        out[i].p = rng.uniform(-15.0, 15.0);
        out[i].q = rng.uniform(-15.0, 15.0);
        out[i].rssi = rng.uniform(-90.0, -40.0);
        out[i].segment =
            static_cast<int>(i * static_cast<std::size_t>(segments) / n);
    }
    return out;
}

void expect_pack_matches(const SolverWorkspace& ws,
                         const std::vector<FusedSample>& samples) {
    ASSERT_EQ(ws.packed_count(), samples.size());
    ASSERT_GE(ws.packed_p().size(), samples.size());
    ASSERT_GE(ws.packed_q().size(), samples.size());
    ASSERT_GE(ws.packed_rssi().size(), samples.size());
    for (std::size_t i = 0; i < samples.size(); ++i) {
        EXPECT_EQ(ws.packed_p()[i], samples[i].p) << i;
        EXPECT_EQ(ws.packed_q()[i], samples[i].q) << i;
        EXPECT_EQ(ws.packed_rssi()[i], samples[i].rssi) << i;
    }
    // The segment runs tile the stream in order, each run is maximal, and
    // every sample carries its run's tag.
    std::size_t next = 0;
    const auto& runs = ws.segment_runs();
    for (std::size_t r = 0; r < runs.size(); ++r) {
        EXPECT_EQ(runs[r].begin, next) << "run " << r;
        EXPECT_GE(runs[r].len, 1u) << "run " << r;
        if (r > 0) {
            EXPECT_NE(runs[r].seg, runs[r - 1].seg) << "run " << r;
        }
        for (std::size_t i = runs[r].begin;
             i < runs[r].begin + runs[r].len && i < samples.size(); ++i)
            EXPECT_EQ(samples[i].segment, runs[r].seg) << i;
        next = runs[r].begin + runs[r].len;
    }
    EXPECT_EQ(next, samples.size());
}

TEST(SoaPackTest, ColdSolveRoundTripsAoS) {
    const auto samples = random_samples(97, 21, 3);
    SolverWorkspace ws;
    LocationFit out;
    const LocationSolver solver;
    (void)solver.solve(samples, {}, nullptr, ws, out);  // fit may or may not converge
    expect_pack_matches(ws, samples);
}

TEST(SoaPackTest, IncrementalFlushesAppendExactly) {
    const auto all = random_samples(120, 22, 2);
    LocationSolver solver;
    LocationSolver::Session session(solver);
    std::vector<FusedSample> so_far;
    // Uneven batch sizes (>= min_samples so each flush actually solves),
    // including ones that are not multiples of the 8-lane block.
    const std::size_t cuts[] = {9, 30, 61, 120};
    std::size_t pos = 0;
    for (std::size_t cut : cuts) {
        for (; pos < cut; ++pos) {
            session.add(all[pos]);
            so_far.push_back(all[pos]);
        }
        (void)session.solve();
        expect_pack_matches(session.workspace(), so_far);
    }
}

TEST(SoaPackTest, NonMonotoneTagsOpenOneRunPerChange) {
    // Tags 0,1,0,2 by quarter: four runs over three segments, with the
    // flush cuts falling both inside a run and exactly on a run boundary.
    auto all = random_samples(80, 25);
    for (std::size_t i = 0; i < all.size(); ++i)
        all[i].segment = (i / 20 == 1) ? 1 : (i / 20 == 3 ? 2 : 0);
    const LocationSolver solver;
    LocationSolver::Session session(solver);
    std::vector<FusedSample> so_far;
    const std::size_t cuts[] = {12, 40, 57, 80};
    std::size_t pos = 0;
    for (std::size_t cut : cuts) {
        for (; pos < cut; ++pos) {
            session.add(all[pos]);
            so_far.push_back(all[pos]);
        }
        (void)session.solve();
        expect_pack_matches(session.workspace(), so_far);
    }
    EXPECT_EQ(session.workspace().segment_runs().size(), 4u);
}

TEST(SoaPackTest, ResetThenRefillRepacks) {
    const auto a = random_samples(40, 23);
    const auto b = random_samples(33, 24);
    LocationSolver solver;
    LocationSolver::Session session(solver);
    session.add(a);
    (void)session.solve();
    session.reset();
    session.add(b);
    (void)session.solve();
    expect_pack_matches(session.workspace(), b);
}

// ---------------------------------------------------------------------------
// W-sweep: lane kernels bit-identical to the scalar reference at every
// physical width, for counts with and without tails.

struct Problem2 {
    std::vector<FusedSample> aos;
    std::vector<double> p, q, rssi;
    double x, h, gamma, exponent, c;

    Problem2(std::size_t n, std::uint64_t seed) {
        locble::Rng rng(seed);
        aos = random_samples(n, seed ^ 0x9e3779b9ULL);
        p.resize(n);
        q.resize(n);
        rssi.resize(n);
        for (std::size_t i = 0; i < n; ++i) {
            p[i] = aos[i].p;
            q[i] = aos[i].q;
            rssi[i] = aos[i].rssi;
        }
        x = rng.uniform(-10.0, 10.0);
        h = rng.uniform(-10.0, 10.0);
        gamma = rng.uniform(-80.0, -40.0);
        exponent = rng.uniform(1.5, 4.0);
        c = -10.0 * exponent / kLn10;
    }
};

/// Every 2-D kernel over samples [b, b + n) of `pr` at Gamma `gamma`: the
/// lane kernel at width W against its scalar twin.
template <std::size_t W>
void check_range_2d(const Problem2& pr, std::size_t b, std::size_t n, double gamma) {
    SCOPED_TRACE(::testing::Message() << "W=" << W << " b=" << b << " n=" << n);
    const FusedSample* aos = pr.aos.data() + b;
    const double* p = pr.p.data() + b;
    const double* q = pr.q.data() + b;
    const double* rssi = pr.rssi.data() + b;

    GnSums2 ref{}, got{};
    kernels::gn2_ref(aos, n, pr.x, pr.h, gamma, pr.exponent, pr.c, ref);
    kernels::gn2_lanes<W>(p, q, rssi, n, pr.x, pr.h, gamma, pr.exponent, pr.c, got);
    EXPECT_EQ(got.a00, ref.a00);
    EXPECT_EQ(got.a01, ref.a01);
    EXPECT_EQ(got.a02, ref.a02);
    EXPECT_EQ(got.a11, ref.a11);
    EXPECT_EQ(got.a12, ref.a12);
    EXPECT_EQ(got.a22, ref.a22);
    EXPECT_EQ(got.r0, ref.r0);
    EXPECT_EQ(got.r1, ref.r1);
    EXPECT_EQ(got.r2, ref.r2);
    // The Gamma-column diagonal is a sum of exact ones.
    EXPECT_EQ(got.a22, static_cast<double>(n));

    std::vector<double> resid_ref(n), resid_got(n);
    double sum_ref = 0.0, ss_ref = 0.0, sum_got = 0.0, ss_got = 0.0;
    kernels::residual2_ref(aos, n, pr.x, pr.h, gamma, pr.exponent, resid_ref.data(),
                           sum_ref, ss_ref);
    kernels::residual2_lanes<W>(p, q, rssi, n, pr.x, pr.h, gamma, pr.exponent,
                                resid_got.data(), sum_got, ss_got);
    EXPECT_EQ(sum_got, sum_ref);
    EXPECT_EQ(ss_got, ss_ref);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(resid_got[i], resid_ref[i]);

    const double mean = sum_ref / static_cast<double>(n);
    EXPECT_EQ(kernels::centered_m2_lanes<W>(resid_got.data(), n, mean),
              kernels::centered_m2_ref(resid_ref.data(), n, mean));

    EXPECT_EQ(kernels::seed_sum_lanes<W>(p, q, rssi, n, pr.x, pr.h, gamma,
                                         pr.exponent),
              kernels::seed_sum_ref(aos, n, pr.x, pr.h, gamma, pr.exponent));
}

template <std::size_t W>
void check_width_2d(const Problem2& pr) {
    check_range_2d<W>(pr, 0, pr.aos.size(), pr.gamma);
}

TEST(LaneContractTest, Kernels2DBitIdenticalAcrossWidths) {
    // Counts straddling the 8-lane block: empty tails, full tails, single
    // elements, and larger sizes.
    const std::size_t counts[] = {1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 31, 64, 100, 257};
    std::uint64_t seed = 100;
    for (std::size_t n : counts) {
        const Problem2 pr(n, seed++);
        check_width_2d<1>(pr);
        check_width_2d<2>(pr);
        check_width_2d<4>(pr);
        check_width_2d<8>(pr);
    }
}

TEST(LaneContractTest, SegmentRunSweepsBitIdenticalAcrossWidths) {
    // Multi-segment solves call each kernel once per segment run, on a
    // sub-range starting at an arbitrary (unaligned) sample index and
    // against that segment's Gamma. Tag patterns for k = 2 and k = 3,
    // including non-monotone ones (more runs than segments), with run
    // lengths straddling the 8-lane block.
    const std::vector<std::vector<std::pair<int, std::size_t>>> patterns = {
        {{0, 13}, {1, 30}},                        // k = 2, monotone
        {{0, 7}, {1, 9}, {0, 17}, {1, 1}},         // k = 2, non-monotone
        {{0, 20}, {1, 3}, {2, 41}},                // k = 3, monotone
        {{0, 5}, {2, 16}, {1, 8}, {0, 11}, {2, 2}},  // k = 3, non-monotone
    };
    std::uint64_t seed = 300;
    for (const auto& pattern : patterns) {
        std::size_t n = 0;
        for (const auto& [seg, len] : pattern) n += len;
        Problem2 pr(n, seed++);
        std::size_t i = 0;
        for (const auto& [seg, len] : pattern)
            for (std::size_t j = 0; j < len; ++j) pr.aos[i++].segment = seg;

        // The runs under test are the solver's own, folded while packing.
        SolverWorkspace ws;
        LocationFit out;
        (void)LocationSolver().solve(pr.aos, {}, nullptr, ws, out);
        const auto& runs = ws.segment_runs();
        ASSERT_EQ(runs.size(), pattern.size());
        for (const SegmentRun& run : runs) {
            const double gamma = pr.gamma - 4.0 * run.seg;
            check_range_2d<1>(pr, run.begin, run.len, gamma);
            check_range_2d<2>(pr, run.begin, run.len, gamma);
            check_range_2d<4>(pr, run.begin, run.len, gamma);
            check_range_2d<8>(pr, run.begin, run.len, gamma);
        }
    }
}

struct Problem3 {
    std::vector<FusedSample3> aos;
    std::vector<double> p, q, r, rssi;
    double x, h, z, gamma, exponent, c;

    Problem3(std::size_t n, std::uint64_t seed) {
        locble::Rng rng(seed);
        aos.resize(n);
        p.resize(n);
        q.resize(n);
        r.resize(n);
        rssi.resize(n);
        for (std::size_t i = 0; i < n; ++i) {
            aos[i].p = p[i] = rng.uniform(-15.0, 15.0);
            aos[i].q = q[i] = rng.uniform(-15.0, 15.0);
            aos[i].r = r[i] = rng.uniform(-3.0, 3.0);
            aos[i].rssi = rssi[i] = rng.uniform(-90.0, -40.0);
        }
        x = rng.uniform(-10.0, 10.0);
        h = rng.uniform(-10.0, 10.0);
        z = rng.uniform(-2.0, 2.0);
        gamma = rng.uniform(-80.0, -40.0);
        exponent = rng.uniform(1.5, 4.0);
        c = -10.0 * exponent / kLn10;
    }
};

template <std::size_t W>
void check_width_3d(const Problem3& pr) {
    const std::size_t n = pr.aos.size();
    SCOPED_TRACE(::testing::Message() << "W=" << W << " n=" << n);

    for (bool solve_z : {true, false}) {
        GnSums3 ref{}, got{};
        kernels::gn3_ref(pr.aos.data(), n, pr.x, pr.h, pr.z, pr.gamma,
                         pr.exponent, pr.c, solve_z, ref);
        kernels::gn3_lanes<W>(pr.p.data(), pr.q.data(), pr.r.data(),
                              pr.rssi.data(), n, pr.x, pr.h, pr.z, pr.gamma,
                              pr.exponent, pr.c, solve_z, got);
        EXPECT_EQ(got.a_xx, ref.a_xx);
        EXPECT_EQ(got.a_xy, ref.a_xy);
        EXPECT_EQ(got.a_xz, ref.a_xz);
        EXPECT_EQ(got.a_x, ref.a_x);
        EXPECT_EQ(got.a_yy, ref.a_yy);
        EXPECT_EQ(got.a_yz, ref.a_yz);
        EXPECT_EQ(got.a_y, ref.a_y);
        EXPECT_EQ(got.a_zz, ref.a_zz);
        EXPECT_EQ(got.a_z, ref.a_z);
        EXPECT_EQ(got.n, ref.n);
        EXPECT_EQ(got.r_x, ref.r_x);
        EXPECT_EQ(got.r_y, ref.r_y);
        EXPECT_EQ(got.r_z, ref.r_z);
        EXPECT_EQ(got.r_g, ref.r_g);
        EXPECT_EQ(got.n, static_cast<double>(n));
        if (!solve_z) {
            EXPECT_EQ(got.a_xz, 0.0);
            EXPECT_EQ(got.a_yz, 0.0);
            EXPECT_EQ(got.a_zz, 0.0);
            EXPECT_EQ(got.a_z, 0.0);
            EXPECT_EQ(got.r_z, 0.0);
        }
    }

    std::vector<double> resid_ref(n), resid_got(n);
    double sum_ref = 0.0, ss_ref = 0.0, sum_got = 0.0, ss_got = 0.0;
    kernels::residual3_ref(pr.aos.data(), n, pr.x, pr.h, pr.z, pr.gamma,
                           pr.exponent, resid_ref.data(), sum_ref, ss_ref);
    kernels::residual3_lanes<W>(pr.p.data(), pr.q.data(), pr.r.data(),
                                pr.rssi.data(), n, pr.x, pr.h, pr.z, pr.gamma,
                                pr.exponent, resid_got.data(), sum_got, ss_got);
    EXPECT_EQ(sum_got, sum_ref);
    EXPECT_EQ(ss_got, ss_ref);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(resid_got[i], resid_ref[i]);
}

TEST(LaneContractTest, Kernels3DBitIdenticalAcrossWidths) {
    const std::size_t counts[] = {1, 3, 7, 8, 9, 16, 17, 40, 129};
    std::uint64_t seed = 300;
    for (std::size_t n : counts) {
        const Problem3 pr(n, seed++);
        check_width_3d<1>(pr);
        check_width_3d<2>(pr);
        check_width_3d<4>(pr);
        check_width_3d<8>(pr);
    }
}

// ---------------------------------------------------------------------------
// End-to-end identity: whole solves agree bitwise across kernel modes.

std::vector<FusedSample> noisy_l_shape(std::uint64_t seed) {
    locble::Rng rng(seed);
    std::vector<FusedSample> out;
    double t = 0.0;
    auto add = [&](double ox, double oy) {
        FusedSample s;
        s.t = t;
        t += 0.1;
        s.p = 5.0 - ox;
        s.q = 2.5 - oy;
        const double l2 = s.p * s.p + s.q * s.q;
        s.rssi = -59.0 - 5.0 * 2.1 * std::log10(std::max(l2, 0.01)) +
                 rng.gaussian(0.0, 1.5);
        out.push_back(s);
    };
    // 45 points: not a multiple of the 8-lane block.
    for (int i = 0; i < 23; ++i) add(4.0 * i / 22.0, 0.0);
    for (int i = 0; i < 22; ++i) add(4.0, 3.0 * i / 21.0);
    return out;
}

/// noisy_l_shape re-tagged into environment segments: `tags[j]` covers the
/// j-th equal slice of the walk and costs 5 dB of insertion loss per
/// segment index (Table 1's blocked environments). {0} is the plain walk;
/// a tag that repeats non-adjacently gives more runs than segments.
std::vector<FusedSample> segmented_walk(std::uint64_t seed, const std::vector<int>& tags) {
    auto out = noisy_l_shape(seed);
    for (std::size_t i = 0; i < out.size(); ++i) {
        out[i].segment = tags[i * tags.size() / out.size()];
        out[i].rssi -= 5.0 * out[i].segment;
    }
    return out;
}

/// The tag layouts every cross-mode identity test runs: k = 1, k = 2 and
/// k = 3, the last two non-monotone.
const std::vector<std::vector<int>> kTagLayouts = {{0}, {0, 1, 0}, {0, 2, 1, 2}};

std::size_t segments_of(const std::vector<int>& tags) {
    return static_cast<std::size_t>(*std::max_element(tags.begin(), tags.end())) + 1;
}

void expect_fits_identical(const LocationFit& a, const LocationFit& b) {
    EXPECT_EQ(a.location.x, b.location.x);
    EXPECT_EQ(a.location.y, b.location.y);
    EXPECT_EQ(a.exponent, b.exponent);
    EXPECT_EQ(a.gamma_dbm, b.gamma_dbm);
    EXPECT_EQ(a.residual_db, b.residual_db);
    EXPECT_EQ(a.confidence, b.confidence);
    EXPECT_EQ(a.ambiguous, b.ambiguous);
    ASSERT_EQ(a.segment_gammas.size(), b.segment_gammas.size());
    for (std::size_t i = 0; i < a.segment_gammas.size(); ++i)
        EXPECT_EQ(a.segment_gammas[i], b.segment_gammas[i]);
}

void expect_cold_identical_across_modes(const std::vector<FusedSample>& samples,
                                        LocationSolver::SearchMode search) {
    LocationSolver::Config lanes_cfg;
    lanes_cfg.search_mode = search;
    lanes_cfg.kernel_mode = KernelMode::lanes;
    LocationSolver::Config ref_cfg = lanes_cfg;
    ref_cfg.kernel_mode = KernelMode::scalar_reference;

    const auto fit_lanes = LocationSolver(lanes_cfg).solve(samples);
    const auto fit_ref = LocationSolver(ref_cfg).solve(samples);
    ASSERT_TRUE(fit_lanes.has_value());
    ASSERT_TRUE(fit_ref.has_value());
    expect_fits_identical(*fit_lanes, *fit_ref);
}

TEST(KernelModeTest, ColdSolveBitIdenticalAcrossModes) {
    for (const auto& tags : kTagLayouts) {
        SCOPED_TRACE(::testing::Message() << "k=" << segments_of(tags));
        const auto samples = segmented_walk(41, tags);
        expect_cold_identical_across_modes(samples, LocationSolver::SearchMode::exhaustive);
        expect_cold_identical_across_modes(samples,
                                           LocationSolver::SearchMode::coarse_to_fine);
        const auto fit = LocationSolver().solve(samples);
        ASSERT_TRUE(fit.has_value());
        EXPECT_EQ(fit->segment_gammas.size(), segments_of(tags));
    }
}

TEST(KernelModeTest, Solver3BitIdenticalAcrossModes) {
    // A walk with vertical excitation so the z row is live.
    locble::Rng rng(43);
    std::vector<FusedSample3> samples;
    double t = 0.0;
    for (int i = 0; i < 45; ++i) {
        FusedSample3 s;
        s.t = t;
        t += 0.1;
        const double ox = 4.0 * i / 44.0;
        const double oz = (i < 22) ? 0.0 : 1.2;
        s.p = 5.0 - ox;
        s.q = 2.5;
        s.r = 1.0 - oz;
        const double l2 = s.p * s.p + s.q * s.q + s.r * s.r;
        s.rssi = -59.0 - 5.0 * 2.0 * std::log10(std::max(l2, 0.01)) +
                 rng.gaussian(0.0, 1.0);
        samples.push_back(s);
    }
    LocationSolver3::Config lanes_cfg;
    lanes_cfg.base.kernel_mode = KernelMode::lanes;
    LocationSolver3::Config ref_cfg = lanes_cfg;
    ref_cfg.base.kernel_mode = KernelMode::scalar_reference;

    const auto fit_lanes = LocationSolver3(lanes_cfg).solve(samples);
    const auto fit_ref = LocationSolver3(ref_cfg).solve(samples);
    ASSERT_TRUE(fit_lanes.has_value());
    ASSERT_TRUE(fit_ref.has_value());
    EXPECT_EQ(fit_lanes->location.x, fit_ref->location.x);
    EXPECT_EQ(fit_lanes->location.y, fit_ref->location.y);
    EXPECT_EQ(fit_lanes->location.z, fit_ref->location.z);
    EXPECT_EQ(fit_lanes->gamma_dbm, fit_ref->gamma_dbm);
    EXPECT_EQ(fit_lanes->residual_db, fit_ref->residual_db);
    EXPECT_EQ(fit_lanes->confidence, fit_ref->confidence);
}

/// Exhaustive-mode contract: a warm Session solve equals a cold solve over
/// the same accumulated samples; returns the warm fit.
std::optional<LocationFit> session_fit(const std::vector<FusedSample>& all,
                                       KernelMode mode) {
    LocationSolver::Config cfg;
    cfg.search_mode = LocationSolver::SearchMode::exhaustive;
    cfg.kernel_mode = mode;
    const LocationSolver solver(cfg);

    LocationSolver::Session session(solver);
    std::optional<LocationFit> warm;
    const std::size_t cuts[] = {11, 27, all.size()};
    std::size_t pos = 0;
    for (std::size_t cut : cuts) {
        for (; pos < cut; ++pos) session.add(all[pos]);
        warm = session.solve();
    }
    const auto cold = solver.solve(all);
    EXPECT_TRUE(warm.has_value());
    EXPECT_TRUE(cold.has_value());
    if (warm && cold) expect_fits_identical(*warm, *cold);
    return warm;
}

TEST(KernelModeTest, SessionWarmBitIdenticalToColdInBothModes) {
    // Warm == cold in each kernel mode, and both modes agree. The flush
    // cuts fall inside runs, so a flush extends the previous flush's last
    // run rather than opening a new one.
    for (const auto& tags : kTagLayouts) {
        SCOPED_TRACE(::testing::Message() << "k=" << segments_of(tags));
        const auto all = segmented_walk(47, tags);
        const auto lanes = session_fit(all, KernelMode::lanes);
        const auto ref = session_fit(all, KernelMode::scalar_reference);
        ASSERT_TRUE(lanes.has_value());
        ASSERT_TRUE(ref.has_value());
        expect_fits_identical(*lanes, *ref);
    }
}

// ---------------------------------------------------------------------------
// Single-segment goldens: a single-run walk takes exactly the kernel sums
// the solver folded before segment runs existed (a lane-reduced sum is
// never -0.0, so 0.0 + sum == sum), so these fits are pinned bit-for-bit.
// Captured on x86-64 / glibc; the linear seed's std::pow/std::log10 are
// the only libm calls on the path.

/// An observer walk toward/around a target at (5, 2.5): `n1` points along
/// +x, then `n2` points turning +y (`lateral`) or continuing along +x.
std::vector<FusedSample> golden_walk(std::uint64_t seed, bool lateral, int n1, int n2) {
    locble::Rng rng(seed);
    std::vector<FusedSample> out;
    double t = 0.0;
    auto add = [&](double ox, double oy) {
        FusedSample s;
        s.t = t;
        t += 0.1;
        s.p = 5.0 - ox;
        s.q = 2.5 - oy;
        const double l2 = s.p * s.p + s.q * s.q;
        s.rssi = -59.0 - 5.0 * 2.1 * std::log10(std::max(l2, 0.01)) +
                 rng.gaussian(0.0, 1.5);
        out.push_back(s);
    };
    for (int i = 0; i < n1; ++i) add(4.0 * i / (n1 - 1.0), 0.0);
    for (int i = 0; i < n2; ++i) {
        const double leg2 = 3.0 * i / (n2 - 1.0);
        add(4.0 + (lateral ? 0.0 : leg2), lateral ? leg2 : 0.0);
    }
    return out;
}

struct Golden {
    double x, y, exponent, gamma, residual, confidence;
    bool ambiguous;
};

void expect_golden(const std::optional<LocationFit>& fit, const Golden& g) {
    ASSERT_TRUE(fit.has_value());
    EXPECT_EQ(fit->location.x, g.x);
    EXPECT_EQ(fit->location.y, g.y);
    EXPECT_EQ(fit->exponent, g.exponent);
    EXPECT_EQ(fit->gamma_dbm, g.gamma);
    EXPECT_EQ(fit->residual_db, g.residual);
    EXPECT_EQ(fit->confidence, g.confidence);
    EXPECT_EQ(fit->ambiguous, g.ambiguous);
    ASSERT_EQ(fit->segment_gammas.size(), 1u);
    EXPECT_EQ(fit->segment_gammas[0], g.gamma);
}

TEST(SingleSegmentGoldenTest, ExhaustiveColdLShape) {
    expect_golden(LocationSolver().solve(golden_walk(41, true, 23, 22)),
                  {0x1.7c7767e6386ap-2, 0x1.3a80a9300af06p-3, 0x1.3fffffffffffdp+1,
                   -0x1.c02ecfdffe2eap+5, 0x1.55d9bbaf3ae5ap+0, 0x1p+0, false});
}

TEST(SingleSegmentGoldenTest, CoarseWarmSessionWithGammaBand) {
    LocationSolver::Config cfg;
    cfg.search_mode = LocationSolver::SearchMode::coarse_to_fine;
    const LocationSolver solver(cfg);
    LocationSolver::Session session(solver);
    SolveHints hints;
    hints.gamma_band_dbm = std::make_pair(-65.0, -53.0);
    const auto all = golden_walk(53, true, 30, 27);
    std::optional<LocationFit> fit;
    const std::size_t cuts[] = {16, 35, all.size()};
    std::size_t pos = 0;
    for (std::size_t cut : cuts) {
        for (; pos < cut; ++pos) session.add(all[pos]);
        fit = session.solve(hints);
    }
    expect_golden(fit, {0x1.8e6cc4dfbc357p-4, 0x1.0e85f87666e75p-6, 0x1.0666666666667p+1,
                        -0x1.d354a758ef2ecp+5, 0x1.6afe42dc7255cp+0, 0x1p+0, false});
}

TEST(SingleSegmentGoldenTest, StraightWalkWithModelAveraging) {
    LocationSolver::Config cfg;
    cfg.use_model_averaging = true;
    expect_golden(LocationSolver(cfg).solve(golden_walk(67, false, 20, 19)),
                  {-0x1.413b8ed0f5cd7p-4, 0x1.501ae359b1f99p+0, 0x1.e565471fef308p+1,
                   -0x1.d4a021b293349p+5, 0x1.9e23127518641p+3, 0x1.94457aef9f57fp-79,
                   true});
}

}  // namespace
}  // namespace locble::core
