#include "locble/core/location_solver.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <numbers>

#include "locble/common/rng.hpp"
#include "locble/common/vec2.hpp"
#include "locble/obs/obs.hpp"

namespace locble::core {
namespace {

using locble::Vec2;

/// Generate noiseless samples for a stationary target at `target` while the
/// observer walks an L-shape (leg1 along +x, leg2 along +y), under the
/// model RS = gamma - 10 n log10(l).
std::vector<FusedSample> l_shape_samples(const Vec2& target, double gamma, double n,
                                         double leg1 = 4.0, double leg2 = 3.0,
                                         int points_per_leg = 20,
                                         double noise_db = 0.0,
                                         std::uint64_t seed = 1) {
    locble::Rng rng(seed);
    std::vector<FusedSample> out;
    auto add = [&](const Vec2& obs, double t) {
        FusedSample s;
        s.t = t;
        s.p = -obs.x;  // stationary target: p = -a_i
        s.q = -obs.y;
        const double l = locble::Vec2::distance(target, obs);
        s.rssi = gamma - 10.0 * n * std::log10(std::max(l, 0.1)) +
                 (noise_db > 0.0 ? rng.gaussian(0.0, noise_db) : 0.0);
        out.push_back(s);
    };
    double t = 0.0;
    for (int i = 0; i < points_per_leg; ++i, t += 0.1)
        add({leg1 * i / (points_per_leg - 1.0), 0.0}, t);
    for (int i = 0; i < points_per_leg; ++i, t += 0.1)
        add({leg1, leg2 * i / (points_per_leg - 1.0)}, t);
    return out;
}

TEST(LocationSolverTest, ExactRecoveryOnCleanLShape) {
    const Vec2 target{5.0, 2.0};
    const auto samples = l_shape_samples(target, -59.0, 2.0);
    const auto fit = LocationSolver().solve(samples);
    ASSERT_TRUE(fit.has_value());
    EXPECT_FALSE(fit->ambiguous);
    EXPECT_NEAR(fit->location.x, 5.0, 0.1);
    EXPECT_NEAR(fit->location.y, 2.0, 0.1);
    EXPECT_NEAR(fit->exponent, 2.0, 0.1);
    EXPECT_NEAR(fit->gamma_dbm, -59.0, 1.0);
    EXPECT_LT(fit->residual_db, 0.2);
    EXPECT_GT(fit->confidence, 0.9);
}

TEST(LocationSolverTest, RecoversNegativeH) {
    const Vec2 target{4.0, -3.0};
    const auto samples = l_shape_samples(target, -59.0, 2.0);
    const auto fit = LocationSolver().solve(samples);
    ASSERT_TRUE(fit.has_value());
    EXPECT_NEAR(fit->location.y, -3.0, 0.2);
}

TEST(LocationSolverTest, RecoversVariousExponents) {
    for (double n : {1.8, 2.4, 3.0, 3.6}) {
        const Vec2 target{6.0, 3.0};
        const auto samples = l_shape_samples(target, -62.0, n);
        const auto fit = LocationSolver().solve(samples);
        ASSERT_TRUE(fit.has_value()) << "n=" << n;
        EXPECT_NEAR(fit->exponent, n, 0.15) << "n=" << n;
        EXPECT_NEAR(fit->location.x, 6.0, 0.3) << "n=" << n;
        EXPECT_NEAR(fit->location.y, 3.0, 0.3) << "n=" << n;
    }
}

TEST(LocationSolverTest, RobustToModerateNoise) {
    const Vec2 target{5.0, 3.0};
    double total_err = 0.0;
    int runs = 0;
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        const auto samples =
            l_shape_samples(target, -59.0, 2.0, 4.0, 3.0, 25, 1.5, seed);
        const auto fit = LocationSolver().solve(samples);
        ASSERT_TRUE(fit.has_value());
        total_err += locble::Vec2::distance(fit->location, target);
        ++runs;
    }
    EXPECT_LT(total_err / runs, 1.5);
}

TEST(LocationSolverTest, StraightWalkIsAmbiguous) {
    const Vec2 target{5.0, 3.0};
    std::vector<FusedSample> samples;
    for (int i = 0; i < 40; ++i) {
        const Vec2 obs{0.15 * i, 0.0};
        FusedSample s;
        s.t = 0.1 * i;
        s.p = -obs.x;
        s.q = 0.0;
        s.rssi = -59.0 - 20.0 * std::log10(locble::Vec2::distance(target, obs));
        samples.push_back(s);
    }
    const auto fit = LocationSolver().solve(samples);
    ASSERT_TRUE(fit.has_value());
    EXPECT_TRUE(fit->ambiguous);
    // x and |h| recovered; sign of h undetermined by construction.
    EXPECT_NEAR(fit->location.x, 5.0, 0.5);
    EXPECT_NEAR(std::abs(fit->location.y), 3.0, 0.5);
    EXPECT_GE(fit->location.y, 0.0);  // convention: ambiguous fits report +h
}

TEST(LocationSolverTest, TooFewSamplesRejected) {
    const auto samples = l_shape_samples({4.0, 2.0}, -59.0, 2.0, 4.0, 3.0, 3);
    LocationSolver::Config cfg;
    cfg.min_samples = 10;
    EXPECT_FALSE(LocationSolver(cfg).solve(samples).has_value());
}

#if LOCBLE_OBS
std::uint64_t invalid_segment_count() {
    for (const auto& m : obs::Registry::global().snapshot())
        if (m.name == "solver.invalid_segments") return m.count;
    return 0;
}
#endif

TEST(LocationSolverTest, OutOfRangeSegmentTagsYieldNoFit) {
    // Tags index the per-segment Gammas: a negative tag, or one >= the
    // sample count, must be refused (no fit, counted) — never read or
    // size scratch past the samples. ASan/UBSan builds run this too.
#if LOCBLE_OBS
    obs::Registry& reg = obs::Registry::global();
    reg.reset();
    reg.set_enabled(true);
#endif
    const auto clean = l_shape_samples({4.0, 2.0}, -59.0, 2.0);
    const int n = static_cast<int>(clean.size());
    const int bad_tags[] = {-1, -1000, std::numeric_limits<int>::min(), n, n + 7,
                            std::numeric_limits<int>::max()};
    const std::size_t positions[] = {0, clean.size() / 2, clean.size() - 1};
    for (const int bad : bad_tags) {
        for (const std::size_t at : positions) {
            SCOPED_TRACE(::testing::Message() << "tag " << bad << " at " << at);
            auto samples = clean;
            samples[at].segment = bad;
            SolveDiagnostics diag;
            EXPECT_FALSE(LocationSolver().solve(samples, {}, &diag).has_value());
            EXPECT_FALSE(diag.converged);
        }
    }
#if LOCBLE_OBS
    EXPECT_EQ(invalid_segment_count(), std::size(bad_tags) * std::size(positions));
    reg.set_enabled(false);
#endif
    // The largest in-range tag is still a valid (if sparse) layout.
    auto edge = clean;
    edge.back().segment = n - 1;
    const auto fit = LocationSolver().solve(edge);
    ASSERT_TRUE(fit.has_value());
    EXPECT_EQ(fit->segment_gammas.size(), clean.size());
}

TEST(LocationSolverTest, SessionRefusesBadTagUntilReset) {
    // A Session keeps its folds across flushes, so a bad tag keeps the
    // session fit-less until reset; a tag that is only too large for the
    // current count becomes valid once enough samples arrive.
    const auto clean = l_shape_samples({4.0, 2.0}, -59.0, 2.0);
    const LocationSolver solver;
    LocationSolver::Session session(solver);
    auto samples = clean;
    samples[3].segment = -2;
    session.add(samples);
    EXPECT_FALSE(session.solve().has_value());
    session.add(clean.front());
    EXPECT_FALSE(session.solve().has_value());
    session.reset();
    session.add(clean);
    EXPECT_TRUE(session.solve().has_value());

    session.reset();
    std::vector<FusedSample> head(clean.begin(), clean.begin() + 10);
    head.back().segment = 12;  // > count 10 now; < count once 30 more arrive
    session.add(head);
    EXPECT_FALSE(session.solve().has_value());
    session.add(std::vector<FusedSample>(clean.begin() + 10, clean.end()));
    const auto fit = session.solve();
    ASSERT_TRUE(fit.has_value());
    EXPECT_EQ(fit->segment_gammas.size(), 13u);
}

TEST(LocationSolverTest, MovingTargetRelativeDisplacements) {
    // Target moves with constant velocity; p/q carry b_i - a_i. The fit
    // recovers the target's *initial* position.
    const Vec2 target0{6.0, 2.0};
    const Vec2 target_vel{0.3, -0.2};
    std::vector<FusedSample> samples;
    double t = 0.0;
    for (int i = 0; i < 50; ++i, t += 0.1) {
        // Observer walks an L.
        const Vec2 obs = i < 25 ? Vec2{0.16 * i, 0.0} : Vec2{4.0, 0.12 * (i - 25)};
        const Vec2 tgt_disp = target_vel * t;
        const Vec2 tgt = target0 + tgt_disp;
        FusedSample s;
        s.t = t;
        s.p = tgt_disp.x - obs.x;
        s.q = tgt_disp.y - obs.y;
        s.rssi = -59.0 - 20.0 * std::log10(locble::Vec2::distance(tgt, obs));
        samples.push_back(s);
    }
    const auto fit = LocationSolver().solve(samples);
    ASSERT_TRUE(fit.has_value());
    EXPECT_NEAR(fit->location.x, target0.x, 0.4);
    EXPECT_NEAR(fit->location.y, target0.y, 0.4);
}

TEST(LocationSolverTest, ResolveLShapeDisambiguates) {
    // Two per-leg ambiguous fits; the true target is at (5, 2) in the
    // observer frame. Leg 2 starts at (4, 0) heading +y (90 deg).
    const Vec2 truth{5.0, 2.0};

    LocationFit leg1;  // leg 1 frame == observer frame
    leg1.location = {truth.x, truth.y};
    leg1.ambiguous = true;  // candidates (5, +-2)
    leg1.confidence = 0.8;
    leg1.exponent = 2.0;
    leg1.gamma_dbm = -59.0;

    // Leg 2 local frame: origin (4,0), +x along observer +y.
    // Truth in leg-2 frame: rotate (truth - origin) by -90 deg -> (2, -1).
    LocationFit leg2;
    leg2.location = {2.0, -1.0};
    leg2.ambiguous = true;  // candidates (2, +-1)
    leg2.confidence = 0.6;
    leg2.exponent = 2.2;
    leg2.gamma_dbm = -60.0;

    const auto resolved = LocationSolver::resolve_l_shape(
        leg1, leg2, {4.0, 0.0}, std::numbers::pi / 2.0);
    ASSERT_TRUE(resolved.has_value());
    EXPECT_FALSE(resolved->ambiguous);
    EXPECT_NEAR(resolved->location.x, truth.x, 1e-6);
    EXPECT_NEAR(resolved->location.y, truth.y, 1e-6);
    // Confidence-weighted parameter blend.
    EXPECT_GT(resolved->exponent, 2.0);
    EXPECT_LT(resolved->exponent, 2.2);
}

TEST(LocationSolverTest, ConfidenceDropsWithModelMismatch) {
    // Samples from two different environments stitched together: residuals
    // become biased, confidence falls (this is what EnvAware prevents).
    const Vec2 target{5.0, 3.0};
    auto a = l_shape_samples(target, -59.0, 2.0);
    auto b = l_shape_samples(target, -72.0, 3.4);
    // Second half from the NLOS model.
    std::vector<FusedSample> mixed(a.begin(), a.begin() + a.size() / 2);
    mixed.insert(mixed.end(), b.begin() + b.size() / 2, b.end());

    const auto clean_fit = LocationSolver().solve(a);
    const auto mixed_fit = LocationSolver().solve(mixed);
    ASSERT_TRUE(clean_fit.has_value());
    ASSERT_TRUE(mixed_fit.has_value());
    // The Gauss-Newton refit zeroes the mean residual, so the Sec. 5
    // confidence (a function of the residual *mean*) saturates near 1 for
    // both fits; the RMS residual still exposes the mismatch.
    EXPECT_GE(clean_fit->confidence, mixed_fit->confidence - 1e-6);
    EXPECT_GT(mixed_fit->residual_db, clean_fit->residual_db);
}

TEST(ResidualStatsTest, PerfectModelZeroResidual) {
    const Vec2 target{4.0, 1.0};
    const auto samples = l_shape_samples(target, -59.0, 2.0);
    const auto stats = residual_stats(samples, target, 2.0, -59.0);
    EXPECT_NEAR(stats.mean_db, 0.0, 1e-9);
    EXPECT_NEAR(stats.rms_db, 0.0, 1e-9);
    EXPECT_NEAR(stats.confidence, 1.0, 1e-9);
}

TEST(ResidualStatsTest, BiasedModelLowConfidence) {
    const Vec2 target{4.0, 1.0};
    const auto samples = l_shape_samples(target, -59.0, 2.0);
    // Gamma off by 10 dB: residual mean is 10 dB, confidence collapses.
    const auto stats = residual_stats(samples, target, 2.0, -69.0);
    EXPECT_NEAR(stats.mean_db, 10.0, 1e-6);
    EXPECT_LT(stats.confidence, 0.01);
}

TEST(ResidualStatsTest, EmptyInput) {
    const auto stats = residual_stats({}, {0, 0}, 2.0, -59.0);
    EXPECT_DOUBLE_EQ(stats.confidence, 0.0);
}

}  // namespace
}  // namespace locble::core
