#include "locble/core/pipeline.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numbers>
#include <stdexcept>

#include "locble/common/cdf.hpp"
#include "locble/common/rng.hpp"
#include "locble/core/regression_tracker.hpp"

namespace locble::core {
namespace {

using locble::Vec2;

/// Hand-built motion estimate for an ideal L-shaped walk: leg1 4 m along
/// +x over t in [0,4], leg2 3 m along +y over t in [5,8].
motion::MotionEstimate ideal_l_motion() {
    motion::MotionEstimate m;
    for (int i = 0; i <= 40; ++i) m.path.push_back({0.1 * i, {0.1 * i, 0.0}});
    for (int i = 0; i <= 30; ++i) m.path.push_back({5.0 + 0.1 * i, {4.0, 0.1 * i}});
    return m;
}

/// RSS series for a stationary target at `target` along that walk.
locble::TimeSeries rss_for(const Vec2& target, double gamma, double n,
                           double noise_db, std::uint64_t seed) {
    const auto motion = ideal_l_motion();
    locble::Rng rng(seed);
    locble::TimeSeries ts;
    for (double t = 0.0; t <= 8.0; t += 0.1) {
        const Vec2 obs = motion.position_at(t);
        const double l = std::max(locble::Vec2::distance(target, obs), 0.1);
        ts.push_back({t, gamma - 10.0 * n * std::log10(l) +
                             (noise_db > 0 ? rng.gaussian(0.0, noise_db) : 0.0)});
    }
    return ts;
}

LocBle::Config no_env_config() {
    LocBle::Config cfg;
    cfg.use_envaware = false;
    return cfg;
}

TEST(LocBleTest, RequiresTrainedEnvAwareWhenEnabled) {
    LocBle::Config cfg;
    cfg.use_envaware = true;
    EXPECT_THROW(LocBle(cfg, std::nullopt), std::invalid_argument);
    EXPECT_THROW(LocBle(cfg, EnvAware{}), std::invalid_argument);  // untrained
}

TEST(LocBleTest, LocatesStationaryTargetCleanSignal) {
    const Vec2 target{5.0, 2.5};
    const LocBle pipeline(no_env_config());
    const auto result =
        pipeline.locate(rss_for(target, -59.0, 2.0, 0.0, 1), ideal_l_motion());
    ASSERT_TRUE(result.fit.has_value());
    EXPECT_NEAR(result.fit->location.x, 5.0, 0.3);
    EXPECT_NEAR(result.fit->location.y, 2.5, 0.3);
    EXPECT_EQ(result.regression_restarts, 0);
    EXPECT_GT(result.samples_used, 50u);
}

TEST(LocBleTest, LocatesUnderNoise) {
    const Vec2 target{6.0, 3.0};
    const LocBle pipeline(no_env_config());
    double errsum = 0.0;
    int count = 0;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        const auto result =
            pipeline.locate(rss_for(target, -59.0, 2.0, 2.5, seed), ideal_l_motion());
        ASSERT_TRUE(result.fit.has_value());
        errsum += locble::Vec2::distance(result.fit->location, target);
        ++count;
    }
    EXPECT_LT(errsum / count, 2.1);  // ANF + regression under 2.5 dB noise
}

TEST(LocBleTest, AnfAblationDegradesAccuracy) {
    // Fig. 5's story: removing ANF costs accuracy. Medians over seeds keep
    // the comparison robust to the occasional diverged fit on raw data.
    const Vec2 target{6.0, 3.0};
    LocBle::Config with = no_env_config();
    LocBle::Config without = no_env_config();
    without.use_anf = false;
    std::vector<double> err_with, err_without;
    for (std::uint64_t seed = 1; seed <= 15; ++seed) {
        const auto rss = rss_for(target, -59.0, 2.0, 2.5, seed);
        const auto rw = LocBle(with).locate(rss, ideal_l_motion());
        const auto rwo = LocBle(without).locate(rss, ideal_l_motion());
        err_with.push_back(
            rw.fit ? locble::Vec2::distance(rw.fit->location, target) : 10.0);
        err_without.push_back(
            rwo.fit ? locble::Vec2::distance(rwo.fit->location, target) : 10.0);
    }
    const locble::EmpiricalCdf cdf_with(err_with);
    const locble::EmpiricalCdf cdf_without(err_without);
    // The robust dB-domain solver absorbs most of what ANF used to buy at
    // the estimate level (EXPERIMENTS.md, deviation D1); ANF must still
    // never *hurt*. Its denoising behaviour proper is validated in the DSP
    // suite.
    EXPECT_LE(cdf_with.median(), cdf_without.median() + 0.15);
}

TEST(LocBleTest, EmptyRssGivesNoFit) {
    const LocBle pipeline(no_env_config());
    const auto result = pipeline.locate({}, ideal_l_motion());
    EXPECT_FALSE(result.fit.has_value());
}

TEST(LocBleTest, MovingTargetFrameAlignment) {
    // Target moves +0.25 m/s along observer-frame -y, starting at (6, 2).
    // Its own dead-reckoning frame is rotated by -pi/2 (its +x is our -y).
    const Vec2 target0{6.0, 2.0};
    const Vec2 vel{0.0, -0.25};

    const auto obs_motion = ideal_l_motion();
    motion::MotionEstimate tgt_motion;  // in the TARGET's local frame
    for (double t = 0.0; t <= 8.0; t += 0.1) {
        const Vec2 disp_observer_frame = vel * t;
        // Target frame = observer frame rotated by +pi/2, so displacement in
        // target frame = R(-pi/2) * disp.
        tgt_motion.path.push_back(
            {t, disp_observer_frame.rotated(-std::numbers::pi / 2.0)});
    }

    const LocBle pipeline(no_env_config());
    std::vector<double> errors;
    for (std::uint64_t seed = 1; seed <= 7; ++seed) {
        locble::Rng rng(seed);
        locble::TimeSeries rss;
        for (double t = 0.0; t <= 8.0; t += 0.1) {
            const Vec2 obs = obs_motion.position_at(t);
            const Vec2 tgt = target0 + vel * t;
            const double l = std::max(locble::Vec2::distance(tgt, obs), 0.1);
            rss.push_back({t, -59.0 - 20.0 * std::log10(l) + rng.gaussian(0.0, 0.8)});
        }
        const auto result =
            pipeline.locate(rss, obs_motion, tgt_motion, std::numbers::pi / 2.0);
        ASSERT_TRUE(result.fit.has_value());
        errors.push_back(locble::Vec2::distance(result.fit->location, target0));
    }
    // Moving targets are weakly identifiable; the paper reports <2.5 m for
    // more than half of its moving-target runs (Sec. 7.4.2).
    EXPECT_LT(locble::EmpiricalCdf(errors).median(), 2.5);
}

TEST(RotateMotionTest, RotatesEveryPathPoint) {
    motion::MotionEstimate m;
    m.path = {{0.0, {1.0, 0.0}}, {1.0, {0.0, 2.0}}};
    const auto r = rotate_motion(m, std::numbers::pi / 2.0);
    EXPECT_NEAR(r.path[0].position.x, 0.0, 1e-12);
    EXPECT_NEAR(r.path[0].position.y, 1.0, 1e-12);
    EXPECT_NEAR(r.path[1].position.x, -2.0, 1e-12);
    EXPECT_NEAR(r.path[1].position.y, 0.0, 1e-12);
}

TEST(LocBleTest, WindowClassesReportedWithEnvAware) {
    // Train a tiny EnvAware and check the pipeline reports per-batch classes.
    locble::Rng rng(20);
    EnvDatasetConfig dcfg;
    dcfg.traces_per_class = 15;
    EnvAware env;
    env.train(generate_env_dataset(dcfg, rng));

    LocBle::Config cfg;
    cfg.use_envaware = true;
    const LocBle pipeline(cfg, std::move(env));
    const auto result =
        pipeline.locate(rss_for({5.0, 2.0}, -59.0, 2.0, 1.0, 4), ideal_l_motion());
    // 8 s of data in 2 s batches -> ~4 classified windows.
    EXPECT_GE(result.window_classes.size(), 3u);
    // Diagnostics mirror the classified windows.
    EXPECT_EQ(result.diagnostics.envaware_windows,
              static_cast<int>(result.window_classes.size()));
}

TEST(LocBleTest, DiagnosticsAccountForEveryBatchAndSolve) {
    const LocBle pipeline(no_env_config());
    const auto rss = rss_for({5.0, 2.5}, -59.0, 2.0, 0.0, 1);
    const auto result = pipeline.locate(rss, ideal_l_motion());
    ASSERT_TRUE(result.fit.has_value());

    const auto& d = result.diagnostics;
    // One solve for a walk whose full capture converges, and every input
    // sample lands in exactly one batch.
    EXPECT_EQ(d.solver_calls, 1);
    EXPECT_GE(d.batch_samples.size(), 3u);  // 8 s walk in 2 s batches
    std::size_t batched = 0;
    for (const std::size_t n : d.batch_samples) batched += n;
    EXPECT_EQ(batched, rss.size());
    // The solver walked its exponent grid and a clean signal converges.
    EXPECT_GT(d.solver_candidates, 0);
    EXPECT_LE(d.solver_failures, d.solver_candidates);
    EXPECT_EQ(d.convergence_failures, 0);
    EXPECT_EQ(d.envaware_windows, 0);  // EnvAware disabled in this config
}

TEST(LocBleTest, DiagnosticsReportConvergenceFailures) {
    const LocBle pipeline(no_env_config());
    // Two RSS samples make one under-determined batch: no fit, and the
    // failure must be visible in the diagnostics.
    locble::TimeSeries rss{{0.0, -60.0}, {0.1, -61.0}};
    const auto result = pipeline.locate(rss, ideal_l_motion());
    EXPECT_FALSE(result.fit.has_value());
    EXPECT_EQ(result.diagnostics.solver_calls, result.diagnostics.convergence_failures);
    EXPECT_GE(result.diagnostics.convergence_failures, 1);
}

/// Exact equality of two locate() fits (both present).
void expect_same_fit(const LocateResult& got, const LocateResult& want) {
    ASSERT_TRUE(want.fit.has_value());
    ASSERT_TRUE(got.fit.has_value());
    EXPECT_EQ(got.fit->location.x, want.fit->location.x);
    EXPECT_EQ(got.fit->location.y, want.fit->location.y);
    EXPECT_EQ(got.fit->exponent, want.fit->exponent);
    EXPECT_EQ(got.fit->gamma_dbm, want.fit->gamma_dbm);
    EXPECT_EQ(got.samples_used, want.samples_used);
}

TEST(LocBleTest, FallsBackToTheNewestBatchThatConverges) {
    // A last batch whose RSSI overflows every rho makes each solve that
    // includes it fail; locate() must return the fit of the batches before
    // it, as a solve after every batch would have left.
    LocBle::Config cfg = no_env_config();
    cfg.use_anf = false;  // keep the bad sample out of its neighbours
    const LocBle pipeline(cfg);
    const auto rss = rss_for({5.0, 2.5}, -59.0, 2.0, 1.0, 3);
    const auto want = pipeline.locate(rss, ideal_l_motion());
    auto bad = rss;
    bad.push_back({9.0, -1e5});
    const auto got = pipeline.locate(bad, ideal_l_motion());
    expect_same_fit(got, want);
    EXPECT_EQ(got.samples_used, rss.size());
    EXPECT_EQ(got.diagnostics.batch_samples.size(), want.diagnostics.batch_samples.size() + 1);
    EXPECT_EQ(got.diagnostics.solver_calls, 2);
    EXPECT_EQ(got.diagnostics.convergence_failures, 1);
}

TEST(LocBleTest, SkipsSampleWithInfiniteTime) {
    const LocBle pipeline(no_env_config());
    const auto rss = rss_for({5.0, 2.5}, -59.0, 2.0, 1.0, 3);
    auto bad = rss;
    bad.insert(bad.begin() + 40, {std::numeric_limits<double>::infinity(), -60.0});
    expect_same_fit(pipeline.locate(bad, ideal_l_motion()),
                    pipeline.locate(rss, ideal_l_motion()));
}

TEST(LocBleTest, SkipsSampleWithNanTime) {
    const LocBle pipeline(no_env_config());
    const auto rss = rss_for({5.0, 2.5}, -59.0, 2.0, 1.0, 3);
    auto bad = rss;
    bad.insert(bad.begin() + 40, {std::numeric_limits<double>::quiet_NaN(), -60.0});
    expect_same_fit(pipeline.locate(bad, ideal_l_motion()),
                    pipeline.locate(rss, ideal_l_motion()));
}

TEST(LocBleTest, SkipsSampleWithNanRssi) {
    const LocBle pipeline(no_env_config());
    const auto rss = rss_for({5.0, 2.5}, -59.0, 2.0, 1.0, 3);
    auto bad = rss;
    bad.insert(bad.begin() + 40, {bad[40].t, std::numeric_limits<double>::quiet_NaN()});
    expect_same_fit(pipeline.locate(bad, ideal_l_motion()),
                    pipeline.locate(rss, ideal_l_motion()));
}

TEST(LocBleTest, FarFutureSampleOpensOneBatch) {
    // At 1e18 s a 2 s step no longer moves the batch clock; the gap must
    // still cost a bounded number of steps and open exactly one batch.
    const LocBle pipeline(no_env_config());
    const auto rss = rss_for({5.0, 2.5}, -59.0, 2.0, 1.0, 3);
    auto bad = rss;
    bad.push_back({1e18, rss.back().value});
    const auto want = pipeline.locate(rss, ideal_l_motion());
    const auto got = pipeline.locate(bad, ideal_l_motion());
    ASSERT_TRUE(got.fit.has_value());
    EXPECT_EQ(got.diagnostics.batch_samples.size(),
              want.diagnostics.batch_samples.size() + 1);
    EXPECT_EQ(got.diagnostics.batch_samples.back(), 1u);
}

TEST(BatchClockTest, GapsUnderTheStepCapStepWholeBatches) {
    // An unbounded loop's answer, for every gap the cap still covers.
    for (const double gap : {0.5, 2.0, 3.9, 17.0, 127.5}) {
        double want = 10.0;
        while (10.0 + gap > want) want += 2.0;
        EXPECT_EQ(next_batch_end(10.0, 10.0 + gap, 2.0), want) << gap;
    }
}

TEST(BatchClockTest, LongOrUnrepresentableGapsRestartTheClock) {
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_EQ(next_batch_end(10.0, 10.0 + 200.0, 2.0), 212.0);
    // A 2 s step no longer moves a double at 1e18, and never moves +inf.
    EXPECT_EQ(next_batch_end(10.0, 1e18, 2.0), 1e18 + 2.0);
    EXPECT_EQ(next_batch_end(10.0, inf, 2.0), inf);
    EXPECT_GE(next_batch_end(1e18, 1e18 + 256.0, 2.0), 1e18 + 256.0);
}

TEST(LocBleTest, AllInvalidSamplesGiveNoFit) {
    const LocBle pipeline(no_env_config());
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const locble::TimeSeries rss{{nan, -60.0}, {1.0, nan}};
    const auto result = pipeline.locate(rss, ideal_l_motion());
    EXPECT_FALSE(result.fit.has_value());
    EXPECT_TRUE(result.diagnostics.batch_samples.empty());
}

}  // namespace
}  // namespace locble::core
