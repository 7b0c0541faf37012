#include "locble/serve/tracking_session.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

#include "locble/common/rng.hpp"
#include "locble/core/envaware.hpp"
#include "locble/core/pipeline.hpp"
#include "locble/motion/dead_reckoning.hpp"
#include "locble/sim/capture.hpp"
#include "locble/sim/harness.hpp"
#include "locble/sim/scenarios.hpp"

namespace locble::serve {
namespace {

/// Streaming config with the randomized stages off: exact synthetic RSS in,
/// deterministic fit out.
TrackingSession::Config clean_config() {
    TrackingSession::Config cfg;
    cfg.pipeline.use_anf = false;
    cfg.pipeline.use_envaware = false;
    cfg.pipeline.gamma_prior_dbm = -59.0;
    return cfg;
}

/// End an epoch at `horizon` the way a shard does: close the batches, then
/// run the deferred solve if one is due.
void finish_epoch(TrackingSession& s, double horizon) {
    s.close_batches(horizon);
    if (s.needs_solve()) s.solve();
}

/// Feed a synthetic stationary-beacon walk: observer moves along +x at
/// 1 m/s for `seconds`, beacon at `target` (observer frame), log-distance
/// RSS with optional Gaussian noise.
void feed_walk(TrackingSession& s, const locble::Vec2& target, double seconds,
               double noise_db, std::uint64_t seed) {
    locble::Rng rng(seed);
    for (double t = 0.0; t <= seconds; t += 0.1) {
        const locble::Vec2 obs{t * 1.0, 0.0};
        const double dist =
            std::max(locble::Vec2::distance(target, obs), 0.1);
        const double rssi = -59.0 - 10.0 * 2.0 * std::log10(dist) +
                            (noise_db > 0 ? rng.gaussian(0.0, noise_db) : 0.0);
        // FusedSample convention (core/pipeline.cpp): (p, q) is the
        // *negated* observer position; the solver's fit comes out in the
        // observer frame.
        s.on_adv(t, rssi, -obs.x, -obs.y);
    }
}

TEST(TrackingSessionTest, RecoversStationaryBeaconFromStream) {
    TrackingSession s(clean_config(), nullptr);
    feed_walk(s, {5.0, 2.0}, 8.0, 0.0, 1);
    finish_epoch(s, 9.0);
    ASSERT_TRUE(s.has_fit());
    EXPECT_NEAR(s.fit().location.x, 5.0, 0.5);
    EXPECT_NEAR(std::abs(s.fit().location.y), 2.0, 0.7);
    EXPECT_GT(s.samples_used(), 0u);
    EXPECT_EQ(s.samples_seen(), 81u);
}

TEST(TrackingSessionTest, EpochSplitIsInvisible) {
    // Deferred warm-started solves: splitting the same stream across many
    // epochs must land on the exact same fit as one big epoch (the solver
    // session contract: exhaustive warm solve == cold solve).
    TrackingSession one(clean_config(), nullptr);
    feed_walk(one, {4.0, 1.5}, 8.0, 1.0, 7);
    finish_epoch(one, 9.0);

    TrackingSession split(clean_config(), nullptr);
    locble::Rng rng(7);
    for (double t = 0.0; t <= 8.0; t += 0.1) {
        const locble::Vec2 obs{t, 0.0};
        const double dist = std::max(locble::Vec2::distance({4.0, 1.5}, obs), 0.1);
        const double rssi =
            -59.0 - 20.0 * std::log10(dist) + rng.gaussian(0.0, 1.0);
        split.on_adv(t, rssi, -obs.x, -obs.y);
        // An epoch boundary after every single event — worst case.
        finish_epoch(split, t);
    }
    finish_epoch(split, 9.0);

    ASSERT_TRUE(one.has_fit());
    ASSERT_TRUE(split.has_fit());
    EXPECT_EQ(one.fit().location.x, split.fit().location.x);
    EXPECT_EQ(one.fit().location.y, split.fit().location.y);
    EXPECT_EQ(one.fit().exponent, split.fit().exponent);
    EXPECT_EQ(one.fit().gamma_dbm, split.fit().gamma_dbm);
    EXPECT_EQ(one.samples_used(), split.samples_used());
}

TEST(TrackingSessionTest, SolvePerFlushMatchesDeferredFinalFit) {
    auto cfg = clean_config();
    TrackingSession deferred(cfg, nullptr);
    cfg.solve_per_flush = true;
    TrackingSession eager(cfg, nullptr);
    feed_walk(deferred, {5.0, 2.0}, 8.0, 1.0, 3);
    feed_walk(eager, {5.0, 2.0}, 8.0, 1.0, 3);
    finish_epoch(deferred, 9.0);
    finish_epoch(eager, 9.0);
    ASSERT_TRUE(deferred.has_fit());
    ASSERT_TRUE(eager.has_fit());
    // Same samples, same final solve — the cadence changes cost, not state.
    EXPECT_EQ(deferred.fit().location.x, eager.fit().location.x);
    EXPECT_EQ(deferred.fit().location.y, eager.fit().location.y);
}

TEST(TrackingSessionTest, PoseLagTracksAnfGroupDelay) {
    auto cfg = clean_config();
    EXPECT_EQ(TrackingSession(cfg, nullptr).pose_lag_s(), 0.0);
    cfg.pipeline.use_anf = true;
    const TrackingSession with_anf(cfg, nullptr);
    EXPECT_GT(with_anf.pose_lag_s(), 0.0);
}

TEST(TrackingSessionTest, MaxSessionSamplesBoundsAndResets) {
    auto cfg = clean_config();
    cfg.max_session_samples = 30;
    IngestStats stats;
    TrackingSession s(cfg, nullptr, &stats);
    feed_walk(s, {5.0, 2.0}, 8.0, 0.0, 1);  // 81 samples
    finish_epoch(s, 9.0);
    EXPECT_GE(s.resets(), 1);
    EXPECT_LE(s.samples_used(), 30u);
    EXPECT_EQ(stats.sessions_reset, static_cast<std::uint64_t>(s.resets()));
    EXPECT_TRUE(s.has_fit());  // still produces an estimate after resets
}

TEST(TrackingSessionTest, EnvAwareRequiredWhenEnabled) {
    auto cfg = clean_config();
    cfg.pipeline.use_envaware = true;
    EXPECT_THROW(TrackingSession(cfg, nullptr), std::invalid_argument);
    const core::EnvAware untrained;
    EXPECT_THROW(TrackingSession(cfg, &untrained), std::invalid_argument);
}

TEST(TrackingSessionTest, EpochChangeFlagLatchesUntilTaken) {
    TrackingSession s(clean_config(), nullptr);
    EXPECT_FALSE(s.take_epoch_changed());
    feed_walk(s, {5.0, 2.0}, 8.0, 0.0, 1);
    finish_epoch(s, 9.0);
    EXPECT_TRUE(s.take_epoch_changed());
    EXPECT_FALSE(s.take_epoch_changed());  // consumed
    finish_epoch(s, 10.0);                  // nothing new arrived
    EXPECT_FALSE(s.take_epoch_changed());
}

/// Offline and serve run the same Algorithm-1 step: with the ANF off (the
/// one stage that must differ — zero-phase vs causal) and the serve solve
/// cadence set to the offline one, a TrackingSession fed a captured walk
/// lands on exactly the LocBle::locate result, across the nine Table 1
/// environments, EnvAware regime changes and segment restarts included.
TEST(TrackingSessionTest, MatchesOfflinePipelineBitForBit) {
    const sim::MeasurementConfig mcfg;
    core::LocBle::Config pcfg = mcfg.pipeline;
    pcfg.use_anf = false;
    pcfg.gamma_prior_dbm = sim::BeaconPlacement{}.profile.measured_power_dbm;
    ASSERT_TRUE(pcfg.use_envaware);
    const core::EnvAware& env = sim::shared_envaware();
    const core::LocBle offline(pcfg, env);
    TrackingSession::Config scfg;
    scfg.pipeline = pcfg;
    scfg.solve_per_flush = true;

    const sim::CaptureRunner runner(mcfg.capture);
    const motion::DeadReckoner reckoner(mcfg.reckoner);
    constexpr int kSeeds = 3;
    int walks_with_restarts = 0;
    int walks_with_fallback = 0;
    for (int e = 1; e <= 9; ++e) {
        const sim::Scenario sc = sim::scenario(e);
        const imu::Trajectory path = sim::default_l_walk(sc, mcfg.lshape);
        for (int seed = 0; seed < kSeeds; ++seed) {
            SCOPED_TRACE("environment " + std::to_string(e) + " seed " +
                         std::to_string(seed));
            sim::BeaconPlacement target;
            target.position = sc.default_beacon;
            locble::Rng rng = locble::Rng::for_stream(
                static_cast<std::uint64_t>(seed), static_cast<std::uint64_t>(e));
            sim::WalkCapture cap = runner.run(sc.site, {target}, path, rng);
            const locble::TimeSeries& rss = cap.rss[target.id];
            ASSERT_FALSE(rss.empty());
            const motion::MotionEstimate m = reckoner.track(cap.observer_imu);

            const core::LocateResult want = offline.locate(rss, m);
            TrackingSession got(scfg, &env);
            for (const auto& s : rss) {
                const locble::Vec2 obs = m.position_at(s.t);
                got.on_adv(s.t, s.value, -obs.x, -obs.y);
            }
            finish_epoch(got, rss.back().t + 2.0 * pcfg.batch_seconds);

            ASSERT_EQ(got.has_fit(), want.fit.has_value());
            if (want.fit) {
                EXPECT_EQ(got.fit().location.x, want.fit->location.x);
                EXPECT_EQ(got.fit().location.y, want.fit->location.y);
                EXPECT_EQ(got.fit().exponent, want.fit->exponent);
                EXPECT_EQ(got.fit().gamma_dbm, want.fit->gamma_dbm);
                EXPECT_EQ(got.fit().segment_gammas, want.fit->segment_gammas);
            }
            EXPECT_EQ(got.regression_restarts(), want.regression_restarts);
            EXPECT_EQ(got.samples_used(), want.samples_used);
            const auto& gd = got.diagnostics();
            const auto& wd = want.diagnostics;
            // Offline solves the newest batch first and earlier ones only
            // while solves fail; serve here solves after every batch.
            EXPECT_GE(wd.solver_calls, 1);
            EXPECT_LE(wd.solver_calls, gd.solver_calls);
            EXPECT_GE(wd.solver_candidates, 1);
            EXPECT_LE(wd.solver_candidates, gd.solver_candidates);
            EXPECT_EQ(gd.envaware_windows, wd.envaware_windows);
            EXPECT_EQ(gd.batch_samples, wd.batch_samples);
            if (want.regression_restarts > 0) ++walks_with_restarts;
            if (wd.solver_calls > 1) ++walks_with_fallback;
        }
    }
    // The segment path and offline's fall back to an earlier batch must
    // actually be exercised.
    EXPECT_GT(walks_with_restarts, 0);
    EXPECT_GT(walks_with_fallback, 0);
}

}  // namespace
}  // namespace locble::serve
