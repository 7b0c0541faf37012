#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "locble/core/envaware.hpp"
#include "locble/serve/event.hpp"
#include "locble/serve/service.hpp"

namespace locble::serve {
namespace {

TrackingService::Config base_config() {
    TrackingService::Config cfg;
    cfg.shards = 2;
    cfg.threads = 1;
    cfg.shard.session.pipeline.use_envaware = false;
    cfg.shard.session.pipeline.gamma_prior_dbm = -59.0;
    cfg.shard.queue_capacity = 4096;
    cfg.shard.idle_timeout_s = 20.0;
    return cfg;
}

/// One client walking +x at 1 m/s past a beacon at (5, 2), starting at t0.
void submit_walk(TrackingService& svc, ClientId client, double t0,
                 double seconds) {
    for (double t = 0.0; t <= seconds; t += 0.1) {
        svc.submit(pose_event(client, t0 + t, {t, 0.0}));
        const double dist =
            std::max(std::hypot(5.0 - t, 2.0), 0.1);
        svc.submit(adv_event(client, t0 + t, 42,
                             -59.0 - 20.0 * std::log10(dist)));
    }
}

TEST(ServeLifecycleTest, IdleClientsAreEvictedByEventTime) {
    TrackingService svc(base_config());
    submit_walk(svc, 100, 0.0, 8.0);
    svc.run_epoch();
    ASSERT_EQ(svc.snapshot().estimates.size(), 1u);

    // A second client keeps the service's event-time clock moving; the
    // first client's silence ages it past the idle timeout.
    submit_walk(svc, 200, 40.0, 8.0);
    svc.run_epoch();

    const auto snap = svc.snapshot();
    ASSERT_EQ(snap.estimates.size(), 1u);
    EXPECT_EQ(snap.estimates[0].client, 200u);
    EXPECT_EQ(snap.stats.clients_evicted, 1u);
    EXPECT_EQ(snap.stats.sessions_evicted, 1u);
    EXPECT_EQ(snap.stats.clients_created, 2u);
}

TEST(ServeLifecycleTest, EvictedClientIsRecreatedOnReturn) {
    TrackingService svc(base_config());
    submit_walk(svc, 100, 0.0, 8.0);
    svc.run_epoch();
    submit_walk(svc, 200, 40.0, 8.0);
    svc.run_epoch();  // evicts client 100

    // Client 100 comes back: a brand-new state, counted as a new creation.
    submit_walk(svc, 100, 50.0, 8.0);
    svc.run_epoch();

    const auto snap = svc.snapshot();
    EXPECT_EQ(snap.estimates.size(), 2u);
    EXPECT_EQ(snap.stats.clients_created, 3u);
    EXPECT_EQ(snap.stats.clients_evicted, 1u);
    const auto it = std::find_if(
        snap.estimates.begin(), snap.estimates.end(),
        [](const BeaconEstimate& e) { return e.client == 100; });
    ASSERT_NE(it, snap.estimates.end());
    // Only the post-return samples: the evicted history really is gone.
    EXPECT_LE(it->samples_seen, 81u);
    EXPECT_TRUE(it->has_fit);
}

TEST(ServeLifecycleTest, SessionsPersistAcrossEpochsUntilIdle) {
    TrackingService svc(base_config());
    // Same client, three epochs of one walk: one session accumulates.
    for (int epoch = 0; epoch < 3; ++epoch) {
        for (double t = 0.0; t < 2.5; t += 0.1) {
            const double at = epoch * 2.5 + t;
            svc.submit(pose_event(100, at, {at, 0.0}));
            const double dist = std::max(std::hypot(5.0 - at, 2.0), 0.1);
            svc.submit(
                adv_event(100, at, 42, -59.0 - 20.0 * std::log10(dist)));
        }
        svc.run_epoch();
    }
    const auto snap = svc.snapshot();
    ASSERT_EQ(snap.estimates.size(), 1u);
    EXPECT_EQ(snap.stats.sessions_created, 1u);  // reused, not recreated
    EXPECT_EQ(snap.estimates[0].samples_seen, 75u);
    EXPECT_TRUE(snap.estimates[0].has_fit);
}

/// One client on an L-walk (+x for 8 s, then +y for 8 s, 1 m/s, 10 Hz)
/// past a beacon at (8, 4), with an epoch every 2 s. `rssi_of(i, clean)`
/// gives the RSSI of sample i's advertisement from its clean value.
template <class RssiOf>
void submit_l_walk(TrackingService& svc, ClientId client, RssiOf rssi_of) {
    for (int i = 0; i <= 160; ++i) {
        const double t = 0.1 * i;
        const locble::Vec2 p = t <= 8.0 ? locble::Vec2{t, 0.0}
                                        : locble::Vec2{8.0, t - 8.0};
        svc.submit(pose_event(client, t, p));
        const double dist = std::max(std::hypot(8.0 - p.x, 4.0 - p.y), 0.1);
        svc.submit(adv_event(client, t, 42, rssi_of(i, -59.0 - 20.0 * std::log10(dist))));
        if (i % 20 == 0) svc.run_epoch();
    }
    svc.run_epoch();
}

/// The L-walk, then one advertisement at `t_bad`. The batch clock must step
/// over that gap in bounded time; a non-finite `t_bad` is rejected at
/// submit and never reaches the session.
void expect_epoch_survives_timestamp(double t_bad) {
    TrackingService svc(base_config());
    submit_l_walk(svc, 1, [](int, double clean) { return clean; });
    ASSERT_TRUE(svc.snapshot().estimates.at(0).has_fit);

    svc.submit(adv_event(1, t_bad, 42, -60.0));
    svc.run_epoch();  // returns: the far-future gap costs bounded steps
    svc.submit(adv_event(1, 16.1, 42, -60.0));
    svc.run_epoch();
    const auto snap = svc.snapshot(SnapshotMode::full);
    ASSERT_EQ(snap.estimates.size(), 1u);
    const bool finite = std::isfinite(t_bad);
    EXPECT_EQ(snap.estimates[0].samples_seen, finite ? 163u : 162u);
    EXPECT_EQ(snap.stats.rejected, finite ? 0u : 1u);
}

TEST(ServeLifecycleTest, FarFutureTimestampDoesNotHangTheEpoch) {
    expect_epoch_survives_timestamp(1e18);
}

TEST(ServeLifecycleTest, InfiniteTimestampDoesNotHangTheEpoch) {
    expect_epoch_survives_timestamp(std::numeric_limits<double>::infinity());
}

TEST(ServeLifecycleTest, InfiniteTimestampDoesNotEvictCleanClients) {
    // Three clients over two shards; client 1 then sends one adv at
    // t = +inf in the same epoch as the others' fresh events. Accepted,
    // it would make the service horizon +inf and age both clean clients
    // past the idle timeout at the next swap.
    TrackingService svc(base_config());
    for (const ClientId c : {1u, 2u, 3u}) submit_walk(svc, c, 0.0, 8.0);
    svc.run_epoch();
    svc.submit(adv_event(1, std::numeric_limits<double>::infinity(), 42, -60.0));
    for (const ClientId c : {2u, 3u}) submit_walk(svc, c, 8.1, 2.0);
    svc.run_epoch();
    for (const ClientId c : {1u, 2u, 3u}) submit_walk(svc, c, 10.2, 2.0);
    svc.run_epoch();

    const auto snap = svc.snapshot(SnapshotMode::full);
    EXPECT_EQ(snap.estimates.size(), 3u);
    EXPECT_EQ(snap.stats.clients_evicted, 0u);
    EXPECT_EQ(snap.stats.sessions_evicted, 0u);
    EXPECT_EQ(snap.stats.rejected, 1u);
    EXPECT_EQ(snap.stats.submitted, snap.stats.accepted + snap.stats.rejected);
}

TEST(ServeLifecycleTest, NanRssiDoesNotFreezeTheSession) {
    // A NaN RSSI at sample 30 used to fail every grid point of the session
    // for good (samples_used stuck at 20). Rejected at submit, the run
    // equals one that never sent that advertisement.
    const auto run = [](bool send_nan) {
        TrackingService svc(base_config());
        submit_l_walk(svc, 1, [&](int i, double clean) {
            return i == 30 && send_nan ? std::numeric_limits<double>::quiet_NaN() : clean;
        });
        return svc.snapshot(SnapshotMode::full);
    };
    const auto poisoned = run(true);
    const auto clean = run(false);
    ASSERT_EQ(poisoned.estimates.size(), 1u);
    ASSERT_EQ(clean.estimates.size(), 1u);
    const BeaconEstimate& p = poisoned.estimates[0];
    const BeaconEstimate& c = clean.estimates[0];
    EXPECT_EQ(poisoned.stats.rejected, 1u);
    EXPECT_EQ(clean.stats.rejected, 0u);
    EXPECT_EQ(p.samples_seen + 1, c.samples_seen);
    EXPECT_GT(p.samples_used, 100u);
    ASSERT_TRUE(p.has_fit);
    ASSERT_TRUE(c.has_fit);
    EXPECT_LT(std::hypot(p.fit.location.x - c.fit.location.x,
                         p.fit.location.y - c.fit.location.y),
              0.5);
}

TEST(ServeLifecycleTest, ResetOnEnvChangeRestartsTheRegression) {
    // A trained EnvAware plus a staged LOS -> NLOS level collapse: with
    // reset_on_env_change the session starts a fresh regression (resets
    // counted), without it the regression keeps history in a new segment.
    locble::Rng train_rng(20);
    core::EnvDatasetConfig dcfg;
    dcfg.traces_per_class = 15;
    core::EnvAware env;
    env.train(core::generate_env_dataset(dcfg, train_rng));

    for (const bool reset_policy : {false, true}) {
        auto cfg = base_config();
        cfg.shards = 1;
        cfg.shard.session.pipeline.use_envaware = true;
        cfg.shard.session.reset_on_env_change = reset_policy;
        TrackingService svc(cfg, env);

        locble::Rng rng(3);
        double t = 0.0;
        // 8 s of quiet LOS-like signal, then 8 s fallen off a cliff with
        // NLOS-like heavy fluctuation.
        for (int phase = 0; phase < 2; ++phase) {
            const double base = phase == 0 ? -55.0 : -78.0;
            const double sigma = phase == 0 ? 0.6 : 6.0;
            for (int i = 0; i < 80; ++i, t += 0.1) {
                svc.submit(pose_event(1, t, {t, 0.0}));
                svc.submit(adv_event(1, t, 42,
                                     base + rng.gaussian(0.0, sigma)));
            }
        }
        svc.run_epoch();

        const auto snap = svc.snapshot();
        ASSERT_EQ(snap.estimates.size(), 1u);
        const auto& e = snap.estimates[0];
        if (reset_policy) {
            EXPECT_GE(e.resets, 1);
            EXPECT_EQ(snap.stats.sessions_reset,
                      static_cast<std::uint64_t>(e.resets));
            // The reset forgot the LOS half.
            EXPECT_LT(e.samples_used, 160u);
        } else {
            EXPECT_EQ(e.resets, 0);
            EXPECT_GE(e.regression_restarts, 1);
        }
    }
}

}  // namespace
}  // namespace locble::serve
