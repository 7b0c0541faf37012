// The phased epoch (docs/SERVING.md): drain per shard, solve every queued
// session from one epoch-wide work list on any worker, settle per shard.
// Which worker solves which session must be invisible: canonical snapshot
// streams and the deterministic half of status_json() are byte-identical
// across (shards, threads) settings and between the phased and overlapped
// drivers, with each feature that the settle phase or the work list
// touches switched on. A throwing work item must not strand a worker at a
// barrier.
#include "locble/serve/service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "locble/core/envaware.hpp"
#include "locble/serve/event.hpp"
#include "locble/sim/harness.hpp"
#include "locble/sim/multi_client.hpp"

namespace locble::serve {
namespace {

struct Setting {
    unsigned shards;
    unsigned threads;
};
/// (2, 8) runs on 2 workers: the thread count is capped by the shards.
constexpr Setting kSettings[] = {{1, 1}, {4, 4}, {8, 3}, {2, 8}};

TrackingService::Config service_config(unsigned shards, unsigned threads) {
    TrackingService::Config cfg;
    cfg.shards = shards;
    cfg.threads = threads;
    cfg.shard.session.pipeline.use_envaware = false;
    cfg.shard.session.pipeline.gamma_prior_dbm = -59.0;
    cfg.shard.session.pipeline.solver.search_mode =
        core::LocationSolver::SearchMode::coarse_to_fine;
    cfg.shard.queue_capacity = 4096;
    return cfg;
}

using Batches = std::vector<std::vector<Event>>;

/// Split time-sorted events into per-epoch submissions at `edges`; events
/// past the last edge go into `step_s` epochs.
Batches chunk(const std::vector<Event>& events, std::vector<double> edges,
              double step_s) {
    Batches batches;
    std::size_t i = 0;
    for (std::size_t k = 0; i < events.size(); ++k) {
        if (k >= edges.size()) edges.push_back(edges.back() + step_s);
        std::vector<Event> b;
        while (i < events.size() && events[i].t <= edges[k]) b.push_back(events[i++]);
        batches.push_back(std::move(b));
    }
    return batches;
}

std::string deterministic_status(const TrackingService& svc) {
    const std::string full = status_json(svc.status());
    return full.substr(0, full.find("\"nd\":"));
}

/// One run: after every epoch, the canonical snapshot and the
/// deterministic status. `overlapped` submits batch k+1 while epoch k is
/// in flight.
std::string run(const TrackingService::Config& cfg, const Batches& batches,
                bool overlapped) {
    const core::EnvAware* env =
        cfg.shard.session.pipeline.use_envaware ? &sim::shared_envaware() : nullptr;
    TrackingService svc(cfg, env ? std::optional<core::EnvAware>(*env) : std::nullopt);
    std::string stream;
    const auto observe = [&] {
        stream += canonical_text(svc.snapshot());
        stream += deterministic_status(svc);
    };
    if (overlapped) {
        if (!batches.empty()) svc.submit(batches.front());
        for (std::size_t k = 0; k < batches.size(); ++k) {
            svc.begin_epoch();
            if (k + 1 < batches.size()) svc.submit(batches[k + 1]);
            svc.end_epoch();
            observe();
        }
    } else {
        for (const auto& b : batches) {
            svc.submit(b);
            svc.run_epoch();
            observe();
        }
    }
    svc.run_epoch();  // past the idle timeout: the rest is evicted
    observe();
    return stream;
}

/// Every setting, phased and overlapped, reproduces the 1x1 phased stream.
/// Returns that stream for feature-specific checks.
std::string expect_schedule_invisible(
    const std::function<void(TrackingService::Config&)>& feature,
    const Batches& batches) {
    auto base_cfg = service_config(1, 1);
    feature(base_cfg);
    const std::string base = run(base_cfg, batches, false);
    EXPECT_FALSE(base.empty());
    for (const Setting& s : kSettings) {
        auto cfg = service_config(s.shards, s.threads);
        feature(cfg);
        EXPECT_EQ(base, run(cfg, batches, false))
            << "phased " << s.shards << "x" << s.threads;
        EXPECT_EQ(base, run(cfg, batches, true))
            << "overlapped " << s.shards << "x" << s.threads;
    }
    return base;
}

std::uint64_t stat_of(const std::string& stream, const std::string& key) {
    // The last snapshot's stats line carries the run's totals.
    const std::size_t at = stream.rfind(" " + key + "=");
    if (at == std::string::npos) return 0;
    return std::stoull(stream.substr(at + key.size() + 2));
}

TEST(EpochScheduleTest, ClusteringIsScheduleInvariant) {
    sim::MultiClientConfig wcfg;
    wcfg.clients = 16;
    wcfg.beacons = 4;
    const auto wl = sim::make_multi_client_workload(wcfg, 31);
    const std::string s = expect_schedule_invisible(
        [](TrackingService::Config& c) { c.shard.enable_clustering = true; },
        chunk(wl.events, {4.0}, 4.0));
    EXPECT_GT(stat_of(s, "cluster_runs"), 0u);
    EXPECT_NE(s.find(" cluster=1"), std::string::npos);
}

TEST(EpochScheduleTest, ResetOnEnvChangeIsScheduleInvariant) {
    // Scenario 5 walks through a regime change that EnvAware catches with
    // a real level jump, so sessions reset mid-run.
    sim::MultiClientConfig wcfg;
    wcfg.clients = 12;
    wcfg.beacons = 3;
    wcfg.scenario_index = 5;
    const auto wl = sim::make_multi_client_workload(wcfg, 41);
    const std::string s = expect_schedule_invisible(
        [](TrackingService::Config& c) {
            c.shard.session.pipeline.use_envaware = true;
            c.shard.session.reset_on_env_change = true;
        },
        chunk(wl.events, {4.0}, 4.0));
    EXPECT_GT(stat_of(s, "sessions_reset"), 0u);
}

TEST(EpochScheduleTest, SolvePerFlushLeavesAnEmptyWorkListAndAgrees) {
    sim::MultiClientConfig wcfg;
    wcfg.clients = 16;
    wcfg.beacons = 4;
    const auto wl = sim::make_multi_client_workload(wcfg, 53);
    const std::string s = expect_schedule_invisible(
        [](TrackingService::Config& c) { c.shard.session.solve_per_flush = true; },
        chunk(wl.events, {4.0}, 4.0));
    // Every solve ran inside a drain, one per flushed batch.
    EXPECT_EQ(stat_of(s, "solves"), stat_of(s, "batches_flushed"));
    EXPECT_GT(stat_of(s, "solves"), 0u);
}

TEST(EpochScheduleTest, ClientEvictedInTheEpochItSolvesIsScheduleInvariant) {
    sim::MultiClientConfig wcfg;
    wcfg.clients = 16;
    wcfg.beacons = 4;
    const auto wl = sim::make_multi_client_workload(wcfg, 67);
    // A second fleet, 50 s later, keeps the event-time clock moving. The
    // epoch (18, 60] delivers the first fleet's last events and, at the
    // same swap, finds every first-fleet client idle past 20 s: those
    // clients drain, queue and solve, and are then evicted at settle.
    std::vector<Event> events = wl.events;
    for (Event e : wl.events) {
        e.client += 1000000;
        e.t += 50.0;
        events.push_back(e);
    }
    std::stable_sort(events.begin(), events.end(),
                     [](const Event& a, const Event& b) { return a.t < b.t; });
    const Batches batches = chunk(events, {6.0, 12.0, 18.0, 60.0}, 4.0);
    std::set<ClientId> delivered;
    for (const Event& e : batches[3])
        if (e.client < 1000000) delivered.insert(e.client);
    ASSERT_FALSE(delivered.empty());

    const auto feature = [](TrackingService::Config& c) { c.shard.idle_timeout_s = 20.0; };
    expect_schedule_invisible(feature, batches);

    // The precondition, checked on one run: that epoch both solved and
    // evicted the whole first fleet.
    auto cfg = service_config(4, 4);
    feature(cfg);
    TrackingService svc(cfg);
    for (std::size_t k = 0; k < 4; ++k) {
        svc.submit(batches[k]);
        svc.run_epoch();
    }
    const EpochRecord* rec = svc.flight_recorder().latest();
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(rec->delta.clients_evicted, wl.client_ids.size());
    EXPECT_GE(rec->delta.solves, delivered.size());
}

TEST(EpochScheduleTest, AFailingWorkItemRethrowsWithTheServiceQuiescent) {
    // An untrained EnvAware makes every new session throw inside the drain
    // phase, on whichever worker drains its shard.
    sim::MultiClientConfig wcfg;
    wcfg.clients = 16;
    wcfg.beacons = 2;
    const auto wl = sim::make_multi_client_workload(wcfg, 7);
    for (const Setting& s : kSettings) {
        SCOPED_TRACE(std::to_string(s.shards) + "x" + std::to_string(s.threads));
        auto cfg = service_config(s.shards, s.threads);
        cfg.shard.session.pipeline.use_envaware = true;
        TrackingService svc(cfg, core::EnvAware{});
        for (int rep = 0; rep < 3; ++rep) {
            svc.submit(wl.events);
            if (svc.threads() == 1) {
                // Inline epochs fail in begin_epoch itself.
                EXPECT_THROW(svc.begin_epoch(), std::invalid_argument);
            } else {
                svc.begin_epoch();
                EXPECT_THROW(svc.end_epoch(), std::invalid_argument);
            }
            EXPECT_FALSE(svc.epoch_in_flight());
            EXPECT_NO_THROW(svc.snapshot());
            EXPECT_NO_THROW(svc.stats());
        }
        svc.submit(wl.events);
        EXPECT_THROW(svc.run_epoch(), std::invalid_argument);
    }
}

TEST(EpochScheduleTest, StatusReportsWhereTheEpochTimeWent) {
    sim::MultiClientConfig wcfg;
    wcfg.clients = 16;
    wcfg.beacons = 4;
    const auto wl = sim::make_multi_client_workload(wcfg, 3);
    TrackingService svc(service_config(4, 4));
    for (const auto& b : chunk(wl.events, {4.0}, 4.0)) {
        svc.submit(b);
        svc.run_epoch();
    }
    const EpochRecord* rec = svc.flight_recorder().latest();
    ASSERT_NE(rec, nullptr);
    EXPECT_GE(rec->worker_busy_max_us, rec->worker_busy_mean_us);
    const ServiceStatus st = svc.status();
    EXPECT_GT(st.solve_p50_us, 0.0);
    EXPECT_GE(st.worker_busy_imbalance_p50, 1.0);
    const std::string json = status_json(st);
    const std::size_t nd = json.find("\"nd\":");
    ASSERT_NE(nd, std::string::npos);
    // Wall-clock fields stay out of the deterministic half.
    EXPECT_EQ(json.find("phase_p50_us"), json.find("phase_p50_us", nd));
    EXPECT_NE(json.find("\"worker_busy_imbalance_p50\":", nd), std::string::npos);
    EXPECT_NE(svc.flight_recorder().to_json().find("\"solve_us\":"), std::string::npos);
}

}  // namespace
}  // namespace locble::serve
