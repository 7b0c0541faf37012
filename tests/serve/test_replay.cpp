// Record/replay and checkpoint/restore identity (docs/WIRE.md): a recorded
// event log replayed through a fresh service — at any shard/thread count —
// reproduces the live run's canonical snapshot stream and the deterministic
// half of status_json() byte for byte; a checkpoint taken mid-log and
// restored into a fresh service continues bit-identically to the
// uninterrupted run.

#include "locble/serve/replay.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "locble/serve/event.hpp"
#include "locble/serve/service.hpp"
#include "locble/sim/multi_client.hpp"
#include "locble/sim/workload_log.hpp"
#include "locble/wire/codec.hpp"
#include "locble/wire/log.hpp"

namespace locble::serve {
namespace {

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

sim::MultiClientConfig workload_config(unsigned clients, unsigned beacons) {
    sim::MultiClientConfig wcfg;
    wcfg.clients = clients;
    wcfg.beacons = beacons;
    return wcfg;
}

/// The deterministic half of status_json(): everything before the "nd"
/// wall-clock object. The split point is part of the documented schema
/// ({"schema_version":1,"deterministic":{...},"nd":{...}}).
std::string deterministic_status(const TrackingService& svc) {
    const std::string full = status_json(svc.status());
    const std::size_t nd = full.find("\"nd\":");
    EXPECT_NE(nd, std::string::npos) << full;
    return full.substr(0, nd);
}

/// Per-epoch observation: canonical snapshot + deterministic status. Taking
/// the incremental snapshot exercises the dirty-tracking machinery, which a
/// checkpoint must carry across too.
std::string observe(TrackingService& svc) {
    return canonical_text(svc.snapshot(SnapshotMode::incremental)) +
           deterministic_status(svc) + "\n";
}

/// Drive a live run over the workload at a fixed epoch cadence with a
/// LogRecorder attached; returns the recorded log and the per-epoch
/// observation stream.
struct LiveRun {
    std::string log;
    std::string stream;
    std::uint64_t epochs{0};
};

LiveRun record_live(const sim::MultiClientWorkload& wl, unsigned shards,
                    unsigned threads, double epoch_s) {
    TrackingService svc(service_config(shards, threads));
    LogRecorder rec;
    svc.set_ingest_tap(&rec);
    LiveRun out;
    std::size_t i = 0;
    for (double edge = epoch_s; i < wl.events.size(); edge += epoch_s) {
        while (i < wl.events.size() && wl.events[i].t <= edge)
            svc.submit(wl.events[i++]);
        svc.run_epoch();
        out.stream += observe(svc);
        ++out.epochs;
    }
    svc.set_ingest_tap(nullptr);
    EXPECT_EQ(rec.epochs_recorded(), out.epochs);
    EXPECT_EQ(rec.events_recorded(), wl.events.size());
    out.log = rec.finish();
    return out;
}

/// Replay a log into a fresh service, observing after every epoch.
std::string replay_stream(std::string_view log, unsigned shards,
                          unsigned threads, ReplayStats* stats = nullptr) {
    TrackingService svc(service_config(shards, threads));
    ReplayDriver driver(svc, log);
    std::string stream;
    while (driver.step_epoch()) stream += observe(svc);
    if (stats != nullptr) *stats = driver.stats();
    return stream;
}

TEST(WireEventConversionTest, RoundTripsBitExactly) {
    const Event cases[] = {adv_event(7, 12.25, 3, -63.875),
                           adv_event(0, 0.0, 0, 0.0),
                           pose_event(9, 4.5, {-1.25, 3.75})};
    for (const Event& e : cases) {
        const Event back = from_wire(to_wire(e));
        EXPECT_EQ(back.client, e.client);
        EXPECT_EQ(back.t, e.t);
        EXPECT_EQ(back.kind, e.kind);
        EXPECT_EQ(back.beacon, e.beacon);
        EXPECT_EQ(back.rssi_dbm, e.rssi_dbm);
        EXPECT_EQ(back.position.x, e.position.x);
        EXPECT_EQ(back.position.y, e.position.y);
    }
}

/// The tentpole acceptance property: replaying a recorded live run
/// reproduces the live observation stream byte for byte, at shard/thread
/// counts different from the recording service's.
TEST(WireReplayTest, ReplayedRunIsByteIdenticalAtAnyShardCount) {
    const auto wl = sim::make_multi_client_workload(workload_config(32, 6), 17);
    ASSERT_GT(wl.events.size(), 500u);

    const LiveRun live = record_live(wl, 2, 2, 4.0);
    ASSERT_FALSE(live.stream.empty());

    for (const unsigned shards : {1u, 8u}) {
        ReplayStats stats;
        const std::string replayed =
            replay_stream(live.log, shards, shards, &stats);
        EXPECT_EQ(replayed, live.stream) << "shards " << shards;
        EXPECT_EQ(stats.events, wl.events.size());
        EXPECT_EQ(stats.epochs, live.epochs);
    }
}

/// Same property for synthesized logs: make_workload_log stands in for a
/// live recording, so every consumer (tests, bench, CI job) replays the
/// exact same byte stream.
TEST(WireReplayTest, SynthesizedWorkloadLogReplaysDeterministically) {
    sim::WorkloadLogConfig cfg;
    cfg.workload = workload_config(24, 4);
    cfg.epoch_s = 4.0;
    cfg.seed = 5;
    const sim::WorkloadLog log = sim::make_workload_log(cfg);
    ASSERT_GT(log.events, 0u);
    ASSERT_GT(log.epochs, 0u);

    // Generation is deterministic: same config, same bytes.
    EXPECT_EQ(sim::make_workload_log(cfg).bytes, log.bytes);

    ReplayStats stats1, stats8;
    const std::string one = replay_stream(log.bytes, 1, 1, &stats1);
    const std::string eight = replay_stream(log.bytes, 8, 4, &stats8);
    EXPECT_EQ(one, eight);
    EXPECT_EQ(stats1.events, log.events);
    EXPECT_EQ(stats1.epochs, log.epochs);
    EXPECT_EQ(stats8.events, log.events);
    EXPECT_EQ(stats8.epochs, log.epochs);
}

TEST(WireReplayTest, DriverRejectsNonEventLogStreams) {
    TrackingService svc(service_config(1, 1));
    EXPECT_THROW(ReplayDriver(svc, "not a log"), wire::WireError);

    // A checkpoint stream is a valid wire file but not an event log.
    TrackingService donor(service_config(1, 1));
    const std::string ckpt = donor.checkpoint();
    try {
        ReplayDriver driver(svc, ckpt);
        FAIL() << "checkpoint stream accepted as event log";
    } catch (const wire::WireError& e) {
        EXPECT_EQ(e.code(), wire::WireStatus::malformed);
    }
}

TEST(WireReplayTest, DriverSurfacesMidStreamCorruption) {
    sim::WorkloadLogConfig cfg;
    cfg.workload = workload_config(8, 3);
    const sim::WorkloadLog log = sim::make_workload_log(cfg);
    std::string bad = log.bytes;
    bad[bad.size() / 2] = static_cast<char>(bad[bad.size() / 2] ^ 0x20);
    TrackingService svc(service_config(2, 1));
    ReplayDriver driver(svc, bad);
    EXPECT_THROW(driver.run(), wire::WireError);
}

/// Checkpoint/restore identity, parameterized over pipeline variants: run
/// the first half of a log, checkpoint, restore into a fresh service with a
/// different shard/thread count, replay the rest — the combined observation
/// stream, final snapshot, stats and deterministic status must equal the
/// uninterrupted run's.
void check_checkpoint_identity(
    const std::function<void(TrackingService::Config&)>& mutate_cfg,
    std::uint64_t seed) {
    sim::WorkloadLogConfig lcfg;
    lcfg.workload = workload_config(24, 4);
    lcfg.epoch_s = 4.0;
    lcfg.seed = seed;
    const sim::WorkloadLog log = sim::make_workload_log(lcfg);
    ASSERT_GT(log.epochs, 4u);

    auto make_cfg = [&](unsigned shards, unsigned threads) {
        TrackingService::Config cfg = service_config(shards, threads);
        mutate_cfg(cfg);
        return cfg;
    };

    // Uninterrupted reference at 3 shards.
    TrackingService ref(make_cfg(3, 2));
    ReplayDriver ref_driver(ref, log.bytes);
    std::string ref_stream;
    while (ref_driver.step_epoch()) ref_stream += observe(ref);

    // Interrupted: 2 shards up to the midpoint...
    const std::uint64_t half = log.epochs / 2;
    TrackingService first(make_cfg(2, 1));
    ReplayDriver first_driver(first, log.bytes);
    std::string stream;
    for (std::uint64_t i = 0; i < half; ++i) {
        ASSERT_TRUE(first_driver.step_epoch());
        stream += observe(first);
    }
    const std::string ckpt = first.checkpoint();

    // ...then restore into a fresh 5-shard service and finish the log.
    TrackingService resumed(make_cfg(5, 4));
    resumed.restore_checkpoint(ckpt);
    // Restoring twice must be rejected: the service is no longer fresh.
    EXPECT_THROW(resumed.restore_checkpoint(ckpt), std::logic_error);

    ReplayDriver rest(resumed, log.bytes);
    ASSERT_EQ(rest.skip_epochs(half), half);
    while (rest.step_epoch()) stream += observe(resumed);

    // The combined (interrupted) observation stream equals the
    // uninterrupted one: every incremental snapshot, every stat, every
    // deterministic status field — byte for byte.
    EXPECT_EQ(stream, ref_stream);
    // And the final full snapshots agree too (incremental observations
    // above leave different dirty baselines untested otherwise).
    EXPECT_EQ(canonical_text(resumed.snapshot(SnapshotMode::full)),
              canonical_text(ref.snapshot(SnapshotMode::full)));
    EXPECT_EQ(deterministic_status(resumed), deterministic_status(ref));
}

TEST(WireCheckpointTest, MidLogRestoreContinuesBitIdentically) {
    check_checkpoint_identity([](TrackingService::Config&) {}, 7);
}

TEST(WireCheckpointTest, MidLogRestoreWithClusteringEnabled) {
    check_checkpoint_identity(
        [](TrackingService::Config& cfg) { cfg.shard.enable_clustering = true; },
        11);
}

TEST(WireCheckpointTest, MidLogRestoreWithExhaustiveSearch) {
    check_checkpoint_identity(
        [](TrackingService::Config& cfg) {
            cfg.shard.session.pipeline.solver.search_mode =
                core::LocationSolver::SearchMode::exhaustive;
        },
        13);
}

/// Restore immediately reproduces the checkpointed service's observable
/// surface — snapshot, stats, deterministic status — with no further
/// events, at a different shard count.
TEST(WireCheckpointTest, RestoreReproducesObservableState) {
    sim::WorkloadLogConfig lcfg;
    lcfg.workload = workload_config(16, 4);
    const sim::WorkloadLog log = sim::make_workload_log(lcfg);

    TrackingService donor(service_config(2, 2));
    ReplayDriver driver(donor, log.bytes);
    driver.run();
    const std::string ckpt = donor.checkpoint();

    TrackingService twin(service_config(7, 3));
    twin.restore_checkpoint(ckpt);

    // The checkpoint bytes are shard-count independent and restore is
    // lossless: the twin immediately re-checkpoints to the exact same
    // stream. (Checked before any snapshot: snapshot() back-fills row
    // counts into the flight recorder, mutating what a later checkpoint
    // would serialize — identically on both services, but not equal to the
    // pre-snapshot bytes.)
    EXPECT_EQ(twin.checkpoint(), ckpt);

    EXPECT_EQ(canonical_text(twin.snapshot(SnapshotMode::full)),
              canonical_text(donor.snapshot(SnapshotMode::full)));
    EXPECT_EQ(deterministic_status(twin), deterministic_status(donor));
    const IngestStats a = donor.stats(), b = twin.stats();
    EXPECT_EQ(a.submitted, b.submitted);
    EXPECT_EQ(a.accepted, b.accepted);
    EXPECT_EQ(a.dropped, b.dropped);
    EXPECT_EQ(a.rejected, b.rejected);
    EXPECT_EQ(a.late, b.late);
    EXPECT_EQ(a.epochs, b.epochs);
    EXPECT_EQ(a.clients_created, b.clients_created);
    EXPECT_EQ(a.clients_evicted, b.clients_evicted);
    EXPECT_EQ(a.sessions_created, b.sessions_created);
    EXPECT_EQ(a.sessions_evicted, b.sessions_evicted);
    EXPECT_EQ(a.sessions_reset, b.sessions_reset);
    EXPECT_EQ(a.batches_flushed, b.batches_flushed);
    EXPECT_EQ(a.solves, b.solves);
    EXPECT_EQ(a.cluster_runs, b.cluster_runs);
}

TEST(WireCheckpointTest, RestoreRequiresAFreshService) {
    TrackingService donor(service_config(1, 1));
    donor.submit(adv_event(1, 0.5, 1, -60.0));
    donor.run_epoch();
    const std::string ckpt = donor.checkpoint();

    // An event was submitted: not fresh.
    TrackingService dirty_submit(service_config(1, 1));
    dirty_submit.submit(adv_event(2, 0.25, 1, -61.0));
    EXPECT_THROW(dirty_submit.restore_checkpoint(ckpt), std::logic_error);

    // An epoch ran (even with no events): not fresh.
    TrackingService dirty_epoch(service_config(1, 1));
    dirty_epoch.run_epoch();
    EXPECT_THROW(dirty_epoch.restore_checkpoint(ckpt), std::logic_error);
}

TEST(WireCheckpointTest, ConfigMismatchIsRejectedWithItsTypedCode) {
    TrackingService donor(service_config(2, 1));
    donor.submit(adv_event(1, 0.5, 1, -60.0));
    donor.run_epoch();
    const std::string ckpt = donor.checkpoint();

    auto cfg = service_config(4, 2);  // shard/thread counts may differ freely
    cfg.shard.session.pipeline.batch_seconds *= 2.0;  // results may not
    TrackingService other(cfg);
    try {
        other.restore_checkpoint(ckpt);
        FAIL() << "config mismatch accepted";
    } catch (const wire::WireError& e) {
        EXPECT_EQ(e.code(), wire::WireStatus::config_mismatch);
    }
}

/// Corrupt checkpoint bytes must surface as typed wire errors — sampled
/// byte flips and prefix truncations, never a crash (the sanitizer preset
/// runs this too) and never a silent half-restore.
TEST(WireCheckpointTest, CorruptCheckpointsAreRejected) {
    sim::WorkloadLogConfig lcfg;
    lcfg.workload = workload_config(8, 3);
    const sim::WorkloadLog log = sim::make_workload_log(lcfg);
    TrackingService donor(service_config(2, 1));
    ReplayDriver(donor, log.bytes).run();
    const std::string ckpt = donor.checkpoint();
    ASSERT_GT(ckpt.size(), 200u);

    // An event log is a well-formed wire stream but not a checkpoint.
    {
        TrackingService fresh(service_config(1, 1));
        try {
            fresh.restore_checkpoint(log.bytes);
            FAIL() << "event log accepted as checkpoint";
        } catch (const wire::WireError& e) {
            EXPECT_EQ(e.code(), wire::WireStatus::malformed);
        }
    }
    for (std::size_t i = 0; i < ckpt.size(); i += 53) {
        std::string bad = ckpt;
        bad[i] = static_cast<char>(bad[i] ^ 0x24);
        TrackingService fresh(service_config(1, 1));
        EXPECT_THROW(fresh.restore_checkpoint(bad), wire::WireError)
            << "flipped byte " << i;
    }
    for (std::size_t n = 0; n < ckpt.size(); n += 97) {
        TrackingService fresh(service_config(1, 1));
        EXPECT_THROW(
            fresh.restore_checkpoint(std::string_view(ckpt).substr(0, n)),
            wire::WireError)
            << "prefix " << n;
    }
}

/// Rewrite one client-section byte of a checkpoint and re-frame it with
/// valid checksums, so only the content checks can catch the change.
std::string reframe_with(const std::string& ckpt, std::size_t client_pos,
                         char replacement) {
    wire::LogReader in(ckpt);
    wire::LogWriter out(wire::StreamKind::checkpoint);
    wire::LogRecord frame;
    while (in.next(frame) == wire::WireStatus::ok) {
        std::string body(frame.section_body);
        if (frame.section_name == "client") body[client_pos] = replacement;
        out.section(frame.section_name, body);
    }
    return out.finish();
}

/// A checkpoint whose CRCs are valid but whose sample segment tags are
/// forged must be refused as malformed: the tags index the solver's
/// per-segment Gammas, so a negative or too-large tag would otherwise reach
/// the solver's scratch arrays at the next solve.
TEST(WireCheckpointTest, ForgedSegmentTagsAreMalformed) {
    TrackingService donor(service_config(1, 1));
    for (int i = 0; i < 8; ++i) donor.submit(pose_event(1, i, {0.6 * i, 0.0}));
    constexpr double kMarkT = 0.05 + 0.1 * 23;
    for (int i = 0; i < 60; ++i)
        donor.submit(adv_event(1, 0.05 + 0.1 * i, 7, -60.0 - 0.1 * i));
    donor.run_epoch();
    const std::string ckpt = donor.checkpoint();

    // Locate the one serialized sample taken at kMarkT: f64 t, p, q, rssi,
    // then its svarint segment tag (one byte, 0x00, for segment 0).
    wire::LogReader reader(ckpt);
    wire::LogRecord frame;
    std::string client;
    while (reader.next(frame) == wire::WireStatus::ok)
        if (frame.section_name == "client") client = std::string(frame.section_body);
    wire::ByteWriter mark;
    mark.f64(kMarkT);
    const std::string pattern(mark.data());
    std::size_t at = std::string::npos, hits = 0;
    for (std::size_t pos = client.find(pattern); pos != std::string::npos;
         pos = client.find(pattern, pos + 1)) {
        ++hits;
        at = pos + 32;
    }
    ASSERT_EQ(hits, 1u);
    ASSERT_LT(at, client.size());
    ASSERT_EQ(client[at], '\0');

    // Re-framing the untouched tag restores fine ...
    {
        TrackingService fresh(service_config(1, 1));
        EXPECT_NO_THROW(fresh.restore_checkpoint(reframe_with(ckpt, at, '\0')));
    }
    // ... while tag -1 (zigzag 0x01) and tag 1 (0x02, past the session's
    // last opened segment 0) are typed wire errors.
    for (const char forged : {'\x01', '\x02'}) {
        TrackingService fresh(service_config(1, 1));
        try {
            fresh.restore_checkpoint(reframe_with(ckpt, at, forged));
            FAIL() << "forged tag byte " << static_cast<int>(forged) << " accepted";
        } catch (const wire::WireError& e) {
            EXPECT_EQ(e.code(), wire::WireStatus::malformed);
        }
    }
}

}  // namespace
}  // namespace locble::serve
