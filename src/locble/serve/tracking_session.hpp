#pragma once

#include <cstddef>
#include <vector>

#include "locble/core/clustering.hpp"
#include "locble/core/pipeline.hpp"
#include "locble/core/regression_tracker.hpp"
#include "locble/dsp/anf.hpp"
#include "locble/serve/stats.hpp"

namespace locble::serve {

/// Streaming per-(client, beacon) tracking chain: causal ANF denoising
/// feeding core::RegressionTracker — the same Algorithm-1 batch step
/// (Sec. 5.3) the offline core::LocBle pipeline runs, with its EnvAware
/// regime tracking and incremental warm-started LocationSolver::Session.
///
/// Two deliberate differences from the offline pipeline, documented in
/// docs/SERVING.md: the ANF runs causally (a service cannot zero-phase
/// filter the future), so each denoised sample is paired with the pose
/// `Anf::group_delay_s()` earlier; and the solver re-solve is deferred to
/// the end of the epoch instead of running at every batch flush, so one
/// warm-started solve amortizes over every event the epoch delivered —
/// the serve layer's batching win.
///
/// Everything here is driven by event-stream time, never the wall clock,
/// and by one thread at a time (its shard's worker, or for solve() any
/// one worker between two epoch barriers), so a session's whole history is
/// a pure function of its input events — identical whatever the shard or
/// thread count.
class TrackingSession {
public:
    struct Config {
        /// Stage configuration shared with the offline pipeline: ANF,
        /// solver, batch cadence, EnvAware/regime switches, Gamma prior.
        core::LocBle::Config pipeline{};
        /// Lifecycle policy for a debounced regime change with a real level
        /// jump: false splits the regression into a new environment segment
        /// (Algo. 1's per-segment Gamma, the offline pipeline's behavior);
        /// true resets the solver session outright and starts a fresh
        /// regression from the new environment (buffer capacity is kept, so
        /// the reset is allocation-free).
        bool reset_on_env_change{false};
        /// Solve at every batch flush (the offline pipeline's cadence)
        /// instead of once per epoch. Costs roughly one extra solve per
        /// flushed batch; only worth it when estimates must not lag an
        /// epoch behind the freshest batch.
        bool solve_per_flush{false};
        /// When > 0, a session whose accumulated regression exceeds this
        /// many samples is reset (counted in `resets`) before the next
        /// batch is added — bounds per-session memory on endless streams.
        std::size_t max_session_samples{0};
    };

    /// `envaware` must be a trained model when cfg.pipeline.use_envaware is
    /// set (std::invalid_argument otherwise); the session keeps its own
    /// copy (the regime tracker carries per-session streaming state).
    /// When `stats` is non-null the session bumps the shard's
    /// batches_flushed / sessions_reset counters (and, under
    /// solve_per_flush, solves) there, so the totals survive the session's
    /// own eviction.
    TrackingSession(const Config& cfg, const core::EnvAware* envaware,
                    IngestStats* stats = nullptr);

    TrackingSession(const TrackingSession&) = delete;
    TrackingSession& operator=(const TrackingSession&) = delete;

    /// Feed one advertisement: raw RSSI plus the relative displacement
    /// (p, q) = target - observer at the pose-pairing time (the caller
    /// already compensated the ANF group delay). Flushes every batch whose
    /// window closed before `t`.
    void on_adv(double t, double rssi_dbm, double p, double q);

    /// Close out the epoch at event-time `horizon`: flush every batch whose
    /// window has passed. The deferred solve is separate (needs_solve /
    /// solve) so the service can schedule it on any worker.
    void close_batches(double horizon);

    /// Samples were added since the last solve and solve_per_flush did not
    /// already solve them: the epoch's deferred solve is due.
    bool needs_solve() const { return st_.dirty && !cfg_.solve_per_flush; }

    /// The deferred solve: one warm-started incremental solve over
    /// everything accumulated. It touches only this session — never the
    /// shard's stats, which count the solve when it is queued — so any one
    /// worker may run it between the epoch's drain and settle barriers.
    void solve();

    /// Pair poses this many seconds before the advertisement timestamp —
    /// the causal ANF chain's group delay (0 when the ANF is disabled).
    double pose_lag_s() const;

    bool has_fit() const { return tracker_.state().has_fit; }
    const core::LocationFit& fit() const { return tracker_.state().fit; }
    std::size_t samples_used() const { return tracker_.state().samples_used; }
    std::size_t samples_seen() const { return st_.samples_seen; }
    /// Samples in the current regression: what the next solve runs over.
    std::size_t regression_size() const { return tracker_.size(); }
    int regression_restarts() const { return tracker_.state().restarts; }
    int resets() const { return st_.resets; }
    double last_event_t() const { return st_.last_event_t; }
    const core::LocateResult::Diagnostics& diagnostics() const {
        return tracker_.state().diag;
    }

    /// The accumulated (denoised) RSS stream of the current regression —
    /// the trend signal the clustering stage compares across co-located
    /// beacons. Timestamped like the input events.
    locble::TimeSeries rss_series() const;

    bool has_cluster() const { return st_.has_cluster; }
    const core::ClusterCalibration& cluster() const { return st_.cluster; }
    void set_cluster(const core::ClusterCalibration& c) {
        st_.cluster = c;
        st_.has_cluster = true;
        st_.snap_dirty = true;
    }

    /// Did solve()/on_adv() change the fit since the last
    /// take_epoch_changed()? The shard uses this to re-run clustering only
    /// for clients that actually moved.
    bool take_epoch_changed() {
        const bool c = st_.epoch_changed;
        st_.epoch_changed = false;
        return c;
    }

    /// Does the session still hold samples in an un-flushed batch window?
    /// The shard uses this to keep visiting otherwise-idle clients until
    /// their last open batch has closed and solved.
    bool has_open_batch() const { return !st_.batch_raw.empty(); }

    /// Snapshot dirty tracking (incremental snapshots, docs/SERVING.md):
    /// `snapshot_dirty()` is true when any field of the session's snapshot
    /// row changed since the last time a snapshot cleared it; the shard's
    /// per-epoch dirty list dedupes entries with `dirty_listed()`.
    bool snapshot_dirty() const { return st_.snap_dirty; }
    bool dirty_listed() const { return st_.dirty_listed; }
    void mark_dirty_listed() { st_.dirty_listed = true; }
    void clear_snapshot_dirty() {
        st_.snap_dirty = false;
        st_.dirty_listed = false;
    }

    /// Re-point the shard-stats sink after a shard migration
    /// (TrackingService::resize_shards); counters already accumulated stay
    /// with the old shard's totals, which the service retires.
    void rebind_stats(IngestStats* stats) { stats_ = stats; }

    /// The session's own state around the shared regression step: the
    /// batch window, lifecycle and snapshot flags, and the cluster result.
    struct State {
        bool started{false};
        double batch_end{0.0};
        double last_event_t{0.0};
        std::vector<double> batch_raw;
        std::vector<core::FusedSample> batch_fused;
        int resets{0};
        bool dirty{false};  ///< samples added since the last solve
        bool epoch_changed{false};
        // A fresh session has a row to publish, so it is born snapshot-dirty.
        bool snap_dirty{true};
        bool dirty_listed{false};
        std::size_t samples_seen{0};
        bool has_cluster{false};
        core::ClusterCalibration cluster{};
    };

    /// Complete serializable state of a session (service checkpointing,
    /// docs/WIRE.md): three whole structs.
    struct Ckpt {
        dsp::Anf::State anf{};
        core::RegressionTracker::Ckpt tracker{};
        State session{};
    };
    Ckpt export_ckpt() const;
    /// Install checkpointed state into a freshly constructed session (same
    /// config and EnvAware model — the checkpoint's config digest enforces
    /// this at the service layer). After import the session continues
    /// bit-identically to the one the checkpoint came from.
    void import_ckpt(const Ckpt& ck);

private:
    void flush_batch();
    void reset_regression();

    Config cfg_;
    IngestStats* stats_{nullptr};
    dsp::Anf anf_;
    core::RegressionTracker tracker_;
    State st_;
};

}  // namespace locble::serve
