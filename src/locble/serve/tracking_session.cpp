#include "locble/serve/tracking_session.hpp"

#include "locble/obs/obs.hpp"

namespace locble::serve {

TrackingSession::TrackingSession(const Config& cfg, const core::EnvAware* envaware,
                                 IngestStats* stats)
    : cfg_(cfg), stats_(stats), anf_(cfg.pipeline.anf),
      tracker_(cfg_.pipeline, envaware) {}

double TrackingSession::pose_lag_s() const {
    return cfg_.pipeline.use_anf ? anf_.group_delay_s() : 0.0;
}

void TrackingSession::on_adv(double t, double rssi_dbm, double p, double q) {
    if (!st_.started) {
        st_.started = true;
        st_.batch_end = t + cfg_.pipeline.batch_seconds;
    }
    if (t > st_.batch_end) {
        flush_batch();
        st_.batch_end =
            core::next_batch_end(st_.batch_end, t, cfg_.pipeline.batch_seconds);
    }
    // Causal ANF: one pass per sample, never revisited (the offline
    // pipeline zero-phase filters the whole capture instead).
    const double denoised = cfg_.pipeline.use_anf ? anf_.process(rssi_dbm) : rssi_dbm;
    core::FusedSample fused;
    fused.t = t;
    fused.p = p;
    fused.q = q;
    fused.rssi = denoised;
    fused.segment = tracker_.state().segment;
    st_.batch_raw.push_back(rssi_dbm);
    st_.batch_fused.push_back(fused);
    ++st_.samples_seen;
    st_.last_event_t = t;
    st_.snap_dirty = true;  // samples_seen / last_event_t are snapshot fields
}

void TrackingSession::close_batches(double horizon) {
    if (st_.started && horizon > st_.batch_end) {
        flush_batch();
        st_.batch_end = core::next_batch_end(st_.batch_end, horizon,
                                             cfg_.pipeline.batch_seconds);
    }
}

void TrackingSession::reset_regression() {
    tracker_.reset();
    st_.has_cluster = false;
    ++st_.resets;
    st_.epoch_changed = true;
    st_.snap_dirty = true;
    if (stats_ != nullptr) ++stats_->sessions_reset;
    LOCBLE_COUNT("serve.sessions.reset", 1);
}

void TrackingSession::flush_batch() {
    if (st_.batch_raw.empty()) return;
    if (stats_ != nullptr) ++stats_->batches_flushed;
    LOCBLE_COUNT("serve.batches", 1);
    LOCBLE_HISTOGRAM("serve.batch.samples", st_.batch_raw.size(), 2.0, 4.0, 8.0, 16.0,
                     32.0, 64.0);

    if (tracker_.observe(st_.batch_raw).env_changed) {
        if (cfg_.reset_on_env_change) {
            // Lifecycle policy: forget the old environment's regression
            // entirely (allocation-free — Session::reset keeps capacity).
            reset_regression();
        } else {
            tracker_.open_segment();
            st_.snap_dirty = true;
            LOCBLE_COUNT("serve.regression_restarts", 1);
        }
    }
    if (cfg_.max_session_samples > 0 &&
        tracker_.size() + st_.batch_fused.size() > cfg_.max_session_samples)
        reset_regression();

    tracker_.add(st_.batch_fused);
    st_.dirty = true;
    st_.batch_raw.clear();
    st_.batch_fused.clear();
    if (cfg_.solve_per_flush) {
        if (stats_ != nullptr) ++stats_->solves;
        LOCBLE_COUNT("serve.solves", 1);
        solve();
    }
}

void TrackingSession::solve() {
    if (tracker_.solve()) {
        st_.epoch_changed = true;
        st_.snap_dirty = true;
    }
    st_.dirty = false;
}

TrackingSession::Ckpt TrackingSession::export_ckpt() const {
    return {anf_.checkpoint_state(), tracker_.export_ckpt(), st_};
}

void TrackingSession::import_ckpt(const Ckpt& ck) {
    anf_.restore_state(ck.anf);
    tracker_.import_ckpt(ck.tracker);
    st_ = ck.session;
}

locble::TimeSeries TrackingSession::rss_series() const {
    locble::TimeSeries out;
    out.reserve(tracker_.size());
    for (const auto& s : tracker_.samples()) out.push_back({s.t, s.rssi});
    return out;
}

}  // namespace locble::serve
