#include "locble/core/pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <stdexcept>

#include "locble/core/regression_tracker.hpp"
#include "locble/obs/obs.hpp"

namespace locble::core {

LocBle::LocBle(const Config& cfg, std::optional<EnvAware> envaware)
    : cfg_(cfg), envaware_(std::move(envaware)) {
    if (cfg_.use_envaware && (!envaware_ || !envaware_->trained()))
        throw std::invalid_argument("LocBle: use_envaware requires a trained EnvAware");
}

motion::MotionEstimate rotate_motion(const motion::MotionEstimate& m, double angle) {
    motion::MotionEstimate out = m;
    for (auto& tp : out.path) tp.position = tp.position.rotated(angle);
    return out;
}

LocateResult LocBle::locate(const locble::TimeSeries& raw_rss,
                            const motion::MotionEstimate& observer) const {
    return run(raw_rss, observer, nullptr);
}

LocateResult LocBle::locate(const locble::TimeSeries& raw_rss,
                            const motion::MotionEstimate& observer,
                            const motion::MotionEstimate& target,
                            double target_frame_rotation) const {
    const motion::MotionEstimate aligned = rotate_motion(target, target_frame_rotation);
    return run(raw_rss, observer, &aligned);
}

LocateResult LocBle::run(const locble::TimeSeries& raw_rss,
                         const motion::MotionEstimate& observer,
                         const motion::MotionEstimate* target) const {
    LOCBLE_SPAN("pipeline.locate");
    LocateResult result;
    if (raw_rss.empty()) return result;
    LOCBLE_COUNT("pipeline.locate_calls", 1);
    LOCBLE_COUNT("pipeline.samples_in", raw_rss.size());

    // A sample with a non-finite time or RSSI would poison ANF and the
    // solver (or, for the time, the batch clock): skip it, copying the
    // capture only when there is one.
    const auto finite = [](const locble::Sample& s) {
        return std::isfinite(s.t) && std::isfinite(s.value);
    };
    locble::TimeSeries valid;
    const locble::TimeSeries* rss = &raw_rss;
    if (!std::all_of(raw_rss.begin(), raw_rss.end(), finite)) {
        std::copy_if(raw_rss.begin(), raw_rss.end(), std::back_inserter(valid), finite);
        LOCBLE_COUNT("pipeline.invalid_samples", raw_rss.size() - valid.size());
        if (valid.empty()) return result;
        rss = &valid;
    }

    // ANF runs offline (zero-phase) over the recorded capture; the tracker's
    // EnvAware sees the raw batches.
    const dsp::Anf anf(cfg_.anf);
    locble::TimeSeries denoised_series;
    if (cfg_.use_anf) denoised_series = anf.process_offline(*rss);
    RegressionTracker tracker(cfg_, envaware_ ? &*envaware_ : nullptr);

    const double t0 = rss->front().t;
    double batch_end = t0 + cfg_.batch_seconds;
    std::vector<double> batch_raw;
    std::vector<FusedSample> batch_fused;

    // Algorithm 1 re-solves after every batch so a phone can show a live
    // estimate; locate() returns only the last fit that converged. Each
    // flush therefore records the regression size and the hints a solve
    // would use then, and the solves run after the capture (below).
    struct Flush {
        std::size_t count;
        SolveHints hints;
    };
    std::vector<Flush> flushes;
    auto flush_batch = [&]() {
        if (batch_raw.empty()) return;
        LOCBLE_COUNT("pipeline.batches", 1);
        const auto batch = tracker.observe(batch_raw);
        if (batch.window_class) result.window_classes.push_back(*batch.window_class);
        if (batch.env_changed) {
            tracker.open_segment();
            LOCBLE_COUNT("pipeline.regression_restarts", 1);
        }
        tracker.add(batch_fused);
        flushes.push_back({tracker.size(), tracker.hints()});
        batch_raw.clear();
        batch_fused.clear();
    };

    for (std::size_t i = 0; i < rss->size(); ++i) {
        const auto& s = (*rss)[i];
        if (s.t > batch_end) {
            flush_batch();
            batch_end = next_batch_end(batch_end, s.t, cfg_.batch_seconds);
        }
        const double denoised = cfg_.use_anf ? denoised_series[i].value : s.value;
        // Match movement to the RSS sample by timestamp (Algo. 1 line 8).
        const locble::Vec2 obs_pos = observer.position_at(s.t);
        locble::Vec2 tgt_pos{0.0, 0.0};
        if (target) tgt_pos = target->position_at(s.t);
        FusedSample fused;
        fused.t = s.t;
        fused.p = tgt_pos.x - obs_pos.x;
        fused.q = tgt_pos.y - obs_pos.y;
        fused.rssi = denoised;
        batch_raw.push_back(s.value);
        batch_fused.push_back(fused);
    }
    flush_batch();

    // In exhaustive mode a Session solve equals a cold solve over the same
    // samples, so solving the newest flush first, and an earlier one only
    // while solves fail, leaves the fit, samples_used and has_fit that a
    // solve after every batch leaves. coarse_to_fine has no earlier fits
    // to warm-start from, so it runs one cold coarse solve.
    for (auto f = flushes.rbegin(); f != flushes.rend(); ++f)
        if (tracker.solve(f->count, f->hints)) break;

    const RegressionTracker::State& st = tracker.state();
    if (st.has_fit) result.fit = st.fit;
    result.regression_restarts = st.restarts;
    result.samples_used = st.samples_used;
    result.diagnostics = st.diag;
    if (!result.fit) LOCBLE_COUNT("pipeline.no_fix", 1);
    return result;
}

}  // namespace locble::core
