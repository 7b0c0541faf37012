#include "locble/core/regression_tracker.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace locble::core {

double next_batch_end(double batch_end, double t, double batch_seconds) {
    for (int step = 0; step < kMaxBatchSteps && t > batch_end; ++step)
        batch_end += batch_seconds;
    if (t > batch_end) batch_end = t + batch_seconds;
    return batch_end;
}

RegressionTracker::RegressionTracker(const LocBle::Config& cfg, const EnvAware* envaware)
    : cfg_(cfg), solver_(cfg.solver), session_(solver_) {
    if (cfg_.use_envaware) {
        if (envaware == nullptr || !envaware->trained())
            throw std::invalid_argument("use_envaware requires a trained EnvAware");
        env_ = *envaware;
        env_->reset_stream();
    }
}

RegressionTracker::Batch RegressionTracker::observe(const std::vector<double>& batch_raw) {
    Batch out;
    st_.diag.batch_samples.push_back(batch_raw.size());
    // EnvAware sees the raw batch: it learns from the fluctuation statistics
    // the ANF would erase.
    bool regime_flip = false;
    if (env_ && batch_raw.size() >= 4) {
        const auto obs = env_->observe(batch_raw);
        st_.diag.envaware_windows += 1;
        out.window_class = obs.window_class;
        if (obs.window_class != channel::PropagationClass::los) st_.saw_blocked = true;
        st_.regime = obs.regime;
        regime_flip = obs.changed;
    }
    if (st_.regime && cfg_.use_regime_bands) {
        const auto band = exponent_band_for(*st_.regime);
        st_.band_min = std::min(st_.band_min, band.first);
        st_.band_max = std::max(st_.band_max, band.second);
    }
    double batch_mean = 0.0;
    for (const double v : batch_raw) batch_mean += v;
    batch_mean /= static_cast<double>(batch_raw.size());
    // A classifier flip only counts as an environment change when the
    // received level actually moved (a real insertion-loss change);
    // spurious reclassifications must not fragment the regression.
    const bool level_jumped =
        st_.have_prev_batch && std::abs(batch_mean - st_.prev_batch_mean) > 4.0;
    st_.prev_batch_mean = batch_mean;
    st_.have_prev_batch = true;
    out.env_changed = regime_flip && level_jumped && cfg_.restart_on_change;
    return out;
}

void RegressionTracker::open_segment() {
    ++st_.segment;
    ++st_.restarts;
}

void RegressionTracker::reset() {
    session_.reset();  // keeps buffer capacity: the reset is allocation-free
    st_.segment = 0;
    st_.restarts = 0;
    st_.saw_blocked = false;
    st_.band_min = 10.0;
    st_.band_max = 0.0;
    st_.has_fit = false;
    st_.samples_used = 0;
}

void RegressionTracker::add(std::vector<FusedSample>& batch) {
    for (auto& s : batch) s.segment = st_.segment;
    session_.add(batch);
}

SolveHints RegressionTracker::hints() const {
    SolveHints hints;
    // The regime's exponent band is applied only while one regime covered
    // the whole regression; mixed-regime data keeps the full range (the
    // union band measured worse than either constraint).
    if (cfg_.use_regime_bands && st_.band_max > st_.band_min && st_.restarts == 0)
        hints.exponent_band = {{st_.band_min, st_.band_max}};
    if (cfg_.gamma_prior_dbm) {
        // Blockage shows up as insertion loss the log-distance model has no
        // term for; per-segment Gammas absorb it, so the band must open
        // downward when any blocked regime was seen (glass/body ~3-8 dB,
        // concrete or metal 8-15 dB below calibration).
        double below = cfg_.gamma_prior_below_db;
        if (st_.saw_blocked && cfg_.use_regime_bands) below += 14.0;
        hints.gamma_band_dbm = {*cfg_.gamma_prior_dbm - below,
                                *cfg_.gamma_prior_dbm + cfg_.gamma_prior_above_db};
    }
    return hints;
}

bool RegressionTracker::solve(std::size_t count, const SolveHints& hints) {
    SolveDiagnostics sd;
    const bool solved = session_.solve_into(count, st_.fit, hints, &sd);
    if (solved) {
        st_.has_fit = true;
        st_.samples_used = count;
    }
    auto& diag = st_.diag;
    diag.solver_calls += 1;
    diag.solver_candidates += sd.exponent_candidates;
    diag.solver_failures += sd.candidate_failures;
    diag.solver_multistarts += sd.multistart_runs;
    diag.solver_warm_starts += sd.warm_starts;
    if (!sd.converged) diag.convergence_failures += 1;
    return solved;
}

RegressionTracker::Ckpt RegressionTracker::export_ckpt() const {
    Ckpt ck;
    if (env_) {
        ck.has_env = true;
        ck.env = env_->stream_state();
    }
    ck.samples = session_.samples();
    ck.warm_grid = session_.workspace().export_warm_grid();
    ck.state = st_;
    return ck;
}

void RegressionTracker::import_ckpt(const Ckpt& ck) {
    if (ck.has_env && env_) env_->restore_stream(ck.env);
    // Re-adding the samples rebuilds every incremental solver fold
    // bit-identically (exhaustive mode is exact by the Session contract;
    // coarse_to_fine additionally needs the warm grid installed below).
    session_.reset();
    session_.add(ck.samples);
    session_.workspace().import_warm_grid(ck.warm_grid);
    st_ = ck.state;
}

}  // namespace locble::core
