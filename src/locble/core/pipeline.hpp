#pragma once

#include <optional>
#include <vector>

#include "locble/common/timeseries.hpp"
#include "locble/core/envaware.hpp"
#include "locble/core/location_solver.hpp"
#include "locble/dsp/anf.hpp"
#include "locble/motion/dead_reckoning.hpp"

namespace locble::core {

/// Output of one LocBLE measurement (Algo. 1's return value).
struct LocateResult {
    /// Stage-level accounting for one locate() call, populated on every run
    /// regardless of the locble::obs build/runtime switches — library users
    /// get solver and batching insight without linking the tracer.
    struct Diagnostics {
        /// Regression solves that ran. Offline: one over the whole capture,
        /// plus one per earlier batch tried, newest first, while solves
        /// fail. Serve: one per epoch (per flushed batch with
        /// solve_per_flush).
        int solver_calls{0};
        int solver_candidates{0};    ///< exponent grid points evaluated in total
        int solver_failures{0};      ///< grid points rejected (degenerate/implausible)
        int solver_multistarts{0};   ///< solves that needed the multi-start fallback
        int solver_warm_starts{0};   ///< grid points seeded from a previous solve
        int convergence_failures{0}; ///< solves that returned no fit at all
        int envaware_windows{0};     ///< batches EnvAware classified
        std::vector<std::size_t> batch_samples;  ///< RSS samples per Algo. 1 batch
    };

    std::optional<LocationFit> fit;  ///< nullopt when no regression converged
    int regression_restarts{0};      ///< environment changes that reset the fit
    std::size_t samples_used{0};     ///< samples in the final regression
    std::vector<channel::PropagationClass> window_classes;  ///< per-batch EnvAware output
    Diagnostics diagnostics;
};

/// The LocBLE estimation pipeline (Sec. 5.3, Algorithm 1): batches RSS,
/// classifies the environment per batch (EnvAware), denoises with ANF,
/// matches RSS to dead-reckoned movement by timestamp, and maintains the
/// elliptical regression — restarting it when the environment changes.
class LocBle {
public:
    struct Config {
        dsp::Anf::Config anf{};
        LocationSolver::Config solver{};
        double batch_seconds{2.0};   ///< Algo. 1 collects 2-3 s batches
        bool use_anf{true};          ///< ablation switch (Fig. 5)
        bool use_envaware{true};     ///< ablation switch (Fig. 5)
        /// Calibrated 1 m RSSI read from the target's beacon frame (iBeacon
        /// measured power / Eddystone txPower); when set, Gamma is searched
        /// in [prior - below, prior + above]. The band is asymmetric:
        /// fading, blockage and body shadowing only ever *lower* the
        /// received level relative to calibration.
        std::optional<double> gamma_prior_dbm;
        double gamma_prior_below_db{5.0};
        double gamma_prior_above_db{3.0};
        /// Diagnostics/ablation: let EnvAware's regime constrain the
        /// exponent band and widen the Gamma band (the Sec. 4.1 coupling).
        bool use_regime_bands{true};
        /// Diagnostics/ablation: restart the regression when the regime
        /// changes (Algo. 1 line 13).
        bool restart_on_change{true};
    };

    /// `envaware` must be trained when cfg.use_envaware is true; pass
    /// std::nullopt to run without environment recognition.
    LocBle(const Config& cfg, std::optional<EnvAware> envaware);
    explicit LocBle(const Config& cfg) : LocBle(cfg, std::nullopt) {}

    /// Locate a stationary target from the observer's RSS capture and
    /// dead-reckoned movement. RSS timestamps and the motion estimate must
    /// share a clock. Samples with a non-finite time or RSSI are skipped.
    LocateResult locate(const locble::TimeSeries& raw_rss,
                        const motion::MotionEstimate& observer) const;

    /// Locate a *moving* target: the target transfers its own motion
    /// estimate after the measurement (Sec. 5). `target_frame_rotation` is
    /// the target's initial magnetic heading minus the observer's, which
    /// aligns the two dead-reckoning frames through the shared compass
    /// reference.
    LocateResult locate(const locble::TimeSeries& raw_rss,
                        const motion::MotionEstimate& observer,
                        const motion::MotionEstimate& target,
                        double target_frame_rotation) const;

    const Config& config() const { return cfg_; }

private:
    LocateResult run(const locble::TimeSeries& raw_rss,
                     const motion::MotionEstimate& observer,
                     const motion::MotionEstimate* target) const;

    Config cfg_;
    std::optional<EnvAware> envaware_;
};

/// Rotate a dead-reckoned path by `angle` radians (frame alignment for the
/// moving-target mode).
motion::MotionEstimate rotate_motion(const motion::MotionEstimate& m, double angle);

}  // namespace locble::core
