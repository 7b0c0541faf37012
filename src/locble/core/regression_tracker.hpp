#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "locble/core/envaware.hpp"
#include "locble/core/location_solver.hpp"
#include "locble/core/pipeline.hpp"

namespace locble::core {

/// Algorithm 1's batch clock, shared by LocBle::run and
/// serve::TrackingSession: the end of the batch window that holds `t`,
/// stepped on from `batch_end` by whole `batch_seconds` windows. Call it
/// once `t > batch_end`, after flushing the window that closed. Empty
/// windows flush nothing, so a gap costs at most kMaxBatchSteps steps: a
/// longer gap, or one where a step no longer moves the double (1e18,
/// +inf), restarts the clock at `t`, as the first sample starts it. With
/// 2 s batches, gaps under 128 s step exactly as an unbounded loop would.
inline constexpr int kMaxBatchSteps = 64;
double next_batch_end(double batch_end, double t, double batch_seconds);

/// Algorithm 1's per-batch regression step (Sec. 5.3), shared by the offline
/// LocBle pipeline and the streaming serve::TrackingSession.
///
/// Each closed 2-3 s batch is observed (EnvAware classifies the raw batch,
/// the regime's exponent band joins the running union, the batch mean
/// updates the level tracker), tagged with the current environment segment
/// and folded into one incremental LocationSolver::Session; solve() builds
/// the exponent/Gamma hints and re-solves. A debounced regime change with a
/// real level jump is reported by observe() — the caller decides whether it
/// opens a new segment (Algo. 1's "new regression": x and h shared, Gamma
/// per segment) or resets the regression outright. The tracker itself
/// never knows which caller drives it; obs counters are the caller's too.
///
/// `cfg` is borrowed and must outlive the tracker.
class RegressionTracker {
public:
    /// Everything the step carries between batches besides the solver
    /// session and EnvAware's streaming state.
    struct State {
        int segment{0};   ///< current environment segment tag
        int restarts{0};  ///< segments opened since the last reset
        std::optional<channel::PropagationClass> regime;  ///< EnvAware's latest
        double band_min{10.0}, band_max{0.0};  ///< union of regime bands seen
        bool saw_blocked{false};  ///< any non-LoS window since the last reset
        double prev_batch_mean{0.0};
        bool have_prev_batch{false};
        bool has_fit{false};
        LocationFit fit{};             ///< latest converged fit (valid if has_fit)
        std::size_t samples_used{0};   ///< regression size at that fit
        LocateResult::Diagnostics diag{};
    };

    /// Complete serializable state (service checkpointing, docs/WIRE.md).
    /// The solver's incremental per-grid-point folds are not here: import
    /// re-adds `samples` to a fresh Session, which rebuilds them
    /// bit-identically (left-to-right folds of an append-only stream); only
    /// the warm-start grid — genuine history — is carried.
    struct Ckpt {
        bool has_env{false};
        EnvAware::StreamState env{};
        std::vector<FusedSample> samples;
        SolverWorkspace::WarmGrid warm_grid{};
        State state{};
    };

    /// What observe() saw in one batch.
    struct Batch {
        /// A debounced regime change with a > 4 dB level jump, when
        /// cfg.restart_on_change is set (Algo. 1 line 13).
        bool env_changed{false};
        /// EnvAware's class for this batch (nullopt when it did not run).
        std::optional<channel::PropagationClass> window_class;
    };

    /// `envaware` must be a trained model when cfg.use_envaware is set; the
    /// tracker keeps its own copy (the regime tracker is streaming state).
    RegressionTracker(const LocBle::Config& cfg, const EnvAware* envaware);

    RegressionTracker(const RegressionTracker&) = delete;
    RegressionTracker& operator=(const RegressionTracker&) = delete;

    /// Observe one closed batch of raw RSS: EnvAware, band union, level.
    Batch observe(const std::vector<double>& batch_raw);
    /// Open a new environment segment (a per-segment Gamma).
    void open_segment();
    /// Forget the regression: session, segment, restarts, blocked flag,
    /// bands and the fit. The regime and level tracker carry over.
    void reset();
    /// Tag `batch` with the current segment and fold it into the session.
    void add(std::vector<FusedSample>& batch);
    /// The exponent/Gamma hints for a solve over everything added so far.
    /// They follow the band union, restarts and the blocked flag, so a
    /// caller that solves later must record them now.
    SolveHints hints() const;
    /// Solve over the first `count` samples added, with `hints`; true when
    /// a fit converged (the fit and `count` become the state's fit and
    /// samples_used).
    bool solve(std::size_t count, const SolveHints& hints);
    /// Re-solve over everything added; true when a fit converged.
    bool solve() { return solve(size(), hints()); }

    const State& state() const { return st_; }
    std::size_t size() const { return session_.size(); }
    const std::vector<FusedSample>& samples() const { return session_.samples(); }

    Ckpt export_ckpt() const;
    /// Install checkpointed state into a freshly constructed tracker (same
    /// config and EnvAware model).
    void import_ckpt(const Ckpt& ck);

private:
    const LocBle::Config& cfg_;
    std::optional<EnvAware> env_;
    LocationSolver solver_;
    LocationSolver::Session session_;
    State st_;
};

}  // namespace locble::core
