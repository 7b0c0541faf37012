#pragma once

#include <atomic>
#include <barrier>
#include <chrono>
#include <cstddef>
#include <exception>
#include <functional>
#include <future>
#include <mutex>
#include <optional>
#include <vector>

#include "locble/runtime/thread_pool.hpp"

namespace locble::runtime {

/// Indexed work in phases on a fixed set of workers that meet at a barrier
/// after every phase — the schedule behind the locble::serve epoch (drain
/// per shard, solve per session, settle per shard).
///
/// Phase p runs `run(p, i)` for every i in [0, items(p)); workers claim
/// indices through one shared atomic counter, so items of one phase run
/// concurrently and in any order. `items(p)` runs on one thread while no
/// item runs — before phase 0 in start(), then in each barrier's
/// completion — so it may read (and reorder) whatever the previous phase
/// wrote. Every worker arrives at every barrier, whatever happens.
///
/// Failures: an exception from `run` (or `items`) is caught and recorded,
/// workers stop claiming indices, and later phases run no items. Indices
/// are claimed in increasing order and a claimed item always runs, so the
/// first failure by (phase, index) — the one wait() rethrows once every
/// worker has left — is the same whatever the worker count, as long as
/// the failing items fail deterministically.
class PhasedRun {
public:
    struct Work {
        unsigned phases{0};
        std::function<std::size_t(unsigned phase)> items;
        std::function<void(unsigned phase, std::size_t index)> run;
    };

    /// Wall-clock accounting of the last run, when start() was asked for it.
    struct Timing {
        std::vector<double> phase_us;  ///< per phase: start to barrier
        std::vector<double> busy_us;   ///< per worker: time in its item loops
    };

    PhasedRun() = default;
    ~PhasedRun();
    PhasedRun(const PhasedRun&) = delete;
    PhasedRun& operator=(const PhasedRun&) = delete;

    /// Start `work` on `workers` tasks of `pool`. Each worker waits for the
    /// others at the barriers, so the pool must run all of them at once: it
    /// needs at least `workers` threads and nothing else queued. A null pool
    /// or a single worker runs every phase inline before start() returns.
    /// With `timed` set, fills timing(); otherwise reads no clock. An
    /// earlier run still outstanding is waited for first (see wait()).
    void start(ThreadPool* pool, unsigned workers, Work work, bool timed);

    /// Wait for every worker of the last start(), then rethrow its first
    /// failure, if any. No-op when nothing is outstanding.
    void wait();

    /// Valid after wait().
    const Timing& timing() const { return timing_; }

private:
    using Clock = std::chrono::steady_clock;

    /// Barrier completion: runs once per phase on one thread while every
    /// worker waits.
    struct PhaseDone {
        PhasedRun* run;
        void operator()() noexcept { run->next_phase(); }
    };

    void worker(unsigned w);
    void next_phase() noexcept;
    void prepare(unsigned phase) noexcept;
    void fail(unsigned phase, std::size_t index, std::exception_ptr e);

    Work work_;
    bool timed_{false};
    unsigned phase_{0};
    std::size_t count_{0};  ///< items of the current phase
    std::atomic<std::size_t> next_{0};
    std::atomic<bool> failed_{false};
    std::optional<std::barrier<PhaseDone>> barrier_;
    std::vector<std::future<void>> tasks_;
    Clock::time_point phase_t0_;
    Timing timing_;

    std::mutex error_mutex_;
    std::exception_ptr error_;
    unsigned error_phase_{0};
    std::size_t error_index_{0};
};

}  // namespace locble::runtime
