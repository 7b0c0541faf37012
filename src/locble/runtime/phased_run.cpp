#include "locble/runtime/phased_run.hpp"

#include <utility>

namespace locble::runtime {

namespace {

double elapsed_us(std::chrono::steady_clock::time_point from,
                  std::chrono::steady_clock::time_point to) {
    return std::chrono::duration<double, std::micro>(to - from).count();
}

}  // namespace

PhasedRun::~PhasedRun() {
    try {
        wait();
    } catch (...) {
        // The owner is going away; nobody is left to report the failure to.
    }
}

void PhasedRun::start(ThreadPool* pool, unsigned workers, Work work, bool timed) {
    wait();
    work_ = std::move(work);
    const unsigned n = pool != nullptr && workers > 1 ? workers : 1u;
    timed_ = timed;
    failed_.store(false, std::memory_order_relaxed);
    error_ = nullptr;
    timing_.phase_us.assign(timed_ ? work_.phases : 0u, 0.0);
    timing_.busy_us.assign(timed_ ? n : 0u, 0.0);
    if (timed_) phase_t0_ = Clock::now();
    phase_ = 0;
    prepare(0);
    barrier_.emplace(static_cast<std::ptrdiff_t>(n), PhaseDone{this});
    if (n == 1) {
        worker(0);
        return;
    }
    tasks_.reserve(n);
    for (unsigned w = 0; w < n; ++w)
        tasks_.push_back(pool->submit([this, w] { worker(w); }));
}

void PhasedRun::wait() {
    // worker() catches every item failure, so a task's future only throws
    // if the barrier itself does; keep draining either way so no worker is
    // left running when this returns.
    std::exception_ptr task_error;
    for (auto& t : tasks_) {
        try {
            t.get();
        } catch (...) {
            if (!task_error) task_error = std::current_exception();
        }
    }
    tasks_.clear();
    if (std::exception_ptr e = std::exchange(error_, nullptr))
        std::rethrow_exception(e);
    if (task_error) std::rethrow_exception(task_error);
}

void PhasedRun::worker(unsigned w) {
    for (unsigned p = 0; p < work_.phases; ++p) {
        const Clock::time_point t0 = timed_ ? Clock::now() : Clock::time_point{};
        while (!failed_.load(std::memory_order_acquire)) {
            const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
            if (i >= count_) break;
            try {
                work_.run(p, i);
            } catch (...) {
                fail(p, i, std::current_exception());
            }
        }
        if (timed_) timing_.busy_us[w] += elapsed_us(t0, Clock::now());
        barrier_->arrive_and_wait();
    }
}

void PhasedRun::next_phase() noexcept {
    if (timed_) {
        const Clock::time_point now = Clock::now();
        timing_.phase_us[phase_] = elapsed_us(phase_t0_, now);
        phase_t0_ = now;
    }
    ++phase_;
    prepare(phase_);
}

void PhasedRun::prepare(unsigned phase) noexcept {
    count_ = 0;
    next_.store(0, std::memory_order_relaxed);
    if (phase >= work_.phases || failed_.load(std::memory_order_relaxed)) return;
    try {
        count_ = work_.items(phase);
    } catch (...) {
        fail(phase, 0, std::current_exception());
    }
}

void PhasedRun::fail(unsigned phase, std::size_t index, std::exception_ptr e) {
    const std::lock_guard lock(error_mutex_);
    if (!error_ || phase < error_phase_ ||
        (phase == error_phase_ && index < error_index_)) {
        error_ = std::move(e);
        error_phase_ = phase;
        error_index_ = index;
    }
    failed_.store(true, std::memory_order_release);
}

}  // namespace locble::runtime
