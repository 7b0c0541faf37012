// PhasedRun: every item of every phase runs exactly once, a phase sees what
// the previous one wrote, and a throwing item never strands a worker at a
// barrier — the first failure by (phase, index) rethrows from wait().
#include "locble/runtime/phased_run.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

namespace locble::runtime {
namespace {

/// Three phases: phase 0 fills `n` slots, phase 1 has one item per slot
/// whose value is even (sized at the barrier from phase 0's output), and
/// phase 2 counts. `throw_at` makes item (phase, index) throw.
struct Fixture {
    std::size_t n{64};
    std::vector<int> slots;
    std::vector<std::size_t> evens;
    std::vector<std::atomic<int>> runs[3];
    std::atomic<int> phase2_items{0};
    std::vector<std::pair<unsigned, std::size_t>> throw_at;

    explicit Fixture(std::size_t count) : n(count), slots(count) {
        for (auto& r : runs) r = std::vector<std::atomic<int>>(count);
    }

    PhasedRun::Work work() {
        PhasedRun::Work w;
        w.phases = 3;
        w.items = [this](unsigned phase) -> std::size_t {
            if (phase != 1) return n;
            evens.clear();
            for (std::size_t i = 0; i < n; ++i)
                if (slots[i] % 2 == 0) evens.push_back(i);
            return evens.size();
        };
        w.run = [this](unsigned phase, std::size_t i) {
            for (const auto& [p, at] : throw_at)
                if (p == phase && at == i)
                    throw std::runtime_error("item " + std::to_string(phase) +
                                             ":" + std::to_string(i));
            ++runs[phase][i];
            if (phase == 0) slots[i] = static_cast<int>(i * 3);
            if (phase == 2) ++phase2_items;
        };
        return w;
    }
};

std::string failure_of(PhasedRun& run) {
    try {
        run.wait();
    } catch (const std::runtime_error& e) {
        return e.what();
    }
    return "";
}

TEST(PhasedRunTest, EveryItemRunsOnceAndPhasesSeeTheirPredecessor) {
    ThreadPool pool(4);
    for (const unsigned workers : {1u, 2u, 4u}) {
        Fixture f(101);
        PhasedRun run;
        run.start(workers > 1 ? &pool : nullptr, workers, f.work(), false);
        run.wait();
        for (std::size_t i = 0; i < f.n; ++i) {
            EXPECT_EQ(f.runs[0][i].load(), 1);
            EXPECT_EQ(f.runs[2][i].load(), 1);
        }
        // Phase 1 was sized from phase 0's output: i * 3 is even for even i.
        ASSERT_EQ(f.evens.size(), 51u);
        for (std::size_t i = 0; i < f.evens.size(); ++i)
            EXPECT_EQ(f.runs[1][i].load(), 1);
        for (std::size_t i = f.evens.size(); i < f.n; ++i)
            EXPECT_EQ(f.runs[1][i].load(), 0);
    }
}

TEST(PhasedRunTest, FirstFailureByPhaseAndIndexRethrowsAndLaterPhasesRunNothing) {
    ThreadPool pool(4);
    // Repeat: a stranded worker would hang here, and the winner must not
    // depend on which worker reached its item first.
    for (int rep = 0; rep < 50; ++rep) {
        for (const unsigned workers : {1u, 4u}) {
            Fixture f(48);
            f.throw_at = {{1, 9}, {1, 3}, {2, 0}};
            PhasedRun run;
            run.start(workers > 1 ? &pool : nullptr, workers, f.work(), false);
            EXPECT_EQ(failure_of(run), "item 1:3");
            EXPECT_EQ(f.phase2_items.load(), 0);
            for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(f.runs[1][i].load(), 1);
        }
    }
}

TEST(PhasedRunTest, FailureInTheFirstPhaseStillReachesEveryBarrier) {
    ThreadPool pool(3);
    Fixture f(30);
    f.throw_at = {{0, 17}};
    PhasedRun run;
    run.start(&pool, 3, f.work(), true);
    EXPECT_EQ(failure_of(run), "item 0:17");
    for (std::size_t i = 0; i < 17; ++i) EXPECT_EQ(f.runs[0][i].load(), 1);
    EXPECT_EQ(f.phase2_items.load(), 0);

    // The runner is reusable after a failure, and wait() is then clean.
    Fixture g(30);
    run.start(&pool, 3, g.work(), true);
    run.wait();
    EXPECT_EQ(g.phase2_items.load(), 30);
    run.wait();  // nothing outstanding: a no-op
}

TEST(PhasedRunTest, TimingCoversEveryPhaseAndWorker) {
    ThreadPool pool(2);
    Fixture f(40);
    PhasedRun run;
    run.start(&pool, 2, f.work(), true);
    run.wait();
    const PhasedRun::Timing& t = run.timing();
    ASSERT_EQ(t.phase_us.size(), 3u);
    ASSERT_EQ(t.busy_us.size(), 2u);
    for (const double us : t.phase_us) EXPECT_GE(us, 0.0);
    for (const double us : t.busy_us) EXPECT_GE(us, 0.0);

    run.start(&pool, 2, f.work(), false);
    run.wait();
    EXPECT_TRUE(run.timing().phase_us.empty());
}

}  // namespace
}  // namespace locble::runtime
