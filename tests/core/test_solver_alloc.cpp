// Zero-allocation guarantee for the solver hot path (ISSUE 3 acceptance):
// after a SolverWorkspace has warmed up to the problem size, solve() must
// perform no heap allocation at all. This binary overrides global
// operator new/delete with counting versions — it must stay a separate
// test executable so the override cannot interfere with other suites.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <vector>

#include "locble/common/vec2.hpp"
#include "locble/core/location_solver.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}

// Sanitizer builds (LOCBLE_SAN, docs/CORRECTNESS.md) interpose the
// allocator and allocate from their runtimes, so allocation counts are not
// a meaningful property there; the plain CI job enforces them instead.
// The overrides themselves are compiled out too — a malloc-backed operator
// new would fight the sanitizer allocator (and trips
// -Wmismatched-new-delete under ASan's escape analysis).
#ifdef LOCBLE_SAN_ACTIVE
#define LOCBLE_SKIP_UNDER_SANITIZERS() \
    GTEST_SKIP() << "allocation counting is only meaningful in plain builds"
#else
#define LOCBLE_SKIP_UNDER_SANITIZERS() (void)0

void* operator new(std::size_t size) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size)) return p;
    throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size)) return p;
    throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#endif  // LOCBLE_SAN_ACTIVE

namespace locble::core {
namespace {

using locble::Vec2;

std::vector<FusedSample> walk_samples(const Vec2& target, double gamma, double n,
                                      int per_leg = 24) {
    std::vector<FusedSample> out;
    auto add = [&](const Vec2& obs, double t) {
        FusedSample s;
        s.t = t;
        s.p = -obs.x;
        s.q = -obs.y;
        const double l = locble::Vec2::distance(target, obs);
        s.rssi = gamma - 10.0 * n * std::log10(std::max(l, 0.1));
        out.push_back(s);
    };
    double t = 0.0;
    for (int i = 0; i < per_leg; ++i, t += 0.1)
        add({4.0 * i / (per_leg - 1.0), 0.0}, t);
    for (int i = 0; i < per_leg; ++i, t += 0.1)
        add({4.0, 3.0 * i / (per_leg - 1.0)}, t);
    return out;
}

TEST(SolverAllocTest, ColdSolveIsAllocationFreeAfterWarmup) {
    LOCBLE_SKIP_UNDER_SANITIZERS();
    const LocationSolver solver;
    const auto samples = walk_samples({5.0, 2.0}, -59.0, 2.0);

    SolverWorkspace ws;
    LocationFit out;
    out.segment_gammas.reserve(4);  // output storage warms up too
    ASSERT_TRUE(solver.solve(samples, {}, nullptr, ws, out));  // warm-up

    const std::uint64_t before = g_allocations.load();
    ASSERT_TRUE(solver.solve(samples, {}, nullptr, ws, out));
    ASSERT_TRUE(solver.solve(samples, {}, nullptr, ws, out));
    EXPECT_EQ(g_allocations.load(), before)
        << "solve() allocated after workspace warm-up";
    EXPECT_EQ(ws.grow_events(), ws.grow_events());  // stable by definition
}

TEST(SolverAllocTest, SessionSolveIsAllocationFreeAfterWarmup) {
    LOCBLE_SKIP_UNDER_SANITIZERS();
    const LocationSolver solver;
    const auto samples = walk_samples({5.0, 2.0}, -59.0, 2.0);

    LocationSolver::Session session(solver);
    session.add(samples);
    LocationFit out;
    out.segment_gammas.reserve(4);
    SolveDiagnostics diag;
    ASSERT_TRUE(session.solve_into(out, {}, &diag));  // warm-up

    const std::uint64_t before = g_allocations.load();
    ASSERT_TRUE(session.solve_into(out, {}, &diag));
    ASSERT_TRUE(session.solve_into(out, {}, &diag));
    EXPECT_EQ(g_allocations.load(), before)
        << "Session::solve_into allocated after warm-up";
}

TEST(SolverAllocTest, MultiSegmentSessionIsAllocationFreeAfterWarmup) {
    LOCBLE_SKIP_UNDER_SANITIZERS();
    // A walk that crosses environments twice and returns to the first:
    // tags 0,1,0,2 by quarter (four segment runs, three Gammas), with a
    // 6 dB insertion loss per segment, flushed in uneven batches so the
    // run list both extends its last run and opens new ones.
    auto samples = walk_samples({5.0, 2.0}, -59.0, 2.0, 32);
    for (std::size_t i = 0; i < samples.size(); ++i) {
        const std::size_t quarter = 4 * i / samples.size();
        samples[i].segment = quarter == 1 ? 1 : (quarter == 3 ? 2 : 0);
        samples[i].rssi -= 6.0 * samples[i].segment;
    }
    const LocationSolver solver;
    LocationSolver::Session session(solver);
    LocationFit out;
    out.segment_gammas.reserve(4);
    const std::size_t cuts[] = {10, 21, 37, 50, samples.size()};
    const auto replay = [&] {
        session.reset();
        std::size_t pos = 0;
        for (const std::size_t cut : cuts) {
            for (; pos < cut; ++pos) session.add(samples[pos]);
            (void)session.solve_into(out);
        }
    };
    replay();  // warm-up: sizes the run list and the k = 3 scratch
    ASSERT_EQ(out.segment_gammas.size(), 3u);
    ASSERT_EQ(session.workspace().segment_runs().size(), 4u);

    const std::uint64_t grows = session.workspace().grow_events();
    const std::uint64_t before = g_allocations.load();
    replay();
    replay();
    EXPECT_EQ(g_allocations.load(), before)
        << "multi-segment Session allocated after warm-up";
    EXPECT_EQ(session.workspace().grow_events(), grows);
    EXPECT_EQ(out.segment_gammas.size(), 3u);
}

TEST(SolverAllocTest, WorkspaceGrowEventsStabilize) {
    LOCBLE_SKIP_UNDER_SANITIZERS();
    const LocationSolver solver;
    const auto samples = walk_samples({5.0, 2.0}, -59.0, 2.0);

    SolverWorkspace ws;
    LocationFit out;
    ASSERT_TRUE(solver.solve(samples, {}, nullptr, ws, out));
    const std::uint64_t after_first = ws.grow_events();
    EXPECT_GT(after_first, 0u);  // warm-up did size the buffers
    ASSERT_TRUE(solver.solve(samples, {}, nullptr, ws, out));
    EXPECT_EQ(ws.grow_events(), after_first);
}

}  // namespace
}  // namespace locble::core
