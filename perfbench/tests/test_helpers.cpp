#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "rss.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace {

using perfbench::Span;

std::vector<double> one_to(int n) {
    std::vector<double> v;
    for (int i = n; i >= 1; --i) v.push_back(i);  // reversed: order must not matter
    return v;
}

TEST(Percentile, NearestRank) {
    EXPECT_EQ(perfbench::nearest_rank(100, 0.9), 90u);
    EXPECT_EQ(perfbench::nearest_rank(100, 0.99), 99u);
    EXPECT_EQ(perfbench::nearest_rank(1000, 0.99), 990u);
    EXPECT_EQ(perfbench::nearest_rank(7, 0.5), 4u);
    EXPECT_EQ(perfbench::nearest_rank(1, 0.01), 1u);
    EXPECT_EQ(perfbench::nearest_rank(10, 1.0), 10u);
    EXPECT_DOUBLE_EQ(perfbench::percentile(one_to(100), 0.9), 90.0);
    EXPECT_DOUBLE_EQ(perfbench::percentile(one_to(101), 0.9), 91.0);
    EXPECT_DOUBLE_EQ(perfbench::percentile(one_to(4), 0.5), 2.0);
    EXPECT_DOUBLE_EQ(perfbench::median(one_to(5)), 3.0);
    EXPECT_THROW(perfbench::nearest_rank(0, 0.5), std::invalid_argument);
    EXPECT_THROW(perfbench::nearest_rank(5, 0.0), std::invalid_argument);
}

TEST(Percentile, TenBeyondSupportRule) {
    EXPECT_EQ(perfbench::samples_beyond(100, 0.9), 10u);
    EXPECT_TRUE(perfbench::supported(100, 0.9));
    EXPECT_FALSE(perfbench::supported(99, 0.9));
    EXPECT_TRUE(perfbench::supported(1000, 0.99));
    EXPECT_FALSE(perfbench::supported(999, 0.99));
    EXPECT_FALSE(perfbench::supported(0, 0.5));
    EXPECT_DOUBLE_EQ(perfbench::tail_quantile(1008), 0.99);
    EXPECT_DOUBLE_EQ(perfbench::tail_quantile(999), 0.90);
    EXPECT_DOUBLE_EQ(perfbench::tail_quantile(100), 0.90);
    EXPECT_THROW(perfbench::tail_quantile(99), std::invalid_argument);
}

TEST(Percentile, MedianBlockRate) {
    // Blocks of 2 ops: 20 ms -> 100/s, 40 ms -> 50/s, 10 ms -> 200/s; the
    // trailing single op is dropped.
    const std::vector<double> ms = {10, 10, 20, 20, 5, 5, 1000};
    EXPECT_DOUBLE_EQ(perfbench::median_block_rate(ms, 2), 100.0);
    EXPECT_THROW(perfbench::median_block_rate(ms, 8), std::invalid_argument);
    EXPECT_THROW(perfbench::median_block_rate(ms, 0), std::invalid_argument);
}

TEST(SelfTime, SubtractsUnionOfOverlappingChildren) {
    // root [0, 100): children [10, 40) and [30, 50) overlap on [30, 40);
    // [60, 70) is separate; [95, 120) sticks out past the root's end.
    std::vector<Span> s = {
        {"root", 0, 100, -1, 7}, {"a", 10, 40, 0, 7}, {"b", 30, 50, 0, 7},
        {"c", 60, 70, 0, 7},     {"d", 95, 120, 0, 7}, {"a.inner", 12, 20, 1, 7},
    };
    const std::vector<std::int64_t> self = perfbench::self_times(s);
    EXPECT_EQ(self[0], 100 - (40 + 10 + 5));  // union [10,50) + [60,70) + [95,100)
    EXPECT_EQ(self[1], 30 - 8);
    EXPECT_EQ(self[2], 20);
    EXPECT_EQ(self[5], 8);
}

TEST(SelfTime, NestedAndIdenticalChildren) {
    std::vector<Span> s = {
        {"root", 0, 10, -1, 1}, {"x", 2, 6, 0, 1}, {"x", 2, 6, 0, 1}, {"y", 3, 4, 0, 1},
    };
    const std::vector<std::int64_t> self = perfbench::self_times(s);
    EXPECT_EQ(self[0], 6);
}

TEST(SelfTime, PerOperationSums) {
    std::vector<Span> s = {
        {"op", 0, 100, -1, 1},    {"work", 0, 30, 0, 1},  {"work", 40, 50, 0, 1},
        {"op", 100, 200, -1, 2},  {"other", 100, 150, 3, 2},
        {"side", 200, 260, -1, 3}, {"work", 200, 210, 5, 3},
    };
    const std::vector<std::int64_t> self = perfbench::self_times(s);
    const std::vector<double> us = perfbench::per_op_self_us(s, self, "op", "work");
    ASSERT_EQ(us.size(), 2u);  // op 3 has no "op" root
    EXPECT_DOUBLE_EQ(us[0], 0.040);  // 40 ns
    EXPECT_DOUBLE_EQ(us[1], 0.0);
}

TEST(SpanRecorder, NestsAndDisables) {
    perfbench::SpanRecorder rec(true);
    {
        const perfbench::ScopedSpan a(rec, "a", 3);
        const perfbench::ScopedSpan b(rec, "b", 3);
    }
    const perfbench::ScopedSpan c(rec, "c", 4);
    ASSERT_EQ(rec.spans().size(), 3u);
    EXPECT_EQ(rec.spans()[0].parent, -1);
    EXPECT_EQ(rec.spans()[1].parent, 0);
    EXPECT_EQ(rec.spans()[2].parent, -1);
    EXPECT_LE(rec.spans()[1].end_ns, rec.spans()[0].end_ns);

    perfbench::SpanRecorder off(false);
    { const perfbench::ScopedSpan a(off, "a", 1); }
    EXPECT_TRUE(off.spans().empty());
}

TEST(PeakRss, ParsesVmHwm) {
    const std::string status =
        "Name:\tlocble_perf\nVmPeak:\t  300000 kB\nVmHWM:\t    51200 kB\nVmRSS:\t 40000 kB\n";
    const auto mb = perfbench::parse_vmhwm_mb(status);
    ASSERT_TRUE(mb.has_value());
    EXPECT_DOUBLE_EQ(*mb, 50.0);
    EXPECT_DOUBLE_EQ(*perfbench::parse_vmhwm_mb("VmHWM: 1024 kB"), 1.0);
    EXPECT_FALSE(perfbench::parse_vmhwm_mb("VmRSS:\t 40000 kB\n").has_value());
    EXPECT_FALSE(perfbench::parse_vmhwm_mb("VmHWM:\t garbage\n").has_value());
    EXPECT_FALSE(perfbench::parse_vmhwm_mb("").has_value());
}

TEST(PeakRss, ReadsThisProcess) {
    const std::vector<char> block(8u << 20, 1);  // touch 8 MiB
    EXPECT_GE(perfbench::peak_rss_mb(), 8.0);
    EXPECT_EQ(block.back(), 1);
}

TEST(PeakRss, ResetDropsToCurrentRss) {
    {
        const std::vector<char> block(64u << 20, 1);  // 64 MiB, returned to the OS on free
        EXPECT_EQ(block.back(), 1);
    }
    const double before = perfbench::peak_rss_mb();
    if (!perfbench::reset_peak_rss()) GTEST_SKIP() << "/proc/self/clear_refs is not writable";
    EXPECT_LT(perfbench::peak_rss_mb(), before - 32.0);
}

}  // namespace
