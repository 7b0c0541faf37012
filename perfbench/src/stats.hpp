#pragma once

// Order statistics the benchmark reports its timings with.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace perfbench {

/// Fewest samples a reported percentile must leave above it.
inline constexpr std::size_t kMinBeyond = 10;

/// 1-based rank of the nearest-rank q-quantile of n samples: ceil(q * n),
/// clamped to [1, n]. The epsilon keeps products such as 0.9 * 100 from
/// rounding up a whole rank.
inline std::size_t nearest_rank(std::size_t n, double q) {
    if (n == 0) throw std::invalid_argument("nearest_rank: no samples");
    if (!(q > 0.0 && q <= 1.0)) throw std::invalid_argument("nearest_rank: q outside (0, 1]");
    const double r = std::ceil(q * static_cast<double>(n) - 1e-9);
    return std::clamp<std::size_t>(static_cast<std::size_t>(r), 1, n);
}

/// Samples strictly above the nearest-rank q-quantile of n samples.
inline std::size_t samples_beyond(std::size_t n, double q) {
    return n - nearest_rank(n, q);
}

/// Whether n samples support reporting the q-quantile: at least
/// kMinBeyond samples lie beyond it.
inline bool supported(std::size_t n, double q) {
    return n > 0 && samples_beyond(n, q) >= kMinBeyond;
}

/// The highest of p99 and p90 that n samples support; throws when neither
/// is (fewer than 100 samples).
inline double tail_quantile(std::size_t n) {
    if (supported(n, 0.99)) return 0.99;
    if (supported(n, 0.90)) return 0.90;
    throw std::invalid_argument("tail_quantile: fewer than 100 samples");
}

/// Nearest-rank q-quantile of `values`.
inline double percentile(std::vector<double> values, double q) {
    const std::size_t rank = nearest_rank(values.size(), q);
    std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                     values.end());
    return values[rank - 1];
}

inline double median(std::vector<double> values) {
    return percentile(std::move(values), 0.5);
}

/// Median over consecutive blocks of `block` operations of each block's
/// throughput in operations per second, from per-operation times in ms. A
/// trailing partial block is dropped; throws when there is no full block.
inline double median_block_rate(const std::vector<double>& op_ms, std::size_t block) {
    if (block == 0 || op_ms.size() < block)
        throw std::invalid_argument("median_block_rate: no full block");
    std::vector<double> rates;
    for (std::size_t b = 0; b + block <= op_ms.size(); b += block) {
        double ms = 0.0;
        for (std::size_t i = b; i < b + block; ++i) ms += op_ms[i];
        rates.push_back(static_cast<double>(block) / (ms / 1e3));
    }
    return median(std::move(rates));
}

}  // namespace perfbench
