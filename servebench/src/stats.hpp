#pragma once

/// \file stats.hpp
/// Order statistics for the serving benchmark: nearest-rank percentiles over
/// latency samples.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace servebench {

/// Latency of a request that failed or was refused: it misses every limit,
/// so it sorts above every measured latency.
inline constexpr std::int64_t kMissed = std::numeric_limits<std::int64_t>::max();

/// Nearest-rank `q`-quantile of `sorted` (ascending): the smallest sample
/// with at least `q · n` samples at or below it.  `q` is clamped to [0, 1];
/// an empty input yields 0.
template <typename T>
[[nodiscard]] T percentile(std::span<const T> sorted, double q) {
  if (sorted.empty()) {
    return T{};
  }
  q = std::clamp(q, 0.0, 1.0);
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[rank == 0 ? 0 : rank - 1];
}

/// Sorts `samples` in place and returns its `q`-quantile.
template <typename T>
[[nodiscard]] T percentile_of(std::vector<T>& samples, double q) {
  std::sort(samples.begin(), samples.end());
  return percentile(std::span<const T>(samples), q);
}

/// Median of `values` (nearest-rank: the lower middle of an even count).
[[nodiscard]] inline double median(std::vector<double> values) {
  return percentile_of(values, 0.5);
}

/// Nanoseconds as microseconds; a missed request stays infinite.
[[nodiscard]] inline double ns_to_us(std::int64_t ns) {
  return ns == kMissed ? std::numeric_limits<double>::infinity()
                       : static_cast<double>(ns) / 1000.0;
}

/// `numerator / denominator`, or 0 when nothing was counted.
[[nodiscard]] inline double ratio(double numerator, double denominator) {
  return denominator == 0.0 ? 0.0 : numerator / denominator;
}

}  // namespace servebench
