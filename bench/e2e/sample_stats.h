// Sample statistics for benchmark timings: median, quartiles, MAD, and the
// highest percentile that still has at least ten samples beyond it.
// Quartiles use the same "exclusive" interpolation as Python's
// statistics.quantiles(values, n=4), so spreads computed here match the
// ones a script computes from the same samples.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace purec::e2e {

struct SampleStats {
  std::size_t n = 0;
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  double mad = 0.0;  // median absolute deviation from the median
  double min = 0.0;
  double max = 0.0;
  /// Highest of p50/p90/p99/p99.9 with >= 10 samples beyond it; 0 when
  /// fewer than 20 samples exist.
  double high_percentile = 0.0;
  double high_value = 0.0;
};

/// Percentile `p` (0..100) of sorted data with the exclusive method:
/// position p/100 * (n + 1), interpolated between the two neighbouring
/// order statistics (extrapolated from the outermost pair near the ends,
/// exactly as Python does).
[[nodiscard]] inline double percentile_sorted(const std::vector<double>& s,
                                              double p) {
  if (s.empty()) return 0.0;
  if (s.size() == 1) return s[0];
  const double pos = p / 100.0 * static_cast<double>(s.size() + 1);
  const std::size_t j = std::clamp<std::size_t>(
      static_cast<std::size_t>(pos), 1, s.size() - 1);  // 1-based
  const double frac = pos - static_cast<double>(j);
  return s[j - 1] + (s[j] - s[j - 1]) * frac;
}

[[nodiscard]] inline double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

[[nodiscard]] inline SampleStats summarize(std::vector<double> v) {
  SampleStats s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  s.min = v.front();
  s.max = v.back();
  s.median = median_of(v);
  s.q1 = percentile_sorted(v, 25.0);
  s.q3 = percentile_sorted(v, 75.0);
  std::vector<double> dev;
  dev.reserve(v.size());
  for (const double x : v) dev.push_back(std::fabs(x - s.median));
  s.mad = median_of(std::move(dev));
  for (const double p : {99.9, 99.0, 90.0, 50.0}) {
    if (static_cast<double>(v.size()) * (1.0 - p / 100.0) >= 10.0) {
      s.high_percentile = p;
      s.high_value = percentile_sorted(v, p);
      break;
    }
  }
  return s;
}

/// Geometric mean of positive values (0 when empty or any value <= 0).
[[nodiscard]] inline double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double x : v) {
    if (!(x > 0.0)) return 0.0;
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(v.size()));
}

}  // namespace purec::e2e
