#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

Quartiles ComputeQuartiles(std::vector<double> v) {
  Quartiles q;
  if (v.empty()) return q;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  if (n == 1) {
    q.q1 = q.median = q.q3 = v[0];
    return q;
  }
  // Exclusive method, step for step as CPython does it: the k-th cut point
  // sits at 1-based position k*(n+1)/4; the index is clamped to [1, n-1]
  // and the fractional part is taken after clamping (so very small samples
  // extrapolate exactly as Python's do).
  auto cut = [&](long k) {
    const long m = static_cast<long>(n) + 1;
    const long j = std::clamp(k * m / 4, 1L, static_cast<long>(n) - 1);
    const long delta = k * m - j * 4;
    return (v[static_cast<size_t>(j - 1)] * static_cast<double>(4 - delta) +
            v[static_cast<size_t>(j)] * static_cast<double>(delta)) /
           4.0;
  };
  q.q1 = cut(1);
  q.median = cut(2);
  q.q3 = cut(3);
  return q;
}

size_t MinSamplesFor(double pct, size_t min_beyond) {
  // Need floor(n * (1 - pct/100)) >= min_beyond; the epsilon absorbs the
  // binary representation of fractions such as 0.01.
  const double share = 1.0 - pct / 100.0;
  return static_cast<size_t>(
      std::ceil(static_cast<double>(min_beyond) / share - 1e-9));
}

std::optional<double> Percentile(std::vector<double> v, double pct,
                                 size_t min_beyond) {
  if (!(pct > 0.0 && pct < 100.0)) return std::nullopt;
  const size_t n = v.size();
  if (n == 0 || n < MinSamplesFor(pct, min_beyond)) return std::nullopt;
  // Nearest rank: the ceil(pct/100 * n)-th smallest sample.
  size_t rank = static_cast<size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9));
  rank = std::clamp<size_t>(rank, 1, n);
  std::nth_element(v.begin(), v.begin() + static_cast<long>(rank - 1), v.end());
  return v[rank - 1];
}

std::vector<double> WindowRates(
    const std::vector<std::pair<double, double>>& work, double window_s) {
  std::vector<std::pair<double, double>> windows;  // (tuples, seconds)
  std::pair<double, double> open{0.0, 0.0};
  for (const auto& [tuples, seconds] : work) {
    open.first += tuples;
    open.second += seconds;
    if (open.second >= window_s) {
      windows.push_back(open);
      open = {0.0, 0.0};
    }
  }
  if (open.second > 0.0) {
    if (windows.empty()) {
      windows.push_back(open);
    } else {
      windows.back().first += open.first;
      windows.back().second += open.second;
    }
  }
  std::vector<double> rates;
  for (const auto& [tuples, seconds] : windows) {
    if (seconds > 0.0) rates.push_back(tuples / seconds);
  }
  return rates;
}

}  // namespace perfbench
