#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

namespace perfbench {

/// Median of `v` (mean of the two middle values for an even count); 0 when
/// empty. Takes a copy because it sorts.
double Median(std::vector<double> v);

/// First quartile, median and third quartile by the "exclusive" method
/// (Python's statistics.quantiles(values, n=4) default), so the spreads this
/// program reports match the ones computed offline from its results.
struct Quartiles {
  double q1 = 0;
  double median = 0;
  double q3 = 0;
};
/// Needs at least two values; with fewer every field is the single value
/// (or 0 when empty).
Quartiles ComputeQuartiles(std::vector<double> v);

/// Smallest number of samples that leaves at least `min_beyond` samples
/// strictly above the `pct`-th percentile.
size_t MinSamplesFor(double pct, size_t min_beyond = 10);

/// The `pct`-th percentile (0 < pct < 100) of `v` by the nearest-rank rule,
/// or nullopt when fewer than `min_beyond` samples would lie beyond it — a
/// tail percentile resting on a handful of samples is noise, so it is
/// refused rather than reported.
std::optional<double> Percentile(std::vector<double> v, double pct,
                                 size_t min_beyond = 10);

/// Rate of each consecutive window of a run's measured work. `work` holds,
/// in run order, one (tuples completed, measured seconds) pair per round,
/// query cycle or slice; a window closes once it holds at least `window_s`
/// measured seconds. A short last window is folded into the one before it.
std::vector<double> WindowRates(
    const std::vector<std::pair<double, double>>& work, double window_s);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
