#ifndef PERFBENCH_CALIB_H_
#define PERFBENCH_CALIB_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

/// Time of the calibration kernel at the reference host speed. Every gated
/// time this benchmark reports is wall time scaled to that speed. The value
/// is fixed (about what the kernel took on the 4-vCPU Xeon host the
/// benchmark was tuned on), so figures from different commits compare.
constexpr double kReferenceKernelNs = 300000;

/// A fixed piece of small-object allocation and container work: a deque of
/// short vectors, an ordered map with inserts and erases, and short strings.
/// It uses the standard library only, and allocates from a static buffer of
/// its own, so nothing in the library under test, its heap included, changes
/// the work it does. Returns a checksum so the work cannot be optimised away.
/// Not reentrant: the buffer is shared, so one thread at a time.
uint64_t CalibrationKernel();

/// \brief How fast the host runs right now, sampled through a run.
///
/// The host's speed for this kind of code moves by up to 1.7x within
/// minutes, with the load other tenants put on the machine's caches and
/// memory (README.md, "Host speed"). Timing CalibrationKernel between the
/// units of a run, and dividing each unit's wall time by the kernel's time
/// around it, leaves a figure that moves with the program rather than with
/// the host.
///
/// Single-threaded: only the thread that drives a workload samples.
class HostSpeed {
 public:
  /// Least time between two samples taken by MaybeSample.
  static constexpr int64_t kEveryNs = 10'000'000;
  /// Samples nearest in time whose median kernel time scales one figure.
  static constexpr size_t kNearest = 9;

  /// Runs the kernel twice and records the time of the second run; the
  /// first warms the caches after whatever ran before it.
  void Sample();
  /// Sample(), when kEveryNs has passed since the last sample.
  void MaybeSample();
  /// Records one kernel time taken at `at_ns`; samples must come in time
  /// order. Sample() records through this; tests call it directly.
  void Record(int64_t at_ns, double kernel_ns);

  /// `wall` (any time unit), measured around `at_ns`, scaled to the
  /// reference speed: wall * kReferenceKernelNs / the median kernel time of
  /// the kNearest samples nearest `at_ns`. Unscaled when nothing was sampled.
  double Scale(int64_t at_ns, double wall) const;

  size_t samples() const { return samples_.size(); }
  /// Median kernel time over the whole run, in ns (0 when nothing sampled).
  double MedianKernelNs() const;

 private:
  std::vector<std::pair<int64_t, double>> samples_;  // (time, kernel ns)
  int64_t next_ns_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_CALIB_H_
