#include "calib.h"

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <deque>
#include <map>
#include <memory_resource>
#include <string>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace perfbench {

uint64_t CalibrationKernel() {
  alignas(64) static std::byte arena[1 << 20];
  std::pmr::monotonic_buffer_resource upstream(
      arena, sizeof(arena), std::pmr::null_memory_resource());
  std::pmr::unsynchronized_pool_resource pool(&upstream);

  uint64_t x = 0x9e3779b97f4a7c15ull;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  uint64_t sum = 0;
  {
    std::pmr::deque<std::pmr::vector<int64_t>> queue(&pool);
    for (int i = 0; i < 2000; ++i) {
      queue.emplace_back(4, static_cast<int64_t>(i));
      if (queue.size() > 64) {
        sum += static_cast<uint64_t>(queue.front()[2]);
        queue.pop_front();
      }
    }
  }
  {
    std::pmr::map<int64_t, int64_t> map(&pool);
    for (int i = 0; i < 768; ++i) {
      map[static_cast<int64_t>(next() % 1024)] += i;
      if (i % 3 == 0) map.erase(static_cast<int64_t>(next() % 1024));
    }
    for (const auto& [k, v] : map) sum += static_cast<uint64_t>(k ^ v);
  }
  {
    std::pmr::vector<std::pmr::string> names(&pool);
    char buf[32];
    for (int i = 0; i < 192; ++i) {
      std::snprintf(buf, sizeof(buf), "SYM-%llu-reading",
                    static_cast<unsigned long long>(next() % 100000));
      names.emplace_back(buf);
    }
    std::sort(names.begin(), names.end());
    for (const auto& name : names) sum += name.size() + name[5];
  }
  return sum;
}

void HostSpeed::Sample() {
  volatile uint64_t sink = CalibrationKernel();
  const int64_t t0 = NowNs();
  sink = CalibrationKernel();
  const int64_t t1 = NowNs();
  (void)sink;
  Record(t1, static_cast<double>(t1 - t0));
  next_ns_ = t1 + kEveryNs;
}

void HostSpeed::Record(int64_t at_ns, double kernel_ns) {
  samples_.emplace_back(at_ns, kernel_ns);
}

void HostSpeed::MaybeSample() {
  if (NowNs() >= next_ns_) Sample();
}

double HostSpeed::Scale(int64_t at_ns, double wall) const {
  if (samples_.empty()) return wall;
  // Grow [lo, hi) around at_ns towards whichever side is nearer.
  size_t hi = static_cast<size_t>(
      std::lower_bound(samples_.begin(), samples_.end(),
                       std::make_pair(at_ns, 0.0)) -
      samples_.begin());
  size_t lo = hi;
  std::vector<double> near;
  while (near.size() < kNearest && (lo > 0 || hi < samples_.size())) {
    const bool take_lo =
        hi == samples_.size() ||
        (lo > 0 && at_ns - samples_[lo - 1].first <= samples_[hi].first - at_ns);
    near.push_back(take_lo ? samples_[--lo].second : samples_[hi++].second);
  }
  return wall * kReferenceKernelNs / Median(std::move(near));
}

double HostSpeed::MedianKernelNs() const {
  std::vector<double> ns;
  for (const auto& [at, kernel] : samples_) ns.push_back(kernel);
  return Median(std::move(ns));
}

}  // namespace perfbench
