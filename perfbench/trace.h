#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// \brief Wall-clock spans recorded by the benchmark around its calls into
/// the library's layers.
///
/// A span has a site name, start, end, the span open around it (its parent)
/// and a request id shared by every span of one round, query or injected
/// tuple. Per-site totals (count, total and self time, where self time is
/// the span minus the time its child spans cover) are kept for every span;
/// the first `keep` raw spans are also kept in memory and written out by
/// WriteCsv when the run ends.
///
/// Single-threaded: only the thread that drives a workload records spans.
/// When disabled every call is a branch and nothing is recorded, which is
/// how the untraced end-to-end runs use the same loop code.
///
/// A traced run alternates: AlternateEvery(period) makes StartUnit, which a
/// workload loop calls before each round, query cycle or slice, switch
/// recording on or off once per period. Traced and untraced units then
/// interleave over the same stretch of the run, so their throughput ratio
/// is the cost of tracing even on a host whose speed drifts.
class SpanTracer {
 public:
  explicit SpanTracer(bool enabled, size_t keep = 200000)
      : enabled_(enabled), keep_(keep) {}

  bool enabled() const { return enabled_; }
  /// True for a traced run, whether or not recording is on at the moment.
  bool traced_run() const { return enabled_ || alternate_ns_ != 0; }

  void AlternateEvery(double seconds) {
    alternate_ns_ = static_cast<int64_t>(seconds * 1e9);
  }
  /// Called at a unit boundary (no span open).
  void StartUnit() {
    if (alternate_ns_ == 0) return;
    const int64_t now = NowNs();
    if (now < next_flip_ns_) return;
    enabled_ = !enabled_;
    next_flip_ns_ = now + alternate_ns_;
  }

  /// Registers a span site and returns its handle (idempotent per name).
  int Site(const std::string& name);

  void Begin(int site, uint64_t id) {
    if (!enabled_) return;
    open_.push_back(Open{site, id, next_seq_++, NowNs(), 0});
  }
  void End();

  struct Totals {
    uint64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
    double mean_ns() const {
      return count == 0 ? 0.0 : static_cast<double>(total_ns) / count;
    }
    double mean_self_ns() const {
      return count == 0 ? 0.0 : static_cast<double>(self_ns) / count;
    }
  };
  /// Totals for a site name; zeros when the site never recorded.
  Totals Get(const std::string& name) const;

  struct Record {
    uint64_t seq;
    int64_t parent;  // seq of the enclosing span, -1 at top level
    uint64_t id;
    int site;
    int64_t start_ns;
    int64_t end_ns;
  };
  const std::vector<Record>& records() const { return records_; }
  uint64_t spans_recorded() const { return next_seq_; }

  /// Writes kept spans as CSV (seq,parent,id,name,start_ns,end_ns), with
  /// start times relative to the first span. Returns false on I/O error.
  bool WriteCsv(const std::string& path) const;

 private:
  struct Open {
    int site;
    uint64_t id;
    uint64_t seq;
    int64_t start_ns;
    int64_t child_ns;
  };
  bool enabled_;
  size_t keep_;
  int64_t alternate_ns_ = 0;  // 0: no alternation
  int64_t next_flip_ns_ = 0;
  uint64_t next_seq_ = 0;
  std::vector<std::string> names_;
  std::vector<Totals> totals_;
  std::vector<Open> open_;
  std::vector<Record> records_;
};

/// RAII span; a no-op on a disabled tracer.
class Span {
 public:
  Span(SpanTracer* tracer, int site, uint64_t id) : tracer_(tracer) {
    if (tracer_->enabled()) tracer_->Begin(site, id);
  }
  ~Span() {
    if (tracer_->enabled()) tracer_->End();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanTracer* tracer_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
