#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "calib.h"
#include "ops/op_spec.h"
#include "storage/tiered_store.h"
#include "trace.h"
#include "tuple/tuple.h"

namespace perfbench {

/// One measured pass of a workload.
struct PassOptions {
  uint64_t seed = 1;
  /// Wall-clock seconds of measured work (set-up and checks excluded).
  double seconds = 10;
  /// Set-ups timed before the run; the last one built is the one measured.
  int setup_reps = 5;
  /// Wall time between the throwaway set-ups timed during the run.
  double setup_every_s = 0.1;
  /// Keep going past `seconds` (up to 3x) until the tail latency percentile
  /// has ten samples beyond it; the traced pass reports no percentiles.
  bool need_tail_samples = true;
};

/// What a pass measured. End-to-end fields are meaningful on every pass;
/// `layer` is filled only by a traced pass.
struct PassResult {
  uint64_t attempted = 0;  // input tuples offered
  uint64_t failed = 0;     // refused, shed or lost inputs + failed checks
  std::vector<std::string> errors;  // output-check failures, human-readable
  std::vector<std::string> warnings;  // anomalies that are not failures
  /// Figures reported with the provenance (e.g. late_rounds).
  std::vector<std::pair<std::string, double>> diagnostics;

  /// Completed input tuples per second of measured wall time over the whole
  /// pass (the client's own generation and checking between rounds are not
  /// measured).
  double throughput_tps = 0;
  double measured_s = 0;
  /// (tuples completed, measured seconds) per round, query cycle or slice,
  /// in run order; the reported throughput is the median of its windows.
  /// Units run with spans recorded go to traced_work instead.
  std::vector<std::pair<double, double>> work;
  std::vector<std::pair<double, double>> traced_work;
  std::vector<double> latency_ms;  // per round / slice / query, in run order
  std::vector<int64_t> latency_at_ns;  // when each latency sample ended
  std::string latency_kind;        // what one latency sample measures
  std::vector<double> setup_s;     // one sample per timed set-up
  std::vector<int64_t> setup_at_ns;  // when each set-up sample ended
  /// Host speed sampled between units; scales latency_ms and setup_s.
  HostSpeed speed;
  double peak_rss_mb = 0;

  std::map<std::string, double> layer;  // per-layer metric name -> value
};

/// The latency percentile gated as latency_p90_ms on every workload, taken
/// over samples scaled to the reference host speed (calib.h). On a shared
/// 4-vCPU host the p99 is set by how often other tenants interrupt a run,
/// and spread across seeds by up to 0.62 (quartile distance over median),
/// beyond the largest bound a gate may use (README.md, "Noise and bounds").
/// p50, p95 and p99 are reported with the provenance.
constexpr double kTailPct = 90;

/// Untimed set-ups made before the timed ones, so setup_s measures a warm
/// process rather than its first page faults.
constexpr int kSetupWarmup = 3;

/// Builds the workload's system kSetupWarmup + opts.setup_reps times, each
/// after tearing down the previous one, and records the time of the last
/// setup_reps builds in r->setup_s. Returns the last system built.
template <class Build>
auto TimedSetUp(const PassOptions& opts, PassResult* r, Build build)
    -> decltype(build()) {
  decltype(build()) built;
  for (int i = 0; i < kSetupWarmup + opts.setup_reps; ++i) {
    built = {};
    const int64_t t0 = NowNs();
    built = build();
    const int64_t t1 = NowNs();
    if (i >= kSetupWarmup) {
      r->setup_s.push_back(static_cast<double>(t1 - t0) / 1e9);
      r->setup_at_ns.push_back(t1);
      r->speed.Sample();
    }
  }
  return built;
}

/// Times one throwaway set-up whenever opts.setup_every_s has passed since
/// the last, so setup_s samples the same stretch of time as the
/// measurement rather than only its start. Call between rounds.
template <class Build>
void SampleSetUp(const PassOptions& opts, int64_t* next_ns, PassResult* r,
                 Build& build) {
  const int64_t t0 = NowNs();
  if (t0 < *next_ns) return;
  {
    auto throwaway = build();
    const int64_t t1 = NowNs();
    r->setup_s.push_back(static_cast<double>(t1 - t0) / 1e9);
    r->setup_at_ns.push_back(t1);
  }
  *next_ns = NowNs() + static_cast<int64_t>(opts.setup_every_s * 1e9);
}

/// Appends a failed output check to `r` (it fails the run and is counted
/// in `failed`).
void FailCheck(PassResult* r, const std::string& what);

/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

/// Compiler and CMake build type this benchmark was built with.
const char* PerfbenchCompiler();
const char* PerfbenchBuildType();

// ---- The four workloads (see README.md) -----------------------------------

PassResult RunChainsSingle(const PassOptions& opts, SpanTracer* tracer);
PassResult RunChainsThreaded(const PassOptions& opts, SpanTracer* tracer);
PassResult RunFederationHa(const PassOptions& opts, SpanTracer* tracer);
PassResult RunCpHistory(const PassOptions& opts, SpanTracer* tracer);

// ---- Output references (exposed for the benchmark's own tests) ------------

/// One chain's output row: (A, sum of B over 16 tuples with that A).
using ChainRow = std::pair<int64_t, int64_t>;

/// Engine-free reference for one filter(B>=3) -> map -> tumble(sum B by A,
/// every_n 16) chain.
class ChainModel {
 public:
  /// Feeds one (A, B) input; appends the row it completes, if any, to `out`.
  void Push(int64_t a, int64_t b, std::vector<ChainRow>* out);

 private:
  std::map<int64_t, std::pair<int64_t, int64_t>> open_;  // A -> (count, sum)
};

/// Streams every chain's output rows against one ChainModel fed the same
/// inputs: each chain must deliver exactly the model's rows, in order. A row
/// may arrive in a later round than its inputs; the chain-rounds that end
/// with rows outstanding are counted (late_rounds), and only rows still
/// missing at Finish are an error.
class ChainChecker {
 public:
  explicit ChainChecker(size_t chains);
  /// Feeds one round's (A, B) inputs to the model.
  void ExpectInputs(const int64_t* a, const int64_t* b, size_t n);
  /// Checks and clears the rows each chain delivered since the last call.
  void TakeRows(std::vector<std::vector<ChainRow>>* rows);
  /// After the last round: every model row not delivered is an error.
  void Finish();

  const std::vector<std::string>& errors() const { return errors_; }
  uint64_t late_rounds() const { return late_rounds_; }

 private:
  ChainModel model_;
  std::deque<ChainRow> expected_;  // model rows from index base_ on
  uint64_t base_ = 0;
  std::vector<uint64_t> matched_;  // rows each chain has delivered
  std::vector<char> failed_;
  std::vector<std::string> errors_;
  uint64_t late_rounds_ = 0;
};

/// Order-sensitive digest of a tuple sequence's values, used to compare the
/// federation's outputs with the oracle without keeping them in memory.
struct RowDigest {
  uint64_t rows = 0;
  uint64_t hash = 1469598103934665603ull;
  void Add(const aurora::Tuple& t);
  bool operator==(const RowDigest& o) const {
    return rows == o.rows && hash == o.hash;
  }
};

/// Checks one ad hoc query's replay against the model of the retained
/// window: the rows must be exactly the window's matching tuples, oldest
/// first. Returns an empty string when they match.
std::string CheckReplay(const std::vector<aurora::Tuple>& replay,
                        const std::vector<aurora::Tuple>& expected);

// ---- Layer probes (traced runs only) --------------------------------------

/// Mean wall ns per Operator::Process call of a standalone operator built
/// from `spec`, fed `in` (median of a few repetitions). The operator's
/// emissions from the first repetition go to `out` when non-null.
double ProbeOperatorNs(const aurora::OperatorSpec& spec,
                       const aurora::SchemaPtr& schema,
                       const std::vector<aurora::Tuple>& in,
                       std::vector<aurora::Tuple>* out);

struct SerdeProbe {
  double encode_ns_per_tuple = 0;
  double decode_ns_per_tuple = 0;
  double bytes_per_tuple = 0;
};
/// SerializeTuplesInto / DeserializeTuplesInto over `tuples` cut into trains
/// of `train` tuples.
SerdeProbe ProbeSerde(const std::vector<aurora::Tuple>& tuples,
                      const aurora::SchemaPtr& schema, size_t train);

/// Mean wall ns per TieredStore::Append of `payloads` into a fresh store on
/// an in-memory file system configured with `store_opts`.
double ProbeStorageAppendNs(const std::vector<std::vector<uint8_t>>& payloads,
                            const aurora::TieredStoreOptions& store_opts);

/// Every per-layer metric the traced run reports, with its unit. Workloads
/// that do not exercise a layer report 0 for its metrics.
const std::vector<std::pair<std::string, std::string>>& LayerMetricUnits();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
