// Helpers shared by the workloads: output checks, peak RSS, and the layer
// probes the traced run makes on a workload's own generated data.
#include <sys/resource.h>

#include <algorithm>

#include "ops/operator.h"
#include "stats.h"
#include "storage/storage_fs.h"
#include "tuple/serde.h"
#include "workloads.h"

namespace perfbench {

using aurora::Tuple;

void FailCheck(PassResult* r, const std::string& what) {
  r->errors.push_back(what);
  r->failed++;
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

const char* PerfbenchCompiler() { return PERFBENCH_COMPILER; }
const char* PerfbenchBuildType() { return PERFBENCH_BUILD_TYPE; }

void RowDigest::Add(const Tuple& t) {
  uint64_t row = 0x84222325cbf29ce4ull;
  for (size_t i = 0; i < t.num_values(); ++i) {
    row = (row ^ t.value(i).Hash()) * 1099511628211ull;
  }
  hash = (hash ^ row) * 1099511628211ull;
  rows++;
}

std::string CheckReplay(const std::vector<Tuple>& replay,
                        const std::vector<Tuple>& expected) {
  size_t i = 0;
  while (i < replay.size() && i < expected.size() &&
         replay[i].ValuesEqual(expected[i])) {
    ++i;
  }
  if (i == replay.size() && i == expected.size()) return "";
  return "replay of " + std::to_string(replay.size()) + " rows vs model " +
         std::to_string(expected.size()) + ", first difference at row " +
         std::to_string(i);
}

namespace {

/// Collects (or drops) an operator's emissions.
class CollectEmitter : public aurora::Emitter {
 public:
  explicit CollectEmitter(std::vector<Tuple>* out) : out_(out) {}
  void Emit(int, Tuple t) override {
    if (out_ != nullptr) out_->push_back(std::move(t));
  }

 private:
  std::vector<Tuple>* out_;
};

constexpr int kProbeReps = 5;

}  // namespace

double ProbeOperatorNs(const aurora::OperatorSpec& spec,
                       const aurora::SchemaPtr& schema,
                       const std::vector<Tuple>& in, std::vector<Tuple>* out) {
  if (in.empty()) return 0.0;
  std::vector<double> ns_per_tuple;
  for (int rep = 0; rep < kProbeReps; ++rep) {
    auto op = aurora::CreateOperator(spec);
    AURORA_CHECK(op.ok() && (*op)->Init({schema}).ok());
    CollectEmitter emitter(rep == 0 ? out : nullptr);
    const int64_t t0 = NowNs();
    for (const Tuple& t : in) {
      AURORA_CHECK((*op)->Process(0, t, t.timestamp(), &emitter).ok());
    }
    ns_per_tuple.push_back(static_cast<double>(NowNs() - t0) /
                           static_cast<double>(in.size()));
  }
  return Median(ns_per_tuple);
}

SerdeProbe ProbeSerde(const std::vector<Tuple>& tuples,
                      const aurora::SchemaPtr& schema, size_t train) {
  SerdeProbe p;
  const size_t trains = tuples.size() / train;
  if (trains == 0) return p;
  std::vector<std::vector<uint8_t>> wire(trains);
  std::vector<double> enc, dec;
  size_t bytes = 0;
  for (int rep = 0; rep < kProbeReps; ++rep) {
    const int64_t t0 = NowNs();
    for (size_t i = 0; i < trains; ++i) {
      aurora::SerializeTuplesInto(tuples.data() + i * train, train, &wire[i]);
    }
    const int64_t t1 = NowNs();
    std::vector<Tuple> decoded;
    bytes = 0;
    for (size_t i = 0; i < trains; ++i) {
      AURORA_CHECK(
          aurora::DeserializeTuplesInto(wire[i], schema, &decoded).ok());
      bytes += wire[i].size();
    }
    const int64_t t2 = NowNs();
    const double n = static_cast<double>(trains * train);
    enc.push_back(static_cast<double>(t1 - t0) / n);
    dec.push_back(static_cast<double>(t2 - t1) / n);
  }
  p.encode_ns_per_tuple = Median(enc);
  p.decode_ns_per_tuple = Median(dec);
  p.bytes_per_tuple =
      static_cast<double>(bytes) / static_cast<double>(trains * train);
  return p;
}

double ProbeStorageAppendNs(const std::vector<std::vector<uint8_t>>& payloads,
                            const aurora::TieredStoreOptions& store_opts) {
  if (payloads.empty()) return 0.0;
  std::vector<double> ns;
  for (int rep = 0; rep < kProbeReps; ++rep) {
    aurora::MemStorageFs fs;
    aurora::TieredStoreOptions opts = store_opts;
    opts.scope = "probe";
    aurora::TieredStore store(&fs, opts);
    AURORA_CHECK(store.Open().ok());
    int64_t ts = 0;
    const int64_t t0 = NowNs();
    for (const auto& p : payloads) {
      store.Append("probe", ++ts, p.data(), p.size());
    }
    ns.push_back(static_cast<double>(NowNs() - t0) /
                 static_cast<double>(payloads.size()));
  }
  return Median(ns);
}

const std::vector<std::pair<std::string, std::string>>& LayerMetricUnits() {
  static const std::vector<std::pair<std::string, std::string>> kUnits = {
      {"engine.push_input_ns", "ns"},
      {"engine.step_self_ns", "ns"},
      {"engine.steps_per_ktuple", "1/ktuple"},
      {"engine.activations_per_ktuple", "1/ktuple"},
      {"ops.filter_ns_per_tuple", "ns"},
      {"ops.map_ns_per_tuple", "ns"},
      {"ops.tumble_ns_per_tuple", "ns"},
      {"threaded.producer_push_share", "share"},
      {"threaded.wait_quiescent_ns", "ns"},
      {"threaded.steals_per_ktuple", "1/ktuple"},
      {"threaded.ring_full_per_ktuple", "1/ktuple"},
      {"threaded.activations_per_ktuple", "1/ktuple"},
      {"sim.events_per_tuple", "1/tuple"},
      {"sim.event_ns", "ns"},
      {"node.inject_ns", "ns"},
      {"node.steps_per_ktuple", "1/ktuple"},
      {"net.frames_per_ktuple", "1/ktuple"},
      {"net.wire_bytes_per_tuple", "B/tuple"},
      {"net.credit_stalls", "count"},
      {"serde.encode_ns_per_tuple", "ns"},
      {"serde.decode_ns_per_tuple", "ns"},
      {"serde.bytes_per_tuple", "B/tuple"},
      {"ha.retained_peak_tuples", "tuples"},
      {"ha.truncated_per_tuple", "1/tuple"},
      {"storage.appends_per_tuple", "1/tuple"},
      {"storage.fsyncs_per_ktuple", "1/ktuple"},
      {"storage.compactions_per_ktuple", "1/ktuple"},
      {"storage.append_ns", "ns"},
      {"cp.query_ns_per_row", "ns"},
      {"storage.reads_per_query", "1/query"},
      {"storage.read_amplification", "ratio"},
      {"obs.trace_overhead_pct", "%"},
  };
  return kUnits;
}

}  // namespace perfbench
