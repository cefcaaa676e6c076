// federation_ha: a 3-node Aurora* federation in the simulator with upstream
// backup and durable HA logs, fed by an open-loop Poisson source.
//
//   src -> n0 [filter v>=100 -> map] -> n1 [tumble sum v by k, every_n 16]
//                                    -> n2 [filter sym<="SYM3"]
#include <map>
#include <memory>

#include "distributed/deployment.h"
#include "engine/aurora_engine.h"
#include "ha/upstream_backup.h"
#include "obs/metrics.h"
#include "ops/operator.h"
#include "stats.h"
#include "storage/storage_fs.h"
#include "tuple/serde.h"
#include "workload/generator.h"
#include "workloads.h"

namespace perfbench {

using aurora::NodeId;
using aurora::SimDuration;
using aurora::SimTime;
using aurora::Tuple;

namespace {

constexpr int kNodes = 3;
constexpr double kRatePerSec = 50000;
constexpr size_t kTrainSize = 16;
constexpr size_t kCreditWindow = 128 * 1024;
/// Simulated time run per step of the driving loop (500 arrivals on
/// average). Each slice's wall time is one latency sample, and the HA
/// retention gauge is sampled once per slice.
constexpr SimDuration kSlice = SimDuration::Millis(10);
constexpr size_t kProbeTuples = 32768;

aurora::SchemaPtr FedSchema() {
  using aurora::Field;
  using aurora::ValueType;
  return aurora::Schema::Make({Field{"k", ValueType::kInt64},
                               Field{"sym", ValueType::kString},
                               Field{"v", ValueType::kInt64},
                               Field{"note", ValueType::kString}});
}

std::vector<std::string> Symbols() {
  std::vector<std::string> s;
  for (int i = 0; i < 16; ++i) s.push_back("SYM" + std::to_string(i));
  return s;
}

aurora::StreamGenerator MakeGenerator(uint64_t seed) {
  using aurora::FieldGen;
  std::vector<std::unique_ptr<FieldGen>> gens;
  gens.push_back(FieldGen::ZipfInt(64, 1.1));
  gens.push_back(FieldGen::Choice(Symbols()));
  gens.push_back(FieldGen::UniformInt(0, 999));
  gens.push_back(FieldGen::Choice({"bid", "ask", "trade", "cancel-replace"}));
  return aurora::StreamGenerator(FedSchema(), std::move(gens),
                                 aurora::ArrivalProcess::Poisson(kRatePerSec),
                                 seed);
}

aurora::OperatorSpec FedFilter() {
  return aurora::FilterSpec(aurora::Predicate::Compare(
      "v", aurora::CompareOp::kGe, aurora::Value(int64_t{100})));
}
aurora::OperatorSpec FedMap() {
  using aurora::Expr;
  return aurora::MapSpec(
      {{"k", Expr::FieldRef("k")},
       {"sym", Expr::FieldRef("sym")},
       {"v", Expr::FieldRef("v")},
       {"note", Expr::FieldRef("note")},
       {"w", Expr::Arith(aurora::ArithOp::kAdd, Expr::FieldRef("v"),
                         Expr::FieldRef("k"))}});
}
aurora::OperatorSpec FedTumble() {
  aurora::OperatorSpec spec = aurora::TumbleSpec("sum", "v", {"k"});
  spec.SetParam("emit", aurora::Value("every_n"));
  spec.SetParam("n", aurora::Value(int64_t{16}));
  return spec;
}
aurora::OperatorSpec FedSelect() {
  return aurora::FilterSpec(aurora::Predicate::Compare(
      "sym", aurora::CompareOp::kLe, aurora::Value("SYM3")));
}

aurora::GlobalQuery BuildQuery() {
  aurora::GlobalQuery q;
  bool ok = q.AddInput("src", FedSchema()).ok() &&
            q.AddBox("f0", FedFilter()).ok() && q.AddBox("m0", FedMap()).ok() &&
            q.AddBox("agg", FedTumble()).ok() &&
            q.AddBox("sel", FedSelect()).ok() && q.AddOutput("agg_out").ok() &&
            q.AddOutput("sel_out").ok() && q.ConnectInputToBox("src", "f0").ok() &&
            q.ConnectBoxes("f0", 0, "m0", 0).ok() &&
            q.ConnectBoxes("m0", 0, "agg", 0).ok() &&
            q.ConnectBoxes("m0", 0, "sel", 0).ok() &&
            q.ConnectBoxToOutput("agg", 0, "agg_out").ok() &&
            q.ConnectBoxToOutput("sel", 0, "sel_out").ok();
  AURORA_CHECK(ok);
  return q;
}

aurora::StarOptions FedStarOptions() {
  aurora::StarOptions opts;
  opts.transport.train_size = kTrainSize;
  opts.transport.credit_window_bytes = kCreditWindow;
  return opts;
}

/// Everything one federation run owns. Member order is destruction order
/// reversed: the HA manager goes first, the stores outlive the nodes.
struct Federation {
  aurora::Simulation sim;
  aurora::OverlayNetwork net{&sim};
  std::vector<std::unique_ptr<aurora::MemStorageFs>> fs;
  std::vector<std::unique_ptr<aurora::TieredStore>> stores;
  std::unique_ptr<aurora::AuroraStarSystem> system;
  aurora::GlobalQuery query;
  aurora::DeployedQuery deployed;
  std::unique_ptr<aurora::HaManager> ha;
  NodeId home = 0;

  RowDigest agg, sel;
  /// sel_out latency (creation stamp -> delivery, simulated micros) ->
  /// tuples; a count per distinct value keeps memory flat over the run.
  std::map<int64_t, uint64_t> latency_us;
};

std::unique_ptr<Federation> SetUp() {
  auto fed = std::make_unique<Federation>();
  fed->system = std::make_unique<aurora::AuroraStarSystem>(
      &fed->sim, &fed->net, FedStarOptions());
  for (int i = 0; i < kNodes; ++i) {
    aurora::NodeOptions nopts;
    nopts.name = "n" + std::to_string(i);
    AURORA_CHECK(fed->system->AddNode(nopts).ok());
  }
  fed->net.FullMesh(aurora::LinkOptions{});
  fed->query = BuildQuery();
  auto deployed = aurora::DeployQuery(
      fed->system.get(), fed->query,
      {{"f0", 0}, {"m0", 0}, {"agg", 1}, {"sel", 2}});
  AURORA_CHECK(deployed.ok());
  fed->deployed = *deployed;
  fed->home = fed->deployed.inputs.at("src").first;
  Federation* f = fed.get();
  const auto& agg_at = fed->deployed.outputs.at("agg_out");
  const auto& sel_at = fed->deployed.outputs.at("sel_out");
  AURORA_CHECK(fed->system
                   ->CollectOutput(agg_at.first, agg_at.second,
                                   [f](const Tuple& t, SimTime) { f->agg.Add(t); })
                   .ok());
  AURORA_CHECK(fed->system
                   ->CollectOutput(sel_at.first, sel_at.second,
                                   [f](const Tuple& t, SimTime now) {
                                     f->sel.Add(t);
                                     f->latency_us[(now - t.timestamp())
                                                       .micros()]++;
                                   })
                   .ok());
  fed->ha = std::make_unique<aurora::HaManager>(fed->system.get(),
                                                aurora::HaOptions{});
  AURORA_CHECK(fed->ha->Protect(&fed->deployed, &fed->query).ok());
  for (int i = 0; i < kNodes; ++i) {
    fed->fs.push_back(std::make_unique<aurora::MemStorageFs>());
    aurora::TieredStoreOptions sopts;
    sopts.scope = "n" + std::to_string(i);
    fed->stores.push_back(
        std::make_unique<aurora::TieredStore>(fed->fs.back().get(), sopts));
    AURORA_CHECK(fed->stores.back()->Open().ok());
    fed->system->node(i).AttachDurableStorage(fed->stores.back().get());
  }
  return fed;
}

/// The single-node oracle: the same query in one engine, fed the tuples
/// the federation accepted, as the model checker's runner does.
struct Oracle {
  aurora::AuroraEngine engine{FedStarOptions().engine};
  RowDigest agg, sel;
  SimTime last{};

  explicit Oracle(const aurora::GlobalQuery& q) {
    AURORA_CHECK(aurora::DeployQueryLocal(&engine, q).ok());
    engine.SetOutputCallback(*engine.FindOutput("agg_out"),
                             [this](const Tuple& t, SimTime) { agg.Add(t); });
    engine.SetOutputCallback(*engine.FindOutput("sel_out"),
                             [this](const Tuple& t, SimTime) { sel.Add(t); });
  }
  bool Feed(const std::vector<Tuple>& tuples, const std::vector<char>& ok) {
    for (size_t i = 0; i < tuples.size(); ++i) {
      if (!ok[i]) continue;
      last = tuples[i].timestamp();
      if (!engine.PushInputByName("src", tuples[i], last).ok()) return false;
    }
    return engine.RunUntilQuiescent(last).ok();
  }
};

void ProbeFederationLayers(uint64_t seed, PassResult* r) {
  aurora::StreamGenerator gen = MakeGenerator(seed);
  std::vector<Tuple> in;
  SimTime at{};
  for (size_t i = 0; i < kProbeTuples; ++i) {
    in.push_back(gen.Next(at));
    at = at + gen.NextGap();
  }
  std::vector<Tuple> filtered, mapped;
  const aurora::SchemaPtr schema = FedSchema();
  r->layer["ops.filter_ns_per_tuple"] =
      ProbeOperatorNs(FedFilter(), schema, in, &filtered);
  auto map_op = aurora::CreateOperator(FedMap());
  AURORA_CHECK(map_op.ok() && (*map_op)->Init({schema}).ok());
  const aurora::SchemaPtr mapped_schema = (*map_op)->output_schema(0);
  r->layer["ops.map_ns_per_tuple"] =
      ProbeOperatorNs(FedMap(), schema, filtered, &mapped);
  r->layer["ops.tumble_ns_per_tuple"] =
      ProbeOperatorNs(FedTumble(), mapped_schema, mapped, nullptr);

  // n0 ships the map's output to n1 and n2 in trains of 16.
  SerdeProbe serde = ProbeSerde(mapped, mapped_schema, kTrainSize);
  r->layer["serde.encode_ns_per_tuple"] = serde.encode_ns_per_tuple;
  r->layer["serde.decode_ns_per_tuple"] = serde.decode_ns_per_tuple;
  r->layer["serde.bytes_per_tuple"] = serde.bytes_per_tuple;

  // HA-log records as StreamNode mirrors them: the sent tuple (stamped
  // with its outgoing sequence number) followed by its lineage.
  std::vector<std::vector<uint8_t>> payloads;
  uint64_t seq = 0;
  for (Tuple t : mapped) {
    t.set_seq(++seq);
    aurora::Encoder enc;
    enc.PutTuple(t);
    enc.PutU64(seq);
    payloads.push_back(enc.TakeBuffer());
  }
  r->layer["storage.append_ns"] =
      ProbeStorageAppendNs(payloads, aurora::TieredStoreOptions{});
}

}  // namespace

PassResult RunFederationHa(const PassOptions& opts, SpanTracer* tracer) {
  PassResult r;
  const int run_site = tracer->Site("sim.RunUntil");
  const int inject_site = tracer->Site("node.Inject");

  auto build = SetUp;
  std::unique_ptr<Federation> fed = TimedSetUp(opts, &r, build);
  int64_t next_setup = 0;
  aurora::MetricsRegistry::Global().Reset();
  Oracle oracle(fed->query);
  aurora::StreamGenerator gen = MakeGenerator(opts.seed);

  std::vector<Tuple> slice;
  std::vector<char> accepted;
  SimTime next_at = SimTime{} + gen.NextGap();
  SimTime slice_end{};
  uint64_t refused = 0, slices = 0;
  int64_t measured_ns = 0;
  size_t retained_peak = 0;
  bool oracle_ok = true;
  const uint64_t events_before = fed->sim.events_executed();
  uint64_t traced_events = 0;  // executed inside traced RunUntil spans
  const size_t min_slices =
      opts.need_tail_samples ? MinSamplesFor(kTailPct) : 0;
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(opts.seconds * 1e9);
  const int64_t hard_stop =
      start + static_cast<int64_t>(3 * opts.seconds * 1e9);
  for (;;) {
    const int64_t now_ns = NowNs();
    if ((now_ns >= deadline && slices >= min_slices) || now_ns >= hard_stop) {
      break;
    }
    // Generate and schedule this slice's arrivals (untimed).
    slice_end = slice_end + kSlice;
    slice.clear();
    while (next_at < slice_end) {
      slice.push_back(gen.Next(next_at));
      next_at = next_at + gen.NextGap();
    }
    accepted.assign(slice.size(), 0);
    for (size_t i = 0; i < slice.size(); ++i) {
      const uint64_t id = r.attempted + i;
      fed->sim.ScheduleAt(slice[i].timestamp(), [&, i, id] {
        Span span(tracer, inject_site, id);
        accepted[i] = fed->system->node(fed->home).Inject("src", slice[i]).ok();
      });
    }
    tracer->StartUnit();
    const bool traced = tracer->enabled();
    const uint64_t events0 = fed->sim.events_executed();
    const int64_t t0 = NowNs();
    {
      Span span(tracer, run_site, slices);
      fed->sim.RunUntil(slice_end);
    }
    const int64_t slice_ns = NowNs() - t0;
    measured_ns += slice_ns;
    r.latency_ms.push_back(static_cast<double>(slice_ns) / 1e6);
    r.latency_at_ns.push_back(t0 + slice_ns);
    r.attempted += slice.size();
    const uint64_t refused_before = refused;
    for (char ok : accepted) refused += ok ? 0 : 1;
    const uint64_t done = slice.size() - (refused - refused_before);
    (traced ? r.traced_work : r.work)
        .emplace_back(static_cast<double>(done),
                      static_cast<double>(slice_ns) / 1e9);
    if (traced) traced_events += fed->sim.events_executed() - events0;
    retained_peak = std::max(retained_peak, fed->ha->TotalRetainedTuples());
    ++slices;
    oracle_ok = oracle_ok && oracle.Feed(slice, accepted);
    r.speed.MaybeSample();
    SampleSetUp(opts, &next_setup, &r, build);
  }
  // Let trains, credit grants and HA truncation settle.
  fed->sim.RunUntil(slice_end + SimDuration::Seconds(2));
  r.peak_rss_mb = PeakRssMb();

  r.failed += refused;
  r.measured_s = static_cast<double>(measured_ns) / 1e9;
  r.throughput_tps = static_cast<double>(r.attempted - refused) / r.measured_s;
  r.latency_kind = "slice: wall time to simulate 10 ms of arrivals";
  // Simulated delivery latency on sel_out: deterministic for a seed, so it
  // is reported with the provenance rather than as a measured time.
  std::vector<double> sim_ms;
  for (const auto& [us, n] : fed->latency_us) {
    sim_ms.insert(sim_ms.end(), n, static_cast<double>(us) / 1000.0);
  }
  r.diagnostics.emplace_back("sim_latency_samples",
                             static_cast<double>(sim_ms.size()));
  for (double pct : {50.0, 99.0}) {
    if (auto v = Percentile(sim_ms, pct)) {
      r.diagnostics.emplace_back(
          "sim_latency_p" + std::to_string(static_cast<int>(pct)) + "_ms", *v);
    }
  }
  if (!oracle_ok) FailCheck(&r, "oracle engine refused input or failed a step");
  if (!(fed->agg == oracle.agg)) {
    FailCheck(&r, "agg_out: " + std::to_string(fed->agg.rows) +
                      " rows differ from oracle's " +
                      std::to_string(oracle.agg.rows));
  }
  if (!(fed->sel == oracle.sel)) {
    FailCheck(&r, "sel_out: " + std::to_string(fed->sel.rows) +
                      " rows differ from oracle's " +
                      std::to_string(oracle.sel.rows));
  }

  if (tracer->traced_run()) {
    const double n = static_cast<double>(r.attempted);
    const double kt = n / 1000.0;
    const uint64_t events = fed->sim.events_executed() - events_before;
    const auto run = tracer->Get("sim.RunUntil");
    r.layer["sim.events_per_tuple"] = static_cast<double>(events) / n;
    r.layer["sim.event_ns"] =
        traced_events == 0
            ? 0.0
            : static_cast<double>(run.total_ns) / traced_events;
    r.layer["node.inject_ns"] = tracer->Get("node.Inject").mean_ns();
    uint64_t steps = 0, activations = 0, frames = 0, stalls = 0, wire = 0;
    for (int i = 0; i < kNodes; ++i) {
      aurora::StreamNode& node = fed->system->node(i);
      steps += node.steps_executed();
      activations += node.engine().total_activations();
      for (int j = 0; j < kNodes; ++j) {
        if (i == j) continue;
        wire += fed->net.LinkBytesSent(i, j);
        if (const aurora::Transport* tx = node.PeerTransport(j)) {
          frames += tx->frames_sent();
          stalls += tx->credit_stalls();
        }
      }
    }
    r.layer["node.steps_per_ktuple"] = static_cast<double>(steps) / kt;
    r.layer["engine.steps_per_ktuple"] = static_cast<double>(steps) / kt;
    r.layer["engine.activations_per_ktuple"] =
        static_cast<double>(activations) / kt;
    r.layer["net.frames_per_ktuple"] = static_cast<double>(frames) / kt;
    r.layer["net.wire_bytes_per_tuple"] = static_cast<double>(wire) / n;
    r.layer["net.credit_stalls"] = static_cast<double>(stalls);
    r.layer["ha.retained_peak_tuples"] = static_cast<double>(retained_peak);
    r.layer["ha.truncated_per_tuple"] =
        static_cast<double>(fed->ha->truncated_tuples()) / n;
    const auto& reg = aurora::MetricsRegistry::Global();
    r.layer["storage.appends_per_tuple"] =
        static_cast<double>(reg.CounterValue("storage.aof.appends")) / n;
    r.layer["storage.fsyncs_per_ktuple"] =
        static_cast<double>(reg.CounterValue("storage.aof.fsyncs")) / kt;
    r.layer["storage.compactions_per_ktuple"] =
        static_cast<double>(reg.CounterValue("storage.compactions")) / kt;
    ProbeFederationLayers(opts.seed, &r);
  }
  return r;
}

}  // namespace perfbench
