// cp_history: one engine whose input arc is a durable connection point
// (TieredStore on an in-memory file system) keeping a fixed number of
// tuples. Tuples stream in; every kQueryEvery tuples one client attaches a
// selective ad hoc query, takes the history replay, and detaches.
#include <deque>
#include <memory>

#include "engine/aurora_engine.h"
#include "obs/metrics.h"
#include "ops/operator.h"
#include "stats.h"
#include "storage/storage_fs.h"
#include "tuple/serde.h"
#include "workloads.h"

namespace perfbench {

using aurora::AuroraEngine;
using aurora::Endpoint;
using aurora::PortId;
using aurora::SimTime;
using aurora::Tuple;

namespace {

/// Tuples the connection point retains (and every query walks).
constexpr size_t kRetain = 384;
/// Store memstore budget: about 70 of the retained records stay cached, so
/// a query reads most of its history back through TieredStore::Read misses.
/// Query cost grows faster than linearly in kRetain (each miss rescans the
/// store): 256 -> ~15 ms, 384 -> ~40 ms, 512 -> ~100 ms on a 4-core host.
constexpr size_t kMemstoreBytes = 8 * 1024;
constexpr size_t kRoundTuples = 64;   // pushed between engine runs
constexpr size_t kQueryEvery = 256;   // tuples between two ad hoc queries
constexpr size_t kPoolTuples = 16384; // generated from the seed, cycled
constexpr int64_t kKeys = 256;        // a query selects one key

aurora::SchemaPtr CpSchema() {
  using aurora::Field;
  using aurora::ValueType;
  return aurora::Schema::Make({Field{"k", ValueType::kInt64},
                               Field{"v", ValueType::kInt64},
                               Field{"sym", ValueType::kString},
                               Field{"note", ValueType::kString}});
}

aurora::OperatorSpec CpFilter() {
  return aurora::FilterSpec(aurora::Predicate::Compare(
      "v", aurora::CompareOp::kGe, aurora::Value(int64_t{10})));
}
aurora::OperatorSpec CpMap() {
  using aurora::Expr;
  return aurora::MapSpec({{"k", Expr::FieldRef("k")},
                          {"v", Expr::FieldRef("v")},
                          {"sym", Expr::FieldRef("sym")}});
}

std::vector<Tuple> MakePool(uint64_t seed) {
  const aurora::SchemaPtr schema = CpSchema();
  static const char* kNotes[] = {"sensor-north-gate-reading",
                                 "sensor-south-gate-reading",
                                 "calibration-drift-noted", "ok"};
  aurora::Rng rng(seed * 0xbf58476d1ce4e5b9ull + 7);
  std::vector<Tuple> pool;
  for (size_t i = 0; i < kPoolTuples; ++i) {
    pool.push_back(aurora::MakeTuple(
        schema, {aurora::Value(rng.UniformInt(0, kKeys - 1)),
                 aurora::Value(rng.UniformInt(0, 999)),
                 aurora::Value("SYM" + std::to_string(rng.UniformInt(0, 15))),
                 aurora::Value(kNotes[rng.Uniform(4)])}));
  }
  return pool;
}

struct CpEngine {
  aurora::MemStorageFs fs;
  std::unique_ptr<aurora::TieredStore> store;
  std::unique_ptr<AuroraEngine> engine;
  PortId in = -1;
};

template <class Sink>
std::unique_ptr<CpEngine> SetUp(Sink sink) {
  auto cp = std::make_unique<CpEngine>();
  aurora::TieredStoreOptions sopts;
  sopts.scope = "cp";
  sopts.mem_budget_bytes = kMemstoreBytes;
  cp->store = std::make_unique<aurora::TieredStore>(&cp->fs, sopts);
  AURORA_CHECK(cp->store->Open().ok());
  cp->engine = std::make_unique<AuroraEngine>(aurora::EngineOptions{});
  AuroraEngine& e = *cp->engine;
  cp->in = *e.AddInput("in", CpSchema());
  PortId out = *e.AddOutput("out");
  auto f = *e.AddBox(CpFilter());
  auto m = *e.AddBox(CpMap());
  auto arc = e.Connect(Endpoint::InputPort(cp->in), Endpoint::BoxPort(f, 0));
  AURORA_CHECK(arc.ok());
  AURORA_CHECK(e.Connect(Endpoint::BoxPort(f, 0), Endpoint::BoxPort(m, 0)).ok());
  AURORA_CHECK(e.Connect(Endpoint::BoxPort(m, 0), Endpoint::OutputPort(out)).ok());
  AURORA_CHECK(e.InitializeBoxes().ok());
  e.AttachDurableStore(cp->store.get());
  aurora::RetentionPolicy keep;
  keep.max_tuples = kRetain;
  AURORA_CHECK(e.MakeConnectionPoint(*arc, "hist", keep).ok());
  e.SetOutputCallback(out, sink);
  return cp;
}

}  // namespace

PassResult RunCpHistory(const PassOptions& opts, SpanTracer* tracer) {
  PassResult r;
  const int cycle_site = tracer->Site("cycle");
  const int push_site = tracer->Site("engine.PushInput");
  const int step_site = tracer->Site("engine.RunOneStep");
  const int tick_site = tracer->Site("engine.Tick");
  const int sink_site = tracer->Site("app.sink");
  const int attach_site = tracer->Site("cp.AttachAdHocQuery");
  const int detach_site = tracer->Site("cp.DetachAdHocQuery");

  const std::vector<Tuple> pool = MakePool(opts.seed);
  uint64_t delivered = 0, cycle = 0;
  auto sink = [&](const Tuple&, SimTime) {
    Span span(tracer, sink_site, cycle);
    ++delivered;
  };
  auto build = [&] { return SetUp(sink); };
  std::unique_ptr<CpEngine> cp = TimedSetUp(opts, &r, build);
  int64_t next_setup = 0;
  aurora::MetricsRegistry::Global().Reset();
  const auto& reg = aurora::MetricsRegistry::Global();
  AuroraEngine& engine = *cp->engine;
  aurora::Rng query_rng(opts.seed ^ 0x5bd1e995u);

  std::deque<Tuple> window;  // model of the retained history
  std::vector<Tuple> replay, expected;
  std::vector<double> query_ms;
  uint64_t refused = 0, steps = 0, rows_walked = 0;
  uint64_t reads = 0, read_records = 0, read_scanned = 0;
  int64_t query_ns = 0, measured_ns = 0;
  bool step_error = false;
  const size_t min_queries =
      opts.need_tail_samples ? MinSamplesFor(kTailPct) : 0;
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(opts.seconds * 1e9);
  const int64_t hard_stop = start + static_cast<int64_t>(3 * opts.seconds * 1e9);
  for (;; ++cycle) {
    const int64_t now_ns = NowNs();
    if ((now_ns >= deadline && query_ms.size() >= min_queries) ||
        now_ns >= hard_stop) {
      break;
    }
    tracer->StartUnit();
    const bool traced = tracer->enabled();
    Span cycle_span(tracer, cycle_site, cycle);
    const uint64_t refused_before = refused;
    const int64_t ingest0 = NowNs();
    for (size_t done = 0; done < kQueryEvery; done += kRoundTuples) {
      SimTime now{};
      for (size_t i = 0; i < kRoundTuples; ++i) {
        Tuple t = pool[r.attempted % kPoolTuples];
        ++r.attempted;
        now = SimTime::Micros(static_cast<int64_t>(r.attempted));
        t.set_timestamp(now);
        window.push_back(t);
        if (window.size() > kRetain) window.pop_front();
        Span span(tracer, push_site, cycle);
        if (!engine.PushInput(cp->in, std::move(t), now).ok()) ++refused;
      }
      while (engine.HasWork()) {
        Span span(tracer, step_site, cycle);
        if (!engine.RunOneStep(now).ok()) step_error = true;
        ++steps;
      }
      Span span(tracer, tick_site, cycle);
      engine.Tick(now);
    }
    const int64_t ingest_ns = NowNs() - ingest0;
    measured_ns += ingest_ns;

    // One ad hoc query: attach (replays the retained history), detach. A
    // query outlasts HostSpeed::kEveryNs, so the host's speed is sampled
    // on both sides of every one.
    r.speed.Sample();
    const int64_t key = static_cast<int64_t>(query_rng.Uniform(kKeys));
    replay.clear();
    const uint64_t reads0 = reg.CounterValue("storage.reads");
    const uint64_t recs0 = reg.CounterValue("storage.reads.records");
    const uint64_t scanned0 = reg.CounterValue("storage.reads.records_scanned");
    const int64_t q0 = NowNs();
    int token = 0;
    bool query_ok = true;
    {
      Span span(tracer, attach_site, cycle);
      auto attached = engine.AttachAdHocQuery(
          "hist",
          aurora::Predicate::Compare("k", aurora::CompareOp::kEq,
                                     aurora::Value(key)),
          [&](const Tuple& t, SimTime) { replay.push_back(t); });
      query_ok = attached.ok();
      if (query_ok) token = *attached;
    }
    if (query_ok) {
      Span span(tracer, detach_site, cycle);
      query_ok = engine.DetachAdHocQuery("hist", token).ok();
    }
    const int64_t q1 = NowNs();
    query_ms.push_back(static_cast<double>(q1 - q0) / 1e6);
    r.latency_at_ns.push_back(q1);
    r.speed.Sample();
    query_ns += q1 - q0;
    measured_ns += q1 - q0;
    const uint64_t done = kQueryEvery - (refused - refused_before);
    (traced ? r.traced_work : r.work)
        .emplace_back(static_cast<double>(done),
                      static_cast<double>(ingest_ns + (q1 - q0)) / 1e9);
    rows_walked += window.size();
    reads += reg.CounterValue("storage.reads") - reads0;
    read_records += reg.CounterValue("storage.reads.records") - recs0;
    read_scanned += reg.CounterValue("storage.reads.records_scanned") - scanned0;

    // Check the replay against the model (outside the query's timing).
    expected.clear();
    for (const Tuple& t : window) {
      if (t.value(0).AsInt() == key) expected.push_back(t);
    }
    if (!query_ok) {
      FailCheck(&r, "query " + std::to_string(cycle) + ": attach/detach failed");
    } else if (std::string err = CheckReplay(replay, expected); !err.empty()) {
      FailCheck(&r, "query " + std::to_string(cycle) + ": " + err);
    }
    SampleSetUp(opts, &next_setup, &r, build);
  }
  r.peak_rss_mb = PeakRssMb();
  r.failed += refused;
  if (step_error) FailCheck(&r, "engine step returned an error");
  // The live path: every offered tuple with v >= 10 reaches the output.
  uint64_t want = 0;
  for (uint64_t i = 0; i < r.attempted; ++i) {
    want += pool[i % kPoolTuples].value(1).AsInt() >= 10 ? 1 : 0;
  }
  if (delivered != want) {
    FailCheck(&r, "out: " + std::to_string(delivered) + " tuples delivered, " +
                      std::to_string(want) + " expected");
  }
  r.measured_s = static_cast<double>(measured_ns) / 1e9;
  r.throughput_tps = static_cast<double>(r.attempted - refused) / r.measured_s;
  r.latency_ms = query_ms;
  r.latency_kind = "ad hoc query: attach, history replay, detach (wall)";

  if (tracer->traced_run()) {
    const double n = static_cast<double>(r.attempted);
    const double kt = n / 1000.0;
    r.layer["engine.push_input_ns"] = tracer->Get("engine.PushInput").mean_ns();
    r.layer["engine.step_self_ns"] =
        tracer->Get("engine.RunOneStep").mean_self_ns();
    r.layer["engine.steps_per_ktuple"] = static_cast<double>(steps) / kt;
    r.layer["engine.activations_per_ktuple"] =
        static_cast<double>(engine.total_activations()) / kt;
    r.layer["storage.appends_per_tuple"] =
        static_cast<double>(reg.CounterValue("storage.aof.appends")) / n;
    r.layer["storage.fsyncs_per_ktuple"] =
        static_cast<double>(reg.CounterValue("storage.aof.fsyncs")) / kt;
    r.layer["storage.compactions_per_ktuple"] =
        static_cast<double>(reg.CounterValue("storage.compactions")) / kt;
    r.layer["cp.query_ns_per_row"] =
        rows_walked == 0 ? 0.0
                         : static_cast<double>(query_ns) /
                               static_cast<double>(rows_walked);
    r.layer["storage.reads_per_query"] =
        static_cast<double>(reads) / static_cast<double>(query_ms.size());
    r.layer["storage.read_amplification"] =
        read_records == 0 ? 0.0
                          : static_cast<double>(read_scanned) /
                                static_cast<double>(read_records);

    std::vector<Tuple> filtered;
    r.layer["ops.filter_ns_per_tuple"] =
        ProbeOperatorNs(CpFilter(), CpSchema(), pool, &filtered);
    r.layer["ops.map_ns_per_tuple"] =
        ProbeOperatorNs(CpMap(), CpSchema(), filtered, nullptr);
    // The connection point's own records: one encoded tuple each.
    std::vector<std::vector<uint8_t>> payloads;
    for (const Tuple& t : pool) {
      aurora::Encoder enc;
      enc.PutTuple(t);
      payloads.push_back(enc.TakeBuffer());
    }
    r.layer["storage.append_ns"] =
        ProbeStorageAppendNs(payloads, cp->store->options());
  }
  return r;
}

}  // namespace perfbench
