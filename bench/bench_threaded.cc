// Threaded-runtime scaling: the same wide query network (one input fanned
// out to independent filter -> map -> tumble chains) pushed through the
// ThreadedEngine at 1/2/4 workers. Chains are independent components, so
// the LPT partitioner spreads them across workers and throughput should
// scale until the machine runs out of cores (on a single-core container
// every worker count serializes onto one CPU — read the `cores` field of
// BENCH_threaded.json before comparing rows). Writes BENCH_threaded.json
// with tuples/sec, ns/tuple, and the speedup over the 1-worker row.
//
// The train sweep (BM_ThreadedTrain) runs the same network across workers x
// train_size: a single-input box hands each activation's train to one
// Operator::ProcessBatch call and emits it downstream in chunks (ring
// multi-push), so train_size bounds both the activation and the emission
// chunk. Writes BENCH_threaded_train.json with the speedup of each row over
// the train=1 row at the same worker count.
#include <benchmark/benchmark.h>

#include <chrono>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "engine/threaded_engine.h"

namespace aurora {
namespace bench {
namespace {

struct ThreadedRow {
  std::string name;
  int workers = 0;
  int chains = 0;
  int64_t tuples = 0;
  uint64_t steals = 0;
  uint64_t ring_full = 0;
  TupleThroughput throughput;
};

std::vector<ThreadedRow>& Rows() {
  static std::vector<ThreadedRow> rows;
  return rows;
}

/// input --(fan-out)--> chains x [filter(B >= 3) -> map(+S) ->
/// tumble(sum B by A, every 16)] -> one output per chain.
struct WideEngine {
  ThreadedEngine engine;
  PortId in;
  std::vector<uint64_t> delivered;

  WideEngine(int workers, int chains, int train_size = 64)
      : engine([&] {
          ThreadedEngineOptions opts;
          opts.workers = workers;
          opts.train_size = train_size;
          return opts;
        }()),
        in(-1),
        delivered(static_cast<size_t>(chains), 0) {
    in = *engine.AddInput("in", SchemaAB());
    for (int c = 0; c < chains; ++c) {
      PortId out = *engine.AddOutput("out" + std::to_string(c));
      BoxId f = *engine.AddBox(
          FilterSpec(Predicate::Compare("B", CompareOp::kGe, Value(3))));
      BoxId m = *engine.AddBox(
          MapSpec({{"A", Expr::FieldRef("A")},
                   {"B", Expr::FieldRef("B")},
                   {"S", Expr::Arith(ArithOp::kAdd, Expr::FieldRef("A"),
                                     Expr::FieldRef("B"))}}));
      OperatorSpec tumble = TumbleSpec("sum", "B", {"A"});
      tumble.SetParam("emit", Value("every_n"));
      tumble.SetParam("n", Value(int64_t{16}));
      BoxId g = *engine.AddBox(tumble);
      AURORA_CHECK(engine.Connect(Endpoint::InputPort(in),
                                  Endpoint::BoxPort(f, 0)).ok());
      AURORA_CHECK(engine.Connect(Endpoint::BoxPort(f, 0),
                                  Endpoint::BoxPort(m, 0)).ok());
      AURORA_CHECK(engine.Connect(Endpoint::BoxPort(m, 0),
                                  Endpoint::BoxPort(g, 0)).ok());
      AURORA_CHECK(engine.Connect(Endpoint::BoxPort(g, 0),
                                  Endpoint::OutputPort(out)).ok());
      engine.SetOutputCallback(out, [this, c](const Tuple&, SimTime) {
        delivered[static_cast<size_t>(c)]++;
      });
    }
    AURORA_CHECK(engine.InitializeBoxes().ok());
  }
};

void BM_ThreadedWide(benchmark::State& state) {
  const int workers = static_cast<int>(state.range(0));
  const int chains = static_cast<int>(state.range(1));
  const int64_t tuples = GlobalIters() == 1 ? 20000 : 200000;
  SchemaPtr schema = SchemaAB();
  std::vector<Tuple> pool;
  for (int i = 0; i < 64; ++i) {
    pool.push_back(
        MakeTuple(schema, {Value(int64_t{i % 8}), Value(int64_t{i % 10})}));
  }
  double seconds = 0;
  uint64_t steals = 0, ring_full = 0;
  for (auto _ : state) {
    ResetObservability();
    WideEngine wide(workers, chains);
    AURORA_CHECK(wide.engine.Start().ok());
    auto start = std::chrono::steady_clock::now();
    for (int64_t i = 0; i < tuples; ++i) {
      Tuple t = pool[static_cast<size_t>(i % 64)];
      t.set_timestamp(SimTime::Micros(i + 1));
      AURORA_CHECK(wide.engine.PushInput(wide.in, std::move(t),
                                         SimTime()).ok());
    }
    wide.engine.WaitQuiescent();
    seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    steals = wide.engine.steals();
    ring_full = wide.engine.ring_full_events();
    AURORA_CHECK(wide.engine.Stop().ok());
  }
  int64_t total = tuples * static_cast<int64_t>(state.iterations());
  TupleThroughput t = ReportTupleThroughput(state, total, seconds);
  state.counters["steals"] = static_cast<double>(steals);
  ThreadedRow row;
  row.name = "wide/w" + std::to_string(workers) + "/c" +
             std::to_string(chains);
  row.workers = workers;
  row.chains = chains;
  row.tuples = total;
  row.steals = steals;
  row.ring_full = ring_full;
  row.throughput = t;
  Rows().push_back(row);
}

BENCHMARK(BM_ThreadedWide)
    ->Args({1, 8})
    ->Args({2, 8})
    ->Args({4, 8})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

struct ThreadedTrainRow {
  std::string name;
  int workers = 0;
  int train = 0;  // ThreadedEngineOptions::train_size
  int64_t tuples = 0;
  uint64_t steals = 0;
  uint64_t ring_full = 0;
  TupleThroughput throughput;
};

std::vector<ThreadedTrainRow>& TrainRows() {
  static std::vector<ThreadedTrainRow> rows;
  return rows;
}

// workers x train over the same 8-chain wide network. Also dumps an
// obs_threaded_<name>.json metrics snapshot per config so aurora_inspect
// --check can reconcile the engine.threaded.batch.* chunk accounting against
// per-engine tuple totals offline.
void BM_ThreadedTrain(benchmark::State& state) {
  const int workers = static_cast<int>(state.range(0));
  const int train = static_cast<int>(state.range(1));
  const int chains = 8;
  const int64_t tuples = GlobalIters() == 1 ? 20000 : 200000;
  SchemaPtr schema = SchemaAB();
  std::vector<Tuple> pool;
  for (int i = 0; i < 64; ++i) {
    pool.push_back(
        MakeTuple(schema, {Value(int64_t{i % 8}), Value(int64_t{i % 10})}));
  }
  std::string name =
      "train/w" + std::to_string(workers) + "/t" + std::to_string(train);
  double seconds = 0;
  uint64_t steals = 0, ring_full = 0;
  for (auto _ : state) {
    ResetObservability();
    WideEngine wide(workers, chains, train);
    AURORA_CHECK(wide.engine.Start().ok());
    auto start = std::chrono::steady_clock::now();
    for (int64_t i = 0; i < tuples; ++i) {
      Tuple t = pool[static_cast<size_t>(i % 64)];
      t.set_timestamp(SimTime::Micros(i + 1));
      AURORA_CHECK(wide.engine.PushInput(wide.in, std::move(t),
                                         SimTime()).ok());
    }
    wide.engine.WaitQuiescent();
    seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    steals = wide.engine.steals();
    ring_full = wide.engine.ring_full_events();
    AURORA_CHECK(wide.engine.Stop().ok());
    DumpMetricsSnapshot("threaded_" + name);
  }
  int64_t total = tuples * static_cast<int64_t>(state.iterations());
  TupleThroughput t = ReportTupleThroughput(state, total, seconds);
  state.counters["steals"] = static_cast<double>(steals);
  ThreadedTrainRow row;
  row.name = name;
  row.workers = workers;
  row.train = train;
  row.tuples = total;
  row.steals = steals;
  row.ring_full = ring_full;
  row.throughput = t;
  TrainRows().push_back(row);
}

BENCHMARK(BM_ThreadedTrain)
    ->ArgNames({"workers", "train"})
    ->Args({1, 1})
    ->Args({1, 16})
    ->Args({1, 64})
    ->Args({4, 1})
    ->Args({4, 16})
    ->Args({4, 64})
    ->Args({4, 256})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

void DumpThreadedTrainJson() {
  // train=1 baseline per worker count, so each row reports the speedup
  // attributable to longer trains alone.
  const std::vector<ThreadedTrainRow>& rows = TrainRows();
  auto train1_base = [&rows](int workers) {
    for (const ThreadedTrainRow& r : rows) {
      if (r.train == 1 && r.workers == workers) {
        return r.throughput.tuples_per_sec;
      }
    }
    return 0.0;
  };
  std::ofstream out("BENCH_threaded_train.json");
  out << "{\n  \"bench\": \"threaded_train\",\n  \"cores\": "
      << std::thread::hardware_concurrency() << ",\n  \"rows\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const ThreadedTrainRow& r = rows[i];
    double base = train1_base(r.workers);
    double speedup = base > 0 ? r.throughput.tuples_per_sec / base : 0;
    out << "    {\"name\": \"" << r.name << "\", \"workers\": " << r.workers
        << ", \"train\": " << r.train << ", \"tuples\": " << r.tuples
        << ", \"tuples_per_sec\": " << r.throughput.tuples_per_sec
        << ", \"ns_per_tuple\": " << r.throughput.ns_per_tuple
        << ", \"steals\": " << r.steals << ", \"ring_full\": " << r.ring_full
        << ", \"speedup_vs_train1\": " << speedup << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

void DumpThreadedJson() {
  double base = 0;
  for (const ThreadedRow& r : Rows()) {
    if (r.workers == 1) base = r.throughput.tuples_per_sec;
  }
  std::ofstream out("BENCH_threaded.json");
  out << "{\n  \"bench\": \"threaded\",\n  \"cores\": "
      << std::thread::hardware_concurrency() << ",\n  \"rows\": [\n";
  const std::vector<ThreadedRow>& rows = Rows();
  for (size_t i = 0; i < rows.size(); ++i) {
    const ThreadedRow& r = rows[i];
    double speedup =
        base > 0 ? r.throughput.tuples_per_sec / base : 0;
    out << "    {\"name\": \"" << r.name << "\", \"workers\": " << r.workers
        << ", \"chains\": " << r.chains << ", \"tuples\": " << r.tuples
        << ", \"tuples_per_sec\": " << r.throughput.tuples_per_sec
        << ", \"ns_per_tuple\": " << r.throughput.ns_per_tuple
        << ", \"steals\": " << r.steals << ", \"ring_full\": " << r.ring_full
        << ", \"speedup_vs_1w\": " << speedup << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace
}  // namespace bench
}  // namespace aurora

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--iters=small") argv[i] = const_cast<char*>("--iters=1");
    if (arg == "--iters=full") argv[i] = const_cast<char*>("--iters=0");
  }
  ::aurora::bench::ParseBenchFlags(&argc, argv);
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::aurora::bench::DumpThreadedJson();
  ::aurora::bench::DumpThreadedTrainJson();
  ::benchmark::Shutdown();
  return 0;
}
