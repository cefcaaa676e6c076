// chains_single and chains_threaded: one input fanned out to 8 independent
// filter(B>=3) -> map(A, B, S=A+B) -> tumble(sum B by A, every_n 16) chains,
// driven in closed-loop rounds of 256 tuples by one client.
#include <algorithm>
#include <memory>
#include <mutex>

#include "engine/aurora_engine.h"
#include "engine/threaded_engine.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

using aurora::AuroraEngine;
using aurora::BoxId;
using aurora::Endpoint;
using aurora::PortId;
using aurora::SimTime;
using aurora::ThreadedEngine;
using aurora::Tuple;

namespace {

constexpr int kChains = 8;
constexpr size_t kRoundTuples = 256;
/// Distinct rounds generated from the seed; the client cycles through them.
constexpr size_t kPoolRounds = 8;
constexpr int kThreadedWorkers = 3;

aurora::SchemaPtr ChainSchema() {
  return aurora::Schema::Make({aurora::Field{"A", aurora::ValueType::kInt64},
                               aurora::Field{"B", aurora::ValueType::kInt64}});
}

aurora::OperatorSpec ChainFilter() {
  return aurora::FilterSpec(aurora::Predicate::Compare(
      "B", aurora::CompareOp::kGe, aurora::Value(int64_t{3})));
}
aurora::OperatorSpec ChainMap() {
  using aurora::Expr;
  return aurora::MapSpec(
      {{"A", Expr::FieldRef("A")},
       {"B", Expr::FieldRef("B")},
       {"S", Expr::Arith(aurora::ArithOp::kAdd, Expr::FieldRef("A"),
                         Expr::FieldRef("B"))}});
}
aurora::OperatorSpec ChainTumble() {
  aurora::OperatorSpec spec = aurora::TumbleSpec("sum", "B", {"A"});
  spec.SetParam("emit", aurora::Value("every_n"));
  spec.SetParam("n", aurora::Value(int64_t{16}));
  return spec;
}

/// Kept small (about 2k tuples) so the benchmark's own data stays cache
/// resident and does not add memory-system noise to the engine's.
struct ChainInput {
  aurora::SchemaPtr schema;
  std::vector<Tuple> pool;  // kPoolRounds * kRoundTuples tuples
  std::vector<int64_t> a, b;
};

ChainInput MakeChainInput(uint64_t seed) {
  ChainInput in;
  in.schema = ChainSchema();
  aurora::Rng rng(seed * 0x9e3779b97f4a7c15ull + 1);
  const size_t n = kPoolRounds * kRoundTuples;
  for (size_t i = 0; i < n; ++i) {
    const int64_t a = rng.UniformInt(0, 63);
    const int64_t b = rng.UniformInt(0, 9);
    in.a.push_back(a);
    in.b.push_back(b);
    in.pool.push_back(aurora::MakeTuple(in.schema, {aurora::Value(a),
                                                    aurora::Value(b)}));
  }
  return in;
}

template <class Engine>
struct Chains {
  std::unique_ptr<Engine> engine;
  PortId in = -1;
};

/// Builds the 8 chains on either engine; output c calls on_sink(c, tuple).
template <class Engine, class Sink>
Chains<Engine> BuildChains(std::unique_ptr<Engine> e,
                           const aurora::SchemaPtr& schema, Sink on_sink) {
  PortId in = *e->AddInput("in", schema);
  for (int c = 0; c < kChains; ++c) {
    PortId out = *e->AddOutput("out" + std::to_string(c));
    BoxId f = *e->AddBox(ChainFilter());
    BoxId m = *e->AddBox(ChainMap());
    BoxId g = *e->AddBox(ChainTumble());
    bool ok = e->Connect(Endpoint::InputPort(in), Endpoint::BoxPort(f, 0)).ok() &&
              e->Connect(Endpoint::BoxPort(f, 0), Endpoint::BoxPort(m, 0)).ok() &&
              e->Connect(Endpoint::BoxPort(m, 0), Endpoint::BoxPort(g, 0)).ok() &&
              e->Connect(Endpoint::BoxPort(g, 0), Endpoint::OutputPort(out)).ok();
    AURORA_CHECK(ok);
    e->SetOutputCallback(out, [on_sink, c](const Tuple& t, SimTime) {
      on_sink(c, t);
    });
  }
  AURORA_CHECK(e->InitializeBoxes().ok());
  return Chains<Engine>{std::move(e), in};
}

void ProbeChainOps(const ChainInput& input, PassResult* r) {
  std::vector<Tuple> filtered, mapped;
  r->layer["ops.filter_ns_per_tuple"] =
      ProbeOperatorNs(ChainFilter(), input.schema, input.pool, &filtered);
  auto map_op = aurora::CreateOperator(ChainMap());
  AURORA_CHECK(map_op.ok() && (*map_op)->Init({input.schema}).ok());
  r->layer["ops.map_ns_per_tuple"] =
      ProbeOperatorNs(ChainMap(), input.schema, filtered, &mapped);
  r->layer["ops.tumble_ns_per_tuple"] = ProbeOperatorNs(
      ChainTumble(), (*map_op)->output_schema(0), mapped, nullptr);
}

/// The closed loop shared by both engines: rounds of kRoundTuples pushes,
/// each followed by running the engine to quiescence. After every round,
/// outside its timing, each chain's new rows are streamed through the
/// checker, so memory stays flat however long the run.
struct RoundLoop {
  const ChainInput& input;
  double seconds;
  size_t min_rounds;
  /// Filled by the engines' output callbacks; drained by each round's check.
  /// ThreadedEngine calls back on worker threads, and a row can still be in
  /// flight when a round ends (see README.md, "Known defect"), so the rows
  /// are guarded.
  std::mutex rows_mu;
  std::vector<std::vector<ChainRow>> rows =
      std::vector<std::vector<ChainRow>>(kChains);
  std::vector<double> round_ms;
  std::vector<int64_t> round_at_ns;
  std::vector<std::pair<double, double>> work;
  std::vector<std::pair<double, double>> traced_work;
  int64_t measured_ns = 0;
  uint64_t tuples = 0;
  uint64_t refused = 0;
  ChainChecker checker{kChains};

  void Sink(int chain, const Tuple& t) {
    std::lock_guard<std::mutex> lock(rows_mu);
    rows[static_cast<size_t>(chain)].emplace_back(t.value(0).AsInt(),
                                                  t.value(1).AsInt());
  }

  /// Runs rounds until the deadline (and at least `min_rounds`). `push`
  /// offers one tuple, `finish` runs the engine until the round is
  /// quiescent, `between` runs untimed after each round.
  template <class Push, class Finish, class Between>
  void Run(SpanTracer* tracer, int round_site, Push push, Finish finish,
           Between between) {
    const int64_t start = NowNs();
    const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
    const int64_t hard_stop = start + static_cast<int64_t>(3 * seconds * 1e9);
    for (uint64_t round = 0;; ++round) {
      const int64_t t0 = NowNs();
      if ((t0 >= deadline && round_ms.size() >= min_rounds) || t0 >= hard_stop) {
        break;
      }
      const size_t base = (round % kPoolRounds) * kRoundTuples;
      const uint64_t refused_before = refused;
      tracer->StartUnit();
      const bool traced = tracer->enabled();
      {
        Span span(tracer, round_site, round);
        for (size_t i = 0; i < kRoundTuples; ++i) {
          Tuple t = input.pool[base + i];
          t.set_timestamp(SimTime::Micros(static_cast<int64_t>(tuples + i + 1)));
          if (!push(round, std::move(t))) ++refused;
        }
        finish(round);
      }
      const int64_t t1 = NowNs();
      tuples += kRoundTuples;
      round_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
      round_at_ns.push_back(t1);
      const uint64_t done = kRoundTuples - (refused - refused_before);
      (traced ? traced_work : work)
          .emplace_back(static_cast<double>(done),
                        static_cast<double>(t1 - t0) / 1e9);
      measured_ns += t1 - t0;
      checker.ExpectInputs(&input.a[base], &input.b[base], kRoundTuples);
      {
        std::lock_guard<std::mutex> lock(rows_mu);
        checker.TakeRows(&rows);
      }
      between();
    }
  }

  /// Call after the engine is stopped: takes any last rows and fails every
  /// chain still short of the model.
  void Finish() {
    std::lock_guard<std::mutex> lock(rows_mu);
    checker.TakeRows(&rows);
    checker.Finish();
  }

  void Fill(PassResult* r) const {
    r->attempted = tuples;
    r->failed += refused;
    for (const std::string& e : checker.errors()) FailCheck(r, e);
    r->diagnostics.emplace_back("late_rounds",
                                static_cast<double>(checker.late_rounds()));
    if (checker.late_rounds() > 0) {
      r->warnings.push_back(
          std::to_string(checker.late_rounds()) +
          " chain-rounds ended (engine quiescent) with output rows still "
          "undelivered; they arrived in a later round");
    }
    r->latency_ms = round_ms;
    r->latency_at_ns = round_at_ns;
    r->work = work;
    r->traced_work = traced_work;
    r->latency_kind = "round: first push until quiescent (wall)";
    r->measured_s = static_cast<double>(measured_ns) / 1e9;
    r->throughput_tps = static_cast<double>(tuples - refused) / r->measured_s;
  }
};

}  // namespace

void ChainModel::Push(int64_t a, int64_t b, std::vector<ChainRow>* out) {
  if (b < 3) return;
  auto& [count, sum] = open_[a];
  ++count;
  sum += b;
  if (count == 16) {
    out->emplace_back(a, sum);
    open_.erase(a);
  }
}

ChainChecker::ChainChecker(size_t chains)
    : matched_(chains, 0), failed_(chains, 0) {}

void ChainChecker::ExpectInputs(const int64_t* a, const int64_t* b, size_t n) {
  std::vector<ChainRow> rows;
  for (size_t i = 0; i < n; ++i) model_.Push(a[i], b[i], &rows);
  expected_.insert(expected_.end(), rows.begin(), rows.end());
}

void ChainChecker::TakeRows(std::vector<std::vector<ChainRow>>* rows) {
  const uint64_t expected_end = base_ + expected_.size();
  for (size_t c = 0; c < matched_.size(); ++c) {
    for (const ChainRow& row : (*rows)[c]) {
      const uint64_t i = matched_[c]++;
      if (failed_[c]) continue;
      if (i >= expected_end || expected_[i - base_] != row) {
        failed_[c] = 1;  // report a chain's first bad row only
        errors_.push_back(
            "chain out" + std::to_string(c) + ": row " + std::to_string(i) +
            (i >= expected_end ? " is beyond the model's " +
                                     std::to_string(expected_end) + " rows"
                               : " differs from the model"));
      }
    }
    (*rows)[c].clear();
    if (matched_[c] < expected_end) ++late_rounds_;
  }
  // Rows every chain has matched are no longer needed.
  const uint64_t done = *std::min_element(matched_.begin(), matched_.end());
  while (base_ < done && !expected_.empty()) {
    expected_.pop_front();
    ++base_;
  }
}

void ChainChecker::Finish() {
  const uint64_t expected_end = base_ + expected_.size();
  for (size_t c = 0; c < matched_.size(); ++c) {
    if (!failed_[c] && matched_[c] < expected_end) {
      failed_[c] = 1;
      errors_.push_back("chain out" + std::to_string(c) + ": " +
                        std::to_string(expected_end - matched_[c]) +
                        " of the model's rows never delivered");
    }
  }
}

PassResult RunChainsSingle(const PassOptions& opts, SpanTracer* tracer) {
  PassResult r;
  const ChainInput input = MakeChainInput(opts.seed);
  const int round_site = tracer->Site("round");
  const int push_site = tracer->Site("engine.PushInput");
  const int step_site = tracer->Site("engine.RunOneStep");
  const int sink_site = tracer->Site("app.sink");

  RoundLoop loop{input, opts.seconds,
                 opts.need_tail_samples ? MinSamplesFor(kTailPct) : 0};
  uint64_t current_round = 0;
  auto sink = [&](int c, const Tuple& t) {
    Span span(tracer, sink_site, current_round);
    loop.Sink(c, t);
  };
  auto build = [&] {
    return BuildChains(std::make_unique<AuroraEngine>(aurora::EngineOptions{}),
                       input.schema, sink);
  };
  Chains<AuroraEngine> chains = TimedSetUp(opts, &r, build);
  AuroraEngine* engine = chains.engine.get();
  const PortId in = chains.in;
  int64_t next_setup = 0;

  uint64_t steps = 0;
  bool step_error = false;
  const SimTime now = SimTime::Micros(1);
  loop.Run(
      tracer, round_site,
      [&](uint64_t round, Tuple t) {
        Span span(tracer, push_site, round);
        return engine->PushInput(in, std::move(t), now).ok();
      },
      [&](uint64_t round) {
        current_round = round;
        while (engine->HasWork()) {
          Span span(tracer, step_site, round);
          if (!engine->RunOneStep(now).ok()) step_error = true;
          ++steps;
        }
      },
      [&] {
        r.speed.MaybeSample();
        SampleSetUp(opts, &next_setup, &r, build);
      });
  r.peak_rss_mb = PeakRssMb();
  loop.Finish();
  loop.Fill(&r);
  if (step_error) FailCheck(&r, "engine step returned an error");

  if (tracer->traced_run()) {
    const double kt = static_cast<double>(loop.tuples) / 1000.0;
    r.layer["engine.push_input_ns"] = tracer->Get("engine.PushInput").mean_ns();
    r.layer["engine.step_self_ns"] =
        tracer->Get("engine.RunOneStep").mean_self_ns();
    r.layer["engine.steps_per_ktuple"] = static_cast<double>(steps) / kt;
    r.layer["engine.activations_per_ktuple"] =
        static_cast<double>(engine->total_activations()) / kt;
    ProbeChainOps(input, &r);
  }
  return r;
}

PassResult RunChainsThreaded(const PassOptions& opts, SpanTracer* tracer) {
  PassResult r;
  const ChainInput input = MakeChainInput(opts.seed);
  const int round_site = tracer->Site("round");
  const int push_site = tracer->Site("threaded.PushInput");
  const int wait_site = tracer->Site("threaded.WaitQuiescent");

  // Output callbacks run on worker threads, serialized per output, so each
  // chain's row vector has one writer at a time; the pushing thread reads
  // them only after WaitQuiescent.
  RoundLoop loop{input, opts.seconds,
                 opts.need_tail_samples ? MinSamplesFor(kTailPct) : 0};
  auto sink = [&](int c, const Tuple& t) { loop.Sink(c, t); };
  aurora::ThreadedEngineOptions topts;
  topts.workers = kThreadedWorkers;
  auto build = [&] {
    auto chains = BuildChains(std::make_unique<ThreadedEngine>(topts),
                              input.schema, sink);
    AURORA_CHECK(chains.engine->Start().ok());
    return chains;
  };
  Chains<ThreadedEngine> chains = TimedSetUp(opts, &r, build);
  ThreadedEngine* engine = chains.engine.get();
  const PortId in = chains.in;
  int64_t next_setup = 0;

  const SimTime now = SimTime::Micros(1);
  loop.Run(
      tracer, round_site,
      [&](uint64_t round, Tuple t) {
        Span span(tracer, push_site, round);
        return engine->PushInput(in, std::move(t), now).ok();
      },
      [&](uint64_t round) {
        Span span(tracer, wait_site, round);
        engine->WaitQuiescent();
      },
      [&] {
        r.speed.MaybeSample();
        SampleSetUp(opts, &next_setup, &r, build);
      });
  r.peak_rss_mb = PeakRssMb();
  const uint64_t steals = engine->steals();
  const uint64_t ring_full = engine->ring_full_events();
  const uint64_t activations = engine->activations();
  AURORA_CHECK(engine->Stop().ok());
  // Held to the same engine-free model as chains_single, so both engines'
  // per-output content is identical for the same seed.
  loop.Finish();
  loop.Fill(&r);

  if (tracer->traced_run()) {
    const double kt = static_cast<double>(loop.tuples) / 1000.0;
    const auto round = tracer->Get("round");
    r.layer["threaded.producer_push_share"] =
        round.total_ns == 0 ? 0.0
                            : static_cast<double>(
                                  tracer->Get("threaded.PushInput").total_ns) /
                                  static_cast<double>(round.total_ns);
    r.layer["threaded.wait_quiescent_ns"] =
        tracer->Get("threaded.WaitQuiescent").mean_ns();
    r.layer["threaded.steals_per_ktuple"] = static_cast<double>(steals) / kt;
    r.layer["threaded.ring_full_per_ktuple"] =
        static_cast<double>(ring_full) / kt;
    r.layer["threaded.activations_per_ktuple"] =
        static_cast<double>(activations) / kt;
    ProbeChainOps(input, &r);
  }
  return r;
}

}  // namespace perfbench
