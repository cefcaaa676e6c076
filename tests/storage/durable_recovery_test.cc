// End-to-end durable storage: budget-constrained engine runs that spill
// real tuple bytes and read them back without changing results, and node
// crash/restart where connection-point history, HA output logs, and
// sequence counters come back from the tiered store (§6.3 replay fed from
// disk instead of from a surviving peer).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/aurora_engine.h"
#include "fault/injector.h"
#include "ha/upstream_backup.h"
#include "obs/metrics.h"
#include "storage/storage_fs.h"
#include "storage/tiered_store.h"
#include "tests/test_util.h"

namespace aurora {
namespace {

using testing_util::GetInt;
using testing_util::SchemaAB;

class DurableRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override { MetricsRegistry::Global().Reset(); }
};

/// Builds filter -> tumble on one engine and runs `n` tuples through it,
/// returning the output values in order.
std::vector<int64_t> RunChain(AuroraEngine* engine, int n) {
  PortId in = *engine->AddInput("in", SchemaAB());
  BoxId filter = *engine->AddBox(FilterSpec(Predicate::True()));
  BoxId tumble = *engine->AddBox(TumbleSpec("cnt", "B", {"A"}));
  PortId out = *engine->AddOutput("out");
  EXPECT_OK(engine->Connect(Endpoint::InputPort(in),
                            Endpoint::BoxPort(filter, 0)).status());
  EXPECT_OK(engine->Connect(Endpoint::BoxPort(filter, 0),
                            Endpoint::BoxPort(tumble, 0)).status());
  EXPECT_OK(engine->Connect(Endpoint::BoxPort(tumble, 0),
                            Endpoint::OutputPort(out)).status());
  EXPECT_OK(engine->InitializeBoxes());

  std::vector<int64_t> got;
  engine->SetOutputCallback(
      out, [&](const Tuple& t, SimTime) { got.push_back(GetInt(t, "A")); });
  for (int i = 0; i < n; ++i) {
    Tuple t = MakeTuple(SchemaAB(), {Value(i % 7), Value(i)});
    t.set_timestamp(SimTime::Millis(i));
    EXPECT_OK(engine->PushInput(in, std::move(t), SimTime::Millis(i)));
  }
  EXPECT_OK(engine->RunUntilQuiescent(SimTime::Seconds(10)));
  return got;
}

TEST_F(DurableRecoveryTest, BudgetConstrainedRunSpillsReadsBackSameResult) {
  // Oracle: unbounded memory, no storage.
  AuroraEngine oracle;
  std::vector<int64_t> expected = RunChain(&oracle, 400);
  ASSERT_FALSE(expected.empty());

  MetricsRegistry::Global().Reset();
  MemStorageFs fs;
  TieredStore store(&fs);
  ASSERT_OK(store.Open());
  EngineOptions opts;
  opts.memory_budget_bytes = 512;  // far below the run's working set
  AuroraEngine engine(opts);
  engine.AttachDurableStore(&store);
  std::vector<int64_t> got = RunChain(&engine, 400);

  // Spilling moved real bytes through the store and read them back, and
  // the answer is unchanged.
  EXPECT_EQ(got, expected);
  MetricsRegistry& reg = MetricsRegistry::Global();
  uint64_t spilled = reg.CounterValue("engine.storage.spill.tuples");
  uint64_t unspilled = reg.CounterValue("engine.storage.unspill.tuples");
  EXPECT_GT(spilled, 0u);
  EXPECT_GT(unspilled, 0u);
  EXPECT_LE(unspilled, spilled);  // conservation: reads never outrun writes
  EXPECT_GT(reg.CounterValue("storage.aof.appends"), 0u);
  EXPECT_GT(reg.CounterValue("storage.reads"), 0u);
}

TEST_F(DurableRecoveryTest, EngineCpHistorySurvivesCrashViaStore) {
  MemStorageFs fs;
  TieredStoreOptions sopts;
  sopts.sync_every_append = true;
  TieredStore store(&fs, sopts);
  ASSERT_OK(store.Open());

  EngineOptions opts;
  opts.cp_cache_tuples = 4;
  AuroraEngine engine(opts);
  engine.AttachDurableStore(&store);

  PortId in = *engine.AddInput("in", SchemaAB());
  BoxId filter = *engine.AddBox(FilterSpec(Predicate::True()));
  PortId out = *engine.AddOutput("out");
  ArcId cp_arc = *engine.Connect(Endpoint::InputPort(in),
                                 Endpoint::BoxPort(filter, 0));
  ASSERT_OK(engine.Connect(Endpoint::BoxPort(filter, 0),
                           Endpoint::OutputPort(out)).status());
  ASSERT_OK(engine.InitializeBoxes());
  ASSERT_OK(engine.MakeConnectionPoint(cp_arc, "cp", RetentionPolicy{}));

  for (int i = 1; i <= 30; ++i) {
    Tuple t = MakeTuple(SchemaAB(), {Value(i), Value(i)});
    t.set_timestamp(SimTime::Millis(i));
    ASSERT_OK(engine.PushInput(in, std::move(t), SimTime::Millis(i)));
  }
  ASSERT_OK(engine.RunUntilQuiescent(SimTime::Millis(30)));
  ConnectionPoint* cp = *engine.GetConnectionPoint("cp");
  ASSERT_EQ(cp->history_size(), 30u);

  // Crash the storage consumers and the store, then recover.
  engine.WipeVolatileStorage();
  store.Crash();
  EXPECT_EQ(cp->history_size(), 0u);
  ASSERT_OK(store.Open());
  engine.RecoverDurableState(SimTime::Millis(30));

  EXPECT_EQ(cp->history_size(), 30u);
  EXPECT_LE(cp->history().size(), 4u);  // only the cache tier in RAM
  std::vector<int64_t> replayed;
  cp->QueryHistory([](const Tuple&) { return true; },
                   [&](const Tuple& t) { replayed.push_back(GetInt(t, "A")); });
  ASSERT_EQ(replayed.size(), 30u);
  for (int i = 0; i < 30; ++i) EXPECT_EQ(replayed[i], i + 1);
}

TEST_F(DurableRecoveryTest, NodeCrashRestartRecoversHalogAndReplays) {
  Simulation sim;
  OverlayNetwork net(&sim);
  AuroraStarSystem system(&sim, &net, StarOptions{});
  NodeId s1 = *system.AddNode(NodeOptions{"s1", 1.0, {}});
  NodeId s2 = *system.AddNode(NodeOptions{"s2", 1.0, {}});
  net.FullMesh(LinkOptions{});

  GlobalQuery query;
  ASSERT_OK(query.AddInput("in", SchemaAB()));
  ASSERT_OK(query.AddBox("f", FilterSpec(Predicate::True())));
  ASSERT_OK(query.AddBox("m", MapSpec({{"A", Expr::FieldRef("A")},
                                       {"B", Expr::FieldRef("B")}})));
  ASSERT_OK(query.AddOutput("out"));
  ASSERT_OK(query.ConnectInputToBox("in", "f"));
  ASSERT_OK(query.ConnectBoxes("f", 0, "m", 0));
  ASSERT_OK(query.ConnectBoxToOutput("m", 0, "out"));
  auto deployed = DeployQuery(&system, query, {{"f", s1}, {"m", s2}});
  ASSERT_TRUE(deployed.ok()) << deployed.status().ToString();

  // s1 keeps output logs, mirrored into a durable store that syncs every
  // append (zero durability lag, so the whole log survives the crash).
  system.node(s1).RetainOutputLogs(true);
  system.node(s2).RetainOutputLogs(true);
  MemStorageFs fs;
  TieredStoreOptions sopts;
  sopts.sync_every_append = true;
  TieredStore store(&fs, sopts);
  ASSERT_OK(store.Open());
  system.node(s1).AttachDurableStorage(&store);

  uint64_t delivered = 0;
  ASSERT_OK(system.CollectOutput(s2, "out",
                                 [&](const Tuple&, SimTime) { ++delivered; }));
  for (int i = 0; i < 1200; ++i) {
    sim.ScheduleAt(SimTime::Millis(i), [&system, s1, i]() {
      Tuple t = MakeTuple(SchemaAB(), {Value(i), Value(i)});
      (void)system.node(s1).Inject("in", t);
    });
  }

  FaultPlan plan;
  plan.CrashAt(SimTime::Millis(500), s1).RestartAt(SimTime::Millis(700), s1);
  Injector injector(&system, plan, InjectorOptions{});
  ASSERT_OK(injector.Arm());
  sim.RunUntil(SimTime::Seconds(3));

  MetricsRegistry& reg = MetricsRegistry::Global();
  EXPECT_GT(reg.CounterValue("storage.halog.appends"), 0u);
  // The injector ran durable recovery on restart: the output log was
  // rebuilt from the halog stream and replayed downstream.
  EXPECT_GT(reg.CounterValue("storage.halog.replayed"), 0u);
  bool has_log = false;
  for (const auto& [name, binding] : system.node(s1).bindings()) {
    if (!binding.output_log.empty()) has_log = true;
  }
  EXPECT_TRUE(has_log);
  // s2 saw the replayed pre-crash tuples again and suppressed them.
  EXPECT_GT(system.node(s2).duplicate_tuples_dropped(), 0u);
  // Fresh post-restart tuples kept flowing: sequence counters were restored
  // from the store, so the receiver's dedup watermark does not eat them.
  EXPECT_GT(delivered, 800u);
}

/// Two nodes (filter on s1 -> map on s2) under upstream-backup HA with s1's
/// output log mirrored into a durable store: retention, checkpoint
/// truncations, segment seals and compactions, then a crash + restart that
/// runs RecoverDurableState. The final MemStorageFs content digest pins
/// every byte the halog path writes (AOF frames, pages, meta) — the
/// constant was captured before the in-memory output log became a chunked
/// byte log with one batched store append per sent chunk, so it proves
/// that change left the stored bytes unchanged.
TEST_F(DurableRecoveryTest, HalogBytesPinnedByContentDigest) {
  Simulation sim;
  OverlayNetwork net(&sim);
  AuroraStarSystem system(&sim, &net, StarOptions{});
  NodeId s1 = *system.AddNode(NodeOptions{"s1", 1.0, {}});
  NodeId s2 = *system.AddNode(NodeOptions{"s2", 1.0, {}});
  net.FullMesh(LinkOptions{});

  SchemaPtr schema = Schema::Make({Field{"A", ValueType::kInt64},
                                   Field{"B", ValueType::kInt64},
                                   Field{"S", ValueType::kString},
                                   Field{"D", ValueType::kDouble}});
  GlobalQuery query;
  ASSERT_OK(query.AddInput("in", schema));
  ASSERT_OK(query.AddBox("f", FilterSpec(Predicate::True())));
  ASSERT_OK(query.AddBox("m", MapSpec({{"A", Expr::FieldRef("A")},
                                       {"B", Expr::FieldRef("B")}})));
  ASSERT_OK(query.AddOutput("out"));
  ASSERT_OK(query.ConnectInputToBox("in", "f"));
  ASSERT_OK(query.ConnectBoxes("f", 0, "m", 0));
  ASSERT_OK(query.ConnectBoxToOutput("m", 0, "out"));
  auto deployed = DeployQuery(&system, query, {{"f", s1}, {"m", s2}});
  ASSERT_TRUE(deployed.ok()) << deployed.status().ToString();
  HaManager ha(&system, HaOptions{});
  ASSERT_OK(ha.Protect(&*deployed, &query));

  // Group fsync (not sync-every-append), small segments so several seal and
  // compact, and a memstore budget small enough to evict.
  MemStorageFs fs;
  TieredStoreOptions sopts;
  sopts.mem_budget_bytes = 8 * 1024;
  sopts.aof_segment_bytes = 4 * 1024;
  sopts.group_sync_bytes = 1024;
  TieredStore store(&fs, sopts);
  ASSERT_OK(store.Open());
  system.node(s1).AttachDurableStorage(&store);

  for (int i = 0; i < 1500; ++i) {
    sim.ScheduleAt(SimTime::Millis(i), [&system, &schema, s1, i]() {
      Tuple t = MakeTuple(schema, {Value(i), Value(i % 13),
                                   Value("sym" + std::to_string(i % 5)),
                                   Value(i * 0.25)});
      (void)system.node(s1).Inject("in", t);
    });
  }
  FaultPlan plan;
  plan.CrashAt(SimTime::Millis(705), s1).RestartAt(SimTime::Millis(900), s1);
  Injector injector(&system, plan, InjectorOptions{});
  ASSERT_OK(injector.Arm());
  sim.RunUntil(SimTime::Seconds(3));

  MetricsRegistry& reg = MetricsRegistry::Global();
  EXPECT_GT(ha.truncated_tuples(), 0u);
  EXPECT_GT(reg.CounterValue("storage.truncates"), 0u);
  EXPECT_GT(reg.CounterValue("storage.compactions"), 0u);
  EXPECT_GT(reg.CounterValue("storage.halog.replayed"), 0u);
  EXPECT_EQ(injector.crashes(), 1u);
  EXPECT_EQ(fs.ContentDigest(), 0xe51c8c46645de94bull);
}

/// Hostile bytes on the durable recovery path: byte-flipped, cut and
/// padded halog payloads appended through AppendWithSeq (so their frames
/// and checksums are valid and the payloads reach the decoder), then a
/// crash + restart + RecoverDurableState. Every record that does not decode
/// to a tuple of the log's schema is counted and skipped, only decodable
/// entries enter the log, and nothing aborts — the replay is processed
/// downstream too. Seeded, fixed budget.
TEST_F(DurableRecoveryTest, MutatedHalogPayloadsAreRejectedNotFatal) {
  SchemaPtr schema = Schema::Make({Field{"A", ValueType::kInt64},
                                   Field{"B", ValueType::kInt64},
                                   Field{"S", ValueType::kString},
                                   Field{"D", ValueType::kDouble}});
  const LogLevel saved_level = GetLogLevel();
  SetLogLevel(LogLevel::kFatal);  // one error line per rejected record
  Rng rng = testing_util::MakeTestRng(4);
  constexpr int kRounds = 60;
  constexpr int kMutantsPerRound = 24;
  uint64_t rejected_total = 0, admitted_total = 0;
  for (int round = 0; round < kRounds; ++round) {
    MetricsRegistry::Global().Reset();
    Simulation sim;
    OverlayNetwork net(&sim);
    AuroraStarSystem system(&sim, &net, StarOptions{});
    NodeId s1 = *system.AddNode(NodeOptions{"s1", 1.0, {}});
    NodeId s2 = *system.AddNode(NodeOptions{"s2", 1.0, {}});
    net.FullMesh(LinkOptions{});
    GlobalQuery query;
    ASSERT_OK(query.AddInput("in", schema));
    ASSERT_OK(query.AddBox("f", FilterSpec(Predicate::True())));
    ASSERT_OK(query.AddBox(
        "m", MapSpec({{"A", Expr::FieldRef("A")},
                      {"B", Expr::Arith(ArithOp::kAdd, Expr::FieldRef("B"),
                                        Expr::FieldRef("A"))}})));
    ASSERT_OK(query.AddOutput("out"));
    ASSERT_OK(query.ConnectInputToBox("in", "f"));
    ASSERT_OK(query.ConnectBoxes("f", 0, "m", 0));
    ASSERT_OK(query.ConnectBoxToOutput("m", 0, "out"));
    ASSERT_TRUE(DeployQuery(&system, query, {{"f", s1}, {"m", s2}}).ok());
    system.node(s1).RetainOutputLogs(true);
    MemStorageFs fs;
    TieredStoreOptions sopts;
    sopts.sync_every_append = true;
    TieredStore store(&fs, sopts);
    ASSERT_OK(store.Open());
    StreamNode& node = system.node(s1);
    node.AttachDurableStorage(&store);

    // A few genuine entries, sent and logged the normal way.
    constexpr int kValid = 8;
    for (int i = 0; i < kValid; ++i) {
      ASSERT_OK(node.Inject(
          "in", MakeTuple(schema, {Value(i), Value(3 * i),
                                   Value("s" + std::to_string(i)),
                                   Value(i * 0.5)})));
    }
    sim.RunFor(SimDuration::Millis(20));
    const StreamNode::RemoteBinding& binding = node.bindings().begin()->second;
    ASSERT_EQ(binding.output_log.size(), static_cast<size_t>(kValid));
    const std::string halog = "halog/" + binding.stream;

    // Mutants of a genuine record, appended above the stream's seqs.
    uint64_t seq = store.next_seq(halog);
    int admissible = 0;
    for (int k = 0; k < kMutantsPerRound; ++k) {
      Tuple t = MakeTuple(schema, {Value(int64_t{1000 + k}), Value(k),
                                   Value(std::string(rng.Uniform(12), 'q')),
                                   Value(k * 1.25)});
      t.set_seq(seq);
      t.set_timestamp(SimTime::Micros(500 + k));
      Encoder enc;
      enc.PutTuple(t);
      enc.PutU64(1 + rng.Uniform(kValid));
      std::vector<uint8_t> bytes = enc.TakeBuffer();
      switch (rng.Uniform(4)) {
        case 0:  // cut short
          bytes.resize(rng.Uniform(bytes.size()));
          break;
        case 1:  // trailing junk
          for (int j = 0, n = 1 + static_cast<int>(rng.Uniform(9)); j < n; ++j) {
            bytes.push_back(static_cast<uint8_t>(rng.Next()));
          }
          break;
        default:  // one to three flipped bytes
          for (int j = 0, n = 1 + static_cast<int>(rng.Uniform(3)); j < n; ++j) {
            bytes[rng.Uniform(bytes.size())] ^=
                static_cast<uint8_t>(1 + rng.Uniform(255));
          }
      }
      // The admission rule, stated independently: the bytes decode to a
      // tuple whose values fit the schema (null or the field's type).
      Decoder dec(bytes);
      auto got = dec.GetTuple(schema);
      bool fits = got.ok() && got->num_values() == schema->num_fields();
      for (size_t v = 0; fits && v < got->num_values(); ++v) {
        fits = got->value(v).is_null() ||
               got->value(v).type() == schema->field(v).type;
      }
      admissible += fits ? 1 : 0;
      ASSERT_OK(store.AppendWithSeq(halog, seq++, 500 + k, bytes.data(),
                                    bytes.size()));
    }

    system.node(s1).Crash();
    system.node(s1).SetUp(true);
    ASSERT_OK(system.node(s1).RecoverDurableState());
    const size_t logged = binding.output_log.size();
    EXPECT_EQ(logged, static_cast<size_t>(kValid + admissible))
        << "round " << round;
    const uint64_t rejected =
        MetricsRegistry::Global().CounterValue("storage.halog.rejected");
    EXPECT_EQ(rejected, static_cast<uint64_t>(kMutantsPerRound - admissible))
        << "round " << round;
    // Every logged entry decodes; the genuine ones come back intact.
    std::vector<Tuple> restored = node.OutputLogSnapshot(binding.stream);
    ASSERT_EQ(restored.size(), logged);
    for (int i = 0; i < kValid; ++i) {
      EXPECT_EQ(restored[i].value(0).AsInt(), i);
      EXPECT_EQ(restored[i].value(2).AsString(), "s" + std::to_string(i));
    }
    // The replay reaches s2 and runs through its map without aborting.
    sim.RunFor(SimDuration::Millis(100));
    rejected_total += rejected;
    admitted_total += static_cast<uint64_t>(admissible);
  }
  SetLogLevel(saved_level);
  // The mutations exercised both outcomes.
  EXPECT_GT(rejected_total, 0u);
  EXPECT_GT(admitted_total, 0u);
}

TEST_F(DurableRecoveryTest, DurableRecoveryBeatsPlainRestart) {
  // Same crash/restart schedule twice; only the second run attaches a
  // durable store. The durable run must end with a recovered (non-empty)
  // output log on the crashed node, the plain run loses it for good.
  auto run = [](bool durable, uint64_t* log_entries) {
    Simulation sim;
    OverlayNetwork net(&sim);
    AuroraStarSystem system(&sim, &net, StarOptions{});
    NodeId s1 = *system.AddNode(NodeOptions{"s1", 1.0, {}});
    NodeId s2 = *system.AddNode(NodeOptions{"s2", 1.0, {}});
    net.FullMesh(LinkOptions{});
    GlobalQuery query;
    EXPECT_OK(query.AddInput("in", SchemaAB()));
    EXPECT_OK(query.AddBox("f", FilterSpec(Predicate::True())));
    EXPECT_OK(query.AddBox("m", MapSpec({{"A", Expr::FieldRef("A")},
                                         {"B", Expr::FieldRef("B")}})));
    EXPECT_OK(query.AddOutput("out"));
    EXPECT_OK(query.ConnectInputToBox("in", "f"));
    EXPECT_OK(query.ConnectBoxes("f", 0, "m", 0));
    EXPECT_OK(query.ConnectBoxToOutput("m", 0, "out"));
    auto deployed = DeployQuery(&system, query, {{"f", s1}, {"m", s2}});
    EXPECT_TRUE(deployed.ok());
    system.node(s1).RetainOutputLogs(true);

    MemStorageFs fs;
    TieredStoreOptions sopts;
    sopts.sync_every_append = true;
    TieredStore store(&fs, sopts);
    EXPECT_OK(store.Open());
    if (durable) system.node(s1).AttachDurableStorage(&store);

    for (int i = 0; i < 600; ++i) {
      sim.ScheduleAt(SimTime::Millis(i), [&system, s1, i]() {
        Tuple t = MakeTuple(SchemaAB(), {Value(i), Value(i)});
        (void)system.node(s1).Inject("in", t);
      });
    }
    FaultPlan plan;
    plan.CrashAt(SimTime::Millis(300), s1).RestartAt(SimTime::Millis(400), s1);
    Injector injector(&system, plan, InjectorOptions{});
    EXPECT_OK(injector.Arm());
    sim.RunUntil(SimTime::Seconds(2));

    *log_entries = 0;
    for (const auto& [name, binding] : system.node(s1).bindings()) {
      *log_entries += binding.output_log.size();
    }
  };

  uint64_t plain = 0, durable = 0;
  run(false, &plain);
  MetricsRegistry::Global().Reset();
  run(true, &durable);
  // Without storage, the pre-crash log entries are simply gone; with it,
  // they are back on the node (only post-crash sends exist in the plain
  // run, so the durable log is strictly larger).
  EXPECT_GT(durable, plain);
}

}  // namespace
}  // namespace aurora
