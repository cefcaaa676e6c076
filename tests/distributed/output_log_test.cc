// HA output logs kept as bytes (upstream backup, §6.2): each retained entry
// is the halog record PutTuple(t) + PutU64(lineage) in a chunked byte log
// with a (seq, lineage, location) index. These tests pin the round trip,
// chunk-granular truncation, the lineage minimum, crash, and the log's
// continuity across a box slide.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <string>
#include <vector>

#include "distributed/box_slider.h"
#include "tests/test_util.h"
#include "tuple/serde.h"

namespace aurora {
namespace {

using testing_util::MakeTestRng;
using testing_util::SchemaAB;

SchemaPtr MixedSchema() {
  return Schema::Make({Field{"i", ValueType::kInt64},
                       Field{"s", ValueType::kString},
                       Field{"d", ValueType::kDouble},
                       Field{"b", ValueType::kBool},
                       Field{"n", ValueType::kInt64}});
}

Tuple MixedTuple(int64_t i, std::string s, SeqNo seq) {
  Tuple t = MakeTuple(MixedSchema(), {Value(i), Value(std::move(s)),
                                      Value(i * -0.375 + 1e-9), Value(i % 2 == 0),
                                      Value::Null()});
  t.set_seq(seq);
  t.set_timestamp(SimTime::Micros(1000 + 7 * i));
  t.set_trace_id(0xabc00000ull + static_cast<uint64_t>(i));
  return t;
}

void ExpectSameTuple(const Tuple& got, const Tuple& want) {
  EXPECT_EQ(got.values(), want.values());
  EXPECT_EQ(got.seq(), want.seq());
  EXPECT_EQ(got.timestamp(), want.timestamp());
  EXPECT_EQ(got.trace_id(), want.trace_id());
}

TEST(OutputLogTest, DecodeRoundTripsValuesSeqTimestampAndTraceId) {
  OutputLog log;
  std::vector<Tuple> sent;
  for (int i = 0; i < 50; ++i) {
    sent.push_back(MixedTuple(i, "sym-" + std::string(i % 9, 'x'), 100 + i));
    log.Append(sent.back(), /*lineage=*/7 + i);
  }
  ASSERT_EQ(log.size(), sent.size());
  ASSERT_NE(log.schema(), nullptr);
  EXPECT_TRUE(log.schema()->Equals(*MixedSchema()));
  std::vector<Tuple> got = log.Decode();
  ASSERT_EQ(got.size(), sent.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ExpectSameTuple(got[i], sent[i]);
    EXPECT_EQ(log.entries()[i].seq, sent[i].seq());
    EXPECT_EQ(log.entries()[i].lineage, static_cast<SeqNo>(7 + i));
  }
}

TEST(OutputLogTest, EachRecordIsTheHalogPayload) {
  OutputLog log;
  for (int i = 0; i < 10; ++i) {
    Tuple t = MixedTuple(i, "v" + std::to_string(i * i), i + 1);
    log.Append(t, /*lineage=*/3 * i);
    Encoder enc;
    enc.PutTuple(t);
    enc.PutU64(3 * i);
    std::span<const uint8_t> rec = log.Record(log.size() - 1);
    EXPECT_EQ(std::vector<uint8_t>(rec.begin(), rec.end()), enc.buffer());
  }
}

TEST(OutputLogTest, TruncationFreesWholeChunksAcrossBoundaries) {
  // ~20 KiB records: three fit a chunk; one oversized record gets its own.
  OutputLog log;
  std::deque<Tuple> model;
  auto append = [&](int i, size_t len) {
    Tuple t = MixedTuple(i, std::string(len, static_cast<char>('a' + i % 26)),
                         static_cast<SeqNo>(i));
    log.Append(t, static_cast<SeqNo>(i));
    model.push_back(t);
  };
  for (int i = 1; i <= 7; ++i) append(i, 20 * 1024);
  append(8, OutputLog::kChunkBytes + 5000);
  for (int i = 9; i <= 14; ++i) append(i, 20 * 1024);
  EXPECT_EQ(log.num_chunks(), 6u);  // 3+3+1 | oversized | 3+3

  auto check = [&]() {
    ASSERT_EQ(log.size(), model.size());
    std::vector<Tuple> got = log.Decode();
    for (size_t i = 0; i < got.size(); ++i) ExpectSameTuple(got[i], model[i]);
  };
  auto truncate = [&](SeqNo upto) {
    size_t want = 0;
    while (!model.empty() && model.front().seq() <= upto) {
      model.pop_front();
      ++want;
    }
    EXPECT_EQ(log.TruncateUpTo(upto), want);
  };
  truncate(2);  // mid-chunk: the first chunk stays
  check();
  EXPECT_EQ(log.num_chunks(), 6u);
  truncate(3);  // exactly the first chunk's last record
  check();
  EXPECT_EQ(log.num_chunks(), 5u);
  truncate(7);  // across a boundary, up to the oversized record
  check();
  EXPECT_EQ(log.num_chunks(), 3u);
  EXPECT_EQ(log.TruncateUpTo(7), 0u);  // idempotent
  truncate(8);
  check();
  EXPECT_EQ(log.num_chunks(), 2u);
  append(15, 10);  // fills the newest chunk's tail
  truncate(14);
  check();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log.num_chunks(), 1u);
  truncate(15);
  EXPECT_TRUE(log.empty());
  EXPECT_LE(log.num_chunks(), 1u);  // the newest chunk is kept for reuse
  append(16, 100);
  check();
}

TEST(OutputLogTest, MinLineageMatchesBruteForceUnderRandomTruncation) {
  Rng rng = MakeTestRng(15);
  OutputLog log;
  std::deque<std::pair<SeqNo, SeqNo>> model;  // (seq, lineage)
  SeqNo seq = 0;
  for (int round = 0; round < 400; ++round) {
    const int adds = static_cast<int>(rng.Uniform(12));
    for (int k = 0; k < adds; ++k) {
      // Not monotone, and kNoSeqNo (never a dependency) mixed in.
      SeqNo lineage = rng.Uniform(5) == 0 ? kNoSeqNo : 1 + rng.Uniform(60);
      Tuple t = MakeTuple(SchemaAB(), {Value(round), Value(k)});
      t.set_seq(++seq);
      log.Append(t, lineage);
      model.emplace_back(seq, lineage);
    }
    if (rng.Uniform(3) == 0) {
      SeqNo upto = seq - std::min<SeqNo>(seq, rng.Uniform(8));
      size_t dropped = 0;
      while (!model.empty() && model.front().first <= upto) {
        model.pop_front();
        ++dropped;
      }
      ASSERT_EQ(log.TruncateUpTo(upto), dropped);
    }
    SeqNo brute = kNoSeqNo;
    for (const auto& [s, l] : model) {
      if (l != kNoSeqNo && (brute == kNoSeqNo || l < brute)) brute = l;
    }
    ASSERT_EQ(log.MinLineage(), brute) << "round " << round;
  }
}

/// Builds src[filter] -> a[tumble cnt(B) by A, every 3 per group] ->
/// b[filter] -> out, with every output log retained. Group 0
/// fills slower than groups 1-3, so its windows close after windows opened
/// later and the retained lineages are not monotone.
class OutputLogNodeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    net_ = std::make_unique<OverlayNetwork>(&sim_);
    system_ = std::make_unique<AuroraStarSystem>(&sim_, net_.get(),
                                                 StarOptions{});
    ASSERT_OK_AND_ASSIGN(src_, system_->AddNode(NodeOptions{"src", 1.0, {}}));
    ASSERT_OK_AND_ASSIGN(a_, system_->AddNode(NodeOptions{"a", 1.0, {}}));
    ASSERT_OK_AND_ASSIGN(b_, system_->AddNode(NodeOptions{"b", 1.0, {}}));
    ASSERT_OK_AND_ASSIGN(c_, system_->AddNode(NodeOptions{"c", 1.0, {}}));
    net_->FullMesh(LinkOptions{});
    OperatorSpec tumble = TumbleSpec("cnt", "B", {"A"});
    tumble.SetParam("emit", Value("every_n"));
    tumble.SetParam("n", Value(int64_t{3}));
    ASSERT_OK(query_.AddInput("in", SchemaAB()));
    ASSERT_OK(query_.AddBox("f", FilterSpec(Predicate::True())));
    ASSERT_OK(query_.AddBox("t", tumble));
    ASSERT_OK(query_.AddBox("m", FilterSpec(Predicate::True())));
    ASSERT_OK(query_.AddOutput("out"));
    ASSERT_OK(query_.ConnectInputToBox("in", "f"));
    ASSERT_OK(query_.ConnectBoxes("f", 0, "t", 0));
    ASSERT_OK(query_.ConnectBoxes("t", 0, "m", 0));
    ASSERT_OK(query_.ConnectBoxToOutput("m", 0, "out"));
    auto deployed = DeployQuery(system_.get(), query_,
                                {{"f", src_}, {"t", a_}, {"m", b_}});
    ASSERT_TRUE(deployed.ok()) << deployed.status().ToString();
    deployed_ = *std::move(deployed);
    ASSERT_OK(system_->CollectOutput(b_, "out",
                                     [this](const Tuple&, SimTime) {
                                       ++delivered_;
                                     }));
    for (NodeId n : {src_, a_, b_, c_}) {
      system_->node(n).RetainOutputLogs(true);
    }
  }

  void Inject(int lo, int hi) {
    for (int i = lo; i < hi; ++i) {
      ASSERT_OK(system_->node(src_).Inject(
          "in", MakeTuple(SchemaAB(), {Value(i % 10 < 2 ? 0 : 1 + i % 3),
                                        Value(i)})));
      sim_.RunFor(SimDuration::Millis(1));
    }
    sim_.RunFor(SimDuration::Millis(200));
  }

  const StreamNode::RemoteBinding& BindingOf(NodeId n) {
    return system_->node(n).bindings().begin()->second;
  }

  Simulation sim_;
  std::unique_ptr<OverlayNetwork> net_;
  std::unique_ptr<AuroraStarSystem> system_;
  GlobalQuery query_;
  DeployedQuery deployed_;
  NodeId src_ = -1, a_ = -1, b_ = -1, c_ = -1;
  uint64_t delivered_ = 0;
};

TEST_F(OutputLogNodeTest, UnconfirmedMinLineageMatchesBruteForceBehindTumble) {
  Inject(0, 120);
  StreamNode& a = system_->node(a_);
  const StreamNode::RemoteBinding& binding = BindingOf(a_);
  const auto& entries = binding.output_log.entries();
  ASSERT_GT(entries.size(), 10u);
  bool non_monotone = false;
  for (size_t i = 1; i < entries.size(); ++i) {
    if (entries[i].lineage < entries[i - 1].lineage) non_monotone = true;
  }
  ASSERT_TRUE(non_monotone) << "the tumble should emit out of input order";
  auto brute = [&]() {
    SeqNo min_seq = kNoSeqNo;
    auto consider = [&](SeqNo s) {
      if (s != kNoSeqNo && (min_seq == kNoSeqNo || s < min_seq)) min_seq = s;
    };
    for (const auto& [name, b] : a.bindings()) {
      for (const auto& e : b.output_log.entries()) consider(e.lineage);
      for (const Tuple& t : b.pending) consider(t.seq());
    }
    return min_seq;
  };
  EXPECT_EQ(a.UnconfirmedOutputMinLineage(), brute());
  // Truncate in steps; the front entry's lineage is not the minimum in
  // general, the scan over the index is.
  const SeqNo last = entries.back().seq;
  for (SeqNo upto = 1; upto < last; upto += 3) {
    a.TruncateOutputLog(binding.stream, upto);
    EXPECT_EQ(a.UnconfirmedOutputMinLineage(), brute()) << "upto " << upto;
  }
}

TEST_F(OutputLogNodeTest, SizesCountTuplesSentMinusTruncated) {
  Inject(0, 60);
  StreamNode& src = system_->node(src_);
  const StreamNode::RemoteBinding& binding = BindingOf(src_);
  EXPECT_EQ(binding.tuples_sent, 60u);
  EXPECT_EQ(src.OutputLogSize(binding.stream), 60u);
  EXPECT_EQ(src.TruncateOutputLog(binding.stream, 25), 25u);
  EXPECT_EQ(src.OutputLogSize(binding.stream), 35u);
  std::vector<Tuple> left = src.OutputLogSnapshot(binding.stream);
  ASSERT_EQ(left.size(), 35u);
  for (size_t i = 0; i < left.size(); ++i) {
    EXPECT_EQ(left[i].seq(), 26 + i);
    EXPECT_EQ(left[i].schema(), binding.output_log.schema());
  }
  EXPECT_EQ(src.OutputLogSize("no-such-stream"), 0u);
  EXPECT_TRUE(src.OutputLogSnapshot("no-such-stream").empty());
}

TEST_F(OutputLogNodeTest, CrashEmptiesTheLogAndKeepsItsSchema) {
  Inject(0, 40);
  StreamNode& src = system_->node(src_);
  const std::string stream = BindingOf(src_).stream;
  ASSERT_EQ(src.OutputLogSize(stream), 40u);
  const SchemaPtr schema = BindingOf(src_).output_log.schema();
  ASSERT_NE(schema, nullptr);
  EXPECT_GE(src.Crash(), 40u);
  EXPECT_TRUE(BindingOf(src_).output_log.empty());
  EXPECT_EQ(BindingOf(src_).output_log.num_chunks(), 0u);
  EXPECT_EQ(src.OutputLogSize(stream), 0u);
  EXPECT_TRUE(src.OutputLogSnapshot(stream).empty());
  EXPECT_EQ(BindingOf(src_).output_log.schema(), schema);
  // After a restart the log fills again from the next sequence number.
  src.SetUp(true);
  Inject(40, 45);
  ASSERT_EQ(src.OutputLogSize(stream), 5u);
  EXPECT_EQ(src.OutputLogSnapshot(stream).front().seq(), 41u);
}

TEST_F(OutputLogNodeTest, ContinuityFollowsABoxSliderMove) {
  Inject(0, 90);
  // t's output binding a -> b is retained; sliding t to c moves the
  // binding's source, so the log and its sequence space must follow.
  const StreamNode::RemoteBinding& before = BindingOf(a_);
  ASSERT_GT(before.output_log.size(), 5u);
  const std::vector<Tuple> tuples =
      system_->node(a_).OutputLogSnapshot(before.stream);
  const std::deque<OutputLog::Entry> entries = before.output_log.entries();
  const SeqNo next_seq = before.next_seq;

  BoxSlider slider(system_.get());
  ASSERT_OK(slider.Slide(&deployed_, "t", c_, SlideMode::kStateMigration)
                .status());
  const StreamNode::RemoteBinding* moved = nullptr;
  for (const auto& [name, b] : system_->node(c_).bindings()) {
    if (b.dst != nullptr && b.dst->id() == b_) moved = &b;
  }
  ASSERT_NE(moved, nullptr);
  ASSERT_GE(moved->output_log.size(), tuples.size());
  std::vector<Tuple> after =
      system_->node(c_).OutputLogSnapshot(moved->stream);
  for (size_t i = 0; i < tuples.size(); ++i) {
    ExpectSameTuple(after[i], tuples[i]);
    EXPECT_EQ(moved->output_log.entries()[i].lineage, entries[i].lineage);
  }
  EXPECT_GE(moved->next_seq, next_seq);

  // New output continues the moved sequence space.
  const size_t logged = moved->output_log.size();
  Inject(90, 150);
  ASSERT_GT(moved->output_log.size(), logged);
  after = system_->node(c_).OutputLogSnapshot(moved->stream);
  for (size_t i = 1; i < after.size(); ++i) {
    EXPECT_EQ(after[i].seq(), after[i - 1].seq() + 1);
  }
  EXPECT_GT(delivered_, 0u);
}

}  // namespace
}  // namespace aurora
