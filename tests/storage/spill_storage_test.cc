#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/storage_manager.h"
#include "obs/metrics.h"
#include "storage/storage_fs.h"
#include "storage/tiered_store.h"
#include "stream/stream_queue.h"
#include "tests/test_util.h"
#include "tuple/serde.h"

namespace aurora {
namespace {

using testing_util::GetInt;
using testing_util::SchemaAB;

Tuple MakeT(int64_t a, int64_t b, uint64_t seq) {
  Tuple t = MakeTuple(SchemaAB(), {Value(a), Value(b)});
  t.set_seq(seq);
  t.set_timestamp(SimTime::Millis(static_cast<int64_t>(seq)));
  return t;
}

class SpillStorageTest : public ::testing::Test {
 protected:
  void SetUp() override { MetricsRegistry::Global().Reset(); }
};

TEST_F(SpillStorageTest, ModeledModeStillMarksWithoutMovingBytes) {
  StreamQueue q;
  for (uint64_t i = 1; i <= 8; ++i) q.Push(MakeT(1, 2, i));
  size_t bytes = q.bytes();

  StorageManager sm(bytes / 2);  // over budget, no store attached
  size_t spilled = sm.EnforceBudget({{&q, 0}});
  EXPECT_GT(spilled, 0u);
  EXPECT_GT(q.spilled_count(), 0u);
  EXPECT_EQ(q.bytes(), bytes);  // nothing actually left the queue

  // Spilled slots still hold the full tuples in modeled mode.
  Tuple t = q.Pop();
  EXPECT_EQ(GetInt(t, "A"), 1);
  EXPECT_EQ(t.seq(), 1u);
  EXPECT_EQ(q.unspill_reads(), 1u);
}

TEST_F(SpillStorageTest, DurableSpillMovesBytesAndReadsBackInOrder) {
  MemStorageFs fs;
  TieredStore store(&fs);
  ASSERT_OK(store.Open());

  StreamQueue q;
  const uint64_t kN = 10;
  for (uint64_t i = 1; i <= kN; ++i) {
    q.Push(MakeT(static_cast<int64_t>(i), static_cast<int64_t>(i * 10), i));
  }
  size_t bytes = q.bytes();

  StorageManager sm(1);  // force nearly everything out
  sm.set_scope("t");
  sm.AttachStore(&store);
  size_t spilled = sm.EnforceBudget({{&q, 3}});
  EXPECT_GT(spilled, 0u);
  EXPECT_LT(q.resident_bytes(), bytes);
  EXPECT_EQ(q.bytes(), bytes);  // logical content unchanged
  EXPECT_GT(store.live_records("spill/t/arc3"), 0u);
  size_t n_spilled = q.spilled_count();

  // Spilled slots are metadata stubs: seq survives, values do not.
  EXPECT_EQ(q.items().front().seq(), 1u);
  EXPECT_EQ(q.items().front().schema(), nullptr);

  // Pops reconstruct the original tuples, FIFO, values intact.
  for (uint64_t i = 1; i <= kN; ++i) {
    Tuple t = q.Pop();
    EXPECT_EQ(t.seq(), i);
    ASSERT_NE(t.schema(), nullptr) << "seq " << i;
    EXPECT_EQ(GetInt(t, "A"), static_cast<int64_t>(i));
    EXPECT_EQ(GetInt(t, "B"), static_cast<int64_t>(i * 10));
  }
  EXPECT_EQ(q.bytes(), 0u);
  EXPECT_EQ(q.unspill_reads(), n_spilled);
  // Full drain truncates the spill stream back to empty.
  EXPECT_EQ(store.live_records("spill/t/arc3"), 0u);

  MetricsRegistry& reg = MetricsRegistry::Global();
  EXPECT_EQ(reg.CounterValue("engine.storage.spill.tuples"), n_spilled);
  EXPECT_EQ(reg.CounterValue("engine.storage.unspill.tuples"), n_spilled);
  EXPECT_GE(reg.CounterValue("engine.storage.spill.bytes"), spilled);
}

TEST_F(SpillStorageTest, SpilledHwmGaugesTrackPerArcHighWater) {
  MemStorageFs fs;
  TieredStore store(&fs);
  ASSERT_OK(store.Open());

  StreamQueue q;
  for (uint64_t i = 1; i <= 8; ++i) q.Push(MakeT(1, 1, i));
  StorageManager sm(1);
  sm.set_scope("hwm");
  sm.AttachStore(&store);
  sm.EnforceBudget({{&q, 5}});
  size_t peak_tuples = q.spilled_count();
  size_t peak_bytes = q.spilled_bytes();
  ASSERT_GT(peak_tuples, 0u);

  while (!q.empty()) q.Pop();
  sm.EnforceBudget({{&q, 5}});  // refreshes gauges at zero

  MetricsRegistry& reg = MetricsRegistry::Global();
  Gauge* hwm_b = reg.GetGauge("engine.storage.spilled_hwm.hwm.arc5");
  Gauge* hwm_t = reg.GetGauge("engine.storage.spilled_tuples.hwm.arc5");
  EXPECT_EQ(hwm_b->value(), 0.0);
  EXPECT_EQ(hwm_b->max(), static_cast<double>(peak_bytes));
  EXPECT_EQ(hwm_t->max(), static_cast<double>(peak_tuples));
}

TEST_F(SpillStorageTest, ClearDiscardsSpilledAndTruncatesStore) {
  MemStorageFs fs;
  TieredStore store(&fs);
  ASSERT_OK(store.Open());

  StreamQueue q;
  for (uint64_t i = 1; i <= 6; ++i) q.Push(MakeT(1, 1, i));
  StorageManager sm(1);
  sm.set_scope("c");
  sm.AttachStore(&store);
  sm.EnforceBudget({{&q, 1}});
  ASSERT_GT(store.live_records("spill/c/arc1"), 0u);

  q.Clear();
  EXPECT_EQ(store.live_records("spill/c/arc1"), 0u);

  // The channel cursor stays consistent: a later spill round-trips fine.
  for (uint64_t i = 7; i <= 12; ++i) q.Push(MakeT(2, 2, i));
  sm.EnforceBudget({{&q, 1}});
  Tuple t = q.Pop();
  EXPECT_EQ(t.seq(), 7u);
  EXPECT_EQ(GetInt(t, "A"), 2);
}

TEST_F(SpillStorageTest, SpillsLargestQueueFirst) {
  MemStorageFs fs;
  TieredStore store(&fs);
  ASSERT_OK(store.Open());

  StreamQueue small, big;
  for (uint64_t i = 1; i <= 2; ++i) small.Push(MakeT(1, 1, i));
  for (uint64_t i = 1; i <= 20; ++i) big.Push(MakeT(1, 1, i));

  StorageManager sm(small.bytes() + big.bytes() / 2);
  sm.AttachStore(&store);
  sm.EnforceBudget({{&small, 1}, {&big, 2}});
  EXPECT_EQ(small.spilled_count(), 0u);
  EXPECT_GT(big.spilled_count(), 0u);
}

TEST_F(SpillStorageTest, ReadbackScansAheadInsteadOfReadingPerTuple) {
  MemStorageFs fs;
  TieredStoreOptions sopts;
  sopts.mem_budget_bytes = 256;    // a handful of records stay cached
  sopts.aof_segment_bytes = 2048;  // the rest spread over pages + segments
  TieredStore store(&fs, sopts);
  ASSERT_OK(store.Open());

  StreamQueue q;
  const uint64_t kN = 300;
  std::vector<std::vector<uint8_t>> originals;
  for (uint64_t i = 1; i <= kN; ++i) {
    Tuple t = MakeT(static_cast<int64_t>(i), static_cast<int64_t>(i * 7), i);
    Encoder enc;
    enc.PutTuple(t);
    originals.push_back(enc.TakeBuffer());
    q.Push(std::move(t));
  }
  StorageManager sm(1);
  sm.set_scope("ra");
  sm.AttachStore(&store);
  sm.EnforceBudget({{&q, 2}});
  for (int i = 0; i < 10; ++i) store.Tick(SimTime::Millis(i));
  const size_t n_spilled = q.spilled_count();
  ASSERT_GT(n_spilled, 128u);
  ASSERT_GT(store.num_pages(), 0u);

  MetricsRegistry& reg = MetricsRegistry::Global();
  const uint64_t reads0 = reg.CounterValue("storage.reads");
  for (uint64_t i = 1; i <= kN; ++i) {
    Tuple t = q.Pop();
    ASSERT_EQ(t.seq(), i);  // FIFO
    ASSERT_NE(t.schema(), nullptr) << "seq " << i;
    Encoder enc;
    enc.PutTuple(t);
    EXPECT_EQ(enc.buffer(), originals[i - 1]) << "seq " << i;
  }
  // One store scan per kReadAhead (64) spilled tuples, not one per tuple.
  EXPECT_LE(reg.CounterValue("storage.reads") - reads0, (n_spilled + 63) / 64);
  EXPECT_EQ(store.live_records("spill/ra/arc2"), 0u);
}

}  // namespace
}  // namespace aurora
