// Connection-point historical storage: the tiered mode added for durable
// history plus regression coverage for QueryHistory edge cases, the
// one-scan history replay, and the SnapshotHistory handle-snapshot (COW
// aliasing) contract.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "storage/storage_fs.h"
#include "storage/tiered_store.h"
#include "stream/connection_point.h"
#include "tests/test_util.h"
#include "tuple/serde.h"

namespace aurora {
namespace {

using testing_util::GetInt;
using testing_util::SchemaAB;

Tuple MakeT(int64_t a, uint64_t seq) {
  Tuple t = MakeTuple(SchemaAB(), {Value(a), Value(a * 2)});
  t.set_seq(seq);
  t.set_timestamp(SimTime::Millis(static_cast<int64_t>(seq)));
  return t;
}

std::vector<int64_t> QueryAll(const ConnectionPoint& cp) {
  std::vector<int64_t> out;
  cp.QueryHistory([](const Tuple&) { return true; },
                  [&](const Tuple& t) { out.push_back(GetInt(t, "A")); });
  return out;
}

TEST(CpStorageTest, SnapshotHistoryIsHandleSnapshotNotDeepCopy) {
  ConnectionPoint cp("cp", RetentionPolicy{});
  cp.Record(MakeT(1, 1), SimTime::Millis(1));
  cp.Record(MakeT(2, 2), SimTime::Millis(2));

  std::vector<Tuple> snap = cp.SnapshotHistory();
  ASSERT_EQ(snap.size(), 2u);
  // The handles alias the stored bodies — this is the documented contract
  // since the COW refactor, not a deep copy.
  EXPECT_TRUE(snap[0].SharesBodyWith(cp.history()[0]));

  // Copy-on-write is what keeps the two sides independent: mutating the
  // snapshot detaches a private body and leaves the history untouched.
  snap[0].SetValue(0, Value(int64_t{99}));
  EXPECT_FALSE(snap[0].SharesBodyWith(cp.history()[0]));
  EXPECT_EQ(GetInt(cp.history()[0], "A"), 1);
  EXPECT_EQ(GetInt(snap[0], "A"), 99);
}

TEST(CpStorageTest, QueryHistoryEmptyAndFilterEdges) {
  ConnectionPoint cp("cp", RetentionPolicy{});
  EXPECT_EQ(QueryAll(cp).size(), 0u);  // empty history

  for (uint64_t i = 1; i <= 5; ++i) cp.Record(MakeT(static_cast<int64_t>(i), i),
                                              SimTime::Millis(i));
  // Filter matching nothing.
  size_t n = cp.QueryHistory([](const Tuple&) { return false; },
                             [](const Tuple&) { FAIL() << "unexpected tuple"; });
  EXPECT_EQ(n, 0u);
  // Filter matching everything, oldest first.
  EXPECT_EQ(QueryAll(cp), (std::vector<int64_t>{1, 2, 3, 4, 5}));
  // Selective filter.
  std::vector<int64_t> odd;
  cp.QueryHistory([](const Tuple& t) { return GetInt(t, "A") % 2 == 1; },
                  [&](const Tuple& t) { odd.push_back(GetInt(t, "A")); });
  EXPECT_EQ(odd, (std::vector<int64_t>{1, 3, 5}));
}

TEST(CpStorageTest, TieredModeServesAcrossMemoryAndStoreTiers) {
  MemStorageFs fs;
  TieredStore store(&fs);
  ASSERT_OK(store.Open());
  ConnectionPoint cp("cp", RetentionPolicy{});
  cp.BindStorage(&store, "cp/test", /*mem_tuples=*/4, SchemaAB());

  const int kN = 20;
  for (int i = 1; i <= kN; ++i) {
    cp.Record(MakeT(i, static_cast<uint64_t>(i)), SimTime::Millis(i));
  }
  EXPECT_EQ(cp.history_size(), static_cast<size_t>(kN));
  EXPECT_LE(cp.history().size(), 4u);  // memory tier capped

  // Queries stitch store reads (old) and cache hits (new) in order.
  std::vector<int64_t> all = QueryAll(cp);
  ASSERT_EQ(all.size(), static_cast<size_t>(kN));
  for (int i = 0; i < kN; ++i) EXPECT_EQ(all[i], i + 1);

  // The tier boundary itself: a filter spanning exactly the last cached and
  // first store-resident record.
  std::vector<int64_t> band;
  cp.QueryHistory(
      [&](const Tuple& t) {
        int64_t a = GetInt(t, "A");
        return a >= kN - 4 && a <= kN - 3;
      },
      [&](const Tuple& t) { band.push_back(GetInt(t, "A")); });
  EXPECT_EQ(band, (std::vector<int64_t>{kN - 4, kN - 3}));
}

TEST(CpStorageTest, RetentionEvictsAcrossTiersAndTruncatesStore) {
  MemStorageFs fs;
  TieredStore store(&fs);
  ASSERT_OK(store.Open());
  RetentionPolicy policy;
  policy.max_tuples = 6;
  ConnectionPoint cp("cp", policy);
  cp.BindStorage(&store, "cp/ret", /*mem_tuples=*/3, SchemaAB());

  for (int i = 1; i <= 15; ++i) {
    cp.Record(MakeT(i, static_cast<uint64_t>(i)), SimTime::Millis(i));
  }
  EXPECT_EQ(cp.history_size(), 6u);
  EXPECT_EQ(QueryAll(cp), (std::vector<int64_t>{10, 11, 12, 13, 14, 15}));
  // Evicted records are truncated out of the store, not just hidden.
  EXPECT_EQ(store.live_records("cp/ret"), 6u);
  EXPECT_EQ(store.floor_seq("cp/ret"), 9u);
}

TEST(CpStorageTest, MaxAgeRetentionInTieredMode) {
  MemStorageFs fs;
  TieredStore store(&fs);
  ASSERT_OK(store.Open());
  RetentionPolicy policy;
  policy.max_age = SimDuration::Millis(5);
  ConnectionPoint cp("cp", policy);
  cp.BindStorage(&store, "cp/age", /*mem_tuples=*/2, SchemaAB());

  for (int i = 1; i <= 10; ++i) {
    cp.Record(MakeT(i, static_cast<uint64_t>(i)), SimTime::Millis(i));
  }
  // At now=10ms, tuples older than 5ms (ts < 5ms) are gone.
  std::vector<int64_t> all = QueryAll(cp);
  ASSERT_FALSE(all.empty());
  EXPECT_GE(all.front(), 5);
  EXPECT_EQ(all.back(), 10);
}

TEST(CpStorageTest, BindStorageSeedsStoreFromExistingHistory) {
  MemStorageFs fs;
  TieredStore store(&fs);
  ASSERT_OK(store.Open());
  ConnectionPoint cp("cp", RetentionPolicy{});
  for (int i = 1; i <= 5; ++i) {
    cp.Record(MakeT(i, static_cast<uint64_t>(i)), SimTime::Millis(i));
  }

  cp.BindStorage(&store, "cp/seed", /*mem_tuples=*/2, SchemaAB());
  EXPECT_EQ(store.live_records("cp/seed"), 5u);
  EXPECT_EQ(cp.history_size(), 5u);
  EXPECT_EQ(QueryAll(cp), (std::vector<int64_t>{1, 2, 3, 4, 5}));
}

TEST(CpStorageTest, DropAndRecoverRebuildsFromDurableTiers) {
  MemStorageFs fs;
  TieredStore store(&fs);
  ASSERT_OK(store.Open());
  ConnectionPoint cp("cp", RetentionPolicy{});
  cp.BindStorage(&store, "cp/rec", /*mem_tuples=*/3, SchemaAB());
  for (int i = 1; i <= 12; ++i) {
    cp.Record(MakeT(i, static_cast<uint64_t>(i)), SimTime::Millis(i));
  }
  ASSERT_OK(store.Flush());

  // Crash: the store survives (flushed), the point's volatile state dies.
  store.Crash();
  cp.DropMemoryTier();
  EXPECT_EQ(cp.history_size(), 0u);

  ASSERT_OK(store.Open());
  cp.RecoverFromStorage(SimTime::Millis(12));
  EXPECT_EQ(cp.history_size(), 12u);
  EXPECT_LE(cp.history().size(), 3u);
  std::vector<int64_t> all = QueryAll(cp);
  ASSERT_EQ(all.size(), 12u);
  for (int i = 0; i < 12; ++i) EXPECT_EQ(all[i], i + 1);
}

TEST(CpStorageTest, RecoveryAppliesRetentionAtRecoveryTime) {
  MemStorageFs fs;
  TieredStore store(&fs);
  ASSERT_OK(store.Open());
  RetentionPolicy policy;
  policy.max_tuples = 4;
  ConnectionPoint cp("cp", policy);
  cp.BindStorage(&store, "cp/rr", /*mem_tuples=*/2, SchemaAB());
  for (int i = 1; i <= 10; ++i) {
    cp.Record(MakeT(i, static_cast<uint64_t>(i)), SimTime::Millis(i));
  }
  ASSERT_OK(store.Flush());
  store.Crash();
  cp.DropMemoryTier();
  ASSERT_OK(store.Open());
  cp.RecoverFromStorage(SimTime::Millis(10));
  EXPECT_EQ(cp.history_size(), 4u);
  EXPECT_EQ(QueryAll(cp), (std::vector<int64_t>{7, 8, 9, 10}));
}

// Replay as encoded tuples, so two replays compare byte for byte.
std::vector<std::vector<uint8_t>> Replay(
    const ConnectionPoint& cp,
    const std::function<bool(const Tuple&)>& filter) {
  std::vector<std::vector<uint8_t>> out;
  cp.QueryHistory(filter, [&](const Tuple& t) {
    Encoder enc;
    enc.PutTuple(t);
    out.push_back(enc.TakeBuffer());
  });
  return out;
}

/// Store memstore budget in bytes: 1 KiB and 8 KiB leave most of the
/// history on the AOF/page tiers, 256 KiB keeps all of it cached.
class CpReplayTest : public ::testing::TestWithParam<size_t> {
 protected:
  void SetUp() override { MetricsRegistry::Global().Reset(); }

  // The tiered point must replay exactly what the unbound point holds, for
  // a full and a selective filter, with one store read per query.
  static void ExpectSameReplay(const ConnectionPoint& tiered,
                               const ConnectionPoint& unbound) {
    for (int64_t mod : {1, 3}) {
      auto filter = [mod](const Tuple& t) { return GetInt(t, "A") % mod == 0; };
      const MetricsRegistry& reg = MetricsRegistry::Global();
      const uint64_t reads0 = reg.CounterValue("storage.reads");
      auto got = Replay(tiered, filter);
      EXPECT_EQ(reg.CounterValue("storage.reads") - reads0, 1u)
          << "mod " << mod;
      auto want = Replay(unbound, filter);
      ASSERT_FALSE(want.empty());
      EXPECT_EQ(got, want) << "mod " << mod;
    }
  }
};

TEST_P(CpReplayTest, TieredReplayMatchesUnboundAcrossTiers) {
  MemStorageFs fs;
  TieredStoreOptions sopts;
  sopts.mem_budget_bytes = GetParam();
  sopts.aof_segment_bytes = 1024;  // about a dozen records per segment
  TieredStore store(&fs, sopts);
  ASSERT_OK(store.Open());
  RetentionPolicy policy;
  policy.max_tuples = 250;
  ConnectionPoint tiered("cp", policy);
  ConnectionPoint unbound("cp", policy);
  tiered.BindStorage(&store, "cp/replay", /*mem_tuples=*/8, SchemaAB());

  int64_t seq = 0;
  auto feed = [&](int n, bool tick) {
    for (int i = 0; i < n; ++i) {
      ++seq;
      Tuple t = MakeT(seq, static_cast<uint64_t>(seq));
      const SimTime now = SimTime::Millis(seq);
      tiered.Record(t, now);
      unbound.Record(t, now);
      if (tick && seq % 16 == 0) store.Tick(now);
    }
  };

  feed(200, /*tick=*/true);
  ASSERT_GT(store.num_pages(), 0u);
  {
    SCOPED_TRACE("pages + active segment");
    ExpectSameReplay(tiered, unbound);
  }

  // Retention truncates the store floor mid-history, mid-page.
  feed(190, /*tick=*/true);
  feed(10, /*tick=*/false);
  ASSERT_EQ(store.floor_seq("cp/replay"), 150u);
  {
    SCOPED_TRACE("after retention truncation");
    ExpectSameReplay(tiered, unbound);
  }

  // Crash and recover: Open() re-queues the surviving AOF segments as
  // sealed, and new records land in a fresh active segment, so one replay
  // spans pages, sealed segments and the active segment.
  ASSERT_OK(store.Flush());
  store.Crash();
  tiered.DropMemoryTier();
  ASSERT_OK(store.Open());
  tiered.RecoverFromStorage(SimTime::Millis(seq));
  feed(20, /*tick=*/false);
  ASSERT_GT(store.num_pages(), 0u);
  ASSERT_GT(store.pending_compactions(), 0u);
  {
    SCOPED_TRACE("pages + sealed + active after recovery");
    ExpectSameReplay(tiered, unbound);
  }
}

INSTANTIATE_TEST_SUITE_P(MemstoreBudgets, CpReplayTest,
                         ::testing::Values(size_t{1024}, size_t{8 * 1024},
                                           size_t{256 * 1024}));

TEST(CpStorageTest, UnreadableRecordIsLoggedAndSkipped) {
  MemStorageFs fs;
  TieredStoreOptions sopts;
  sopts.mem_budget_bytes = 1;   // nothing stays cached in the store
  sopts.aof_segment_bytes = 1;  // every tick seals one record: one per page
  TieredStore store(&fs, sopts);
  ASSERT_OK(store.Open());
  ConnectionPoint cp("cp", RetentionPolicy{});
  cp.BindStorage(&store, "cp/gap", /*mem_tuples=*/2, SchemaAB());
  for (int i = 1; i <= 10; ++i) {
    cp.Record(MakeT(i, static_cast<uint64_t>(i)), SimTime::Millis(i));
    store.Tick(SimTime::Millis(i));
  }
  ASSERT_EQ(store.num_pages(), 10u);

  // Corrupt the last byte of the page holding record 4 (pages are numbered
  // in compaction order, one record each).
  const std::string page = fs.List("page/").at(3);
  auto bytes = fs.ReadFile(page);
  ASSERT_OK(bytes.status());
  bytes->back() ^= 0x01;
  ASSERT_OK(fs.WriteFileAtomic(page, *bytes));

  testing::internal::CaptureStderr();
  std::vector<int64_t> all = QueryAll(cp);
  const std::string log = testing::internal::GetCapturedStderr();
  EXPECT_EQ(all, (std::vector<int64_t>{1, 2, 3, 5, 6, 7, 8, 9, 10}));
  EXPECT_NE(log.find("history readback failed: storage: record 4 "),
            std::string::npos)
      << log;
}

}  // namespace
}  // namespace aurora
