#include "storage/tiered_store.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/sim_time.h"
#include "obs/metrics.h"
#include "storage/storage_fs.h"
#include "tests/test_util.h"
#include "tuple/serde.h"

namespace aurora {
namespace {

std::vector<uint8_t> Payload(int i) {
  std::string s = "record-" + std::to_string(i);
  return std::vector<uint8_t>(s.begin(), s.end());
}

uint64_t Put(TieredStore* store, const std::string& stream, int i) {
  std::vector<uint8_t> p = Payload(i);
  return store->Append(stream, i * 1000, p.data(), p.size());
}

class TieredStoreTest : public ::testing::Test {
 protected:
  void SetUp() override { MetricsRegistry::Global().Reset(); }
};

TEST_F(TieredStoreTest, AppendAssignsMonotoneSeqAndReadsBack) {
  MemStorageFs fs;
  TieredStore store(&fs);
  ASSERT_OK(store.Open());

  EXPECT_EQ(Put(&store, "s", 1), 1u);
  EXPECT_EQ(Put(&store, "s", 2), 2u);
  EXPECT_EQ(Put(&store, "other", 7), 1u);  // per-stream seq space
  EXPECT_EQ(store.next_seq("s"), 3u);
  EXPECT_EQ(store.live_records("s"), 2u);

  auto rec = store.Read("s", 2);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->seq, 2u);
  EXPECT_EQ(rec->timestamp_us, 2000);
  EXPECT_EQ(rec->payload, Payload(2));
  EXPECT_FALSE(store.Read("s", 99).ok());
  EXPECT_FALSE(store.Read("missing", 1).ok());
}

TEST_F(TieredStoreTest, ReadsServeAcrossAllThreeTiers) {
  MemStorageFs fs;
  TieredStoreOptions opts;
  opts.mem_budget_bytes = 64;     // evicts almost immediately
  opts.aof_segment_bytes = 256;   // seals after a few records
  opts.compactions_per_tick = 1;
  TieredStore store(&fs, opts);
  ASSERT_OK(store.Open());

  const int kN = 40;
  for (int i = 1; i <= kN; ++i) Put(&store, "s", i);
  // Enough ticks to seal and compact most segments into pages.
  for (int i = 0; i < 20; ++i) store.Tick(SimTime::Millis(i));
  EXPECT_GT(store.num_pages(), 0u);
  EXPECT_LT(store.mem_records(), static_cast<size_t>(kN));

  // Every record is still readable regardless of which tier holds it.
  for (int i = 1; i <= kN; ++i) {
    auto rec = store.Read("s", static_cast<uint64_t>(i));
    ASSERT_TRUE(rec.ok()) << "seq " << i;
    EXPECT_EQ(rec->payload, Payload(i));
  }

  int scanned = 0;
  size_t n = store.ScanAll("s", [&](const StoredRecord& r) {
    ++scanned;
    EXPECT_EQ(r.seq, static_cast<uint64_t>(scanned));
  });
  EXPECT_EQ(n, static_cast<size_t>(kN));
  EXPECT_EQ(scanned, kN);
}

TEST_F(TieredStoreTest, ScanTimePrunesByTimestamp) {
  MemStorageFs fs;
  TieredStore store(&fs);
  ASSERT_OK(store.Open());
  for (int i = 1; i <= 10; ++i) Put(&store, "s", i);  // ts = 1000..10000

  std::vector<uint64_t> seqs;
  size_t n = store.ScanTime("s", 3000, 6000,
                            [&](const StoredRecord& r) { seqs.push_back(r.seq); });
  EXPECT_EQ(n, 4u);
  EXPECT_EQ(seqs, (std::vector<uint64_t>{3, 4, 5, 6}));
}

TEST_F(TieredStoreTest, TruncateKillsRecordsAndCompactionDropsThem) {
  MemStorageFs fs;
  TieredStoreOptions opts;
  opts.aof_segment_bytes = 128;
  TieredStore store(&fs, opts);
  ASSERT_OK(store.Open());
  for (int i = 1; i <= 10; ++i) Put(&store, "s", i);

  store.Truncate("s", 6);
  EXPECT_EQ(store.floor_seq("s"), 6u);
  EXPECT_EQ(store.live_records("s"), 4u);
  EXPECT_FALSE(store.Read("s", 6).ok());
  ASSERT_TRUE(store.Read("s", 7).ok());

  std::vector<uint64_t> seqs;
  store.ScanAll("s", [&](const StoredRecord& r) { seqs.push_back(r.seq); });
  EXPECT_EQ(seqs, (std::vector<uint64_t>{7, 8, 9, 10}));

  for (int i = 0; i < 30; ++i) store.Tick(SimTime::Millis(i));
  EXPECT_GT(MetricsRegistry::Global().CounterValue(
                "storage.compaction.dropped_records"),
            0u);
  // Dead records stay dead after compaction.
  EXPECT_FALSE(store.Read("s", 3).ok());
  ASSERT_TRUE(store.Read("s", 10).ok());
}

TEST_F(TieredStoreTest, TruncateNeverReusesSequenceNumbers) {
  MemStorageFs fs;
  TieredStore store(&fs);
  ASSERT_OK(store.Open());
  for (int i = 1; i <= 5; ++i) Put(&store, "s", i);
  store.Truncate("s", 5);
  EXPECT_EQ(store.live_records("s"), 0u);
  EXPECT_EQ(Put(&store, "s", 6), 6u);  // continues, does not restart at 1

  // Floors are durable: a crash + reopen must not resurrect dead seqs.
  store.Crash();
  ASSERT_OK(store.Open());
  EXPECT_EQ(store.floor_seq("s"), 5u);
  EXPECT_GE(store.next_seq("s"), 6u);
}

TEST_F(TieredStoreTest, CrashLosesUnsyncedFlushMakesDurable) {
  MemStorageFs fs;
  TieredStore store(&fs);
  ASSERT_OK(store.Open());
  for (int i = 1; i <= 3; ++i) Put(&store, "s", i);
  ASSERT_OK(store.Flush());
  for (int i = 4; i <= 6; ++i) Put(&store, "s", i);  // never synced

  store.Crash();
  ASSERT_OK(store.Open());
  EXPECT_EQ(store.live_records("s"), 3u);
  EXPECT_EQ(store.next_seq("s"), 4u);
  for (int i = 1; i <= 3; ++i) {
    auto rec = store.Read("s", static_cast<uint64_t>(i));
    ASSERT_TRUE(rec.ok()) << "seq " << i;
    EXPECT_EQ(rec->payload, Payload(i));
  }
  EXPECT_FALSE(store.Read("s", 4).ok());
}

TEST_F(TieredStoreTest, RecoveryToleratesTornTail) {
  MemStorageFs fs;
  fs.set_torn_writes(true);
  TieredStore store(&fs);
  ASSERT_OK(store.Open());
  for (int i = 1; i <= 4; ++i) Put(&store, "s", i);
  ASSERT_OK(store.Flush());
  // Unsynced records of growing size, so the torn cut (half the unsynced
  // suffix) cannot land exactly on a frame boundary.
  for (int i = 5; i <= 8; ++i) {
    std::vector<uint8_t> p(static_cast<size_t>(i) * 13, 0x5A);
    store.Append("s", i * 1000, p.data(), p.size());
  }

  store.Crash();  // leaves half the unsynced suffix: a torn frame mid-file
  ASSERT_OK(store.Open());
  // At least the synced prefix recovers; the torn tail is skipped, and
  // whatever whole frames survived in the torn half may recover too.
  uint64_t live = store.live_records("s");
  EXPECT_GE(live, 4u);
  EXPECT_LT(live, 8u);
  EXPECT_GT(MetricsRegistry::Global().CounterValue("storage.recovered.torn_bytes"),
            0u);
  for (uint64_t i = 1; i <= live; ++i) {
    ASSERT_TRUE(store.Read("s", i).ok()) << "seq " << i;
  }
  // Appends continue after the recovered high-water mark.
  EXPECT_EQ(Put(&store, "s", 100), live + 1);
}

TEST_F(TieredStoreTest, SyncEveryAppendSurvivesCrashCompletely) {
  MemStorageFs fs;
  TieredStoreOptions opts;
  opts.sync_every_append = true;
  TieredStore store(&fs, opts);
  ASSERT_OK(store.Open());
  for (int i = 1; i <= 5; ++i) Put(&store, "s", i);

  store.Crash();
  ASSERT_OK(store.Open());
  EXPECT_EQ(store.live_records("s"), 5u);
}

TEST_F(TieredStoreTest, AppendWithSeqKeepsCallerSeqSpace) {
  MemStorageFs fs;
  TieredStore store(&fs);
  ASSERT_OK(store.Open());
  std::vector<uint8_t> p = Payload(1);
  ASSERT_OK(store.AppendWithSeq("halog", 10, 0, p.data(), p.size()));
  ASSERT_OK(store.AppendWithSeq("halog", 12, 0, p.data(), p.size()));
  EXPECT_FALSE(store.AppendWithSeq("halog", 12, 0, p.data(), p.size()).ok());
  EXPECT_FALSE(store.AppendWithSeq("halog", 5, 0, p.data(), p.size()).ok());
  EXPECT_EQ(store.next_seq("halog"), 13u);
  ASSERT_TRUE(store.Read("halog", 12).ok());
  EXPECT_FALSE(store.Read("halog", 11).ok());  // gap, never written
}

TEST_F(TieredStoreTest, SameOperationsProduceByteIdenticalStorage) {
  auto run = [](MemStorageFs* fs) {
    TieredStoreOptions opts;
    opts.mem_budget_bytes = 128;
    opts.aof_segment_bytes = 256;
    TieredStore store(fs, opts);
    ASSERT_OK(store.Open());
    for (int i = 1; i <= 30; ++i) {
      Put(&store, "a", i);
      if (i % 3 == 0) Put(&store, "b", i);
      if (i % 10 == 0) store.Truncate("a", static_cast<uint64_t>(i - 8));
      store.Tick(SimTime::Millis(i));
    }
    ASSERT_OK(store.Flush());
  };
  MemStorageFs fs1, fs2;
  run(&fs1);
  MetricsRegistry::Global().Reset();
  run(&fs2);
  EXPECT_EQ(fs1.ContentDigest(), fs2.ContentDigest());
}

TEST_F(TieredStoreTest, GaugesAndCountersTrackOccupancy) {
  MemStorageFs fs;
  TieredStoreOptions opts;
  opts.mem_budget_bytes = 64;
  opts.aof_segment_bytes = 256;
  opts.scope = "t1";
  TieredStore store(&fs, opts);
  ASSERT_OK(store.Open());
  for (int i = 1; i <= 40; ++i) Put(&store, "s", i);
  for (int i = 0; i < 20; ++i) store.Tick(SimTime::Millis(i));
  for (int i = 1; i <= 40; ++i) store.Read("s", static_cast<uint64_t>(i));

  MetricsRegistry& reg = MetricsRegistry::Global();
  EXPECT_EQ(reg.CounterValue("storage.aof.appends"), 40u);
  EXPECT_GT(reg.CounterValue("storage.aof.fsyncs"), 0u);
  EXPECT_GT(reg.CounterValue("storage.compactions"), 0u);
  EXPECT_GT(reg.CounterValue("storage.pages.written"), 0u);
  EXPECT_EQ(reg.CounterValue("storage.reads"), 40u);
  EXPECT_GE(reg.CounterValue("storage.reads.records"), 40u);
  EXPECT_EQ(static_cast<double>(store.mem_bytes()),
            reg.GetGauge("storage.t1.mem.bytes")->value());
  EXPECT_EQ(static_cast<double>(store.num_pages()),
            reg.GetGauge("storage.t1.page.files")->value());
}

TEST_F(TieredStoreTest, CorruptPageServesNoRowsAndIsCountedOnce) {
  MemStorageFs fs;
  TieredStoreOptions opts;
  opts.mem_budget_bytes = 64;
  opts.aof_segment_bytes = 256;
  TieredStore store(&fs, opts);
  ASSERT_OK(store.Open());
  const int kN = 40;
  for (int i = 1; i <= kN; ++i) {
    Put(&store, "s", i);
    if (i % 8 == 0) store.Tick(SimTime::Millis(i));  // one page per tick
  }
  ASSERT_OK(store.Flush());
  ASSERT_GT(store.num_pages(), 1u);

  // Restart, then flip one record byte of the first page behind the
  // store's back. The page header names the records it holds.
  store.Crash();
  ASSERT_OK(store.Open());
  const std::string page = fs.List("page/").front();
  auto bytes = fs.ReadFile(page);
  ASSERT_OK(bytes.status());
  Decoder header(*bytes);
  // magic, version, checksum
  for (int i = 0; i < 3; ++i) ASSERT_OK(header.GetU32().status());
  ASSERT_OK(header.GetString().status());
  ASSERT_OK(header.GetU32().status());
  auto min_seq = header.GetU64();
  auto max_seq = header.GetU64();
  ASSERT_OK(min_seq.status());
  ASSERT_OK(max_seq.status());
  bytes->back() ^= 0x01;
  ASSERT_OK(fs.WriteFileAtomic(page, *bytes));

  // The page's records are absent, never served with the flipped byte;
  // every other record still reads back intact.
  for (int pass = 0; pass < 2; ++pass) {
    std::vector<uint64_t> seqs;
    store.ScanAll("s", [&](const StoredRecord& r) {
      seqs.push_back(r.seq);
      EXPECT_EQ(r.payload, Payload(static_cast<int>(r.seq)));
    });
    std::vector<uint64_t> want;
    for (uint64_t seq = 1; seq <= static_cast<uint64_t>(kN); ++seq) {
      if (seq < *min_seq || seq > *max_seq) want.push_back(seq);
    }
    EXPECT_EQ(seqs, want) << "pass " << pass;
  }
  EXPECT_FALSE(store.Read("s", *max_seq).ok());
  // Counted once: the verdict is cached with the page, not re-derived.
  EXPECT_EQ(MetricsRegistry::Global().CounterValue("storage.pages.corrupt"),
            1u);
}

}  // namespace
}  // namespace aurora
