#ifndef AURORA_STORAGE_TIERED_STORE_H_
#define AURORA_STORAGE_TIERED_STORE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/sim_time.h"
#include "obs/metrics.h"
#include "storage/storage_fs.h"

namespace aurora {

/// One persisted record of a named stream. `seq` is the store's per-stream
/// monotone sequence number (assigned at append unless the caller supplies
/// one), `timestamp_us` the simulated time the producer stamped.
struct StoredRecord {
  std::string stream;
  uint64_t seq = 0;
  int64_t timestamp_us = 0;
  std::vector<uint8_t> payload;
};

struct TieredStoreOptions {
  /// In-memory tier budget; the oldest cached records are evicted once the
  /// tier exceeds it (they stay readable from the AOF/page tiers).
  size_t mem_budget_bytes = 256 * 1024;
  /// Active AOF segment is sealed (queued for compaction) at this size.
  size_t aof_segment_bytes = 64 * 1024;
  /// Group-fsync threshold: Tick() syncs the active segment once at least
  /// this many unsynced bytes have accumulated (it always syncs on seal).
  /// 0 = sync on every Tick with pending bytes.
  size_t group_sync_bytes = 8 * 1024;
  /// When true every append syncs immediately (no deferred-durability
  /// window; slow, for tests that want zero loss on crash).
  bool sync_every_append = false;
  /// Sealed segments compacted into page files per Tick().
  int compactions_per_tick = 1;
  /// Suffix for this store's occupancy gauges: `storage.<scope>.mem.bytes`
  /// etc. Counters are process-wide aggregates (`storage.aof.appends`, ...)
  /// like the rest of the registry.
  std::string scope = "store";
};

/// \brief Durable tiered stream store: memstore → append-only log →
/// compacted pages (ROADMAP item 3, after dariadb's memstorage/AOF/page
/// split).
///
/// Writes take one path: every Append lands in the in-memory tier (a cache)
/// and is framed into the active AOF segment through the injected
/// StorageFs. The dropper runs on simulation ticks — Tick(now) group-syncs
/// the AOF, seals full segments into a compaction queue, compacts one
/// queued segment per tick into immutable per-stream page files carrying
/// min/max-seq + min/max-timestamp indexes, and evicts cold memstore
/// records — so all background work is driven by the deterministic
/// simulated clock, never by wall time or threads.
///
/// Reads (Read/Scan/ScanAll) serve from the memstore when it covers the
/// requested range and otherwise merge pages → sealed segments → active
/// segment in sequence order in one pass; `storage.reads.*` counters expose
/// the scan amplification this costs. Readers filter every page record and
/// AOF frame on its header (stream, seq, floor, timestamp) and copy out only
/// the records they emit, so a range read costs one pass over the tiers,
/// not one pass per record. Each page carries an FNV-1a checksum, verified
/// on the page's first read; a page that fails it serves no rows.
///
/// Truncate(stream, upto) is the HA queue-truncation hook: a logical floor
/// persisted in a meta file so a recovered store neither resurrects
/// confirmed records nor reuses their sequence numbers.
///
/// Open() recovers from whatever the StorageFs holds: page headers rebuild
/// the page index, AOF segments are scanned tolerantly (a torn tail — crash
/// mid-append — truncates the scan at the first bad length/checksum), and
/// per-stream next_seq/floor are restored from the scan plus the meta file.
class TieredStore {
 public:
  explicit TieredStore(StorageFs* fs, TieredStoreOptions opts = {});

  /// Recovers persistent state from the StorageFs. Call once before use
  /// (a fresh fs recovers to an empty store). Existing AOF segments are
  /// re-queued for compaction and a fresh active segment is started.
  Status Open();

  /// Appends one record, assigning the stream's next sequence number
  /// (starting at 1). Returns the assigned seq.
  uint64_t Append(const std::string& stream, int64_t timestamp_us,
                  const uint8_t* payload, size_t n);
  /// Append with a caller-assigned sequence number (HA output logs reuse
  /// the binding's own seq space). `seq` must exceed every seq already
  /// appended to the stream.
  Status AppendWithSeq(const std::string& stream, uint64_t seq,
                       int64_t timestamp_us, const uint8_t* payload, size_t n);

  /// One record of a multi-record append; the payload is only read during
  /// the call.
  struct SeqRecord {
    uint64_t seq = 0;
    int64_t timestamp_us = 0;
    std::span<const uint8_t> payload;
  };
  /// AppendWithSeq for a run of records of one stream, written as one
  /// contiguous StorageFs append. The frames, checksums, counters and
  /// gauges are exactly those of one AppendWithSeq per record. Seqs must
  /// strictly increase from above the stream's next seq; otherwise nothing
  /// is appended.
  Status AppendBatchWithSeq(const std::string& stream,
                            std::span<const SeqRecord> records);

  /// Background dropper/compaction step; drive from the simulation clock.
  void Tick(SimTime now);
  /// Syncs everything pending now (clean shutdown / test barrier).
  Status Flush();

  /// Reads one record by sequence number.
  Result<StoredRecord> Read(const std::string& stream, uint64_t seq);
  /// Passes every live record with min_seq <= seq <= max_seq to `fn`,
  /// sequence order. Returns the number of records emitted.
  size_t Scan(const std::string& stream, uint64_t min_seq, uint64_t max_seq,
              const std::function<void(const StoredRecord&)>& fn);
  /// Every live record of the stream, oldest first.
  size_t ScanAll(const std::string& stream,
                 const std::function<void(const StoredRecord&)>& fn);
  /// Records whose timestamp falls in [min_ts_us, max_ts_us] (page-index
  /// pruned), sequence order.
  size_t ScanTime(const std::string& stream, int64_t min_ts_us,
                  int64_t max_ts_us,
                  const std::function<void(const StoredRecord&)>& fn);

  /// Logical truncation: records with seq <= upto become dead (skipped by
  /// reads, dropped at the next compaction). Persists the floor.
  void Truncate(const std::string& stream, uint64_t upto);

  /// Models this store's host crashing: volatile state (memstore, indexes,
  /// sequence counters) is lost and the StorageFs drops unsynced bytes.
  /// Call Open() again to recover from the durable remainder.
  void Crash();

  /// Next sequence number the stream would be assigned (1 on an empty or
  /// fully-lost stream).
  uint64_t next_seq(const std::string& stream) const;
  /// Highest truncated seq (0 = nothing truncated).
  uint64_t floor_seq(const std::string& stream) const;
  /// Live records (appended minus truncated) of one stream.
  uint64_t live_records(const std::string& stream) const;

  // Occupancy (also exported as storage.<scope>.* gauges).
  size_t mem_bytes() const { return mem_bytes_; }
  size_t mem_records() const { return mem_records_; }
  size_t aof_bytes() const { return aof_bytes_; }
  size_t page_bytes() const { return page_bytes_; }
  size_t num_pages() const;
  size_t pending_compactions() const { return compact_queue_.size(); }

  /// Node id stamped on this store's trace-0 kStorage spans (fsync windows,
  /// compactions); -1 for a standalone store.
  void set_trace_node(int node) { trace_node_ = node; }

  StorageFs* fs() { return fs_; }
  const TieredStoreOptions& options() const { return opts_; }

 private:
  struct StreamState {
    uint64_t next_seq = 1;
    uint64_t floor = 0;  // records with seq <= floor are dead
  };
  struct MemRecord {
    uint64_t seq;
    int64_t timestamp_us;
    std::vector<uint8_t> payload;
  };
  struct MemStream {
    std::deque<MemRecord> records;
    size_t bytes = 0;
  };
  /// Checksum state of a page, settled on its first read (pages are
  /// immutable, so a verdict holds for the page's lifetime).
  enum class PageCheck : uint8_t { kUnverified, kVerified, kCorrupt };
  struct PageInfo {
    std::string path;
    std::string stream;
    uint32_t count = 0;
    uint64_t min_seq = 0;
    uint64_t max_seq = 0;
    int64_t min_ts = 0;
    int64_t max_ts = 0;
    uint64_t bytes = 0;
    uint32_t checksum = 0;     ///< FNV-1a over the page after this field
    uint32_t body_offset = 0;  ///< first record byte (header length)
    PageCheck check = PageCheck::kUnverified;
  };

  std::string SegmentPath(uint64_t n) const;
  std::string PagePath(uint64_t n) const;
  /// The one write path: frames `records` (already seq-checked) into the
  /// active segment with one StorageFs append and caches them in the
  /// memstore.
  void AppendFrames(const std::string& stream,
                    std::span<const SeqRecord> records);
  void SyncActiveSegment(SimTime now);
  void SealActiveSegment();
  void CompactOneSegment(SimTime now);
  void EvictMemstore();
  void PersistMeta();
  void LoadMeta();
  Result<PageInfo> ReadPageHeader(const std::string& path) const;
  /// True when the page's checksum matches `bytes` (its full content);
  /// the first call settles info->check, a corrupt page is counted and
  /// logged once.
  bool PageIntact(PageInfo* info, const std::vector<uint8_t>& bytes);
  size_t ScanRange(const std::string& stream, uint64_t min_seq,
                   uint64_t max_seq, int64_t min_ts, int64_t max_ts,
                   const std::function<void(const StoredRecord&)>& fn);
  bool RecordLive(const StreamState& ss, uint64_t seq) const {
    return seq > ss.floor;
  }
  void UpdateGauges();
  void RecordSpan(const char* site, int64_t start_us, int64_t end_us);

  StorageFs* fs_;
  TieredStoreOptions opts_;
  bool opened_ = false;

  std::map<std::string, StreamState, std::less<>> streams_;
  std::vector<uint8_t> frame_scratch_;  // AppendFrames output, recycled
  std::map<std::string, MemStream> mem_;
  size_t mem_bytes_ = 0;
  size_t mem_records_ = 0;

  // AOF: sealed segments awaiting compaction + the active one.
  std::deque<uint64_t> compact_queue_;  // segment numbers, oldest first
  uint64_t next_segment_ = 1;
  uint64_t active_segment_ = 0;  // 0 = none started yet
  size_t active_segment_size_ = 0;
  size_t unsynced_bytes_ = 0;
  int64_t oldest_unsynced_us_ = -1;
  size_t aof_bytes_ = 0;

  // Immutable pages, per stream, ordered by min_seq.
  std::map<std::string, std::vector<PageInfo>> pages_;
  uint64_t next_page_ = 1;
  size_t page_bytes_ = 0;

  int trace_node_ = -1;

  // Registry series (process-wide counters, per-scope gauges).
  Counter* m_appends_;
  Counter* m_append_bytes_;
  Counter* m_fsyncs_;
  Counter* m_seals_;
  Counter* m_compactions_;
  Counter* m_compact_records_;
  Counter* m_compact_dropped_;
  Counter* m_pages_written_;
  Counter* m_reads_;
  Counter* m_read_records_;
  Counter* m_read_scanned_;
  Counter* m_read_bytes_;
  Counter* m_truncates_;
  Counter* m_recovered_records_;
  Counter* m_torn_bytes_;
  Gauge* g_mem_bytes_;
  Gauge* g_mem_records_;
  Gauge* g_aof_bytes_;
  Gauge* g_aof_segments_;
  Gauge* g_page_bytes_;
  Gauge* g_page_files_;
  Gauge* g_read_amp_;
};

}  // namespace aurora

#endif  // AURORA_STORAGE_TIERED_STORE_H_
