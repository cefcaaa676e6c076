#include "storage/tiered_store.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <limits>
#include <span>
#include <string_view>

#include "common/logging.h"
#include "obs/trace.h"
#include "tuple/serde.h"

namespace aurora {

namespace {

constexpr uint32_t kPageMagic = 0x61757250;  // "Pura"
constexpr uint32_t kMetaMagic = 0x6175724D;  // "Mura"
constexpr uint32_t kFormatVersion = 2;
constexpr char kMetaPath[] = "meta.bin";
/// Page layout: u32 magic | u32 version | u32 checksum | header | records.
/// The checksum is FNV-1a over every byte after it, header fields included.
constexpr size_t kPageChecksumAt = 8;
constexpr size_t kPageChecksummedFrom = 12;

uint32_t Fnv1a32(const uint8_t* data, size_t n, uint32_t seed = 2166136261u) {
  uint32_t h = seed;
  for (size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 16777619u;
  }
  return h;
}

/// One AOF frame decoded in place: the stream name and the payload view the
/// segment bytes, so a reader filters on the header before copying anything.
struct FrameView {
  std::string_view stream;
  uint64_t seq = 0;
  int64_t timestamp_us = 0;
  std::span<const uint8_t> payload;
};

/// The one AOF frame decoder (reads, compaction and recovery): passes each
/// frame of a segment to `fn` in log order, stopping at the first malformed
/// frame (torn tail: bad length, checksum or body). Returns the bytes of
/// clean data consumed.
template <class Fn>
size_t ForEachFrame(const std::vector<uint8_t>& data, Fn&& fn) {
  size_t pos = 0;
  while (data.size() - pos >= 8) {
    Decoder head(data.data() + pos, 8);
    uint32_t len = *head.GetU32();
    uint32_t cksum = *head.GetU32();
    if (len == 0 || data.size() - pos - 8 < len) break;  // torn tail
    const uint8_t* body = data.data() + pos + 8;
    if (Fnv1a32(body, len) != cksum) break;  // corrupt frame
    Decoder dec(body, len);
    auto stream = dec.GetStringView();
    auto seq = dec.GetU64();
    auto ts = dec.GetI64();
    auto payload_len = dec.GetU32();
    if (!stream.ok() || !seq.ok() || !ts.ok() || !payload_len.ok() ||
        dec.remaining() != *payload_len) {
      break;
    }
    fn(FrameView{*stream, *seq, *ts,
                 std::span<const uint8_t>(body + (len - *payload_len),
                                          *payload_len)});
    pos += 8 + len;
  }
  return pos;
}

/// Trailing zero-padded number of "aof/000007.log" / "page/000012.page".
uint64_t PathNumber(const std::string& path) {
  size_t slash = path.rfind('/');
  size_t dot = path.rfind('.');
  if (slash == std::string::npos || dot == std::string::npos || dot <= slash) {
    return 0;
  }
  uint64_t n = 0;
  for (size_t i = slash + 1; i < dot; ++i) {
    char c = path[i];
    if (c < '0' || c > '9') return 0;
    n = n * 10 + static_cast<uint64_t>(c - '0');
  }
  return n;
}

}  // namespace

TieredStore::TieredStore(StorageFs* fs, TieredStoreOptions opts)
    : fs_(fs), opts_(std::move(opts)) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  m_appends_ = reg.GetCounter("storage.aof.appends");
  m_append_bytes_ = reg.GetCounter("storage.aof.appended_bytes");
  m_fsyncs_ = reg.GetCounter("storage.aof.fsyncs");
  m_seals_ = reg.GetCounter("storage.aof.segments_sealed");
  m_compactions_ = reg.GetCounter("storage.compactions");
  m_compact_records_ = reg.GetCounter("storage.compaction.records");
  m_compact_dropped_ = reg.GetCounter("storage.compaction.dropped_records");
  m_pages_written_ = reg.GetCounter("storage.pages.written");
  m_reads_ = reg.GetCounter("storage.reads");
  m_read_records_ = reg.GetCounter("storage.reads.records");
  m_read_scanned_ = reg.GetCounter("storage.reads.records_scanned");
  m_read_bytes_ = reg.GetCounter("storage.reads.bytes");
  m_truncates_ = reg.GetCounter("storage.truncates");
  m_recovered_records_ = reg.GetCounter("storage.recovered.records");
  m_torn_bytes_ = reg.GetCounter("storage.recovered.torn_bytes");
  const std::string p = "storage." + opts_.scope + ".";
  g_mem_bytes_ = reg.GetGauge(p + "mem.bytes");
  g_mem_records_ = reg.GetGauge(p + "mem.records");
  g_aof_bytes_ = reg.GetGauge(p + "aof.bytes");
  g_aof_segments_ = reg.GetGauge(p + "aof.segments");
  g_page_bytes_ = reg.GetGauge(p + "page.bytes");
  g_page_files_ = reg.GetGauge(p + "page.files");
  g_read_amp_ = reg.GetGauge(p + "read_amp");
}

std::string TieredStore::SegmentPath(uint64_t n) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "aof/%06" PRIu64 ".log", n);
  return buf;
}

std::string TieredStore::PagePath(uint64_t n) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "page/%06" PRIu64 ".page", n);
  return buf;
}

// ---------------------------------------------------------------------------
// Write path
// ---------------------------------------------------------------------------

uint64_t TieredStore::Append(const std::string& stream, int64_t timestamp_us,
                             const uint8_t* payload, size_t n) {
  StreamState& ss = streams_[stream];
  const SeqRecord rec{ss.next_seq++, timestamp_us, {payload, n}};
  AppendFrames(stream, {&rec, 1});
  return rec.seq;
}

Status TieredStore::AppendWithSeq(const std::string& stream, uint64_t seq,
                                  int64_t timestamp_us, const uint8_t* payload,
                                  size_t n) {
  const SeqRecord rec{seq, timestamp_us, {payload, n}};
  return AppendBatchWithSeq(stream, {&rec, 1});
}

Status TieredStore::AppendBatchWithSeq(const std::string& stream,
                                       std::span<const SeqRecord> records) {
  if (records.empty()) return Status::OK();
  StreamState& ss = streams_[stream];
  uint64_t next = ss.next_seq;
  for (const SeqRecord& r : records) {
    if (r.seq < next) {
      return Status::InvalidArgument("append seq " + std::to_string(r.seq) +
                                     " below stream '" + stream + "' next " +
                                     std::to_string(next));
    }
    next = r.seq + 1;
  }
  ss.next_seq = next;
  AppendFrames(stream, records);
  return Status::OK();
}

void TieredStore::AppendFrames(const std::string& stream,
                               std::span<const SeqRecord> records) {
  if (opts_.sync_every_append && records.size() > 1) {
    // Every record is its own durability point.
    for (const SeqRecord& r : records) AppendFrames(stream, {&r, 1});
    return;
  }
  // AOF frame: u32 body_len | u32 fnv1a(body) | body, with body = string
  // stream | u64 seq | i64 ts | u32 payload_len | payload. The body carries
  // the stream name so one log serializes every stream's appends in arrival
  // order — exactly the total order recovery replays. The name prefix, and
  // the checksum state after it, are the same for every record of a run.
  auto put_le = [](uint8_t* out, uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) out[i] = static_cast<uint8_t>(v >> (8 * i));
  };
  uint8_t name_len[4];
  put_le(name_len, stream.size(), 4);
  const uint32_t name_hash =
      Fnv1a32(reinterpret_cast<const uint8_t*>(stream.data()), stream.size(),
              Fnv1a32(name_len, 4));
  frame_scratch_.clear();
  for (const SeqRecord& r : records) {
    const size_t n = r.payload.size();
    uint8_t head[20];  // seq | ts | payload_len
    put_le(head, r.seq, 8);
    put_le(head + 8, static_cast<uint64_t>(r.timestamp_us), 8);
    put_le(head + 16, n, 4);
    uint8_t prefix[8];  // body_len | checksum
    put_le(prefix, 4 + stream.size() + sizeof(head) + n, 4);
    put_le(prefix + 4, Fnv1a32(r.payload.data(), n,
                               Fnv1a32(head, sizeof(head), name_hash)),
           4);
    frame_scratch_.insert(frame_scratch_.end(), prefix, prefix + 8);
    frame_scratch_.insert(frame_scratch_.end(), name_len, name_len + 4);
    frame_scratch_.insert(frame_scratch_.end(), stream.begin(), stream.end());
    frame_scratch_.insert(frame_scratch_.end(), head, head + sizeof(head));
    frame_scratch_.insert(frame_scratch_.end(), r.payload.begin(),
                          r.payload.end());
  }

  if (active_segment_ == 0) {
    active_segment_ = next_segment_++;
    active_segment_size_ = 0;
  }
  const std::string path = SegmentPath(active_segment_);
  Status st = fs_->Append(path, frame_scratch_.data(), frame_scratch_.size());
  if (!st.ok()) {
    AURORA_LOG(Error) << "storage: AOF append failed: " << st.ToString();
  }
  const size_t frame_bytes = frame_scratch_.size();
  active_segment_size_ += frame_bytes;
  aof_bytes_ += frame_bytes;
  unsynced_bytes_ += frame_bytes;
  if (oldest_unsynced_us_ < 0) oldest_unsynced_us_ = records.front().timestamp_us;
  m_appends_->Add(records.size());
  m_append_bytes_->Add(frame_bytes);
  if (opts_.sync_every_append) {
    Status sync = fs_->Sync(path);
    if (sync.ok()) {
      unsynced_bytes_ = 0;
      oldest_unsynced_us_ = -1;
      m_fsyncs_->Add();
    }
  }

  // Cache each record, evicting after each one as a one-record append
  // would; the memstore gauges are raised to the run's peak so their
  // high-water marks match per-record appends too.
  MemStream* ms = nullptr;  // re-found after an eviction (it may erase it)
  size_t peak_bytes = 0, peak_records = 0;
  for (const SeqRecord& r : records) {
    if (ms == nullptr) ms = &mem_[stream];
    const size_t mem_sz = r.payload.size() + sizeof(MemRecord);
    ms->records.push_back(MemRecord{
        r.seq, r.timestamp_us,
        std::vector<uint8_t>(r.payload.begin(), r.payload.end())});
    ms->bytes += mem_sz;
    mem_bytes_ += mem_sz;
    mem_records_++;
    if (opts_.mem_budget_bytes > 0 && mem_bytes_ > opts_.mem_budget_bytes) {
      EvictMemstore();
      ms = nullptr;
    }
    peak_bytes = std::max(peak_bytes, mem_bytes_);
    peak_records = std::max(peak_records, mem_records_);
  }
  if (records.size() > 1) {
    g_mem_bytes_->Set(static_cast<double>(peak_bytes));
    g_mem_records_->Set(static_cast<double>(peak_records));
  }
  UpdateGauges();
}

void TieredStore::SyncActiveSegment(SimTime now) {
  if (active_segment_ == 0 || unsynced_bytes_ == 0) return;
  Status st = fs_->Sync(SegmentPath(active_segment_));
  if (!st.ok()) {
    // Fault hook (fsync loss): the bytes stay appended but volatile; a
    // crash before a later successful sync loses them, which is exactly
    // the durability window the recovery tests probe.
    AURORA_LOG(Warn) << "storage: fsync failed: " << st.ToString();
    return;
  }
  m_fsyncs_->Add();
  RecordSpan("storage:fsync",
             oldest_unsynced_us_ >= 0 ? oldest_unsynced_us_ : now.micros(),
             now.micros());
  unsynced_bytes_ = 0;
  oldest_unsynced_us_ = -1;
}

void TieredStore::SealActiveSegment() {
  if (active_segment_ == 0) return;
  compact_queue_.push_back(active_segment_);
  m_seals_->Add();
  active_segment_ = 0;
  active_segment_size_ = 0;
}

void TieredStore::Tick(SimTime now) {
  // Group fsync: amortize syncs over group_sync_bytes of appended data.
  if (unsynced_bytes_ > 0 &&
      (opts_.group_sync_bytes == 0 || unsynced_bytes_ >= opts_.group_sync_bytes ||
       active_segment_size_ >= opts_.aof_segment_bytes)) {
    SyncActiveSegment(now);
  }
  if (active_segment_ != 0 && active_segment_size_ >= opts_.aof_segment_bytes &&
      unsynced_bytes_ == 0) {
    SealActiveSegment();
  }
  for (int i = 0; i < opts_.compactions_per_tick && !compact_queue_.empty();
       ++i) {
    CompactOneSegment(now);
  }
  // Dropper: page files wholly below their stream's floor are dead.
  for (auto& [stream, infos] : pages_) {
    const StreamState& ss = streams_[stream];
    while (!infos.empty() && infos.front().max_seq <= ss.floor) {
      page_bytes_ -= infos.front().bytes;
      (void)fs_->Remove(infos.front().path);
      infos.erase(infos.begin());
    }
  }
  if (opts_.mem_budget_bytes > 0 && mem_bytes_ > opts_.mem_budget_bytes) {
    EvictMemstore();
  }
  UpdateGauges();
}

Status TieredStore::Flush() {
  if (active_segment_ != 0 && unsynced_bytes_ > 0) {
    Status st = fs_->Sync(SegmentPath(active_segment_));
    if (!st.ok()) return st;
    m_fsyncs_->Add();
    unsynced_bytes_ = 0;
    oldest_unsynced_us_ = -1;
  }
  return Status::OK();
}

void TieredStore::CompactOneSegment(SimTime now) {
  uint64_t seg = compact_queue_.front();
  compact_queue_.pop_front();
  const std::string path = SegmentPath(seg);
  auto data = fs_->ReadFile(path);
  if (!data.ok()) {
    AURORA_LOG(Error) << "storage: compact read failed: "
                      << data.status().ToString();
    return;
  }
  // Group frames per stream, preserving arrival order (== seq order). The
  // views point into `data`; bytes are copied only into the page encoding.
  std::map<std::string_view, std::vector<FrameView>> by_stream;
  ForEachFrame(*data,
               [&](const FrameView& f) { by_stream[f.stream].push_back(f); });
  uint64_t kept = 0, dropped = 0;
  std::vector<const FrameView*> live;
  for (const auto& [stream_view, records] : by_stream) {
    const std::string stream(stream_view);
    const StreamState& ss = streams_[stream];
    live.clear();
    for (const FrameView& r : records) {
      if (RecordLive(ss, r.seq)) {
        live.push_back(&r);
      } else {
        dropped++;
      }
    }
    if (live.empty()) continue;
    kept += live.size();
    PageInfo info;
    info.stream = stream;
    info.count = static_cast<uint32_t>(live.size());
    info.min_seq = live.front()->seq;
    info.max_seq = live.back()->seq;
    info.min_ts = std::numeric_limits<int64_t>::max();
    info.max_ts = std::numeric_limits<int64_t>::min();
    for (const FrameView* r : live) {
      info.min_ts = std::min(info.min_ts, r->timestamp_us);
      info.max_ts = std::max(info.max_ts, r->timestamp_us);
    }
    Encoder enc;
    enc.PutU32(kPageMagic);
    enc.PutU32(kFormatVersion);
    enc.PutU32(0);  // checksum, patched once the page is encoded
    enc.PutString(stream);
    enc.PutU32(info.count);
    enc.PutU64(info.min_seq);
    enc.PutU64(info.max_seq);
    enc.PutI64(info.min_ts);
    enc.PutI64(info.max_ts);
    info.body_offset = static_cast<uint32_t>(enc.size());
    for (const FrameView* r : live) {
      enc.PutU64(r->seq);
      enc.PutI64(r->timestamp_us);
      enc.PutU32(static_cast<uint32_t>(r->payload.size()));
      enc.PutBytes(r->payload.data(), r->payload.size());
    }
    std::vector<uint8_t> page = enc.TakeBuffer();
    info.checksum = Fnv1a32(page.data() + kPageChecksummedFrom,
                            page.size() - kPageChecksummedFrom);
    for (size_t i = 0; i < 4; ++i) {
      page[kPageChecksumAt + i] =
          static_cast<uint8_t>(info.checksum >> (8 * i));
    }
    info.path = PagePath(next_page_++);
    info.bytes = page.size();
    Status st = fs_->WriteFileAtomic(info.path, page);
    if (!st.ok()) {
      AURORA_LOG(Error) << "storage: page write failed: " << st.ToString();
      continue;
    }
    page_bytes_ += info.bytes;
    pages_[stream].push_back(std::move(info));
    m_pages_written_->Add();
  }
  aof_bytes_ -= std::min<size_t>(aof_bytes_, data->size());
  (void)fs_->Remove(path);
  m_compactions_->Add();
  m_compact_records_->Add(kept);
  m_compact_dropped_->Add(dropped);
  RecordSpan("storage:compact", now.micros(), now.micros());
}

void TieredStore::EvictMemstore() {
  while (mem_bytes_ > opts_.mem_budget_bytes && !mem_.empty()) {
    // Deterministic victim: the stream whose cached head is oldest
    // (timestamp, then name). Evicted records stay readable from the
    // AOF/page tiers — the memstore is purely a cache.
    auto victim = mem_.end();
    for (auto it = mem_.begin(); it != mem_.end(); ++it) {
      if (it->second.records.empty()) continue;
      if (victim == mem_.end() ||
          it->second.records.front().timestamp_us <
              victim->second.records.front().timestamp_us) {
        victim = it;
      }
    }
    if (victim == mem_.end()) break;
    MemStream& ms = victim->second;
    size_t sz = ms.records.front().payload.size() + sizeof(MemRecord);
    ms.records.pop_front();
    ms.bytes -= sz;
    mem_bytes_ -= sz;
    mem_records_--;
    if (ms.records.empty()) mem_.erase(victim);
  }
}

void TieredStore::Truncate(const std::string& stream, uint64_t upto) {
  StreamState& ss = streams_[stream];
  if (upto <= ss.floor) return;
  ss.floor = upto;
  if (ss.next_seq <= upto) ss.next_seq = upto + 1;
  auto it = mem_.find(stream);
  if (it != mem_.end()) {
    MemStream& ms = it->second;
    while (!ms.records.empty() && ms.records.front().seq <= upto) {
      size_t sz = ms.records.front().payload.size() + sizeof(MemRecord);
      ms.records.pop_front();
      ms.bytes -= sz;
      mem_bytes_ -= sz;
      mem_records_--;
    }
    if (ms.records.empty()) mem_.erase(it);
  }
  m_truncates_->Add();
  PersistMeta();
  UpdateGauges();
}

void TieredStore::PersistMeta() {
  // Tiny, rewritten atomically on every truncation: floors must survive a
  // crash (a recovered store must not resurrect confirmed HA log entries),
  // and next_seq must survive even when every record below it has been
  // truncated and compacted away (a sender restart that reused sequence
  // numbers would be silently deduplicated downstream).
  Encoder enc;
  enc.PutU32(kMetaMagic);
  enc.PutU32(static_cast<uint32_t>(streams_.size()));
  for (const auto& [stream, ss] : streams_) {
    enc.PutString(stream);
    enc.PutU64(ss.floor);
    enc.PutU64(ss.next_seq);
  }
  Status st = fs_->WriteFileAtomic(kMetaPath, enc.buffer());
  if (!st.ok()) {
    AURORA_LOG(Error) << "storage: meta write failed: " << st.ToString();
  }
}

void TieredStore::LoadMeta() {
  if (!fs_->Exists(kMetaPath)) return;
  auto data = fs_->ReadFile(kMetaPath);
  if (!data.ok()) return;
  Decoder dec(*data);
  auto magic = dec.GetU32();
  if (!magic.ok() || *magic != kMetaMagic) return;
  auto count = dec.GetU32();
  if (!count.ok()) return;
  for (uint32_t i = 0; i < *count; ++i) {
    auto stream = dec.GetString();
    auto floor = dec.GetU64();
    auto next = dec.GetU64();
    if (!stream.ok() || !floor.ok() || !next.ok()) return;
    StreamState& ss = streams_[*stream];
    ss.floor = std::max(ss.floor, *floor);
    ss.next_seq = std::max(ss.next_seq, *next);
  }
}

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

Result<TieredStore::PageInfo> TieredStore::ReadPageHeader(
    const std::string& path) const {
  auto bytes = fs_->ReadFile(path);
  if (!bytes.ok()) return bytes.status();
  Decoder dec(*bytes);
  auto magic = dec.GetU32();
  auto version = dec.GetU32();
  auto checksum = dec.GetU32();
  if (!magic.ok() || *magic != kPageMagic || !version.ok() ||
      *version != kFormatVersion || !checksum.ok()) {
    return Status::Internal("bad page header in '" + path + "'");
  }
  auto stream = dec.GetString();
  auto count = dec.GetU32();
  auto min_seq = dec.GetU64();
  auto max_seq = dec.GetU64();
  auto min_ts = dec.GetI64();
  auto max_ts = dec.GetI64();
  if (!stream.ok() || !count.ok() || !min_seq.ok() || !max_seq.ok() ||
      !min_ts.ok() || !max_ts.ok()) {
    return Status::Internal("truncated page header in '" + path + "'");
  }
  PageInfo info;
  info.path = path;
  info.stream = *stream;
  info.count = *count;
  info.min_seq = *min_seq;
  info.max_seq = *max_seq;
  info.min_ts = *min_ts;
  info.max_ts = *max_ts;
  info.bytes = bytes->size();
  info.checksum = *checksum;
  info.body_offset = static_cast<uint32_t>(bytes->size() - dec.remaining());
  return info;
}

Status TieredStore::Open() {
  streams_.clear();
  mem_.clear();
  mem_bytes_ = mem_records_ = 0;
  compact_queue_.clear();
  pages_.clear();
  aof_bytes_ = page_bytes_ = 0;
  active_segment_ = 0;
  active_segment_size_ = 0;
  unsynced_bytes_ = 0;
  oldest_unsynced_us_ = -1;
  next_segment_ = 1;
  next_page_ = 1;

  LoadMeta();

  for (const std::string& path : fs_->List("page/")) {
    auto info = ReadPageHeader(path);
    if (!info.ok()) {
      AURORA_LOG(Warn) << "storage: skipping bad page: "
                       << info.status().ToString();
      continue;
    }
    StreamState& ss = streams_[info->stream];
    ss.next_seq = std::max(ss.next_seq, info->max_seq + 1);
    page_bytes_ += info->bytes;
    pages_[info->stream].push_back(*info);
    next_page_ = std::max(next_page_, PathNumber(path) + 1);
  }
  for (auto& [stream, infos] : pages_) {
    std::sort(infos.begin(), infos.end(),
              [](const PageInfo& a, const PageInfo& b) {
                return a.min_seq < b.min_seq;
              });
  }

  // Every surviving AOF segment is sealed by recovery: its clean prefix is
  // re-queued for compaction; a torn tail (crash mid-append) is measured
  // and dropped when the segment compacts. Appends resume in a fresh
  // segment so recovery never writes into a possibly-torn file.
  for (const std::string& path : fs_->List("aof/")) {
    auto data = fs_->ReadFile(path);
    if (!data.ok()) continue;
    uint64_t recovered = 0;
    size_t clean = ForEachFrame(*data, [&](const FrameView& f) {
      auto it = streams_.find(f.stream);
      if (it == streams_.end()) {
        it = streams_.emplace(std::string(f.stream), StreamState{}).first;
      }
      it->second.next_seq = std::max(it->second.next_seq, f.seq + 1);
      recovered++;
    });
    m_recovered_records_->Add(recovered);
    if (clean < data->size()) m_torn_bytes_->Add(data->size() - clean);
    aof_bytes_ += data->size();
    compact_queue_.push_back(PathNumber(path));
    next_segment_ = std::max(next_segment_, PathNumber(path) + 1);
  }
  opened_ = true;
  UpdateGauges();
  return Status::OK();
}

void TieredStore::Crash() {
  fs_->Crash();
  streams_.clear();
  mem_.clear();
  mem_bytes_ = mem_records_ = 0;
  compact_queue_.clear();
  pages_.clear();
  aof_bytes_ = page_bytes_ = 0;
  active_segment_ = 0;
  active_segment_size_ = 0;
  unsynced_bytes_ = 0;
  oldest_unsynced_us_ = -1;
  opened_ = false;
  UpdateGauges();
}

// ---------------------------------------------------------------------------
// Read path
// ---------------------------------------------------------------------------

Result<StoredRecord> TieredStore::Read(const std::string& stream,
                                       uint64_t seq) {
  m_reads_->Add();
  auto sit = streams_.find(stream);
  if (sit == streams_.end() || !RecordLive(sit->second, seq) ||
      seq >= sit->second.next_seq) {
    return Status::NotFound("storage: no live record " + std::to_string(seq) +
                            " on stream '" + stream + "'");
  }
  StoredRecord found;
  bool have = false;
  ScanRange(stream, seq, seq, std::numeric_limits<int64_t>::min(),
            std::numeric_limits<int64_t>::max(), [&](const StoredRecord& r) {
              found = r;
              have = true;
            });
  if (!have) {
    return Status::NotFound("storage: record " + std::to_string(seq) +
                            " on stream '" + stream + "' unreadable");
  }
  return found;
}

size_t TieredStore::Scan(const std::string& stream, uint64_t min_seq,
                         uint64_t max_seq,
                         const std::function<void(const StoredRecord&)>& fn) {
  m_reads_->Add();
  return ScanRange(stream, min_seq, max_seq,
                   std::numeric_limits<int64_t>::min(),
                   std::numeric_limits<int64_t>::max(), fn);
}

size_t TieredStore::ScanAll(const std::string& stream,
                            const std::function<void(const StoredRecord&)>& fn) {
  return Scan(stream, 1, std::numeric_limits<uint64_t>::max(), fn);
}

size_t TieredStore::ScanTime(const std::string& stream, int64_t min_ts_us,
                             int64_t max_ts_us,
                             const std::function<void(const StoredRecord&)>& fn) {
  m_reads_->Add();
  return ScanRange(stream, 1, std::numeric_limits<uint64_t>::max(), min_ts_us,
                   max_ts_us, fn);
}

bool TieredStore::PageIntact(PageInfo* info,
                             const std::vector<uint8_t>& bytes) {
  if (info->check == PageCheck::kUnverified) {
    // The size check guards the record walk, which starts at body_offset.
    const bool ok =
        bytes.size() >= info->body_offset &&
        Fnv1a32(bytes.data() + kPageChecksummedFrom,
                bytes.size() - kPageChecksummedFrom) == info->checksum;
    info->check = ok ? PageCheck::kVerified : PageCheck::kCorrupt;
    if (!ok) {
      // Registered on first use: healthy runs never create the series.
      MetricsRegistry::Global().GetCounter("storage.pages.corrupt")->Add();
      AURORA_LOG(Error) << "storage: page '" << info->path
                        << "' fails its checksum; its records are skipped";
    }
  }
  return info->check == PageCheck::kVerified;
}

size_t TieredStore::ScanRange(
    const std::string& stream, uint64_t min_seq, uint64_t max_seq,
    int64_t min_ts, int64_t max_ts,
    const std::function<void(const StoredRecord&)>& fn) {
  auto sit = streams_.find(stream);
  if (sit == streams_.end()) return 0;
  const StreamState& ss = sit->second;
  min_seq = std::max(min_seq, ss.floor + 1);
  if (min_seq > max_seq) return 0;

  size_t emitted = 0;
  uint64_t last_emitted = min_seq - 1;
  // Every tier offers records by header; only the ones that pass are
  // copied into the one scratch record handed to `fn`.
  StoredRecord rec;
  rec.stream = stream;
  auto offer = [&](uint64_t seq, int64_t ts, std::span<const uint8_t> payload) {
    m_read_scanned_->Add();
    if (seq <= last_emitted || seq < min_seq || seq > max_seq ||
        !RecordLive(ss, seq) || ts < min_ts || ts > max_ts) {
      return;
    }
    last_emitted = seq;
    emitted++;
    m_read_records_->Add();
    rec.seq = seq;
    rec.timestamp_us = ts;
    rec.payload.assign(payload.begin(), payload.end());
    fn(rec);
  };

  // Memstore-only fast path: the cache covers the whole requested range.
  auto mit = mem_.find(stream);
  if (mit != mem_.end() && !mit->second.records.empty() &&
      min_seq >= mit->second.records.front().seq) {
    const auto& records = mit->second.records;
    auto it = std::lower_bound(
        records.begin(), records.end(), min_seq,
        [](const MemRecord& r, uint64_t s) { return r.seq < s; });
    for (; it != records.end() && it->seq <= max_seq; ++it) {
      offer(it->seq, it->timestamp_us, it->payload);
    }
    UpdateGauges();
    return emitted;
  }

  // Tiered merge, oldest tier first: pages hold the oldest live records,
  // sealed segments the middle, the active segment the newest. Per stream
  // the tiers are disjoint in seq (compaction removes a segment in the same
  // tick its pages appear); the last_emitted guard makes overlap harmless.
  auto pit = pages_.find(stream);
  if (pit != pages_.end()) {
    for (PageInfo& info : pit->second) {
      if (info.max_seq < min_seq || info.min_seq > max_seq) continue;
      if (info.max_ts < min_ts || info.min_ts > max_ts) continue;
      if (info.max_seq <= ss.floor || info.check == PageCheck::kCorrupt) {
        continue;
      }
      auto data = fs_->ReadFile(info.path);
      if (!data.ok()) continue;
      m_read_bytes_->Add(data->size());
      if (!PageIntact(&info, *data)) continue;
      const std::vector<uint8_t>& bytes = *data;
      Decoder dec(bytes.data() + info.body_offset,
                  bytes.size() - info.body_offset);
      for (uint32_t i = 0; i < info.count; ++i) {
        auto seq = dec.GetU64();
        auto ts = dec.GetI64();
        auto len = dec.GetU32();
        if (!seq.ok() || !ts.ok() || !len.ok()) break;
        const uint8_t* payload =
            bytes.data() + (bytes.size() - dec.remaining());
        if (!dec.Skip(*len).ok()) break;
        if (*seq > max_seq) break;  // a page's records are in seq order
        offer(*seq, *ts, std::span<const uint8_t>(payload, *len));
      }
    }
  }

  std::vector<uint64_t> segments(compact_queue_.begin(), compact_queue_.end());
  if (active_segment_ != 0) segments.push_back(active_segment_);
  for (uint64_t seg : segments) {
    auto data = fs_->ReadFile(SegmentPath(seg));
    if (!data.ok()) continue;
    m_read_bytes_->Add(data->size());
    ForEachFrame(*data, [&](const FrameView& f) {
      if (f.stream != stream) {
        m_read_scanned_->Add();
        return;
      }
      offer(f.seq, f.timestamp_us, f.payload);
    });
  }
  UpdateGauges();
  return emitted;
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

uint64_t TieredStore::next_seq(const std::string& stream) const {
  auto it = streams_.find(stream);
  return it == streams_.end() ? 1 : it->second.next_seq;
}

uint64_t TieredStore::floor_seq(const std::string& stream) const {
  auto it = streams_.find(stream);
  return it == streams_.end() ? 0 : it->second.floor;
}

uint64_t TieredStore::live_records(const std::string& stream) const {
  auto it = streams_.find(stream);
  if (it == streams_.end()) return 0;
  // Assumes contiguous appends per stream (both assignment modes keep
  // sequence numbers dense in this codebase).
  return it->second.next_seq - 1 - it->second.floor;
}

size_t TieredStore::num_pages() const {
  size_t n = 0;
  for (const auto& [stream, infos] : pages_) n += infos.size();
  return n;
}

void TieredStore::UpdateGauges() {
  g_mem_bytes_->Set(static_cast<double>(mem_bytes_));
  g_mem_records_->Set(static_cast<double>(mem_records_));
  g_aof_bytes_->Set(static_cast<double>(aof_bytes_));
  g_aof_segments_->Set(static_cast<double>(compact_queue_.size() +
                                           (active_segment_ != 0 ? 1 : 0)));
  g_page_bytes_->Set(static_cast<double>(page_bytes_));
  g_page_files_->Set(static_cast<double>(num_pages()));
  uint64_t returned = m_read_records_->value();
  if (returned > 0) {
    g_read_amp_->Set(static_cast<double>(m_read_scanned_->value()) /
                     static_cast<double>(returned));
  }
}

void TieredStore::RecordSpan(const char* site, int64_t start_us,
                             int64_t end_us) {
  Tracer& tracer = Tracer::Global();
  if (!tracer.enabled()) return;
  tracer.Record({0, SpanKind::kStorage, trace_node_, site, start_us, end_us});
}

}  // namespace aurora
