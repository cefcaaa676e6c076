#include "engine/storage_manager.h"

#include <algorithm>
#include <deque>

#include "common/logging.h"
#include "tuple/serde.h"

namespace aurora {

/// Durable FIFO behind one arc queue's spilled prefix. Each spilled tuple
/// is serialized into the arc's tiered-store stream; pops read the stream
/// back in order — one store scan fetches up to kReadAhead records at a
/// time — and truncate consumed records so the dropper reclaims them. The
/// schema handle is captured from the spilled tuples themselves (an arc
/// carries one schema), so readback re-attaches the same SchemaPtr.
class StorageManager::SpillChannel : public SpillSink {
 public:
  SpillChannel(TieredStore* store, std::string stream, Counter* unspills)
      : store_(store), stream_(std::move(stream)), m_unspills_(unspills) {}

  void SpillTuple(const Tuple& t) override {
    if (t.schema() != nullptr) schema_ = t.schema();
    Encoder enc(std::move(scratch_));
    enc.PutTuple(t);
    uint64_t seq = store_->Append(stream_, t.timestamp().micros(),
                                  enc.buffer().data(), enc.size());
    scratch_ = enc.TakeBuffer();
    if (pending_ == 0) next_read_ = seq;
    pending_++;
  }

  Tuple UnspillTuple() override {
    if (ahead_.empty()) {
      const uint64_t n = std::clamp<size_t>(pending_, 1, kReadAhead);
      store_->Scan(stream_, next_read_, next_read_ + n - 1,
                   [&](const StoredRecord& r) {
                     ahead_.push_back(Fetched{r.seq, r.payload});
                   });
    }
    const uint64_t seq = next_read_++;
    if (pending_ > 0) pending_--;
    m_unspills_->Add();
    MaybeTruncate();
    if (ahead_.empty() || ahead_.front().seq != seq) {
      AURORA_LOG(Error) << "storage: unspill read failed: storage: record "
                        << seq << " on stream '" << stream_ << "' unreadable";
      return Tuple();
    }
    const std::vector<uint8_t> payload = std::move(ahead_.front().payload);
    ahead_.pop_front();
    Decoder dec(payload);
    auto t = dec.GetTuple(schema_);
    if (!t.ok()) {
      AURORA_LOG(Error) << "storage: unspill decode failed: "
                        << t.status().ToString();
      return Tuple();
    }
    return std::move(*t);
  }

  void DiscardSpilled(size_t n) override {
    next_read_ += n;
    pending_ = pending_ >= n ? pending_ - n : 0;
    ahead_.clear();
    store_->Truncate(stream_, next_read_ - 1);
  }

 private:
  void MaybeTruncate() {
    // Consumed records are dead; truncating every pop would rewrite the
    // meta file per tuple, so batch it and always settle on full drain.
    if (pending_ == 0 || (next_read_ - 1) % 64 == 0) {
      store_->Truncate(stream_, next_read_ - 1);
    }
  }

  /// Records fetched per store scan once the read-ahead runs dry.
  static constexpr size_t kReadAhead = 64;
  struct Fetched {
    uint64_t seq;
    std::vector<uint8_t> payload;
  };

  TieredStore* store_;
  std::string stream_;
  Counter* m_unspills_;
  SchemaPtr schema_;
  uint64_t next_read_ = 1;  ///< store seq of the oldest unread record
  size_t pending_ = 0;      ///< spilled but not yet read back / discarded
  /// Read-ahead: records from next_read_ on, fetched but not yet popped.
  std::deque<Fetched> ahead_;
  std::vector<uint8_t> scratch_;
};

StorageManager::StorageManager(size_t budget_bytes) : budget_(budget_bytes) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  m_spill_events_ = reg.GetCounter("engine.storage.spill.events");
  m_spill_bytes_ = reg.GetCounter("engine.storage.spill.bytes");
  m_spill_tuples_ = reg.GetCounter("engine.storage.spill.tuples");
  m_unspill_tuples_ = reg.GetCounter("engine.storage.unspill.tuples");
}

StorageManager::~StorageManager() = default;

void StorageManager::AttachStore(TieredStore* store) { store_ = store; }

StorageManager::ArcSpillState& StorageManager::StateFor(
    const SpillableQueue& q) {
  ArcSpillState& state = arcs_[q.arc];
  if (state.hwm_bytes == nullptr) {
    MetricsRegistry& reg = MetricsRegistry::Global();
    const std::string suffix = scope_ + ".arc" + std::to_string(q.arc);
    state.hwm_bytes = reg.GetGauge("engine.storage.spilled_hwm." + suffix);
    state.hwm_tuples = reg.GetGauge("engine.storage.spilled_tuples." + suffix);
  }
  if (store_ != nullptr && state.channel == nullptr) {
    state.channel = std::make_unique<SpillChannel>(
        store_, "spill/" + scope_ + "/arc" + std::to_string(q.arc),
        m_unspill_tuples_);
    q.queue->set_spill_sink(state.channel.get());
  }
  return state;
}

size_t StorageManager::EnforceBudget(const std::vector<SpillableQueue>& queues) {
  if (budget_ == 0) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  size_t resident = 0;
  for (const auto& q : queues) resident += q.queue->resident_bytes();
  size_t spilled = 0;
  while (resident > budget_) {
    // Spill half of the largest resident queue.
    const SpillableQueue* victim = nullptr;
    for (const auto& q : queues) {
      if (victim == nullptr ||
          q.queue->resident_bytes() > victim->queue->resident_bytes()) {
        victim = &q;
      }
    }
    if (victim == nullptr || victim->queue->resident_bytes() == 0) break;
    ArcSpillState& state = StateFor(*victim);
    (void)state;
    StreamQueue* queue = victim->queue;
    size_t resident_tuples = queue->size() - queue->spilled_count();
    size_t to_spill = std::max<size_t>(1, resident_tuples / 2);
    size_t before_tuples = queue->spilled_count();
    size_t freed = queue->Spill(to_spill);
    if (freed == 0) break;
    resident -= freed;
    spilled += freed;
    total_spilled_bytes_.fetch_add(freed, std::memory_order_relaxed);
    spill_events_.fetch_add(1, std::memory_order_relaxed);
    m_spill_events_->Add();
    m_spill_bytes_->Add(freed);
    m_spill_tuples_->Add(queue->spilled_count() - before_tuples);
  }
  // Refresh the per-arc gauges; their max() is the spilled high-water mark.
  for (const auto& q : queues) {
    auto it = arcs_.find(q.arc);
    if (it == arcs_.end()) continue;
    it->second.hwm_bytes->Set(static_cast<double>(q.queue->spilled_bytes()));
    it->second.hwm_tuples->Set(static_cast<double>(q.queue->spilled_count()));
  }
  return spilled;
}

}  // namespace aurora
