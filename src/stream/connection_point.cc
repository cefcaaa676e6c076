#include "stream/connection_point.h"

#include <algorithm>

#include "common/logging.h"
#include "tuple/serde.h"

namespace aurora {

void ConnectionPoint::BindStorage(TieredStore* store, std::string stream,
                                  size_t mem_tuples, SchemaPtr schema) {
  store_ = store;
  stream_ = std::move(stream);
  mem_tuples_ = mem_tuples;
  schema_ = std::move(schema);
  // Any history recorded before binding becomes the stream's seed.
  history_seqs_.clear();
  durable_index_.clear();
  for (const auto& t : history_) {
    AppendToStore(t);
  }
  TrimMemoryCache();
}

void ConnectionPoint::AppendToStore(const Tuple& t) {
  if (t.schema() != nullptr) schema_ = t.schema();
  Encoder enc(std::move(encode_scratch_));
  enc.PutTuple(t);
  uint64_t seq = store_->Append(stream_, t.timestamp().micros(),
                                enc.buffer().data(), enc.size());
  encode_scratch_ = enc.TakeBuffer();
  history_seqs_.push_back(seq);
  durable_index_.emplace_back(seq, t.timestamp().micros());
}

void ConnectionPoint::TrimMemoryCache() {
  if (mem_tuples_ == 0) return;
  while (history_.size() > mem_tuples_) {
    history_bytes_ -= history_.front().WireSize();
    history_.pop_front();
    history_seqs_.pop_front();
  }
}

void ConnectionPoint::Record(const Tuple& t, SimTime now) {
  history_.push_back(t);
  history_bytes_ += t.WireSize();
  if (storage_bound()) {
    AppendToStore(t);
    TrimMemoryCache();
  }
  EnforceRetention(now);
  // Callbacks may Subscribe/Unsubscribe reentrantly, which would invalidate
  // any iterator (and reallocation would move a std::function out from
  // under its own call). Iterate by index over the subscribers present at
  // entry, invoke a *copy* of each callable, skip tokens unsubscribed
  // earlier in this pass, and erase deferred removals only once the
  // outermost notification unwinds.
  notify_depth_++;
  const size_t n = subscribers_.size();
  for (size_t i = 0; i < n; ++i) {
    int token = subscribers_[i].first;
    if (std::find(deferred_unsubs_.begin(), deferred_unsubs_.end(), token) !=
        deferred_unsubs_.end()) {
      continue;
    }
    Subscriber cb = subscribers_[i].second;
    cb(t, now);
  }
  notify_depth_--;
  if (notify_depth_ == 0 && !deferred_unsubs_.empty()) {
    for (int token : deferred_unsubs_) {
      for (auto it = subscribers_.begin(); it != subscribers_.end(); ++it) {
        if (it->first == token) {
          subscribers_.erase(it);
          break;
        }
      }
    }
    deferred_unsubs_.clear();
  }
}

int ConnectionPoint::Subscribe(Subscriber subscriber) {
  int token = next_token_++;
  subscribers_.emplace_back(token, std::move(subscriber));
  return token;
}

void ConnectionPoint::Unsubscribe(int token) {
  if (notify_depth_ > 0) {
    deferred_unsubs_.push_back(token);
    return;
  }
  for (auto it = subscribers_.begin(); it != subscribers_.end(); ++it) {
    if (it->first == token) {
      subscribers_.erase(it);
      return;
    }
  }
}

size_t ConnectionPoint::num_subscribers() const { return subscribers_.size(); }

void ConnectionPoint::EnforceRetention(SimTime now) {
  if (!storage_bound()) {
    if (policy_.max_tuples > 0) {
      while (history_.size() > policy_.max_tuples) {
        history_bytes_ -= history_.front().WireSize();
        history_.pop_front();
      }
    }
    if (policy_.max_age.micros() > 0) {
      while (!history_.empty() &&
             history_.front().timestamp() + policy_.max_age < now) {
        history_bytes_ -= history_.front().WireSize();
        history_.pop_front();
      }
    }
    return;
  }
  // Tiered mode: retention is logical — evict from the durable index and
  // advance the store floor so compaction reclaims the bytes. The memory
  // cache drops the same records when it still holds them.
  uint64_t evicted_upto = 0;
  auto evict_front = [&] {
    evicted_upto = durable_index_.front().first;
    durable_index_.pop_front();
    if (!history_seqs_.empty() && history_seqs_.front() <= evicted_upto) {
      history_bytes_ -= history_.front().WireSize();
      history_.pop_front();
      history_seqs_.pop_front();
    }
  };
  if (policy_.max_tuples > 0) {
    while (durable_index_.size() > policy_.max_tuples) evict_front();
  }
  if (policy_.max_age.micros() > 0) {
    while (!durable_index_.empty() &&
           SimTime(durable_index_.front().second) + policy_.max_age < now) {
      evict_front();
    }
  }
  if (evicted_upto > 0) store_->Truncate(stream_, evicted_upto);
}

size_t ConnectionPoint::QueryHistory(
    const std::function<bool(const Tuple&)>& filter,
    const std::function<void(const Tuple&)>& sink) const {
  std::vector<Tuple> replayed;
  if (storage_bound()) ReplayFromStore(filter, &replayed);
  for (const Tuple& t : replayed) sink(t);
  size_t matched = replayed.size();
  for (const Tuple& t : history_) {
    if (filter(t)) {
      sink(t);
      ++matched;
    }
  }
  return matched;
}

void ConnectionPoint::ReplayFromStore(
    const std::function<bool(const Tuple&)>& filter,
    std::vector<Tuple>* matched) const {
  // The memory cache is the newest suffix of the durable index; everything
  // before it is read back in one ordered store scan, walked against the
  // index so a record the scan does not produce is reported, not skipped
  // silently.
  const size_t mem_start = durable_index_.size() - history_.size();
  if (mem_start == 0) return;
  size_t next = 0;  // index position the scan should produce next
  auto report_missing = [&](size_t upto) {
    for (; next < upto; ++next) {
      AURORA_LOG(Error) << "cp '" << name_ << "': history readback failed: "
                        << "storage: record " << durable_index_[next].first
                        << " on stream '" << stream_ << "' unreadable";
    }
  };
  store_->Scan(
      stream_, durable_index_.front().first,
      durable_index_[mem_start - 1].first, [&](const StoredRecord& rec) {
        size_t at = next;
        while (at < mem_start && durable_index_[at].first < rec.seq) ++at;
        if (at == mem_start || durable_index_[at].first != rec.seq) return;
        report_missing(at);
        next = at + 1;
        Decoder dec(rec.payload);
        auto t = dec.GetTuple(schema_);
        if (!t.ok()) {
          AURORA_LOG(Error) << "cp '" << name_ << "': history decode failed: "
                            << t.status().ToString();
          return;
        }
        if (filter(*t)) matched->push_back(std::move(*t));
      });
  report_missing(mem_start);
}

void ConnectionPoint::LoadHistory(std::vector<Tuple> tuples) {
  if (storage_bound() && !durable_index_.empty()) {
    // Logically drop the existing stream content before reseeding.
    store_->Truncate(stream_, durable_index_.back().first);
  }
  history_.clear();
  history_bytes_ = 0;
  history_seqs_.clear();
  durable_index_.clear();
  for (auto& t : tuples) {
    history_bytes_ += t.WireSize();
    history_.push_back(std::move(t));
    if (storage_bound()) AppendToStore(history_.back());
  }
  if (storage_bound()) TrimMemoryCache();
}

void ConnectionPoint::DropMemoryTier() {
  history_.clear();
  history_bytes_ = 0;
  history_seqs_.clear();
  durable_index_.clear();
}

void ConnectionPoint::RecoverFromStorage(SimTime now) {
  if (!storage_bound()) return;
  DropMemoryTier();
  struct Rec {
    uint64_t seq;
    int64_t ts;
    std::vector<uint8_t> payload;
  };
  std::vector<Rec> records;
  store_->ScanAll(stream_, [&](const StoredRecord& r) {
    records.push_back(Rec{r.seq, r.timestamp_us, r.payload});
  });
  const size_t cache = mem_tuples_ == 0 ? records.size()
                                        : std::min(mem_tuples_, records.size());
  const size_t mem_start = records.size() - cache;
  for (size_t i = 0; i < records.size(); ++i) {
    durable_index_.emplace_back(records[i].seq, records[i].ts);
    if (i < mem_start) continue;
    Decoder dec(records[i].payload);
    auto t = dec.GetTuple(schema_);
    if (!t.ok()) {
      AURORA_LOG(Error) << "cp '" << name_ << "': recovery decode failed: "
                        << t.status().ToString();
      continue;
    }
    history_bytes_ += t->WireSize();
    history_.push_back(std::move(*t));
    history_seqs_.push_back(records[i].seq);
  }
  EnforceRetention(now);
}

}  // namespace aurora
