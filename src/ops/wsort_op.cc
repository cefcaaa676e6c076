#include "ops/wsort_op.h"

#include <algorithm>

namespace aurora {

bool ValueVectorLess::operator()(const std::vector<Value>& a,
                                 const std::vector<Value>& b) const {
  size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    int c = a[i].Compare(b[i]);
    if (c != 0) return c < 0;
  }
  return a.size() < b.size();
}

WSortOp::WSortOp(OperatorSpec spec)
    : Operator(std::move(spec)),
      timeout_(SimDuration::Micros(spec_.GetInt("timeout_us", 0))),
      max_buffer_(static_cast<size_t>(spec_.GetInt("max_buffer", 0))) {}

Status WSortOp::InitImpl() {
  if (spec_.attrs.empty()) {
    return Status::InvalidArgument("wsort requires at least one sort attribute");
  }
  for (const auto& attr : spec_.attrs) {
    AURORA_ASSIGN_OR_RETURN(size_t idx, input_schema(0)->IndexOf(attr));
    sort_indices_.push_back(idx);
  }
  SetOutputSchema(0, input_schema(0));
  return Status::OK();
}

const std::vector<Value>& WSortOp::KeyOf(const Tuple& t) {
  key_scratch_.clear();
  key_scratch_.reserve(sort_indices_.size());
  for (size_t idx : sort_indices_) key_scratch_.push_back(t.value(idx));
  return key_scratch_;
}

Status WSortOp::ProcessBatchImpl(int input, TupleBatch& batch,
                                 BatchEmitter* emitter) {
  const size_t n = batch.size();
  batch_entries_.clear();
  for (size_t i = 0; i < n; ++i) {
    const Tuple& t = batch.tuple(i);
    NoteBatchTupleIn(input, t);
    emitter->SetCurrent(t);
    const std::vector<Value>& key = KeyOf(t);
    if (watermark_.has_value() && ValueVectorLess()(key, *watermark_)) {
      // Arrived after a later-sorted tuple was emitted: lossy discard.
      ++dropped_;
      continue;
    }
    if (max_buffer_ > 0) {
      // Trimming emits mid-batch and moves the watermark the next tuple's
      // drop check reads, so insert now.
      buffer_.emplace(std::move(key_scratch_), t);
      while (buffer_.size() > max_buffer_) EmitSmallest(emitter);
    } else {
      batch_entries_.emplace_back(std::move(key_scratch_), i);
    }
    if (!emitted_any_) last_emit_ = batch.now(i);
  }
  // Single sort per batch; stable sort keeps arrival order among equal
  // keys, and each upper_bound hint lands the insert after every equal key
  // already in the tree — exactly where a per-tuple emplace puts it.
  std::stable_sort(batch_entries_.begin(), batch_entries_.end(),
                   [](const auto& a, const auto& b) {
                     return ValueVectorLess()(a.first, b.first);
                   });
  for (auto& [key, idx] : batch_entries_) {
    buffer_.emplace_hint(buffer_.upper_bound(key), std::move(key),
                         batch.tuple(idx));
  }
  batch_entries_.clear();
  return Status::OK();
}

void WSortOp::OnTick(SimTime now, Emitter* emitter) {
  if (timeout_.micros() <= 0) return;  // "large enough timeout" mode
  while (!buffer_.empty() && now - last_emit_ >= timeout_) {
    EmitSmallest(emitter);
    last_emit_ += timeout_;
  }
  if (buffer_.empty()) last_emit_ = now;
}

void WSortOp::Drain(Emitter* emitter) {
  while (!buffer_.empty()) EmitSmallest(emitter);
}

void WSortOp::EmitSmallest(Emitter* emitter) {
  auto it = buffer_.begin();
  watermark_ = it->first;
  emitted_any_ = true;
  emitter->Emit(0, std::move(it->second));
  buffer_.erase(it);
}

SeqNo WSortOp::StatefulDependency(int) const {
  SeqNo min_seq = kNoSeqNo;
  for (const auto& [key, t] : buffer_) {
    if (t.seq() == kNoSeqNo) continue;
    if (min_seq == kNoSeqNo || t.seq() < min_seq) min_seq = t.seq();
  }
  return min_seq;
}

}  // namespace aurora
