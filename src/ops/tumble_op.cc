#include "ops/tumble_op.h"

#include <algorithm>

namespace aurora {

TumbleOp::TumbleOp(OperatorSpec spec) : Operator(std::move(spec)) {
  agg_name_ = spec_.GetString("agg", "cnt");
  agg_field_ = spec_.GetString("agg_field", "");
  every_n_ = spec_.GetString("emit", "group_change") == "every_n";
  n_ = static_cast<uint64_t>(spec_.GetInt("n", 0));
}

Status TumbleOp::InitImpl() {
  AURORA_ASSIGN_OR_RETURN(proto_agg_, MakeAggregate(agg_name_));
  if (agg_field_.empty()) {
    return Status::InvalidArgument("tumble requires an agg_field");
  }
  AURORA_ASSIGN_OR_RETURN(agg_index_, input_schema(0)->IndexOf(agg_field_));
  for (const auto& attr : spec_.attrs) {
    AURORA_ASSIGN_OR_RETURN(size_t idx, input_schema(0)->IndexOf(attr));
    group_indices_.push_back(idx);
  }
  if (every_n_ && n_ == 0) {
    return Status::InvalidArgument("tumble emit=every_n requires n > 0");
  }
  std::vector<Field> fields;
  for (size_t idx : group_indices_) fields.push_back(input_schema(0)->field(idx));
  ValueType result_type =
      AggResultType(agg_name_, input_schema(0)->field(agg_index_).type);
  fields.push_back(Field{spec_.GetString("result_field", "Result"), result_type});
  SetOutputSchema(0, Schema::Make(std::move(fields)));
  return Status::OK();
}

const std::vector<Value>& TumbleOp::KeyOf(const Tuple& t) {
  key_scratch_.clear();
  key_scratch_.reserve(group_indices_.size());
  for (size_t idx : group_indices_) key_scratch_.push_back(t.value(idx));
  return key_scratch_;
}

void TumbleOp::EmitWindow(const std::vector<Value>& key, const Window& w,
                          Emitter* emitter) {
  std::vector<Value> values = key;
  values.push_back(w.agg->Final());
  Tuple out(output_schema(0), std::move(values));
  out.set_timestamp(w.start_ts);
  // HA lineage: the window result depends on all window tuples; stamp the
  // earliest so downstream dependency tracking stays conservative.
  out.set_seq(w.min_seq);
  emitter->Emit(0, std::move(out));
}

Status TumbleOp::ProcessBatchImpl(int input, TupleBatch& batch,
                                  BatchEmitter* emitter) {
  if (!every_n_) {
    // Run-based policy (the paper's example): close the open window when
    // the groupby value changes. One vector compare per tuple; no tuple can
    // fail, so there is no per-tuple error to defer.
    for (size_t i = 0; i < batch.size(); ++i) {
      const Tuple& t = batch.tuple(i);
      NoteBatchTupleIn(input, t);
      emitter->SetCurrent(t);
      const std::vector<Value>& key = KeyOf(t);
      if (current_key_.has_value() && !(key == *current_key_)) {
        EmitWindow(*current_key_, current_, emitter);
        current_key_.reset();
      }
      if (!current_key_.has_value()) {
        current_key_ = key;
        current_.agg = proto_agg_->Clone();
        current_.agg->Reset();
        current_.min_seq = kNoSeqNo;
        current_.start_ts = t.timestamp();
      }
      current_.agg->Update(t.value(agg_index_));
      if (t.seq() != kNoSeqNo &&
          (current_.min_seq == kNoSeqNo || t.seq() < current_.min_seq)) {
        current_.min_seq = t.seq();
      }
    }
    return Status::OK();
  }
  // every_n: memoize the last probed window. Pointers into the map survive
  // rehash (only iterators are invalidated); the memo is dropped whenever
  // its window closes. Memo equality is element-wise Value::Compare — the
  // same equivalence ValueVectorEq gives the map.
  const std::vector<Value>* memo_key = nullptr;
  Window* memo_win = nullptr;
  for (size_t i = 0; i < batch.size(); ++i) {
    const Tuple& t = batch.tuple(i);
    NoteBatchTupleIn(input, t);
    emitter->SetCurrent(t);
    const std::vector<Value>& key = KeyOf(t);
    const std::vector<Value>* wkey;
    Window* w;
    if (memo_win != nullptr && key == *memo_key) {
      wkey = memo_key;
      w = memo_win;
    } else {
      auto it = open_.find(key);
      if (it == open_.end()) {
        Window nw;
        nw.agg = proto_agg_->Clone();
        nw.agg->Reset();
        nw.start_ts = t.timestamp();
        // Moving the scratch donates its buffer to the stored key; KeyOf
        // rebuilds it next call.
        it = open_.emplace(std::move(key_scratch_), std::move(nw)).first;
      }
      wkey = &it->first;
      w = &it->second;
    }
    w->agg->Update(t.value(agg_index_));
    if (t.seq() != kNoSeqNo && (w->min_seq == kNoSeqNo || t.seq() < w->min_seq)) {
      w->min_seq = t.seq();
    }
    if (w->agg->count() >= n_) {
      EmitWindow(*wkey, *w, emitter);
      // Copy the key out before erasing: wkey aliases the map node.
      std::vector<Value> dead = *wkey;
      open_.erase(dead);
      memo_key = nullptr;
      memo_win = nullptr;
    } else {
      memo_key = wkey;
      memo_win = w;
    }
  }
  return Status::OK();
}

void TumbleOp::Drain(Emitter* emitter) {
  if (every_n_) {
    // Drain order is observable; sort the keys so the hash map drains in
    // the same order the old ValueVectorLess-ordered map iterated.
    std::vector<const std::pair<const std::vector<Value>, Window>*> entries;
    entries.reserve(open_.size());
    for (const auto& entry : open_) entries.push_back(&entry);
    std::sort(entries.begin(), entries.end(),
              [](const auto* a, const auto* b) {
                return ValueVectorLess()(a->first, b->first);
              });
    for (const auto* entry : entries) {
      if (entry->second.agg->count() > 0) {
        EmitWindow(entry->first, entry->second, emitter);
      }
    }
    open_.clear();
    return;
  }
  if (current_key_.has_value() && current_.agg->count() > 0) {
    EmitWindow(*current_key_, current_, emitter);
  }
  current_key_.reset();
}

SeqNo TumbleOp::StatefulDependency(int) const {
  if (every_n_) {
    SeqNo min_seq = kNoSeqNo;
    for (const auto& [key, w] : open_) {
      if (w.min_seq == kNoSeqNo) continue;
      if (min_seq == kNoSeqNo || w.min_seq < min_seq) min_seq = w.min_seq;
    }
    return min_seq;
  }
  return current_key_.has_value() ? current_.min_seq : kNoSeqNo;
}

}  // namespace aurora
