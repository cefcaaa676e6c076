#include "ops/window_agg_op.h"

namespace aurora {

WindowAggOp::WindowAggOp(OperatorSpec spec) : Operator(std::move(spec)) {
  agg_name_ = spec_.GetString("agg", "cnt");
  window_ = static_cast<uint64_t>(spec_.GetInt("window", 0));
  advance_ = static_cast<uint64_t>(spec_.GetInt("advance", 1));
}

Status WindowAggOp::InitImpl() {
  AURORA_ASSIGN_OR_RETURN(proto_agg_, MakeAggregate(agg_name_));
  if (window_ == 0) {
    return Status::InvalidArgument(kind() + " requires window > 0");
  }
  if (advance_ == 0 || advance_ > window_) {
    return Status::InvalidArgument(kind() + " requires 0 < advance <= window");
  }
  std::string agg_field = spec_.GetString("agg_field", "");
  if (agg_field.empty()) {
    return Status::InvalidArgument(kind() + " requires an agg_field");
  }
  AURORA_ASSIGN_OR_RETURN(agg_index_, input_schema(0)->IndexOf(agg_field));
  for (const auto& attr : spec_.attrs) {
    AURORA_ASSIGN_OR_RETURN(size_t idx, input_schema(0)->IndexOf(attr));
    group_indices_.push_back(idx);
  }
  std::vector<Field> fields;
  for (size_t idx : group_indices_) fields.push_back(input_schema(0)->field(idx));
  ValueType result_type =
      AggResultType(agg_name_, input_schema(0)->field(agg_index_).type);
  fields.push_back(Field{spec_.GetString("result_field", "Result"), result_type});
  SetOutputSchema(0, Schema::Make(std::move(fields)));
  return Status::OK();
}

const std::vector<Value>& WindowAggOp::KeyOf(const Tuple& t) {
  key_scratch_.clear();
  key_scratch_.reserve(group_indices_.size());
  for (size_t idx : group_indices_) key_scratch_.push_back(t.value(idx));
  return key_scratch_;
}

void WindowAggOp::StepGroup(const std::vector<Value>& stored_key,
                            GroupState& g, const Tuple& t, Emitter* emitter) {
  g.buffer.push_back(t);
  if (g.buffer.size() > window_) g.buffer.pop_front();
  if (!g.primed) {
    if (g.buffer.size() < window_) return;
  } else {
    g.since_last_emit++;
    if (g.since_last_emit < advance_) return;
  }
  // Window full and aligned with the advance stride: aggregate and emit.
  auto agg = proto_agg_->Clone();
  agg->Reset();
  for (const auto& buffered : g.buffer) agg->Update(buffered.value(agg_index_));
  std::vector<Value> values = stored_key;
  values.push_back(agg->Final());
  Tuple out(output_schema(0), std::move(values));
  out.set_timestamp(g.buffer.front().timestamp());
  SeqNo min_seq = kNoSeqNo;
  for (const auto& buffered : g.buffer) {
    if (buffered.seq() == kNoSeqNo) continue;
    if (min_seq == kNoSeqNo || buffered.seq() < min_seq) min_seq = buffered.seq();
  }
  out.set_seq(min_seq);
  emitter->Emit(0, std::move(out));
  g.primed = true;
  g.since_last_emit = 0;
}

Status WindowAggOp::ProcessBatchImpl(int input, TupleBatch& batch,
                                     BatchEmitter* emitter) {
  // Memoize the last probed group across consecutive same-key tuples.
  // Pointers into the map survive rehash (only iterators are invalidated)
  // and nothing erases groups mid-stream.
  const std::vector<Value>* memo_key = nullptr;
  GroupState* memo_state = nullptr;
  for (size_t i = 0; i < batch.size(); ++i) {
    const Tuple& t = batch.tuple(i);
    NoteBatchTupleIn(input, t);
    emitter->SetCurrent(t);
    const std::vector<Value>& key = KeyOf(t);
    if (memo_state == nullptr || !(key == *memo_key)) {
      auto it = groups_.find(key);
      if (it == groups_.end()) {
        // Moving the scratch donates its buffer to the stored key; KeyOf
        // rebuilds it next call.
        it = groups_.emplace(std::move(key_scratch_), GroupState{}).first;
      }
      memo_key = &it->first;
      memo_state = &it->second;
    }
    StepGroup(*memo_key, *memo_state, t, emitter);
  }
  return Status::OK();
}

SeqNo WindowAggOp::StatefulDependency(int) const {
  SeqNo min_seq = kNoSeqNo;
  for (const auto& [key, g] : groups_) {
    for (const auto& t : g.buffer) {
      if (t.seq() == kNoSeqNo) continue;
      if (min_seq == kNoSeqNo || t.seq() < min_seq) min_seq = t.seq();
    }
  }
  return min_seq;
}

}  // namespace aurora
