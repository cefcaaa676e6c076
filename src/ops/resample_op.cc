#include "ops/resample_op.h"

namespace aurora {

ResampleOp::ResampleOp(OperatorSpec spec) : Operator(std::move(spec)) {
  interval_ = SimDuration::Micros(spec_.GetInt("interval_us", 0));
}

Status ResampleOp::InitImpl() {
  if (interval_.micros() <= 0) {
    return Status::InvalidArgument("resample requires interval_us > 0");
  }
  std::string field = spec_.GetString("value_field", "");
  if (field.empty()) {
    return Status::InvalidArgument("resample requires a value_field");
  }
  AURORA_ASSIGN_OR_RETURN(value_index_, input_schema(0)->IndexOf(field));
  SetOutputSchema(0, Schema::Make({Field{"ts", ValueType::kInt64},
                                   Field{field, ValueType::kDouble}}));
  return Status::OK();
}

Status ResampleOp::ProcessBatchImpl(int input, TupleBatch& batch,
                                    BatchEmitter* emitter) {
  for (size_t i = 0; i < batch.size(); ++i) {
    const Tuple& t = batch.tuple(i);
    NoteBatchTupleIn(input, t);
    emitter->SetCurrent(t);
    if (!prev_.has_value()) {
      prev_ = t;
      // First boundary at or after the first observation.
      int64_t us = t.timestamp().micros();
      int64_t step = interval_.micros();
      next_boundary_us_ = ((us + step - 1) / step) * step;
      continue;
    }
    const Tuple& a = *prev_;
    double t0 = static_cast<double>(a.timestamp().micros());
    double t1 = static_cast<double>(t.timestamp().micros());
    double v0 = a.value(value_index_).AsNumeric();
    double v1 = t.value(value_index_).AsNumeric();
    while (next_boundary_us_ <= t.timestamp().micros()) {
      double frac = t1 == t0 ? 0.0
                             : (static_cast<double>(next_boundary_us_) - t0) /
                                   (t1 - t0);
      double v = v0 + frac * (v1 - v0);
      Tuple out(output_schema(0), {Value(next_boundary_us_), Value(v)});
      out.set_timestamp(SimTime::Micros(next_boundary_us_));
      out.set_seq(a.seq());  // depends on the earlier of its two anchors
      emitter->Emit(0, std::move(out));
      next_boundary_us_ += interval_.micros();
    }
    prev_ = t;
  }
  return Status::OK();
}

SeqNo ResampleOp::StatefulDependency(int) const {
  return prev_.has_value() ? prev_->seq() : kNoSeqNo;
}

}  // namespace aurora
