#include "ops/filter_op.h"

namespace aurora {

FilterOp::FilterOp(OperatorSpec spec)
    : Operator(std::move(spec)), two_way_(spec_.GetBool("two_way", false)) {}

Status FilterOp::InitImpl() {
  if (!spec_.predicate.has_value()) {
    return Status::InvalidArgument("filter requires a predicate");
  }
  // Resolve field names to indices once; processing never looks up a name.
  AURORA_RETURN_NOT_OK(spec_.predicate->Bind(input_schema(0)));
  SetOutputSchema(0, input_schema(0));
  if (two_way_) SetOutputSchema(1, input_schema(0));
  return Status::OK();
}

Status FilterOp::ProcessBatchImpl(int input, TupleBatch& batch,
                                  BatchEmitter* emitter) {
  spec_.predicate->EvalBatch(batch, &match_scratch_);
  for (size_t i = 0; i < batch.size(); ++i) {
    const Tuple& t = batch.tuple(i);
    NoteBatchTupleIn(input, t);
    emitter->SetCurrent(t);
    if (match_scratch_[i]) {
      emitter->Emit(0, t);
    } else if (two_way_) {
      emitter->Emit(1, t);
    }
  }
  return Status::OK();
}

}  // namespace aurora
