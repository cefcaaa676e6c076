#include "ops/union_op.h"

namespace aurora {

UnionOp::UnionOp(OperatorSpec spec)
    : Operator(std::move(spec)),
      n_inputs_(static_cast<int>(spec_.GetInt("n", 2))) {}

Status UnionOp::InitImpl() {
  if (n_inputs_ < 1) {
    return Status::InvalidArgument("union requires n >= 1 inputs");
  }
  for (int i = 1; i < n_inputs_; ++i) {
    if (!input_schema(i)->Equals(*input_schema(0))) {
      return Status::InvalidArgument(
          "union input schemas differ: " + input_schema(0)->ToString() +
          " vs " + input_schema(i)->ToString());
    }
  }
  SetOutputSchema(0, input_schema(0));
  return Status::OK();
}

Status UnionOp::ProcessBatchImpl(int input, TupleBatch& batch,
                                 BatchEmitter* emitter) {
  for (size_t i = 0; i < batch.size(); ++i) {
    const Tuple& t = batch.tuple(i);
    NoteBatchTupleIn(input, t);
    emitter->SetCurrent(t);
    emitter->Emit(0, t);
  }
  return Status::OK();
}

}  // namespace aurora
