#include "ops/map_op.h"

namespace aurora {

Status MapOp::InitImpl() {
  if (spec_.projections.empty()) {
    return Status::InvalidArgument("map requires at least one projection");
  }
  std::vector<Field> fields;
  for (const auto& [name, expr] : spec_.projections) {
    AURORA_ASSIGN_OR_RETURN(ValueType type, expr.ResultType(*input_schema(0)));
    // Resolve field names to indices once; processing never looks up a name.
    AURORA_RETURN_NOT_OK(expr.Bind(input_schema(0)));
    fields.push_back(Field{name, type});
  }
  SetOutputSchema(0, Schema::Make(std::move(fields)));
  return Status::OK();
}

Status MapOp::ProcessBatchImpl(int input, TupleBatch& batch,
                               BatchEmitter* emitter) {
  const size_t nproj = spec_.projections.size();
  col_scratch_.resize(nproj);
  fast_.assign(nproj, 0);
  ident_.assign(nproj, -1);
  const bool uniform = batch.uniform_schema() && batch.schema() != nullptr;
  for (size_t j = 0; j < nproj; ++j) {
    const Expr& expr = spec_.projections[j].second;
    std::string field;
    if (uniform && expr.IsFieldRef(&field)) {
      // Identity projection: copy the field straight out of each tuple
      // (works for every value type, including strings) instead of
      // dispatching Eval per tuple. A bound field ref cannot error, so
      // the per-tuple error semantics are unchanged.
      Result<size_t> idx = batch.schema()->IndexOf(field);
      if (idx.ok()) {
        ident_[j] = static_cast<int>(idx.ValueUnsafe());
        continue;
      }
    }
    fast_[j] = expr.EvalBatch(batch, &col_scratch_[j]) ? 1 : 0;
  }
  Status first = Status::OK();
  std::vector<Value> values;
  for (size_t i = 0; i < batch.size(); ++i) {
    const Tuple& t = batch.tuple(i);
    NoteBatchTupleIn(input, t);
    emitter->SetCurrent(t);
    values.clear();
    values.reserve(nproj);
    Status st = Status::OK();
    for (size_t j = 0; j < nproj; ++j) {
      if (ident_[j] >= 0) {
        values.push_back(t.value(static_cast<size_t>(ident_[j])));
        continue;
      }
      if (fast_[j]) {
        values.push_back(Value(col_scratch_[j][i]));
        continue;
      }
      Result<Value> v = spec_.projections[j].second.Eval(t);
      if (!v.ok()) {
        st = v.status();
        break;
      }
      values.push_back(std::move(v).ValueUnsafe());
    }
    if (!st.ok()) {
      // The failing tuple emits nothing; the error surfaces to the engine
      // (which defers it and keeps going).
      if (first.ok()) first = std::move(st);
      continue;
    }
    Tuple out(output_schema(0), std::move(values));
    out.set_timestamp(t.timestamp());
    emitter->Emit(0, std::move(out));
  }
  return first;
}

}  // namespace aurora
