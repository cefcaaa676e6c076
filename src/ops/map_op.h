#ifndef AURORA_OPS_MAP_OP_H_
#define AURORA_OPS_MAP_OP_H_

#include "ops/operator.h"

namespace aurora {

/// \brief Map: per-tuple projection/transformation (paper §2.2).
///
/// Each output field is a declarative Expr over the input tuple, so Map
/// boxes remain shippable by remote definition.
class MapOp : public Operator {
 public:
  explicit MapOp(OperatorSpec spec) : Operator(std::move(spec)) {}

 protected:
  Status InitImpl() override;
  /// Vectorized: projections that Expr::EvalBatch can run columnar are
  /// computed once per batch; remaining projections evaluate per tuple in
  /// the assembly loop, so a single string column doesn't de-vectorize the
  /// integer ones.
  Status ProcessBatchImpl(int input, TupleBatch& batch,
                          BatchEmitter* emitter) override;

 private:
  /// Per-batch scratch: one int64 column per vectorizable projection plus
  /// a flag vector saying which projections took the columnar path, and a
  /// per-projection identity index (>= 0 when the projection is a bare
  /// field reference — copied straight out of the tuple, any value type
  /// including strings, no per-tuple Eval dispatch). Member to keep
  /// capacity warm across activations; a box instance never runs two
  /// activations concurrently.
  std::vector<std::vector<int64_t>> col_scratch_;
  std::vector<uint8_t> fast_;
  std::vector<int> ident_;
};

}  // namespace aurora

#endif  // AURORA_OPS_MAP_OP_H_
