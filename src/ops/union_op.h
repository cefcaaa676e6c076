#ifndef AURORA_OPS_UNION_OP_H_
#define AURORA_OPS_UNION_OP_H_

#include "ops/operator.h"

namespace aurora {

/// \brief Union: merges n input streams with identical schemas into one
/// output stream, in arrival order (paper §2.2).
class UnionOp : public Operator {
 public:
  explicit UnionOp(OperatorSpec spec);

  int num_inputs() const override { return n_inputs_; }

 protected:
  Status InitImpl() override;
  Status ProcessBatchImpl(int input, TupleBatch& batch,
                          BatchEmitter* emitter) override;

 private:
  int n_inputs_;
};

}  // namespace aurora

#endif  // AURORA_OPS_UNION_OP_H_
