#ifndef AURORA_OPS_FILTER_OP_H_
#define AURORA_OPS_FILTER_OP_H_

#include "ops/operator.h"

namespace aurora {

/// \brief Filter(p): forwards tuples satisfying p to output 0 (paper §2.2).
///
/// With the "two_way" spec param set, tuples failing p go to output 1 —
/// the optional second stream the paper mentions, and the form the splitter
/// uses as a semantic router (§5.1).
class FilterOp : public Operator {
 public:
  explicit FilterOp(OperatorSpec spec);

  int num_outputs() const override { return two_way_ ? 2 : 1; }

 protected:
  Status InitImpl() override;
  /// Vectorized: one Predicate::EvalBatch over the batch's columnar
  /// scratch, then a branch-per-tuple emit loop.
  Status ProcessBatchImpl(int input, TupleBatch& batch,
                          BatchEmitter* emitter) override;

 private:
  bool two_way_;
  /// Per-batch match bitmap. Member (not stack) to keep its capacity warm
  /// across activations; safe because a box instance never runs two
  /// activations concurrently, on either engine.
  std::vector<uint8_t> match_scratch_;
};

}  // namespace aurora

#endif  // AURORA_OPS_FILTER_OP_H_
