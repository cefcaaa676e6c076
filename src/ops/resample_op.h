#ifndef AURORA_OPS_RESAMPLE_OP_H_
#define AURORA_OPS_RESAMPLE_OP_H_

#include <optional>

#include "ops/operator.h"

namespace aurora {

/// \brief Resample: extrapolation operator (paper §2.2).
///
/// Converts an irregular stream into a regular one: emits one tuple per
/// `interval_us` boundary, with the value field linearly interpolated
/// between the two surrounding input tuples (by tuple timestamp). Output
/// schema: (ts: int64 micros, <value_field>: double).
class ResampleOp : public Operator {
 public:
  explicit ResampleOp(OperatorSpec spec);

  bool HasState() const override { return true; }

 protected:
  Status InitImpl() override;
  Status ProcessBatchImpl(int input, TupleBatch& batch,
                          BatchEmitter* emitter) override;
  SeqNo StatefulDependency(int input) const override;

 private:
  SimDuration interval_{};
  size_t value_index_ = 0;
  std::optional<Tuple> prev_;
  // Next boundary at which an interpolated tuple is owed.
  int64_t next_boundary_us_ = 0;
};

}  // namespace aurora

#endif  // AURORA_OPS_RESAMPLE_OP_H_
