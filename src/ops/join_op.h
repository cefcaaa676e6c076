#ifndef AURORA_OPS_JOIN_OP_H_
#define AURORA_OPS_JOIN_OP_H_

#include <deque>

#include "ops/operator.h"

namespace aurora {

/// \brief Join: symmetric windowed equi-join over two streams (paper §2.2).
///
/// Matches a left tuple with every buffered right tuple (and vice versa)
/// whose join key is equal and whose timestamp is within `window_us`. The
/// output concatenates left and right attributes, with right attribute
/// names prefixed by `right_prefix` on collision. Selectivity can exceed 1,
/// the property the paper uses to motivate sliding a box *downstream*
/// (§5.1: "produces more data than the input, e.g. a join").
class JoinOp : public Operator {
 public:
  explicit JoinOp(OperatorSpec spec);

  int num_inputs() const override { return 2; }
  bool HasState() const override { return true; }

 protected:
  Status InitImpl() override;
  /// Probe-side batch: each tuple expires both buffers at its `now`, probes
  /// the opposite buffer (key index hoisted out of the loop) and joins its
  /// own buffer. Consecutive probes with equal (key, timestamp, now) reuse
  /// the memoized match positions instead of rescanning the buffer (the
  /// opposite buffer cannot change between them — the batch only appends
  /// to its own side, and re-expiring at the same `now` pops nothing the
  /// memo scan saw), so emission order, buffer contents and drop behaviour
  /// are the same as one-tuple batches give.
  Status ProcessBatchImpl(int input, TupleBatch& batch,
                          BatchEmitter* emitter) override;
  SeqNo StatefulDependency(int input) const override;

 private:
  void ExpireOld(SimTime now);
  void EmitJoined(const Tuple& left, const Tuple& right, Emitter* emitter);

  std::string left_key_;
  std::string right_key_;
  size_t left_key_index_ = 0;
  size_t right_key_index_ = 0;
  SimDuration window_{};
  std::deque<Tuple> left_buffer_;
  std::deque<Tuple> right_buffer_;
  /// Memoized probe scratch for ProcessBatchImpl: positions in the
  /// opposite buffer matched by the previous probe tuple.
  std::vector<size_t> match_scratch_;
};

}  // namespace aurora

#endif  // AURORA_OPS_JOIN_OP_H_
