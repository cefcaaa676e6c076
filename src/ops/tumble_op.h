#ifndef AURORA_OPS_TUMBLE_OP_H_
#define AURORA_OPS_TUMBLE_OP_H_

#include <memory>
#include <optional>
#include <vector>

#include "ops/aggregate.h"
#include "ops/group_key.h"
#include "ops/operator.h"
#include "ops/wsort_op.h"

namespace aurora {

/// \brief Tumble: disjoint-window aggregation (paper §2.2, Fig. 2 example).
///
/// Default emission policy follows the paper's worked example: a window is a
/// maximal run of consecutive tuples sharing the groupby value, and closes
/// (emitting `(groupby attrs..., Result)`) when a tuple with a different
/// groupby value arrives. The open window is *not* emitted until then (or
/// until Drain, used only for stabilization).
///
/// The spec param "emit" selects the alternative policies the paper alludes
/// to ("two additional parameters that specify when tuples get emitted"):
///   - "group_change" (default): run-based, as above;
///   - "every_n": per-group hash windows that close after "n" tuples.
class TumbleOp : public Operator {
 public:
  explicit TumbleOp(OperatorSpec spec);

  bool HasState() const override { return true; }
  void Drain(Emitter* emitter) override;

 protected:
  Status InitImpl() override;
  /// Drains the whole batch through the group state. every_n mode memoizes
  /// the GroupKeyMap probe across consecutive same-group tuples (the common
  /// shape of a batch); group_change mode is already one compare per tuple.
  Status ProcessBatchImpl(int input, TupleBatch& batch,
                          BatchEmitter* emitter) override;
  SeqNo StatefulDependency(int input) const override;

 private:
  struct Window {
    std::unique_ptr<AggregateFunction> agg;
    SeqNo min_seq = kNoSeqNo;
    SimTime start_ts{};
  };

  /// Fills key_scratch_ with the tuple's groupby values (indices bound at
  /// init) and returns it; no per-tuple allocation once the scratch has
  /// capacity. Callers that store the key move key_scratch_ out.
  const std::vector<Value>& KeyOf(const Tuple& t);
  void EmitWindow(const std::vector<Value>& key, const Window& w,
                  Emitter* emitter);

  std::string agg_name_;
  std::string agg_field_;
  size_t agg_index_ = 0;
  std::vector<size_t> group_indices_;
  bool every_n_ = false;
  uint64_t n_ = 0;

  // group_change mode: single open run.
  std::optional<std::vector<Value>> current_key_;
  Window current_;

  // every_n mode: one open window per group. Hash map: probe order is
  // irrelevant mid-stream, and Drain sorts the keys (ValueVectorLess)
  // before emitting so output order matches the old ordered map.
  GroupKeyMap<Window> open_;

  std::vector<Value> key_scratch_;
  std::unique_ptr<AggregateFunction> proto_agg_;
};

}  // namespace aurora

#endif  // AURORA_OPS_TUMBLE_OP_H_
