#ifndef AURORA_TUPLE_TUPLE_BATCH_H_
#define AURORA_TUPLE_TUPLE_BATCH_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/sim_time.h"
#include "tuple/tuple.h"

namespace aurora {

/// \brief One consumable train of tuples handed to Operator::ProcessBatch,
/// plus a lazily-built columnar scratch over it.
///
/// An engine activation fills a batch with up to `train_size` tuples
/// dequeued from one arc (one tuple per input turn for a multi-input box),
/// together with the per-tuple `now` each tuple is processed under (the
/// activation clock in the single-threaded engine, the tuple's own timestamp
/// in the threaded one). Operators consume the batch front to back; emission
/// order must match what per-tuple Process calls would have produced, which
/// is what the batch-vs-scalar equivalence suite gates.
///
/// Columnar scratch: for fixed-width fields (int64 / double) of a
/// schema-uniform batch, I64Column / F64Column materialize the field as a
/// contiguous array once per batch, so Predicate::EvalBatch and
/// Expr::EvalBatch loop over raw machine values instead of re-dispatching
/// through the Value variant per tuple. Columns are built on first request
/// (only fields an expression actually reads pay the gather) and cached for
/// the batch's lifetime; Clear() drops them but keeps capacity, so a batch
/// reused across activations stops allocating once warm. Anything
/// non-fixed-width (strings, nulls, mixed schemas) simply yields nullptr and
/// callers fall back to the per-tuple path.
class TupleBatch {
 public:
  TupleBatch() = default;

  TupleBatch(const TupleBatch&) = delete;
  TupleBatch& operator=(const TupleBatch&) = delete;

  void Reserve(size_t n) {
    tuples_.reserve(n);
    nows_.reserve(n);
  }

  void Push(Tuple t, SimTime now) {
    if (!tuples_.empty() &&
        t.schema().get() != tuples_.front().schema().get()) {
      uniform_ = false;
    }
    tuples_.push_back(std::move(t));
    nows_.push_back(now);
  }

  /// Drops tuples and invalidates columns; keeps all buffer capacity.
  void Clear();

  size_t size() const { return tuples_.size(); }
  bool empty() const { return tuples_.empty(); }

  const Tuple& tuple(size_t i) const { return tuples_[i]; }
  Tuple& tuple(size_t i) { return tuples_[i]; }
  /// The clock tuple `i` is processed under.
  SimTime now(size_t i) const { return nows_[i]; }

  /// All tuples share one schema object (pointer identity). Columns are
  /// only available on uniform batches; an arc's tuples are uniform in
  /// practice, so this mostly guards hand-built test batches.
  bool uniform_schema() const { return uniform_; }
  /// Schema of the first tuple; nullptr on an empty batch.
  const SchemaPtr& schema() const {
    static const SchemaPtr kNull;
    return tuples_.empty() ? kNull : tuples_.front().schema();
  }

  /// Contiguous int64 column for field `field`, one entry per tuple, or
  /// nullptr when the field is not int64 across the whole batch (or the
  /// batch is empty / not schema-uniform). Pointer valid until Clear().
  const int64_t* I64Column(size_t field);
  /// Same for double fields.
  const double* F64Column(size_t field);
  /// Pooled string views for field `field`, one per tuple, or nullptr when
  /// the field is not a string across the whole batch. Each view aliases the
  /// owning tuple's refcounted body — no bytes are copied — so views stay
  /// valid exactly as long as the columns do: until Clear().
  const std::string_view* StrColumn(size_t field);

 private:
  struct Column {
    bool built_i64 = false;
    bool ok_i64 = false;
    bool built_f64 = false;
    bool ok_f64 = false;
    bool built_str = false;
    bool ok_str = false;
    std::vector<int64_t> i64;
    std::vector<double> f64;
    std::vector<std::string_view> str;
  };

  std::vector<Tuple> tuples_;
  std::vector<SimTime> nows_;
  std::vector<Column> cols_;
  bool uniform_ = true;
};

}  // namespace aurora

#endif  // AURORA_TUPLE_TUPLE_BATCH_H_
