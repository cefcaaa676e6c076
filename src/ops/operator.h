#ifndef AURORA_OPS_OPERATOR_H_
#define AURORA_OPS_OPERATOR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/sim_time.h"
#include "ops/op_spec.h"
#include "tuple/tuple.h"
#include "tuple/tuple_batch.h"

namespace aurora {

/// Sink for tuples produced by an operator. The engine provides an Emitter
/// that routes emissions to downstream arc queues or output applications.
class Emitter {
 public:
  virtual ~Emitter() = default;
  virtual void Emit(int output, Tuple t) = 0;
  /// Chunked sink: `n` tuples bound for one output port, in emission order.
  /// The default unrolls to per-tuple Emit calls, so every emitter is
  /// chunk-callable; engines override it to enqueue downstream arcs in bulk
  /// (one scheduler/ring update per chunk instead of per tuple). Tuples are
  /// consumed (moved-from) on return. Overrides must be
  /// observation-equivalent to the unrolled loop for everything the
  /// bit-exactness gates see: per-arc FIFO order, per-output delivery order,
  /// and per-tuple metadata.
  virtual void EmitChunk(int output, Tuple* tuples, size_t n) {
    for (size_t i = 0; i < n; ++i) Emit(output, std::move(tuples[i]));
  }
};

/// \brief Base class for all Aurora boxes (paper §2.2).
///
/// Lifecycle: construct from an OperatorSpec → Init(input schemas) →
/// ProcessBatch per train, which engines call (Process is a one-tuple train
/// through the same hook) + OnTick for time-driven boxes → Drain when the
/// surrounding network is stabilized for a move (§5.1).
///
/// The base tracks the transport sequence number of the last tuple processed
/// on each input; combined with StatefulDependency this implements the HA
/// rule of §6.2: a stateless box depends on the tuple it processed most
/// recently, a stateful box on the earliest tuple contributing to its state.
class Operator {
 public:
  explicit Operator(OperatorSpec spec) : spec_(std::move(spec)) {}
  virtual ~Operator() = default;

  Operator(const Operator&) = delete;
  Operator& operator=(const Operator&) = delete;

  const OperatorSpec& spec() const { return spec_; }
  const std::string& kind() const { return spec_.kind; }

  virtual int num_inputs() const { return 1; }
  virtual int num_outputs() const { return 1; }

  /// Validates input schemas against the spec and computes output schemas.
  /// Must be called exactly once before Process.
  Status Init(std::vector<SchemaPtr> input_schemas);

  const SchemaPtr& input_schema(int i) const { return input_schemas_[i]; }
  const SchemaPtr& output_schema(int i) const { return output_schemas_[i]; }

  /// Processes one tuple from the given input arc: a one-tuple train through
  /// ProcessBatch, so its emissions (seq and trace stamping included) are
  /// exactly what an engine activation of that one tuple produces.
  Status Process(int input, const Tuple& t, SimTime now, Emitter* emitter);

  /// Processes a whole train of tuples from one input arc. Emissions must
  /// not depend on how a stream is cut into trains: any chunking emits what
  /// one-tuple trains would, in the same order (BatchOracle pins this
  /// against goldens at train sizes 1, 2, 7 and 64). On a per-tuple error,
  /// processing continues with the remaining tuples and the first error is
  /// returned, matching the engine's deferred-error policy.
  Status ProcessBatch(int input, TupleBatch& batch, Emitter* emitter);

  /// Time-driven callback (WSort timeouts, aggregate timeouts). The engine
  /// invokes it at its tick granularity.
  virtual void OnTick(SimTime now, Emitter* emitter);

  /// Flushes all operator state downstream. Used when draining a
  /// sub-network during stabilization, and by batch-style tests.
  virtual void Drain(Emitter* emitter);

  /// True when the box holds window/join state between tuples.
  virtual bool HasState() const { return false; }

  /// For each input arc: the sequence number of the earliest tuple this box
  /// still depends on (HA §6.2). kNoSeqNo when nothing was processed yet.
  std::vector<SeqNo> Dependencies() const;

  /// Per-tuple CPU cost charged by the node simulation; defaults per kind,
  /// overridable via the "cost_us" spec param.
  double cost_micros_per_tuple() const { return cost_micros_; }
  void set_cost_micros_per_tuple(double c) { cost_micros_ = c; }

  uint64_t tuples_in() const { return tuples_in_; }
  uint64_t tuples_out() const { return tuples_out_; }
  /// Observed selectivity (out/in); 1.0 until data has flowed.
  double selectivity() const {
    return tuples_in_ == 0
               ? 1.0
               : static_cast<double>(tuples_out_) / static_cast<double>(tuples_in_);
  }

  /// Emitter wrapper used by ProcessBatch. Per emission it applies the
  /// lineage rules: seq inheritance (HA §6.2: an emission that did not set
  /// its own provenance inherits the triggering input's seq) and trace-id
  /// propagation. A ProcessBatchImpl override must call
  /// SetCurrent(t) before emitting on behalf of tuple `t`, because the
  /// engine cannot know per-emission provenance mid-batch.
  ///
  /// With buffering enabled (ProcessBatch turns it on, sized to the input
  /// batch) emissions are staged after stamping and handed downstream as
  /// consecutive same-output runs via Emitter::EmitChunk, so arcs/rings pay
  /// per-chunk instead of per-tuple. Stamping happens at Emit time — before
  /// staging — so seq/trace assignment is byte-identical to the unbuffered
  /// path no matter where chunk boundaries fall; the flush replays emissions
  /// in their original order.
  class BatchEmitter : public Emitter {
   public:
    BatchEmitter(Emitter* inner, uint64_t* counter)
        : inner_(inner), counter_(counter) {}
    void SetCurrent(const Tuple& t) {
      cur_seq_ = t.seq();
      cur_trace_ = t.trace_id();
    }
    /// Stages up to `cap` emissions before flushing (0 = unbuffered).
    void EnableBuffering(size_t cap) { cap_ = cap; }
    void Emit(int output, Tuple t) override {
      ++*counter_;
      if (t.seq() == kNoSeqNo) t.set_seq(cur_seq_);
      if (cur_trace_ != 0 && t.trace_id() == 0) t.set_trace_id(cur_trace_);
      if (cap_ == 0) {
        inner_->Emit(output, std::move(t));
        return;
      }
      if (staged_tuples_.size() >= cap_) Flush();
      staged_outputs_.push_back(output);
      staged_tuples_.push_back(std::move(t));
    }
    /// Replays staged emissions in order, one EmitChunk per consecutive
    /// same-output run. ProcessBatch calls this before returning so the
    /// engine observes every emission of the batch once control returns.
    void Flush() {
      size_t i = 0;
      const size_t n = staged_tuples_.size();
      while (i < n) {
        size_t j = i + 1;
        while (j < n && staged_outputs_[j] == staged_outputs_[i]) ++j;
        inner_->EmitChunk(staged_outputs_[i], staged_tuples_.data() + i,
                          j - i);
        i = j;
      }
      staged_tuples_.clear();
      staged_outputs_.clear();
    }

   private:
    Emitter* inner_;
    uint64_t* counter_;
    SeqNo cur_seq_ = kNoSeqNo;
    uint64_t cur_trace_ = 0;
    size_t cap_ = 0;
    std::vector<int> staged_outputs_;
    std::vector<Tuple> staged_tuples_;
  };

 protected:
  virtual Status InitImpl() = 0;
  /// The one processing hook. Implementations consume the batch front to
  /// back, call NoteBatchTupleIn + emitter->SetCurrent for every tuple
  /// before emitting on its behalf, and continue past per-tuple errors
  /// (returning the first).
  virtual Status ProcessBatchImpl(int input, TupleBatch& batch,
                                  BatchEmitter* emitter) = 0;
  /// Per-tuple base bookkeeping in ProcessBatchImpl: lineage tracking and
  /// selectivity input counting.
  void NoteBatchTupleIn(int input, const Tuple& t) {
    if (t.seq() != kNoSeqNo) last_seq_[input] = t.seq();
    ++tuples_in_;
  }
  /// Earliest tuple seq contributing to retained state for the given input;
  /// kNoSeqNo when the box holds no state for that input. Stateful
  /// subclasses override.
  virtual SeqNo StatefulDependency(int input) const;

  void SetOutputSchema(int i, SchemaPtr schema) {
    output_schemas_[i] = std::move(schema);
  }

  OperatorSpec spec_;
  std::vector<SchemaPtr> input_schemas_;
  std::vector<SchemaPtr> output_schemas_;

 private:
  double cost_micros_ = 1.0;
  bool initialized_ = false;
  std::vector<SeqNo> last_seq_;
  uint64_t tuples_in_ = 0;
  uint64_t tuples_out_ = 0;
};

using OperatorPtr = std::unique_ptr<Operator>;

/// Instantiates an operator from its declarative spec. The single factory
/// used by query construction, remote definition, and box splitting.
Result<OperatorPtr> CreateOperator(const OperatorSpec& spec);

/// Default per-tuple cost (microseconds) for a box kind; used when the spec
/// does not carry an explicit "cost_us".
double DefaultCostMicros(const std::string& kind);

}  // namespace aurora

#endif  // AURORA_OPS_OPERATOR_H_
