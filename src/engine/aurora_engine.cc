#include "engine/aurora_engine.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/trace.h"

namespace aurora {

AuroraEngine::AuroraEngine(EngineOptions opts)
    : opts_(opts), storage_(opts.memory_budget_bytes), shedder_(opts.shedder) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  m_tuples_in_ = reg.GetCounter("engine.tuples_in");
  m_tuples_shed_ = reg.GetCounter("engine.tuples_shed");
  m_tuples_blocked_ = reg.GetCounter("engine.tuples_blocked_upstream");
  m_ingest_blocked_ = reg.GetGauge("engine.ingest.blocked");
  m_activations_ = reg.GetCounter("engine.activations");
  m_sched_decisions_ = reg.GetCounter("engine.sched.decisions");
  m_box_exec_us_ = reg.GetHistogram("engine.box_exec_us");
  m_queue_wait_ms_ = reg.GetHistogram("engine.queue_wait_ms");
  m_queue_depth_ = reg.GetGauge("engine.queue_depth");
  m_batch_chunks_ = reg.GetCounter("engine.batch.emitted_chunks");
  m_batch_chunk_tuples_ = reg.GetCounter("engine.batch.emitted_tuples");
  m_batch_fanout_tuples_ = reg.GetCounter("engine.batch.fanout_tuples");
  m_batch_chunk_enqueued_ = reg.GetCounter("engine.batch.chunk_enqueued");
  m_batch_chunk_delivered_ = reg.GetCounter("engine.batch.chunk_delivered");
  m_batch_chunk_held_ = reg.GetCounter("engine.batch.chunk_held");
}

// ---------------------------------------------------------------------------
// Topology construction
// ---------------------------------------------------------------------------

Result<PortId> AuroraEngine::AddInput(const std::string& name,
                                      SchemaPtr schema) {
  if (schema == nullptr) {
    return Status::InvalidArgument("input '" + name + "' needs a schema");
  }
  for (const auto& in : inputs_) {
    if (in.name == name) {
      return Status::AlreadyExists("input '" + name + "' already exists");
    }
  }
  inputs_.push_back(InputPort{name, std::move(schema), {}});
  return static_cast<PortId>(inputs_.size() - 1);
}

Result<PortId> AuroraEngine::AddOutput(const std::string& name) {
  for (const auto& out : outputs_) {
    if (out.name == name) {
      return Status::AlreadyExists("output '" + name + "' already exists");
    }
  }
  outputs_.push_back(OutputPort{name, nullptr, {}});
  return static_cast<PortId>(outputs_.size() - 1);
}

Result<BoxId> AuroraEngine::AddBox(const OperatorSpec& spec) {
  AURORA_ASSIGN_OR_RETURN(OperatorPtr op, CreateOperator(spec));
  BoxRt box;
  box.spec = spec;
  box.in_arcs.assign(static_cast<size_t>(op->num_inputs()), -1);
  box.out_arcs.assign(static_cast<size_t>(op->num_outputs()), {});
  box.op = std::move(op);
  boxes_.push_back(std::move(box));
  return static_cast<BoxId>(boxes_.size() - 1);
}

Result<ArcId> AuroraEngine::Connect(Endpoint from, Endpoint to) {
  // Validate endpoints.
  switch (from.kind) {
    case Endpoint::Kind::kInputPort:
      if (from.id < 0 || from.id >= static_cast<int>(inputs_.size())) {
        return Status::InvalidArgument("bad input port " + from.ToString());
      }
      break;
    case Endpoint::Kind::kBox: {
      if (from.id < 0 || from.id >= static_cast<int>(boxes_.size()) ||
          boxes_[from.id].removed) {
        return Status::InvalidArgument("bad source box " + from.ToString());
      }
      const BoxRt& b = boxes_[from.id];
      if (from.index < 0 || from.index >= b.op->num_outputs()) {
        return Status::InvalidArgument("bad box output " + from.ToString());
      }
      break;
    }
    case Endpoint::Kind::kOutputPort:
      return Status::InvalidArgument("cannot connect from an output port");
  }
  switch (to.kind) {
    case Endpoint::Kind::kInputPort:
      return Status::InvalidArgument("cannot connect into an input port");
    case Endpoint::Kind::kBox: {
      if (to.id < 0 || to.id >= static_cast<int>(boxes_.size()) ||
          boxes_[to.id].removed) {
        return Status::InvalidArgument("bad destination box " + to.ToString());
      }
      BoxRt& b = boxes_[to.id];
      if (to.index < 0 || to.index >= b.op->num_inputs()) {
        return Status::InvalidArgument("bad box input " + to.ToString());
      }
      if (b.in_arcs[to.index] >= 0) {
        return Status::AlreadyExists("box input " + to.ToString() +
                                     " already connected");
      }
      break;
    }
    case Endpoint::Kind::kOutputPort:
      if (to.id < 0 || to.id >= static_cast<int>(outputs_.size())) {
        return Status::InvalidArgument("bad output port " + to.ToString());
      }
      break;
  }

  // When both endpoints already know their schemas (e.g. an adopted box),
  // verify compatibility now instead of at InitializeBoxes.
  if (to.kind == Endpoint::Kind::kBox && boxes_[to.id].initialized) {
    auto from_schema = EndpointOutputSchema(from);
    if (from_schema.ok() &&
        !(*from_schema)->Equals(*boxes_[to.id].op->input_schema(to.index))) {
      return Status::InvalidArgument(
          "schema mismatch on arc: " + (*from_schema)->ToString() + " vs " +
          boxes_[to.id].op->input_schema(to.index)->ToString());
    }
  }

  ArcId id = static_cast<ArcId>(arcs_.size());
  arcs_.push_back(ArcRt{});
  arcs_[id].from = from;
  arcs_[id].to = to;

  if (from.kind == Endpoint::Kind::kInputPort) {
    inputs_[from.id].out_arcs.push_back(id);
  } else {
    boxes_[from.id].out_arcs[from.index].push_back(id);
  }
  if (to.kind == Endpoint::Kind::kBox) {
    boxes_[to.id].in_arcs[to.index] = id;
  } else {
    outputs_[to.id].in_arcs.push_back(id);
  }
  RecomputeOutputDistances();
  return id;
}

Result<SchemaPtr> AuroraEngine::EndpointOutputSchema(const Endpoint& e) const {
  switch (e.kind) {
    case Endpoint::Kind::kInputPort:
      return inputs_[e.id].schema;
    case Endpoint::Kind::kBox: {
      const BoxRt& b = boxes_[e.id];
      if (!b.initialized) {
        return Status::FailedPrecondition("box " + std::to_string(e.id) +
                                          " not initialized yet");
      }
      return b.op->output_schema(e.index);
    }
    case Endpoint::Kind::kOutputPort:
      return Status::InvalidArgument("output ports have no schema");
  }
  return Status::Internal("bad endpoint kind");
}

bool AuroraEngine::IsBoxInitialized(BoxId box) const {
  if (box < 0 || box >= static_cast<int>(boxes_.size()) ||
      boxes_[box].removed) {
    return false;
  }
  return boxes_[box].initialized;
}

Status AuroraEngine::InitializeBoxes(bool require_all) {
  // Fixed-point pass: initialize every box whose input schemas are
  // available. The network is loop-free (§2.1), so this terminates with all
  // boxes initialized unless an input is unconnected or a cycle exists.
  bool progress = true;
  while (progress) {
    progress = false;
    for (size_t i = 0; i < boxes_.size(); ++i) {
      BoxRt& box = boxes_[i];
      if (box.removed || box.initialized) continue;
      std::vector<SchemaPtr> schemas;
      bool ready = true;
      for (int in = 0; in < box.op->num_inputs() && ready; ++in) {
        ArcId arc = box.in_arcs[in];
        if (arc < 0) {
          ready = false;
          break;
        }
        auto schema = EndpointOutputSchema(arcs_[arc].from);
        if (!schema.ok()) {
          ready = false;
          break;
        }
        schemas.push_back(*schema);
      }
      if (!ready) continue;
      AURORA_RETURN_NOT_OK(box.op->Init(std::move(schemas)));
      box.initialized = true;
      progress = true;
    }
  }
  if (require_all) {
    for (size_t i = 0; i < boxes_.size(); ++i) {
      const BoxRt& box = boxes_[i];
      if (!box.removed && !box.initialized) {
        for (int in = 0; in < box.op->num_inputs(); ++in) {
          if (box.in_arcs[in] < 0) {
            return Status::FailedPrecondition(
                "box " + std::to_string(i) + " (" + box.spec.kind + ") input " +
                std::to_string(in) + " is unconnected");
          }
        }
        return Status::FailedPrecondition(
            "box " + std::to_string(i) +
            " could not be initialized (cycle in the network?)");
      }
    }
  }
  RecomputeOutputDistances();
  return Status::OK();
}

Status AuroraEngine::MakeConnectionPoint(ArcId arc, const std::string& name,
                                         RetentionPolicy policy) {
  if (arc < 0 || arc >= static_cast<int>(arcs_.size()) || arcs_[arc].removed) {
    return Status::InvalidArgument("bad arc id");
  }
  if (connection_points_.count(name)) {
    return Status::AlreadyExists("connection point '" + name + "' exists");
  }
  arcs_[arc].cp = std::make_unique<ConnectionPoint>(name, policy);
  connection_points_[name] = arc;
  if (durable_store_ != nullptr) BindConnectionPointStorage(arc);
  return Status::OK();
}

void AuroraEngine::AttachDurableStore(TieredStore* store) {
  durable_store_ = store;
  storage_.AttachStore(store);
  for (const auto& [name, arc] : connection_points_) {
    BindConnectionPointStorage(arc);
  }
}

void AuroraEngine::BindConnectionPointStorage(ArcId arc) {
  ArcRt& a = arcs_[arc];
  if (a.removed || a.cp == nullptr || a.cp->storage_bound()) return;
  SchemaPtr schema;
  auto s = EndpointOutputSchema(a.from);
  if (s.ok()) schema = *s;
  a.cp->BindStorage(durable_store_, "cp/" + a.cp->name(),
                    opts_.cp_cache_tuples, std::move(schema));
}

void AuroraEngine::WipeVolatileStorage() {
  for (auto& a : arcs_) {
    if (!a.removed && a.cp != nullptr) a.cp->DropMemoryTier();
  }
}

void AuroraEngine::RecoverDurableState(SimTime now) {
  for (auto& a : arcs_) {
    if (!a.removed && a.cp != nullptr && a.cp->storage_bound()) {
      a.cp->RecoverFromStorage(now);
    }
  }
}

Result<ConnectionPoint*> AuroraEngine::GetConnectionPoint(
    const std::string& name) {
  auto it = connection_points_.find(name);
  if (it == connection_points_.end()) {
    return Status::NotFound("connection point '" + name + "' not found");
  }
  return arcs_[it->second].cp.get();
}

Result<int> AuroraEngine::AttachAdHocQuery(const std::string& cp_name,
                                           Predicate predicate,
                                           OutputCallback sink) {
  AURORA_ASSIGN_OR_RETURN(ConnectionPoint * cp, GetConnectionPoint(cp_name));
  if (!sink) return Status::InvalidArgument("ad hoc query needs a sink");
  // Replay history first, then go live — the attachment point in time is
  // well-defined because both happen atomically w.r.t. tuple flow.
  auto shared_pred = std::make_shared<Predicate>(std::move(predicate));
  cp->QueryHistory(
      [&](const Tuple& t) { return shared_pred->Eval(t); },
      [&](const Tuple& t) { sink(t, t.timestamp()); });
  return cp->Subscribe(
      [shared_pred, sink = std::move(sink)](const Tuple& t, SimTime now) {
        if (shared_pred->Eval(t)) sink(t, now);
      });
}

Status AuroraEngine::DetachAdHocQuery(const std::string& cp_name, int token) {
  AURORA_ASSIGN_OR_RETURN(ConnectionPoint * cp, GetConnectionPoint(cp_name));
  cp->Unsubscribe(token);
  return Status::OK();
}

ConnectionPoint* AuroraEngine::ArcConnectionPoint(ArcId arc) {
  if (arc < 0 || arc >= static_cast<int>(arcs_.size()) || arcs_[arc].removed) {
    return nullptr;
  }
  return arcs_[arc].cp.get();
}

// ---------------------------------------------------------------------------
// Dynamic reconfiguration
// ---------------------------------------------------------------------------

Status AuroraEngine::ChokeArc(ArcId arc) {
  if (arc < 0 || arc >= static_cast<int>(arcs_.size()) || arcs_[arc].removed) {
    return Status::InvalidArgument("bad arc id");
  }
  arcs_[arc].choked = true;
  if (arcs_[arc].cp) arcs_[arc].cp->Choke();
  return Status::OK();
}

Status AuroraEngine::UnchokeArc(ArcId arc) {
  if (arc < 0 || arc >= static_cast<int>(arcs_.size()) || arcs_[arc].removed) {
    return Status::InvalidArgument("bad arc id");
  }
  ArcRt& a = arcs_[arc];
  a.choked = false;
  if (a.cp) a.cp->Unchoke();
  // Held arrivals flow back in arrival order, ahead of any new traffic.
  for (auto& [t, us] : a.hold) {
    ArcEnqueue(a, std::move(t), us);
  }
  a.hold.clear();
  return Status::OK();
}

bool AuroraEngine::ArcChoked(ArcId arc) const {
  if (arc < 0 || arc >= static_cast<int>(arcs_.size())) return false;
  return arcs_[arc].choked;
}

Result<std::vector<Tuple>> AuroraEngine::TakeHeldTuples(ArcId arc) {
  if (arc < 0 || arc >= static_cast<int>(arcs_.size()) || arcs_[arc].removed) {
    return Status::InvalidArgument("bad arc id");
  }
  std::vector<Tuple> out;
  out.reserve(arcs_[arc].hold.size());
  for (auto& [t, us] : arcs_[arc].hold) out.push_back(std::move(t));
  arcs_[arc].hold.clear();
  return out;
}

size_t AuroraEngine::HeldTupleCount(ArcId arc) const {
  if (arc < 0 || arc >= static_cast<int>(arcs_.size())) return 0;
  return arcs_[arc].hold.size();
}

Result<OperatorPtr> AuroraEngine::ExtractBoxOperator(BoxId box) {
  if (box < 0 || box >= static_cast<int>(boxes_.size()) ||
      boxes_[box].removed) {
    return Status::InvalidArgument("bad box id");
  }
  BoxRt& b = boxes_[box];
  for (ArcId arc : b.in_arcs) {
    if (arc >= 0) {
      return Status::FailedPrecondition("box still has a connected input arc");
    }
  }
  for (const auto& outs : b.out_arcs) {
    if (!outs.empty()) {
      return Status::FailedPrecondition("box still has a connected output arc");
    }
  }
  b.removed = true;
  return std::move(b.op);
}

Result<BoxId> AuroraEngine::AdoptBoxOperator(OperatorPtr op) {
  if (op == nullptr) return Status::InvalidArgument("null operator");
  BoxRt box;
  box.spec = op->spec();
  box.in_arcs.assign(static_cast<size_t>(op->num_inputs()), -1);
  box.out_arcs.assign(static_cast<size_t>(op->num_outputs()), {});
  box.op = std::move(op);
  box.initialized = true;  // arrives with schemas and state intact
  boxes_.push_back(std::move(box));
  return static_cast<BoxId>(boxes_.size() - 1);
}

Status AuroraEngine::DisconnectArc(ArcId arc) {
  if (arc < 0 || arc >= static_cast<int>(arcs_.size()) || arcs_[arc].removed) {
    return Status::InvalidArgument("bad arc id");
  }
  ArcRt& a = arcs_[arc];
  if (!a.queue.empty()) {
    return Status::FailedPrecondition(
        "arc queue not empty (" + std::to_string(a.queue.size()) +
        " tuples); TakeArcQueue first");
  }
  if (!a.hold.empty()) {
    return Status::FailedPrecondition("arc has held tuples; TakeHeldTuples first");
  }
  auto erase_from = [arc](std::vector<ArcId>* list) {
    list->erase(std::remove(list->begin(), list->end(), arc), list->end());
  };
  if (a.from.kind == Endpoint::Kind::kInputPort) {
    erase_from(&inputs_[a.from.id].out_arcs);
  } else if (a.from.kind == Endpoint::Kind::kBox) {
    erase_from(&boxes_[a.from.id].out_arcs[a.from.index]);
  }
  if (a.to.kind == Endpoint::Kind::kBox) {
    boxes_[a.to.id].in_arcs[a.to.index] = -1;
  } else if (a.to.kind == Endpoint::Kind::kOutputPort) {
    erase_from(&outputs_[a.to.id].in_arcs);
  }
  a.removed = true;
  for (auto it = connection_points_.begin(); it != connection_points_.end();) {
    it = (it->second == arc) ? connection_points_.erase(it) : std::next(it);
  }
  a.cp.reset();
  RecomputeOutputDistances();
  return Status::OK();
}

Status AuroraEngine::RemoveBox(BoxId box) {
  if (box < 0 || box >= static_cast<int>(boxes_.size()) ||
      boxes_[box].removed) {
    return Status::InvalidArgument("bad box id");
  }
  BoxRt& b = boxes_[box];
  for (ArcId arc : b.in_arcs) {
    if (arc >= 0) {
      return Status::FailedPrecondition("box still has a connected input arc");
    }
  }
  for (const auto& outs : b.out_arcs) {
    if (!outs.empty()) {
      return Status::FailedPrecondition("box still has a connected output arc");
    }
  }
  b.removed = true;
  b.op.reset();
  return Status::OK();
}

Result<std::vector<Tuple>> AuroraEngine::TakeArcQueue(ArcId arc) {
  if (arc < 0 || arc >= static_cast<int>(arcs_.size()) || arcs_[arc].removed) {
    return Status::InvalidArgument("bad arc id");
  }
  ArcRt& a = arcs_[arc];
  std::vector<Tuple> out;
  out.reserve(a.queue.size());
  while (!a.queue.empty()) {
    out.push_back(ArcDequeue(a));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Lookup
// ---------------------------------------------------------------------------

Result<PortId> AuroraEngine::FindInput(const std::string& name) const {
  for (size_t i = 0; i < inputs_.size(); ++i) {
    if (inputs_[i].name == name) return static_cast<PortId>(i);
  }
  return Status::NotFound("no input named '" + name + "'");
}

Result<PortId> AuroraEngine::FindOutput(const std::string& name) const {
  for (size_t i = 0; i < outputs_.size(); ++i) {
    if (outputs_[i].name == name) return static_cast<PortId>(i);
  }
  return Status::NotFound("no output named '" + name + "'");
}

Result<ArcId> AuroraEngine::FindArcInto(BoxId box, int input_index) const {
  if (box < 0 || box >= static_cast<int>(boxes_.size()) ||
      boxes_[box].removed) {
    return Status::InvalidArgument("bad box id");
  }
  const BoxRt& b = boxes_[box];
  if (input_index < 0 || input_index >= static_cast<int>(b.in_arcs.size()) ||
      b.in_arcs[input_index] < 0) {
    return Status::NotFound("no arc into box input");
  }
  return b.in_arcs[input_index];
}

std::vector<ArcId> AuroraEngine::ArcsFrom(Endpoint from) const {
  if (from.kind == Endpoint::Kind::kInputPort &&
      from.id < static_cast<int>(inputs_.size())) {
    return inputs_[from.id].out_arcs;
  }
  if (from.kind == Endpoint::Kind::kBox &&
      from.id < static_cast<int>(boxes_.size()) && !boxes_[from.id].removed &&
      from.index < static_cast<int>(boxes_[from.id].out_arcs.size())) {
    return boxes_[from.id].out_arcs[from.index];
  }
  return {};
}

std::vector<ArcId> AuroraEngine::ArcsInto(PortId output_port) const {
  if (output_port < 0 || output_port >= static_cast<int>(outputs_.size())) {
    return {};
  }
  return outputs_[output_port].in_arcs;
}

Result<const OperatorSpec*> AuroraEngine::BoxSpec(BoxId box) const {
  if (box < 0 || box >= static_cast<int>(boxes_.size()) ||
      boxes_[box].removed) {
    return Status::InvalidArgument("bad box id");
  }
  return &boxes_[box].spec;
}

Result<Operator*> AuroraEngine::BoxOp(BoxId box) {
  if (box < 0 || box >= static_cast<int>(boxes_.size()) ||
      boxes_[box].removed) {
    return Status::InvalidArgument("bad box id");
  }
  return boxes_[box].op.get();
}

std::vector<BoxId> AuroraEngine::BoxIds() const {
  std::vector<BoxId> ids;
  for (size_t i = 0; i < boxes_.size(); ++i) {
    if (!boxes_[i].removed) ids.push_back(static_cast<BoxId>(i));
  }
  return ids;
}

Endpoint AuroraEngine::ArcFrom(ArcId arc) const { return arcs_[arc].from; }
Endpoint AuroraEngine::ArcTo(ArcId arc) const { return arcs_[arc].to; }

size_t AuroraEngine::ArcQueueSize(ArcId arc) const {
  if (arc < 0 || arc >= static_cast<int>(arcs_.size())) return 0;
  return arcs_[arc].queue.size();
}

SeqNo AuroraEngine::ArcQueueMinSeq(ArcId arc) const {
  if (arc < 0 || arc >= static_cast<int>(arcs_.size()) || arcs_[arc].removed) {
    return kNoSeqNo;
  }
  SeqNo min_seq = kNoSeqNo;
  auto consider = [&min_seq](SeqNo s) {
    if (s == kNoSeqNo) return;
    if (min_seq == kNoSeqNo || s < min_seq) min_seq = s;
  };
  for (const auto& t : arcs_[arc].queue.items()) consider(t.seq());
  for (const auto& [t, us] : arcs_[arc].hold) consider(t.seq());
  return min_seq;
}

AuroraEngine::OutputCallback AuroraEngine::GetOutputCallback(
    PortId output) const {
  if (output < 0 || output >= static_cast<int>(outputs_.size())) return nullptr;
  return outputs_[output].callback;
}

size_t AuroraEngine::num_boxes() const {
  size_t n = 0;
  for (const auto& b : boxes_) {
    if (!b.removed) ++n;
  }
  return n;
}

// ---------------------------------------------------------------------------
// QoS
// ---------------------------------------------------------------------------

Status AuroraEngine::SetOutputQoS(PortId output, QoSSpec spec) {
  if (output < 0 || output >= static_cast<int>(outputs_.size())) {
    return Status::InvalidArgument("bad output port");
  }
  qos_.SetSpec(output, std::move(spec));
  return Status::OK();
}

void AuroraEngine::WalkDownstream(const Endpoint& from, double cost_so_far_us,
                                  std::map<PortId, double>* outputs_cost) const {
  for (ArcId arc : ArcsFrom(from)) {
    const ArcRt& a = arcs_[arc];
    if (a.to.kind == Endpoint::Kind::kOutputPort) {
      auto it = outputs_cost->find(a.to.id);
      // Keep the most stringent (largest) accumulated time over paths.
      if (it == outputs_cost->end() || it->second < cost_so_far_us) {
        (*outputs_cost)[a.to.id] = cost_so_far_us;
      }
      continue;
    }
    const BoxRt& box = boxes_[a.to.id];
    double measured_ms = qos_.BoxTbMs(a.to.id);
    double t_b_us = measured_ms > 0.0 ? measured_ms * 1000.0
                                      : box.op->cost_micros_per_tuple();
    for (int k = 0; k < box.op->num_outputs(); ++k) {
      WalkDownstream(Endpoint::BoxPort(a.to.id, k), cost_so_far_us + t_b_us,
                     outputs_cost);
    }
  }
}

Result<QoSSpec> AuroraEngine::InferArcQoS(ArcId arc) const {
  if (arc < 0 || arc >= static_cast<int>(arcs_.size()) || arcs_[arc].removed) {
    return Status::InvalidArgument("bad arc id");
  }
  const ArcRt& a = arcs_[arc];
  std::map<PortId, double> outputs_cost;
  if (a.to.kind == Endpoint::Kind::kOutputPort) {
    outputs_cost[a.to.id] = 0.0;
  } else {
    const BoxRt& box = boxes_[a.to.id];
    double measured_ms = qos_.BoxTbMs(a.to.id);
    double t_b_us = measured_ms > 0.0 ? measured_ms * 1000.0
                                      : box.op->cost_micros_per_tuple();
    for (int k = 0; k < box.op->num_outputs(); ++k) {
      WalkDownstream(Endpoint::BoxPort(a.to.id, k), t_b_us, &outputs_cost);
    }
  }
  std::vector<QoSSpec> candidates;
  for (const auto& [port, cost_us] : outputs_cost) {
    const QoSSpec* spec = qos_.GetSpec(port);
    if (spec == nullptr) continue;
    candidates.push_back(InferThroughBox(*spec, cost_us / 1000.0));
  }
  if (candidates.empty()) {
    return Status::NotFound("no QoS-bearing output reachable from arc");
  }
  if (candidates.size() == 1) return candidates[0];
  return CombineSpecs(candidates);
}

// ---------------------------------------------------------------------------
// Data path
// ---------------------------------------------------------------------------

class AuroraEngine::RoutingEmitter : public Emitter {
 public:
  RoutingEmitter(AuroraEngine* engine, BoxId box, SimTime now,
                 std::vector<BoxId>* touched)
      : engine_(engine), box_(box), now_(now), touched_(touched) {}

  void Emit(int output, Tuple t) override {
    engine_->Route(Endpoint::BoxPort(box_, output), t, now_, touched_);
  }

  /// One routing pass per staged run of same-output emissions. Seq/trace
  /// stamping already happened inside Operator::BatchEmitter, so the chunk
  /// is routed as-is.
  void EmitChunk(int output, Tuple* tuples, size_t n) override {
    if (n == 0) return;
    engine_->RouteChunk(Endpoint::BoxPort(box_, output), tuples, n, now_,
                        touched_);
  }

 private:
  AuroraEngine* engine_;
  BoxId box_;
  SimTime now_;
  std::vector<BoxId>* touched_;
};

void AuroraEngine::Route(const Endpoint& from, const Tuple& t, SimTime now,
                         std::vector<BoxId>* touched) {
  for (ArcId arc : ArcsFrom(from)) {
    ArcRt& a = arcs_[arc];
    if (a.cp) {
      // Subscriber callbacks are application code, free to use Get(name).
      TupleHotPathSection::Exemption allow_get;
      a.cp->Record(t, now);
    }
    if (a.choked) {
      a.hold.emplace_back(t, now.micros());
      continue;
    }
    if (a.to.kind == Endpoint::Kind::kOutputPort) {
      DeliverToOutput(a.to.id, t, now);
    } else {
      ArcEnqueue(a, t, now.micros());
      if (touched != nullptr &&
          std::find(touched->begin(), touched->end(), a.to.id) ==
              touched->end()) {
        touched->push_back(a.to.id);
      }
    }
  }
}

void AuroraEngine::RouteChunk(const Endpoint& from, Tuple* tuples, size_t n,
                              SimTime now, std::vector<BoxId>* touched) {
  m_batch_chunks_->Add();
  m_batch_chunk_tuples_->Add(static_cast<uint64_t>(n));
  std::vector<ArcId> fan = ArcsFrom(from);
  for (size_t a_idx = 0; a_idx < fan.size(); ++a_idx) {
    ArcRt& a = arcs_[fan[a_idx]];
    const bool last_arc = a_idx + 1 == fan.size();
    m_batch_fanout_tuples_->Add(static_cast<uint64_t>(n));
    if (a.cp) {
      // Subscriber callbacks are application code, free to use Get(name).
      TupleHotPathSection::Exemption allow_get;
      for (size_t i = 0; i < n; ++i) a.cp->Record(tuples[i], now);
    }
    if (a.choked) {
      m_batch_chunk_held_->Add(static_cast<uint64_t>(n));
      const int64_t us = now.micros();
      for (size_t i = 0; i < n; ++i) a.hold.emplace_back(tuples[i], us);
      continue;
    }
    if (a.to.kind == Endpoint::Kind::kOutputPort) {
      m_batch_chunk_delivered_->Add(static_cast<uint64_t>(n));
      for (size_t i = 0; i < n; ++i) DeliverToOutput(a.to.id, tuples[i], now);
      continue;
    }
    m_batch_chunk_enqueued_->Add(static_cast<uint64_t>(n));
    ArcEnqueueChunk(a, tuples, n, now.micros(), last_arc);
    if (touched != nullptr &&
        std::find(touched->begin(), touched->end(), a.to.id) ==
            touched->end()) {
      touched->push_back(a.to.id);
    }
  }
}

void AuroraEngine::DeliverToOutput(PortId port, const Tuple& t, SimTime now) {
  double latency_ms = std::max(0.0, (now - t.timestamp()).millis());
  // Record the delivery span *before* telling the QoS monitor, so the
  // attributor's stage breakdown for this very tuple is ready and a QoS
  // violation can name its bottleneck stage.
  Tracer& tracer = Tracer::Global();
  const StageBreakdown* attr = nullptr;
  if (tracer.enabled() && t.trace_id() != 0) {
    tracer.Record({t.trace_id(), SpanKind::kDelivery, trace_node_,
                   "out:" + outputs_[port].name, now.micros(), now.micros()});
    const StageBreakdown* last = tracer.attribution().last_delivery();
    if (last != nullptr && last->trace_id == t.trace_id()) attr = last;
  }
  qos_.RecordDelivery(port, latency_ms, attr, now.micros());
  if (outputs_[port].callback) {
    // Output callbacks are application code, free to use Get(name).
    TupleHotPathSection::Exemption allow_get;
    outputs_[port].callback(t, now);
  }
}

Status AuroraEngine::PushInput(PortId input, Tuple t, SimTime now,
                               bool gate_ingest) {
  if (input < 0 || input >= static_cast<int>(inputs_.size())) {
    return Status::InvalidArgument("bad input port");
  }
  if (t.schema() == nullptr) {
    return Status::InvalidArgument("tuple has no schema");
  }
  if (!t.schema()->Equals(*inputs_[input].schema)) {
    return Status::InvalidArgument("tuple schema " + t.schema()->ToString() +
                                   " does not match input schema " +
                                   inputs_[input].schema->ToString());
  }
  m_tuples_in_->Add();
  if (shedder_.ShouldDrop(input, t, now)) {
    m_tuples_shed_->Add();
    // Remote tuples arrive with lineage already attached; close it out so
    // the attributor stops tracking a tuple that will never deliver.
    Tracer& tracer = Tracer::Global();
    if (tracer.enabled() && t.trace_id() != 0) {
      tracer.Record({t.trace_id(), SpanKind::kShed, trace_node_,
                     "shed:in:" + inputs_[input].name, now.micros(),
                     now.micros()});
    }
    // Attribute the drop to every output downstream of this input so the
    // QoS monitor's delivered-fraction reflects shedding.
    for (const auto& info : shedder_.inputs()) {
      if (info.input != input) continue;
      for (PortId out : info.outputs) qos_.RecordDrop(out);
      break;
    }
    return Status::OK();
  }
  // The gate comes *after* the shedder so its arrival estimator keeps
  // seeing true offered load while the node is back-pressured.
  if (gate_ingest && ingest_blocked_) {
    m_tuples_blocked_->Add();
    for (const auto& info : shedder_.inputs()) {
      if (info.input != input) continue;
      for (PortId out : info.outputs) qos_.RecordDrop(out);
      break;
    }
    return Status::Unavailable("blocked upstream: out of downstream credit");
  }
  if (t.timestamp().micros() == 0) t.set_timestamp(now);
  tuples_ingested_++;
  Tracer& tracer = Tracer::Global();
  if (tracer.enabled()) {
    // Source tuples draw a (sampled) lineage id here; tuples arriving over
    // the wire keep the id their origin node assigned.
    if (t.trace_id() == 0) t.set_trace_id(tracer.NewTrace());
    if (t.trace_id() != 0) {
      tracer.Record({t.trace_id(), SpanKind::kEnqueue, trace_node_,
                     "in:" + inputs_[input].name, now.micros(), now.micros()});
    }
  }
  Route(Endpoint::InputPort(input), t, now, nullptr);
  if (storage_.budget() > 0) storage_.EnforceBudget(AllQueues());
  return Status::OK();
}

Status AuroraEngine::PushInputByName(const std::string& name, Tuple t,
                                     SimTime now) {
  AURORA_ASSIGN_OR_RETURN(PortId port, FindInput(name));
  return PushInput(port, std::move(t), now);
}

void AuroraEngine::SetOutputCallback(PortId output, OutputCallback cb) {
  AURORA_CHECK(output >= 0 && output < static_cast<int>(outputs_.size()));
  outputs_[output].callback = std::move(cb);
}

Status AuroraEngine::EmitToOutputPort(PortId output, const Tuple& t,
                                      SimTime now) {
  if (output < 0 || output >= static_cast<int>(outputs_.size())) {
    return Status::InvalidArgument("bad output port");
  }
  DeliverToOutput(output, t, now);
  return Status::OK();
}

Status AuroraEngine::EnqueueOnArc(ArcId arc, Tuple t, SimTime now) {
  if (arc < 0 || arc >= static_cast<int>(arcs_.size()) || arcs_[arc].removed) {
    return Status::InvalidArgument("bad arc id");
  }
  ArcRt& a = arcs_[arc];
  if (a.to.kind == Endpoint::Kind::kOutputPort) {
    DeliverToOutput(a.to.id, t, now);
    return Status::OK();
  }
  ArcEnqueue(a, std::move(t), now.micros());
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

bool AuroraEngine::BoxReady(const BoxRt& box) const {
  // `queued` counts consumable tuples across this box's in-arcs. A choked
  // arc's queue remains consumable (it drains); only *new* arrivals are
  // held — see ChokeArc — so choking does not affect readiness.
  return !box.removed && box.initialized && box.queued > 0;
}

bool AuroraEngine::HasWork() const { return ready_count_ > 0; }

void AuroraEngine::ArcEnqueue(ArcRt& arc, Tuple t, int64_t enqueue_us) {
  arc.queue.Push(std::move(t));
  arc.enqueue_us.push_back(enqueue_us);
  if (arc.to.kind == Endpoint::Kind::kBox) NoteBoxQueued(arc.to.id, +1);
}

void AuroraEngine::ArcEnqueueChunk(ArcRt& arc, Tuple* tuples, size_t n,
                                   int64_t enqueue_us, bool may_move) {
  for (size_t i = 0; i < n; ++i) {
    if (may_move) {
      arc.queue.Push(std::move(tuples[i]));
    } else {
      Tuple copy = tuples[i];
      arc.queue.Push(std::move(copy));
    }
    arc.enqueue_us.push_back(enqueue_us);
  }
  if (arc.to.kind == Endpoint::Kind::kBox) {
    NoteBoxQueued(arc.to.id, static_cast<int>(n));
  }
}

Tuple AuroraEngine::ArcDequeue(ArcRt& arc) {
  Tuple t = arc.queue.Pop();
  arc.enqueue_us.pop_front();
  if (arc.to.kind == Endpoint::Kind::kBox) NoteBoxQueued(arc.to.id, -1);
  return t;
}

int64_t AuroraEngine::SchedKey(const BoxRt& box) const {
  if (opts_.scheduler == SchedulerPolicy::kLongestQueue) {
    return static_cast<int64_t>(box.queued);
  }
  // kMinOutputDistance: nearer outputs first, so negate.
  return -static_cast<int64_t>(box.distance_to_output);
}

void AuroraEngine::NoteBoxQueued(BoxId box_id, int delta) {
  BoxRt& b = boxes_[box_id];
  bool was_ready = BoxReady(b);
  b.queued = static_cast<size_t>(static_cast<int64_t>(b.queued) + delta);
  bool now_ready = BoxReady(b);
  if (now_ready && !was_ready) ready_count_++;
  if (!now_ready && was_ready) ready_count_--;
  if (!UsesReadyHeap()) return;
  if (opts_.scheduler == SchedulerPolicy::kLongestQueue) {
    // The key *is* the queue length, so every change retires the box's
    // current heap entry and (if still ready) posts a fresh one.
    b.sched_gen++;
    if (now_ready) ready_heap_.push({SchedKey(b), box_id, b.sched_gen});
  } else {
    // kMinOutputDistance: the key is fixed per topology; only readiness
    // transitions touch the heap, so draining a deep backlog is churn-free.
    if (now_ready == was_ready) return;
    b.sched_gen++;
    if (now_ready) ready_heap_.push({SchedKey(b), box_id, b.sched_gen});
  }
}

void AuroraEngine::RebuildScheduler() {
  for (auto& box : boxes_) {
    box.queued = 0;
    box.sched_gen++;
  }
  for (const auto& a : arcs_) {
    if (!a.removed && a.to.kind == Endpoint::Kind::kBox) {
      boxes_[a.to.id].queued += a.queue.size();
    }
  }
  ready_count_ = 0;
  ready_heap_ = {};
  for (size_t i = 0; i < boxes_.size(); ++i) {
    const BoxRt& b = boxes_[i];
    if (!BoxReady(b)) continue;
    ready_count_++;
    if (UsesReadyHeap()) {
      ready_heap_.push({SchedKey(b), static_cast<BoxId>(i), b.sched_gen});
    }
  }
}

void AuroraEngine::RefreshQoSDeadlines() {
  for (size_t i = 0; i < boxes_.size(); ++i) {
    BoxRt& box = boxes_[i];
    if (box.removed || !box.initialized) continue;
    box.deadline_ms = 1e18;
    for (ArcId arc : box.in_arcs) {
      if (arc < 0) continue;
      auto spec = InferArcQoS(arc);
      if (!spec.ok() || spec->latency.empty()) continue;
      box.deadline_ms = std::min(box.deadline_ms, spec->latency.CriticalX(0.5));
    }
  }
}

Result<BoxId> AuroraEngine::PickBox(SimTime now) {
  const size_t n = boxes_.size();
  if (n == 0) return Status::NotFound("no boxes");
  switch (opts_.scheduler) {
    case SchedulerPolicy::kQoSSlack: {
      // Most urgent first: smallest (deadline - age of oldest queued tuple).
      int best = -1;
      double best_slack = 0.0;
      for (size_t i = 0; i < n; ++i) {
        if (!BoxReady(boxes_[i])) continue;
        double oldest_ms = 0.0;
        for (ArcId arc : boxes_[i].in_arcs) {
          if (arc < 0 || arcs_[arc].queue.empty()) continue;
          oldest_ms = std::max(
              oldest_ms,
              (now - arcs_[arc].queue.Front().timestamp()).millis());
        }
        double slack = boxes_[i].deadline_ms - oldest_ms;
        if (best < 0 || slack < best_slack) {
          best = static_cast<int>(i);
          best_slack = slack;
        }
      }
      if (best < 0) return Status::NotFound("no ready box");
      return best;
    }
    case SchedulerPolicy::kRoundRobin:
    case SchedulerPolicy::kTupleAtATime: {
      for (size_t step = 0; step < n; ++step) {
        size_t i = (rr_next_box_ + step) % n;
        if (BoxReady(boxes_[i])) {
          rr_next_box_ = static_cast<int>((i + 1) % n);
          return static_cast<BoxId>(i);
        }
      }
      return Status::NotFound("no ready box");
    }
    case SchedulerPolicy::kLongestQueue:
    case SchedulerPolicy::kMinOutputDistance: {
      // O(log n) pop from the lazily-invalidated ready heap. Deep stale
      // entries only surface (and get discarded) when they reach the top,
      // so cap the garbage with an occasional O(n) rebuild.
      if (ready_heap_.size() > 64 && ready_heap_.size() > 8 * n) {
        RebuildScheduler();
      }
      while (!ready_heap_.empty()) {
        const ReadyEntry top = ready_heap_.top();
        const BoxRt& b = boxes_[top.box];
        if (top.gen != b.sched_gen || !BoxReady(b)) {
          ready_heap_.pop();  // stale: queue state moved on since the push
          continue;
        }
        // Max key first; ties broken toward the smallest box id — both
        // exactly as the old first-best-wins linear scan decided.
        return top.box;
      }
      return Status::NotFound("no ready box");
    }
  }
  return Status::Internal("bad scheduler policy");
}

void AuroraEngine::EnsureBoxProfile(BoxId box_id, BoxRt* box) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  const std::string base = "engine.box.n" + std::to_string(trace_node_) + "." +
                           std::to_string(box_id) + ":" + box->spec.kind + ".";
  box->prof_activations = reg.GetCounter(base + "activations");
  box->prof_tuples = reg.GetCounter(base + "tuples");
  box->prof_self_us = reg.GetCounter(base + "self_us");
}

double AuroraEngine::ActivateBox(BoxId box_id, SimTime now,
                                 std::vector<BoxId>* touched) {
  BoxRt& box = boxes_[box_id];
  if (box.prof_activations == nullptr) EnsureBoxProfile(box_id, &box);
  const int budget = opts_.scheduler == SchedulerPolicy::kTupleAtATime
                         ? 1
                         : opts_.train_size;
  const int n_inputs = box.op->num_inputs();
  double cost_us = 0.0;
  double wait_sum_ms = 0.0;
  int processed = 0;
  RoutingEmitter emitter(this, box_id, now, touched);
  Tracer& tracer = Tracer::Global();
  if (batch_depth_ == batch_pool_.size()) batch_pool_.emplace_back();
  TupleBatch& batch = batch_pool_[batch_depth_++];
  int idle_scans = 0;
  while (processed < budget && idle_scans < n_inputs) {
    const int in = box.rr_next_input % n_inputs;
    box.rr_next_input = (box.rr_next_input + 1) % n_inputs;
    ArcId arc = box.in_arcs[in];
    if (arc < 0 || arcs_[arc].queue.empty()) {
      idle_scans++;
      continue;
    }
    idle_scans = 0;
    ArcRt& a = arcs_[arc];
    // A single-input box takes the rest of its budget as one batch; a
    // multi-input box one tuple per input turn, keeping its round-robin
    // merge order.
    const int want = n_inputs == 1 ? budget - processed : 1;
    batch.Clear();
    // Consecutive equal wait samples are collapsed into one RecordN call,
    // which is bit-identical to the per-tuple Record sequence.
    double run_wait_ms = 0.0;
    uint64_t run_wait_n = 0;
    const bool tracing = tracer.enabled();
    while (static_cast<int>(batch.size()) < want && !a.queue.empty()) {
      uint64_t reads_before = a.queue.unspill_reads();
      int64_t enq_us = a.enqueue_us.front();
      Tuple t = a.queue.Pop();
      a.enqueue_us.pop_front();
      double wait_ms = static_cast<double>(now.micros() - enq_us) / 1000.0;
      wait_sum_ms += wait_ms;
      if (run_wait_n > 0 && wait_ms != run_wait_ms) {
        m_queue_wait_ms_->RecordN(run_wait_ms, run_wait_n);
        run_wait_n = 0;
      }
      run_wait_ms = wait_ms;
      run_wait_n++;
      double tuple_cost_us = box.op->cost_micros_per_tuple();
      tuple_cost_us += static_cast<double>(a.queue.unspill_reads() -
                                           reads_before) *
                       opts_.spill_read_cost_us;
      cost_us += tuple_cost_us;
      if (tracing && t.trace_id() != 0) {
        tracer.Record({t.trace_id(), SpanKind::kBoxExec, trace_node_,
                       "box:" + box.spec.kind, now.micros(),
                       now.micros() + static_cast<int64_t>(tuple_cost_us)});
      }
      batch.Push(std::move(t), now);
    }
    if (run_wait_n > 0) m_queue_wait_ms_->RecordN(run_wait_ms, run_wait_n);
    const int got = static_cast<int>(batch.size());
    // One scheduler update for the whole dequeue run.
    NoteBoxQueued(box_id, -got);
    Status st;
    {
      // Per-tuple operator work must use bound field indices, not
      // Get(name); see TupleHotPathSection.
      TupleHotPathSection hot_path;
      st = box.op->ProcessBatch(in, batch, &emitter);
    }
    if (!st.ok() && deferred_error_.ok()) deferred_error_ = st;
    processed += got;
  }
  batch.Clear();
  --batch_depth_;
  if (processed > 0) {
    double t_b_ms = wait_sum_ms / processed +
                    (cost_us / processed) / 1000.0;
    qos_.RecordBoxWork(box_id, t_b_ms, processed);
    total_activations_++;
    m_activations_->Add();
    m_box_exec_us_->Record(cost_us);
    box.prof_activations->Add();
    box.prof_tuples->Add(static_cast<uint64_t>(processed));
    box.prof_self_us->Add(static_cast<uint64_t>(cost_us));
  }
  return cost_us;
}

Result<double> AuroraEngine::RunOneStep(SimTime now) {
  if (!deferred_error_.ok()) {
    Status err = deferred_error_;
    deferred_error_ = Status::OK();
    return err;
  }
  auto pick = PickBox(now);
  if (!pick.ok()) return 0.0;
  m_sched_decisions_->Add();
  std::vector<BoxId> touched;
  double cost_us = ActivateBox(*pick, now, &touched);
  // Push the train toward the output (train_depth > 1): activate the boxes
  // that just received tuples, layer by layer.
  for (int depth = 1; depth < opts_.train_depth && !touched.empty(); ++depth) {
    std::vector<BoxId> next;
    for (BoxId b : touched) {
      if (BoxReady(boxes_[b])) cost_us += ActivateBox(b, now, &next);
    }
    touched = std::move(next);
  }
  if (storage_.budget() > 0) storage_.EnforceBudget(AllQueues());
  total_cpu_micros_ += cost_us;
  m_queue_depth_->Set(static_cast<double>(TotalQueuedTuples()));
  if (!deferred_error_.ok()) {
    Status err = deferred_error_;
    deferred_error_ = Status::OK();
    return err;
  }
  return cost_us;
}

Status AuroraEngine::RunUntilQuiescent(SimTime now, int max_steps) {
  for (int i = 0; i < max_steps; ++i) {
    if (!HasWork()) return Status::OK();
    auto cost = RunOneStep(now);
    AURORA_RETURN_NOT_OK(cost.status());
  }
  return Status::ResourceExhausted("network did not quiesce within step limit");
}

void AuroraEngine::Tick(SimTime now) {
  for (size_t i = 0; i < boxes_.size(); ++i) {
    BoxRt& box = boxes_[i];
    if (box.removed || !box.initialized) continue;
    RoutingEmitter emitter(this, static_cast<BoxId>(i), now, nullptr);
    box.op->OnTick(now, &emitter);
  }
  // The tiered store's dropper (group fsync, segment seal, compaction) runs
  // on the same deterministic tick cadence as the operators.
  if (durable_store_ != nullptr) durable_store_->Tick(now);
}

Status AuroraEngine::DrainBoxState(BoxId box, SimTime now) {
  if (box < 0 || box >= static_cast<int>(boxes_.size()) ||
      boxes_[box].removed) {
    return Status::InvalidArgument("bad box id");
  }
  RoutingEmitter emitter(this, box, now, nullptr);
  boxes_[box].op->Drain(&emitter);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Support
// ---------------------------------------------------------------------------

void AuroraEngine::RecomputeOutputDistances() {
  // Reverse BFS from output ports.
  for (auto& box : boxes_) box.distance_to_output = 1 << 20;
  std::deque<std::pair<BoxId, int>> frontier;
  for (const auto& out : outputs_) {
    for (ArcId arc : out.in_arcs) {
      const ArcRt& a = arcs_[arc];
      if (a.removed) continue;
      if (a.from.kind == Endpoint::Kind::kBox) {
        frontier.emplace_back(a.from.id, 0);
      }
    }
  }
  while (!frontier.empty()) {
    auto [box_id, dist] = frontier.front();
    frontier.pop_front();
    BoxRt& box = boxes_[box_id];
    if (box.removed || box.distance_to_output <= dist) continue;
    box.distance_to_output = dist;
    for (ArcId arc : box.in_arcs) {
      if (arc < 0) continue;
      const ArcRt& a = arcs_[arc];
      if (a.from.kind == Endpoint::Kind::kBox) {
        frontier.emplace_back(a.from.id, dist + 1);
      }
    }
  }
  // Distances feed kMinOutputDistance's scheduler keys, and every caller is
  // a topology change (connect, disconnect, box init) that can also flip
  // readiness — reseed the ready-queue accounting in one place.
  RebuildScheduler();
}

std::vector<SpillableQueue> AuroraEngine::AllQueues() {
  std::vector<SpillableQueue> queues;
  queues.reserve(arcs_.size());
  for (size_t i = 0; i < arcs_.size(); ++i) {
    ArcRt& a = arcs_[i];
    if (!a.removed && a.to.kind == Endpoint::Kind::kBox) {
      queues.push_back(SpillableQueue{&a.queue, static_cast<int>(i)});
    }
  }
  return queues;
}

size_t AuroraEngine::TotalQueuedTuples() const {
  size_t total = 0;
  for (const auto& a : arcs_) {
    if (!a.removed) total += a.queue.size();
  }
  return total;
}

void AuroraEngine::SetIngestBlocked(bool blocked) {
  ingest_blocked_ = blocked;
  m_ingest_blocked_->Set(blocked ? 1.0 : 0.0);
}

size_t AuroraEngine::InputBacklogBytes(PortId input) const {
  if (input < 0 || input >= static_cast<int>(inputs_.size())) return 0;
  size_t bytes = 0;
  for (ArcId arc : inputs_[input].out_arcs) {
    const ArcRt& a = arcs_[arc];
    if (a.removed) continue;
    bytes += a.queue.bytes();
    for (const auto& [t, us] : a.hold) bytes += t.WireSize();
  }
  return bytes;
}

void AuroraEngine::RebuildShedderModel() {
  // Expected downstream CPU cost of one tuple entering `endpoint`, using
  // measured selectivities where available.
  std::function<double(const Endpoint&)> cost_from =
      [&](const Endpoint& from) -> double {
    double total = 0.0;
    for (ArcId arc : ArcsFrom(from)) {
      const ArcRt& a = arcs_[arc];
      if (a.to.kind != Endpoint::Kind::kBox) continue;
      const BoxRt& box = boxes_[a.to.id];
      if (!box.initialized) continue;
      double c = box.op->cost_micros_per_tuple();
      double sel = box.op->selectivity();
      double downstream = 0.0;
      for (int k = 0; k < box.op->num_outputs(); ++k) {
        downstream += cost_from(Endpoint::BoxPort(a.to.id, k));
      }
      total += c + sel * downstream;
    }
    return total;
  };

  std::vector<LoadShedder::InputInfo> infos;
  for (size_t i = 0; i < inputs_.size(); ++i) {
    LoadShedder::InputInfo info;
    info.input = static_cast<PortId>(i);
    info.downstream_cost_us =
        std::max(0.1, cost_from(Endpoint::InputPort(static_cast<int>(i))));
    std::map<PortId, double> outputs_cost;
    WalkDownstream(Endpoint::InputPort(static_cast<int>(i)), 0.0,
                   &outputs_cost);
    double slope = 0.0;
    for (const auto& [port, cost] : outputs_cost) {
      info.outputs.push_back(port);
      const QoSSpec* spec = qos_.GetSpec(port);
      if (spec != nullptr && !spec->loss.empty()) {
        slope += (spec->loss.Eval(1.0) - spec->loss.Eval(0.5)) / 0.5;
      } else {
        slope += 1.0;
      }
      // Semantic shedding uses the first downstream value-based graph
      // whose attribute exists on this input's schema.
      if (spec != nullptr && !spec->value.empty() &&
          info.value_graph.empty() &&
          inputs_[i].schema->HasField(spec->value_field)) {
        info.value_field = spec->value_field;
        info.value_graph = spec->value;
        // Resolve the field index once here so the per-tuple shedding
        // decision is an array access, not a field-name scan.
        auto idx = inputs_[i].schema->IndexOf(spec->value_field);
        if (idx.ok()) info.value_index = static_cast<int>(*idx);
      }
    }
    info.utility_slope = std::max(1e-6, slope);
    infos.push_back(std::move(info));
  }
  shedder_.SetInputs(std::move(infos));
}

}  // namespace aurora
