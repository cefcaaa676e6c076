#include "engine/threaded_engine.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/logging.h"

namespace aurora {

// ---------------------------------------------------------------------------
// Construction / topology
// ---------------------------------------------------------------------------

ThreadedEngine::ThreadedEngine(ThreadedEngineOptions opts) : opts_(opts) {
  if (opts_.workers < 1) opts_.workers = 1;
  if (opts_.train_size < 1) opts_.train_size = 1;
  if (opts_.ring_capacity < 2) opts_.ring_capacity = 2;
  MetricsRegistry& reg = MetricsRegistry::Global();
  m_tuples_in_ = reg.GetCounter("engine.threaded.tuples_in");
  m_delivered_ = reg.GetCounter("engine.threaded.delivered");
  m_activations_ = reg.GetCounter("engine.threaded.activations");
  m_ring_full_ = reg.GetCounter("engine.threaded.ring_full_events");
  m_workers_ = reg.GetGauge("engine.threaded.workers");
  m_steals_ = reg.GetGauge("engine.threaded.steals");
  m_batch_chunks_ = reg.GetCounter("engine.threaded.batch.emitted_chunks");
  m_batch_chunk_tuples_ =
      reg.GetCounter("engine.threaded.batch.emitted_tuples");
  m_multipush_publishes_ =
      reg.GetCounter("engine.threaded.batch.multipush_publishes");
}

ThreadedEngine::~ThreadedEngine() {
  if (running()) (void)Stop();
}

Result<PortId> ThreadedEngine::AddInput(const std::string& name,
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

Result<PortId> ThreadedEngine::AddOutput(const std::string& name) {
  for (const auto& out : outputs_) {
    if (out.name == name) {
      return Status::AlreadyExists("output '" + name + "' already exists");
    }
  }
  outputs_.emplace_back(name);
  return static_cast<PortId>(outputs_.size() - 1);
}

Result<BoxId> ThreadedEngine::AddBox(const OperatorSpec& spec) {
  AURORA_ASSIGN_OR_RETURN(OperatorPtr op, CreateOperator(spec));
  boxes_.emplace_back();
  BoxRt& box = boxes_.back();
  box.spec = spec;
  box.in_arcs.assign(static_cast<size_t>(op->num_inputs()), -1);
  box.out_arcs.assign(static_cast<size_t>(op->num_outputs()), {});
  box.op = std::move(op);
  return static_cast<BoxId>(boxes_.size() - 1);
}

Result<ArcId> ThreadedEngine::Connect(Endpoint from, Endpoint to) {
  AURORA_CHECK(!running()) << "Connect after Start";
  switch (from.kind) {
    case Endpoint::Kind::kInputPort:
      if (from.id < 0 || from.id >= static_cast<int>(inputs_.size())) {
        return Status::InvalidArgument("bad input port " + from.ToString());
      }
      break;
    case Endpoint::Kind::kBox: {
      if (from.id < 0 || from.id >= static_cast<int>(boxes_.size())) {
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
      if (to.id < 0 || to.id >= static_cast<int>(boxes_.size())) {
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

  ArcId id = static_cast<ArcId>(arcs_.size());
  arcs_.emplace_back();
  arcs_[id].from = from;
  arcs_[id].to = to;
  if (from.kind == Endpoint::Kind::kInputPort) {
    inputs_[from.id].out_arcs.push_back(id);
  } else {
    boxes_[from.id].out_arcs[from.index].push_back(id);
  }
  if (to.kind == Endpoint::Kind::kBox) {
    boxes_[to.id].in_arcs[to.index] = id;
  }
  return id;
}

Result<SchemaPtr> ThreadedEngine::EndpointOutputSchema(
    const Endpoint& e) const {
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

bool ThreadedEngine::IsBoxInitialized(BoxId box) const {
  if (box < 0 || box >= static_cast<int>(boxes_.size())) return false;
  return boxes_[box].initialized;
}

Status ThreadedEngine::InitializeBoxes(bool require_all) {
  // Fixed-point pass, as AuroraEngine::InitializeBoxes: initialize every
  // box whose input schemas are available; loop-free networks terminate.
  bool progress = true;
  while (progress) {
    progress = false;
    for (size_t i = 0; i < boxes_.size(); ++i) {
      BoxRt& box = boxes_[i];
      if (box.initialized) continue;
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
      if (!boxes_[i].initialized) {
        return Status::FailedPrecondition(
            "box " + std::to_string(i) + " (" + boxes_[i].spec.kind +
            ") could not be initialized (unconnected input or cycle)");
      }
    }
  }
  return Status::OK();
}

Result<PortId> ThreadedEngine::FindInput(const std::string& name) const {
  for (size_t i = 0; i < inputs_.size(); ++i) {
    if (inputs_[i].name == name) return static_cast<PortId>(i);
  }
  return Status::NotFound("no input '" + name + "'");
}

Result<PortId> ThreadedEngine::FindOutput(const std::string& name) const {
  for (size_t i = 0; i < outputs_.size(); ++i) {
    if (outputs_[i].name == name) return static_cast<PortId>(i);
  }
  return Status::NotFound("no output '" + name + "'");
}

void ThreadedEngine::SetOutputCallback(PortId output, OutputCallback cb) {
  AURORA_CHECK(output >= 0 && output < static_cast<int>(outputs_.size()));
  outputs_[output].callback = std::move(cb);
}

// ---------------------------------------------------------------------------
// Partitioning
// ---------------------------------------------------------------------------

namespace {
int FindRoot(std::vector<int>& parent, int x) {
  while (parent[x] != x) {
    parent[x] = parent[parent[x]];
    x = parent[x];
  }
  return x;
}
}  // namespace

void ThreadedEngine::PartitionBoxes() {
  // Weakly-connected components over box->box arcs. Boxes that only share
  // an input port are independent flows and may land on different workers.
  int n = static_cast<int>(boxes_.size());
  std::vector<int> parent(n);
  for (int i = 0; i < n; ++i) parent[i] = i;
  for (const ArcRt& arc : arcs_) {
    if (arc.from.is_box() && arc.to.is_box()) {
      int a = FindRoot(parent, arc.from.id);
      int b = FindRoot(parent, arc.to.id);
      if (a != b) parent[std::max(a, b)] = std::min(a, b);
    }
  }
  struct Component {
    int root = -1;
    double cost = 0.0;
    std::vector<int> members;
  };
  std::vector<Component> comps;
  std::vector<int> comp_of(n, -1);
  for (int i = 0; i < n; ++i) {
    int root = FindRoot(parent, i);
    if (comp_of[root] < 0) {
      comp_of[root] = static_cast<int>(comps.size());
      Component c;
      c.root = root;
      comps.push_back(std::move(c));
    }
    Component& c = comps[comp_of[root]];
    c.members.push_back(i);
    c.cost += boxes_[i].op->cost_micros_per_tuple();
  }
  // Greedy LPT: heaviest component to the least-loaded worker; determinism
  // via (cost desc, root asc) ordering and lowest-index tie-break.
  std::sort(comps.begin(), comps.end(), [](const Component& a,
                                           const Component& b) {
    if (a.cost != b.cost) return a.cost > b.cost;
    return a.root < b.root;
  });
  std::vector<double> load(static_cast<size_t>(opts_.workers), 0.0);
  for (const Component& c : comps) {
    int target = 0;
    for (int w = 1; w < opts_.workers; ++w) {
      if (load[w] < load[target]) target = w;
    }
    load[target] += c.cost;
    for (int member : c.members) boxes_[member].partition = target;
  }
}

void ThreadedEngine::ComputePriorities() {
  // Reverse BFS from output-port arcs: boxes closer to an output run first
  // (the kMinOutputDistance discipline), which drains rings instead of
  // growing them.
  constexpr int kFar = 1 << 20;
  std::vector<int> dist(boxes_.size(), kFar);
  std::vector<BoxId> frontier;
  for (const ArcRt& arc : arcs_) {
    if (arc.to.kind == Endpoint::Kind::kOutputPort && arc.from.is_box()) {
      if (dist[arc.from.id] > 1) {
        dist[arc.from.id] = 1;
        frontier.push_back(arc.from.id);
      }
    }
  }
  while (!frontier.empty()) {
    std::vector<BoxId> next;
    for (BoxId b : frontier) {
      for (ArcId in : boxes_[b].in_arcs) {
        if (in < 0 || !arcs_[in].from.is_box()) continue;
        BoxId up = arcs_[in].from.id;
        if (dist[up] > dist[b] + 1) {
          dist[up] = dist[b] + 1;
          next.push_back(up);
        }
      }
    }
    frontier = std::move(next);
  }
  for (size_t i = 0; i < boxes_.size(); ++i) {
    boxes_[i].priority = -static_cast<int64_t>(dist[i]);
  }
}

// ---------------------------------------------------------------------------
// Start / Stop
// ---------------------------------------------------------------------------

Status ThreadedEngine::Start() {
  if (running()) return Status::FailedPrecondition("engine already running");
  AURORA_RETURN_NOT_OK(InitializeBoxes());
  for (ArcRt& arc : arcs_) {
    if (arc.to.is_box() && arc.ring == nullptr) {
      arc.ring = std::make_unique<BoundedRing<Tuple>>(opts_.ring_capacity);
    }
  }
  PartitionBoxes();
  ComputePriorities();
  {
    std::lock_guard<std::mutex> lock(error_mu_);
    deferred_error_ = Status::OK();
  }
  m_workers_->Set(static_cast<double>(opts_.workers));
  pool_ = std::make_unique<WorkerPool>(opts_.workers);
  pool_->Start([this](int box, int worker) { RunReadyItem(box, worker); });
  return Status::OK();
}

Status ThreadedEngine::Stop() {
  if (!running()) return Status::FailedPrecondition("engine not running");
  WaitQuiescent();
  m_steals_->Set(static_cast<double>(pool_->steals()));
  pool_->Stop();
  pool_.reset();
  std::lock_guard<std::mutex> lock(error_mu_);
  Status err = deferred_error_;
  deferred_error_ = Status::OK();
  return err;
}

void ThreadedEngine::WaitQuiescent() {
  if (!running()) return;
  while (work_items_.load(std::memory_order_acquire) != 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
#ifndef NDEBUG
  for (const ArcRt& arc : arcs_) {
    if (arc.ring != nullptr) {
      AURORA_DCHECK(arc.ring->EmptyApprox())
          << "quiescent with tuples on arc " << arc.from.ToString() << "->"
          << arc.to.ToString();
    }
  }
#endif
}

void ThreadedEngine::DeferError(const Status& s) {
  std::lock_guard<std::mutex> lock(error_mu_);
  if (deferred_error_.ok()) deferred_error_ = s;
}

// ---------------------------------------------------------------------------
// Ready protocol
// ---------------------------------------------------------------------------

void ThreadedEngine::NotifyReady(BoxId box, int worker) {
  (void)worker;
  BoxRt& b = boxes_[box];
  // Store-buffer race with PostRun: we published to a ring (tail store)
  // and now read the state; the consumer wrote the state (Queued->Running)
  // and later reads the tail. Without a full fence on both sides each can
  // miss the other's write — we see a stale kQueued and return, it sees an
  // empty ring and goes Idle — stranding the tuple. Pairs with PostRun.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  uint32_t state = b.state.load(std::memory_order_relaxed);
  for (;;) {
    switch (state) {
      case kIdle:
        // acq_rel: acquire pairs with the releasing transition of the
        // previous holder (PostRun's CAS to Idle), which is the handoff
        // edge box-exclusive structures (rings, rr cursor, op state) ride.
        if (b.state.compare_exchange_weak(state, kQueued,
                                          std::memory_order_acq_rel)) {
          work_items_.fetch_add(1, std::memory_order_acq_rel);
          pool_->Submit(box, b.priority, b.partition);
          return;
        }
        break;  // state reloaded; retry
      case kQueued:
        return;  // already pending; the queued claim will see our tuple
      case kRunning:
        if (b.state.compare_exchange_weak(state, kRunningNotified,
                                          std::memory_order_acq_rel)) {
          return;  // runner must re-check before going idle
        }
        break;
      case kRunningNotified:
        return;
      default:
        AURORA_CHECK(false) << "bad box state " << state;
    }
  }
}

bool ThreadedEngine::TryClaimForHelp(BoxId box) {
  BoxRt& b = boxes_[box];
  uint32_t state = b.state.load(std::memory_order_relaxed);
  for (;;) {
    if (state == kIdle) {
      if (b.state.compare_exchange_weak(state, kRunning,
                                        std::memory_order_acq_rel)) {
        work_items_.fetch_add(1, std::memory_order_acq_rel);
        return true;
      }
    } else if (state == kQueued) {
      // Take over the queued claim; the stale ready-queue entry will fail
      // its own CAS and be skipped.
      if (b.state.compare_exchange_weak(state, kRunning,
                                        std::memory_order_acq_rel)) {
        return true;
      }
    } else {
      return false;  // running elsewhere; let it drain
    }
  }
}

void ThreadedEngine::RunReadyItem(int box, int worker) {
  BoxRt& b = boxes_[box];
  uint32_t expected = kQueued;
  // A stale entry (its claim was taken over by a helper, or an earlier
  // duplicate) fails here and is dropped — same lazy invalidation as the
  // single-threaded ready heap.
  if (!b.state.compare_exchange_strong(expected, kRunning,
                                       std::memory_order_acq_rel)) {
    return;
  }
  RunBoxActivation(box, worker);
  PostRun(box, worker);
}

/// Routes operator emissions: box-to-box arcs through rings, output-port
/// arcs to the (mutex-serialized) delivery callback.
class ThreadedEngine::RoutingEmitter : public Emitter {
 public:
  RoutingEmitter(ThreadedEngine* engine, BoxId box, int worker)
      : engine_(engine), box_(box), worker_(worker) {}

  /// ProcessBatch stages every emission and flushes through EmitChunk, so
  /// a lone Emit is just a one-tuple chunk.
  void Emit(int output, Tuple t) override { EmitChunk(output, &t, 1); }

  /// Each box-bound branch takes the whole span through the ring's
  /// multi-push (one release store per published run); output branches stay
  /// per-tuple (the callback contract is per tuple). Per-arc FIFO is
  /// unchanged — the span is already in emission order and each arc
  /// receives it in order.
  void EmitChunk(int output, Tuple* tuples, size_t n) override {
    if (n == 0) return;
    BoxRt& b = engine_->boxes_[box_];
    AURORA_CHECK(output >= 0 && output < static_cast<int>(b.out_arcs.size()))
        << "emit on unknown box output " << output;
    const std::vector<ArcId>& fan = b.out_arcs[output];
    if (fan.empty()) return;
    engine_->m_batch_chunks_->Add();
    engine_->m_batch_chunk_tuples_->Add(static_cast<uint64_t>(n));
    for (size_t a = 0; a < fan.size(); ++a) {
      const ArcRt& arc = engine_->arcs_[fan[a]];
      const bool last = a + 1 == fan.size();
      if (arc.to.is_box()) {
        if (last) {
          engine_->EnqueueArcChunk(fan[a], tuples, n, worker_);
        } else {
          // COW handle copies for every branch but the last.
          branch_scratch_.assign(tuples, tuples + n);
          engine_->EnqueueArcChunk(fan[a], branch_scratch_.data(), n,
                                   worker_);
        }
      } else {
        for (size_t i = 0; i < n; ++i) {
          engine_->DeliverToOutput(arc.to.id, tuples[i], worker_);
        }
      }
    }
  }

 private:
  ThreadedEngine* engine_;
  BoxId box_;
  int worker_;
  std::vector<Tuple> branch_scratch_;
};

void ThreadedEngine::RunBoxActivation(BoxId box, int worker) {
  BoxRt& b = boxes_[box];
  activations_.fetch_add(1, std::memory_order_relaxed);
  m_activations_->Add();
  int budget = opts_.train_size;
  int num_inputs = static_cast<int>(b.in_arcs.size());
  if (num_inputs == 0) return;
  TupleBatch& batch = b.batch;
  int idle_scans = 0;
  uint64_t processed = 0;
  while (budget > 0 && idle_scans < num_inputs) {
    int input = b.rr_next_input;
    b.rr_next_input = (b.rr_next_input + 1) % num_inputs;
    ArcId arc = b.in_arcs[input];
    if (arc < 0 || arcs_[arc].ring == nullptr) {
      idle_scans++;
      continue;
    }
    // A single-input box takes the rest of its budget as one batch; a
    // multi-input box one tuple per input turn, keeping its round-robin
    // merge order.
    const int want = num_inputs == 1 ? budget : 1;
    BoundedRing<Tuple>* ring = arcs_[arc].ring.get();
    batch.Clear();
    Tuple t;
    while (static_cast<int>(batch.size()) < want && ring->TryPop(&t)) {
      // Operators see `now` = the tuple's own timestamp (threaded mode has
      // no global clock; docs/THREADING.md).
      SimTime ts = t.timestamp();
      batch.Push(std::move(t), ts);
    }
    if (batch.empty()) {
      idle_scans++;
      continue;
    }
    idle_scans = 0;
    budget -= static_cast<int>(batch.size());
    processed += batch.size();
    Status st;
    {
      TupleHotPathSection hot_path;
      RoutingEmitter emitter(this, box, worker);
      st = b.op->ProcessBatch(input, batch, &emitter);
    }
    if (!st.ok()) DeferError(st);
  }
  batch.Clear();
  if (processed > 0) {
    tuples_processed_.fetch_add(processed, std::memory_order_relaxed);
  }
}

void ThreadedEngine::PostRun(BoxId box, int worker) {
  BoxRt& b = boxes_[box];
  // Orders our claim (the transition to Running) before the ring reads in
  // AnyInputPending; pairs with the fence in NotifyReady.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  for (;;) {
    uint32_t state = b.state.load(std::memory_order_acquire);
    if (state == kRunningNotified || AnyInputPending(b)) {
      // Unconditional store is safe: only the claim holder may write
      // Queued/Idle, and a racing producer CAS (Running->RunningNotified)
      // either lands before (we overwrite, but we are re-queuing anyway) or
      // fails against our store and re-reads Queued.
      b.state.store(kQueued, std::memory_order_release);
      // Re-queue where it just ran (warm caches); external pushers (-1)
      // fall back to the partition owner.
      pool_->Submit(box, b.priority, worker >= 0 ? worker : b.partition);
      return;
    }
    if (b.state.compare_exchange_strong(state, kIdle,
                                        std::memory_order_acq_rel)) {
      work_items_.fetch_sub(1, std::memory_order_acq_rel);
      return;
    }
    // Notified between the load and the CAS; loop and re-queue.
  }
}

bool ThreadedEngine::AnyInputPending(const BoxRt& box) const {
  for (ArcId arc : box.in_arcs) {
    if (arc >= 0 && arcs_[arc].ring != nullptr &&
        !arcs_[arc].ring->EmptyApprox()) {
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Data movement
// ---------------------------------------------------------------------------

void ThreadedEngine::EnqueueArc(ArcId arc_id, Tuple t, int worker) {
  ArcRt& arc = arcs_[arc_id];
  BoxId dest = arc.to.id;
  while (!arc.ring->TryPush(t)) {
    // Help on full: run the consumer inline until room opens. The network
    // is acyclic, so the helping chain is bounded by its depth; if the
    // consumer is running on another worker, give it time to drain.
    ring_full_events_.fetch_add(1, std::memory_order_relaxed);
    m_ring_full_->Add();
    if (TryClaimForHelp(dest)) {
      RunBoxActivation(dest, worker);
      PostRun(dest, worker);
    } else {
      std::this_thread::yield();
    }
  }
  NotifyReady(dest, worker);
}

void ThreadedEngine::EnqueueArcChunk(ArcId arc_id, Tuple* tuples, size_t n,
                                     int worker) {
  ArcRt& arc = arcs_[arc_id];
  BoxId dest = arc.to.id;
  size_t pushed = 0;
  while (pushed < n) {
    size_t k = arc.ring->TryPushN(tuples + pushed, n - pushed);
    if (k > 0) {
      m_multipush_publishes_->Add();
      pushed += k;
      // Notify after every published run, not just the last: if the ring
      // filled mid-chunk the producer is about to help or yield, and the
      // consumer must already be queued for the tuples just published.
      NotifyReady(dest, worker);
      if (pushed == n) return;
    }
    // Ring full mid-chunk: same help-on-full discipline as EnqueueArc,
    // at chunk granularity. A chunk larger than the ring's capacity makes
    // progress one capacity-sized run at a time.
    ring_full_events_.fetch_add(1, std::memory_order_relaxed);
    m_ring_full_->Add();
    if (TryClaimForHelp(dest)) {
      RunBoxActivation(dest, worker);
      PostRun(dest, worker);
    } else {
      std::this_thread::yield();
    }
  }
}

void ThreadedEngine::DeliverToOutput(PortId output, const Tuple& t,
                                     int worker) {
  (void)worker;
  OutputPort& port = outputs_[output];
  port.delivered.fetch_add(1, std::memory_order_relaxed);
  m_delivered_->Add();
  if (!port.callback) return;
  std::lock_guard<std::mutex> lock(*port.mu);
  // Callbacks are application code: suspend the hot-path guard as the
  // single-threaded engine does.
  TupleHotPathSection::Exemption exemption;
  port.callback(t, t.timestamp());
}

Status ThreadedEngine::PushInput(PortId input, Tuple t, SimTime now) {
  if (!running()) return Status::FailedPrecondition("engine not running");
  if (input < 0 || input >= static_cast<int>(inputs_.size())) {
    return Status::InvalidArgument("bad input port");
  }
  InputPort& port = inputs_[input];
  if (t.schema() == nullptr) {
    return Status::InvalidArgument("tuple has no schema");
  }
  if (!t.schema()->Equals(*port.schema)) {
    return Status::InvalidArgument("tuple schema " + t.schema()->ToString() +
                                   " does not match input schema " +
                                   port.schema->ToString());
  }
  if (t.timestamp().micros() == 0) t.set_timestamp(now);
  tuples_in_.fetch_add(1, std::memory_order_relaxed);
  m_tuples_in_->Add();
  const std::vector<ArcId>& fan = port.out_arcs;
  for (size_t i = 0; i < fan.size(); ++i) {
    Tuple branch = (i + 1 == fan.size()) ? std::move(t) : t;
    // Input ports feed boxes only (Connect rejects input->output arcs), so
    // every fan-out branch goes through a ring.
    EnqueueArc(fan[i], std::move(branch), /*worker=*/-1);
  }
  return Status::OK();
}

Status ThreadedEngine::PushInputByName(const std::string& input, Tuple t,
                                       SimTime now) {
  AURORA_ASSIGN_OR_RETURN(PortId port, FindInput(input));
  return PushInput(port, std::move(t), now);
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

int ThreadedEngine::partition_of(BoxId box) const {
  AURORA_CHECK(box >= 0 && box < static_cast<int>(boxes_.size()));
  return boxes_[box].partition;
}

uint64_t ThreadedEngine::delivered(PortId output) const {
  AURORA_CHECK(output >= 0 && output < static_cast<int>(outputs_.size()));
  return outputs_[output].delivered.load(std::memory_order_relaxed);
}

}  // namespace aurora
