#include "distributed/stream_node.h"

#include <algorithm>
#include <cstdint>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tuple/serde.h"

namespace aurora {

namespace {
constexpr double kUtilizationWindowS = 0.25;

/// A restored halog record must decode to a tuple of the log's schema:
/// replaying one of another shape would hand operators values they cannot
/// read.
Status ConformsToSchema(const Tuple& t, const SchemaPtr& schema) {
  if (schema == nullptr) return Status::OK();
  if (t.num_values() != schema->num_fields()) {
    return Status::InvalidArgument(
        "record has " + std::to_string(t.num_values()) + " values, schema " +
        std::to_string(schema->num_fields()) + " fields");
  }
  for (size_t i = 0; i < t.num_values(); ++i) {
    const Value& v = t.value(i);
    if (!v.is_null() && v.type() != schema->field(i).type) {
      return Status::InvalidArgument("record value " + std::to_string(i) +
                                     " does not match field '" +
                                     schema->field(i).name + "'");
    }
  }
  return Status::OK();
}
}  // namespace

// ---- OutputLog ---------------------------------------------------------------

void OutputLog::Append(const Tuple& t, SeqNo lineage) {
  if (t.schema() != nullptr && t.schema() != schema_) schema_ = t.schema();
  Encoder enc(std::move(scratch_));
  enc.PutTuple(t);
  enc.PutU64(lineage);
  AppendRecord(t.seq(), lineage, enc.buffer());
  scratch_ = enc.TakeBuffer();
}

void OutputLog::AppendRecord(SeqNo seq, SeqNo lineage,
                             std::span<const uint8_t> record) {
  if (chunks_.empty() ||
      chunks_.back().size() + record.size() > chunks_.back().capacity()) {
    // Allocated on first use: binding a stream reserves nothing.
    if (!chunks_.empty() && chunks_.back().empty()) {
      chunks_.back().reserve(std::max(kChunkBytes, record.size()));
    } else {
      chunks_.emplace_back().reserve(std::max(kChunkBytes, record.size()));
    }
  }
  std::vector<uint8_t>& chunk = chunks_.back();
  entries_.push_back(Entry{
      seq, lineage,
      first_chunk_ + static_cast<uint32_t>(chunks_.size() - 1),
      static_cast<uint32_t>(chunk.size())});
  chunk.insert(chunk.end(), record.begin(), record.end());
}

std::span<const uint8_t> OutputLog::Record(size_t i) const {
  const Entry& e = entries_[i];
  const std::vector<uint8_t>& chunk = chunks_[e.chunk - first_chunk_];
  const size_t end = i + 1 < entries_.size() && entries_[i + 1].chunk == e.chunk
                         ? entries_[i + 1].offset
                         : chunk.size();
  return {chunk.data() + e.offset, end - e.offset};
}

size_t OutputLog::TruncateUpTo(SeqNo upto) {
  size_t dropped = 0;
  while (!entries_.empty() && entries_.front().seq <= upto) {
    entries_.pop_front();
    ++dropped;
  }
  if (dropped == 0) return 0;
  if (entries_.empty()) {
    // Keep the newest chunk's storage for the next append.
    while (chunks_.size() > 1) {
      chunks_.pop_front();
      ++first_chunk_;
    }
    if (!chunks_.empty()) chunks_.back().clear();
    return dropped;
  }
  while (first_chunk_ < entries_.front().chunk) {
    chunks_.pop_front();
    ++first_chunk_;
  }
  return dropped;
}

void OutputLog::Clear() {
  entries_.clear();
  chunks_.clear();
  first_chunk_ = 0;
}

std::vector<Tuple> OutputLog::Decode() const {
  std::vector<Tuple> out;
  out.reserve(entries_.size());
  for (size_t i = 0; i < entries_.size(); ++i) {
    std::span<const uint8_t> rec = Record(i);
    Decoder dec(rec.data(), rec.size());
    auto t = dec.GetTuple(schema_);
    // Every record was encoded here or checked when it was restored.
    AURORA_CHECK(t.ok()) << t.status().ToString();
    out.push_back(*std::move(t));
  }
  return out;
}

SeqNo OutputLog::MinLineage() const {
  SeqNo min_seq = kNoSeqNo;
  for (const Entry& e : entries_) {
    if (e.lineage != kNoSeqNo && (min_seq == kNoSeqNo || e.lineage < min_seq)) {
      min_seq = e.lineage;
    }
  }
  return min_seq;
}

// ---- StreamNode --------------------------------------------------------------

StreamNode::StreamNode(Simulation* sim, OverlayNetwork* net, NodeId id,
                       EngineOptions engine_opts,
                       TransportOptions transport_opts,
                       SimDuration tick_interval)
    : sim_(sim),
      net_(net),
      id_(id),
      engine_(engine_opts),
      transport_opts_(transport_opts),
      tick_interval_(tick_interval) {
  engine_.set_trace_node(static_cast<int>(id));
  MetricsRegistry& reg = MetricsRegistry::Global();
  m_tuples_sent_ = reg.GetCounter("node.tuples_sent");
  m_msgs_sent_ = reg.GetCounter("node.msgs_sent");
  m_dup_dropped_ = reg.GetCounter("node.stream.dup_dropped");
  m_crash_lost_ = reg.GetCounter("node.crash.tuples_lost");
  m_flow_grants_ = reg.GetCounter("net.flow.credit_grants");
  m_flow_granted_bytes_ = reg.GetCounter("net.flow.granted_bytes");
  m_halog_appends_ = reg.GetCounter("storage.halog.appends");
  m_halog_replayed_ = reg.GetCounter("storage.halog.replayed");
}

void StreamNode::AttachDurableStorage(TieredStore* store) {
  store_ = store;
  store_->set_trace_node(static_cast<int>(id_));
  engine_.AttachDurableStore(store);
}

Status StreamNode::RecoverDurableState() {
  if (store_ == nullptr) {
    return Status::FailedPrecondition("no durable store attached");
  }
  AURORA_RETURN_NOT_OK(store_->Open());
  engine_.RecoverDurableState(sim_->Now());
  for (auto& [name, binding] : bindings_) {
    if (!binding.retain_log) continue;
    const std::string stream = "halog/" + binding.stream;
    OutputLog& log = binding.output_log;
    log.Clear();
    std::vector<Tuple> replay;
    store_->ScanAll(stream, [&](const StoredRecord& rec) {
      // The stored payload is the log record itself; it enters the log
      // only if it decodes to a tuple of the log's schema.
      Decoder dec(rec.payload);
      auto t = dec.GetTuple(log.schema());
      Status st = t.ok() ? ConformsToSchema(*t, log.schema()) : t.status();
      if (!st.ok()) {
        // Registered on first use: healthy runs never create the series.
        MetricsRegistry::Global().GetCounter("storage.halog.rejected")->Add();
        AURORA_LOG(Error) << "node " << id_
                          << ": halog decode failed: " << st.ToString();
        return;
      }
      auto lineage = dec.GetU64();
      log.AppendRecord(t->seq(),
                       lineage.ok() ? static_cast<SeqNo>(*lineage) : kNoSeqNo,
                       rec.payload);
      replay.push_back(*std::move(t));
    });
    // next_seq survives in the store meta even when the whole log has been
    // truncated away — reusing sequence numbers after a restart would make
    // downstream dedup silently drop every fresh tuple.
    binding.next_seq =
        std::max(binding.next_seq, static_cast<SeqNo>(store_->next_seq(stream)));
    if (replay.empty()) continue;
    // Replay the restored log downstream with the original sequence
    // numbers; the receiver's dedup watermark suppresses what it already
    // processed, so replay is idempotent.
    m_halog_replayed_->Add(replay.size());
    Status st = TransportTo(binding.dst)
                    ->Send(binding.stream, replay.data(), replay.size());
    if (!st.ok()) {
      AURORA_LOG(Error) << "node " << id_
                        << ": halog replay send failed: " << st.ToString();
    }
  }
  Kick();
  return Status::OK();
}

void StreamNode::Start() {
  if (started_) return;
  started_ = true;
  window_start_ = sim_->Now();
  sim_->SchedulePeriodic(tick_interval_, [this]() {
    if (!up_) return true;  // keep the timer; skip while down
    engine_.Tick(sim_->Now());
    if (flow_enabled()) {
      // The input backlog drains without any new arrival, so credit must
      // also be re-granted on the clock, not just on data delivery.
      for (auto& [stream, in] : incoming_) {
        MaybeGrantCredit(stream, in, /*force=*/false);
      }
      UpdateFlowBlocked();
    }
    FlushPending();
    Kick();
    return true;
  });
}

Transport* StreamNode::TransportTo(StreamNode* dst) {
  auto it = transports_.find(dst->id());
  if (it != transports_.end()) return it->second.get();
  auto transport = std::make_unique<Transport>(sim_, net_, id_, dst->id(),
                                               transport_opts_);
  // Delivery executes logically at the destination node.
  transport->SetDeliveryHandler(
      [dst](const std::string& stream, const Message& msg) {
        dst->OnRemoteMessage(stream, msg);
      });
  transport->SetFlowProbeHandler(
      [dst](const std::string& stream, uint64_t sent_offset) {
        dst->OnFlowProbe(stream, sent_offset);
      });
  Transport* raw = transport.get();
  transports_[dst->id()] = std::move(transport);
  return raw;
}

Status StreamNode::BindRemoteOutput(const std::string& output_name,
                                    StreamNode* dst,
                                    const std::string& remote_input,
                                    const std::string& stream_name,
                                    double weight) {
  if (bindings_.count(output_name)) {
    return Status::AlreadyExists("output '" + output_name +
                                 "' already bound remotely");
  }
  AURORA_ASSIGN_OR_RETURN(PortId port, engine_.FindOutput(output_name));
  // Destination input must exist (remote definition creates it first).
  AURORA_RETURN_NOT_OK(dst->engine().FindInput(remote_input).status());
  Transport* transport = TransportTo(dst);
  if (!transport->HasStream(stream_name)) {
    AURORA_RETURN_NOT_OK(transport->RegisterStream(stream_name, weight));
  }
  RemoteBinding binding;
  binding.output_port = port;
  binding.dst = dst;
  binding.remote_input = remote_input;
  binding.stream = stream_name;
  binding.weight = weight;
  binding.retain_log = retain_logs_;
  dst->RegisterIncomingStream(stream_name, remote_input, this);
  bindings_[output_name] = std::move(binding);
  engine_.SetOutputCallback(port, [this, output_name](const Tuple& t, SimTime) {
    auto it = bindings_.find(output_name);
    if (it != bindings_.end()) it->second.pending.push_back(t);
  });
  return Status::OK();
}

Result<std::string> StreamNode::BindingNameForOutputPort(PortId port) const {
  for (const auto& [name, binding] : bindings_) {
    if (binding.output_port == port) return name;
  }
  return Status::NotFound("no binding on output port " + std::to_string(port));
}

Result<StreamNode::BindingContinuity> StreamNode::SnapshotBindingContinuity(
    const std::string& output_name) const {
  auto it = bindings_.find(output_name);
  if (it == bindings_.end()) {
    return Status::NotFound("output '" + output_name + "' is not bound");
  }
  BindingContinuity continuity;
  continuity.output_log = it->second.output_log;
  continuity.next_seq = it->second.next_seq;
  return continuity;
}

Status StreamNode::RestoreBindingContinuity(const std::string& output_name,
                                            BindingContinuity continuity) {
  auto it = bindings_.find(output_name);
  if (it == bindings_.end()) {
    return Status::NotFound("output '" + output_name + "' is not bound");
  }
  it->second.output_log = std::move(continuity.output_log);
  it->second.next_seq = continuity.next_seq;
  return Status::OK();
}

Status StreamNode::UnbindRemoteOutput(const std::string& output_name) {
  auto it = bindings_.find(output_name);
  if (it == bindings_.end()) {
    return Status::NotFound("output '" + output_name + "' is not bound");
  }
  engine_.SetOutputCallback(it->second.output_port, nullptr);
  bindings_.erase(it);
  return Status::OK();
}

void StreamNode::OnRemoteStream(const std::string& stream,
                                const std::vector<uint8_t>& payload) {
  auto it = incoming_.find(stream);
  if (it == incoming_.end()) {
    AURORA_LOG(Warn) << "node " << id_ << ": tuples on unregistered stream '"
                     << stream << "'";
    return;
  }
  DeliverTuples(it->second.input_name, &stream, payload);
}

void StreamNode::OnRemoteMessage(const std::string& stream,
                                 const Message& msg) {
  if (!up_) return;
  auto it = incoming_.find(stream);
  if (flow_enabled() && it != incoming_.end()) {
    it->second.received_offset =
        std::max(it->second.received_offset, msg.flow_offset);
  }
  OnRemoteStream(stream, msg.payload);
  if (flow_enabled() && it != incoming_.end()) {
    MaybeGrantCredit(stream, it->second, /*force=*/false);
  }
}

void StreamNode::OnFlowProbe(const std::string& stream, uint64_t sent_offset) {
  if (!up_ || !flow_enabled()) return;
  auto it = incoming_.find(stream);
  if (it == incoming_.end()) return;
  it->second.received_offset =
      std::max(it->second.received_offset, sent_offset);
  // Force a (re)grant: the probe means the sender is stalled, so either the
  // previous grant was lost or data beyond our watermark was — both heal by
  // restating the current limit.
  MaybeGrantCredit(stream, it->second, /*force=*/true);
}

void StreamNode::MaybeGrantCredit(const std::string& stream, IncomingStream& in,
                                  bool force) {
  if (!flow_enabled() || in.src == nullptr) return;
  if (in.input_port < 0) {
    auto port = engine_.FindInput(in.input_name);
    if (!port.ok()) return;
    in.input_port = *port;
  }
  // Free window = credit budget minus what is already queued locally: the
  // sender may have at most the window in flight beyond what we've seen.
  uint64_t window = transport_opts_.credit_window_bytes;
  uint64_t backlog = engine_.InputBacklogBytes(in.input_port);
  uint64_t free = backlog >= window ? 0 : window - backlog;
  uint64_t limit = in.received_offset + free;
  if (limit <= in.granted_limit && !force) return;
  if (limit < in.granted_limit) limit = in.granted_limit;  // never shrink
  uint64_t newly = limit - in.granted_limit;
  in.granted_limit = limit;
  m_flow_grants_->Add();
  if (newly > 0) m_flow_granted_bytes_->Add(newly);
  Message grant;
  grant.kind = "flow_grant";
  grant.stream = stream;
  grant.flow_offset = limit;
  StreamNode* src = in.src;
  Status sent = net_->Send(id_, src->id(), std::move(grant),
                           [src, stream](const Message& m) {
                             src->OnFlowGrant(stream, m.flow_offset);
                           });
  if (!sent.ok()) {
    AURORA_LOG(Warn) << "node " << id_
                     << ": credit grant send failed: " << sent.ToString();
  }
}

void StreamNode::OnFlowGrant(const std::string& stream, uint64_t limit) {
  if (!up_ || !flow_enabled()) return;
  for (auto& [name, binding] : bindings_) {
    if (binding.stream != stream) continue;
    auto it = transports_.find(binding.dst->id());
    if (it != transports_.end()) it->second->GrantCredit(stream, limit);
    break;
  }
  UpdateFlowBlocked();
  FlushPending();
  Kick();
}

void StreamNode::UpdateFlowBlocked() {
  bool blocked = false;
  if (flow_enabled()) {
    for (const auto& [name, binding] : bindings_) {
      auto it = transports_.find(binding.dst->id());
      if (it != transports_.end() && it->second->StreamBlocked(binding.stream)) {
        blocked = true;
        break;
      }
    }
  }
  flow_blocked_ = blocked;
  engine_.SetIngestBlocked(blocked);
}

void StreamNode::OnRemoteTuples(const std::string& input_name,
                                const std::vector<uint8_t>& payload) {
  DeliverTuples(input_name, nullptr, payload);
}

void StreamNode::DeliverTuples(const std::string& input_name,
                               const std::string* stream,
                               const std::vector<uint8_t>& payload) {
  if (!up_) return;
  auto port = engine_.FindInput(input_name);
  if (!port.ok()) {
    AURORA_LOG(Warn) << "node " << id_ << ": dropping tuples for unknown input '"
                     << input_name << "'";
    return;
  }
  SchemaPtr schema = engine_.input_schema(*port);
  Status decoded = DeserializeTuplesInto(payload, schema, &decode_scratch_);
  if (!decoded.ok()) {
    AURORA_LOG(Error) << "node " << id_ << ": bad tuple batch: "
                      << decoded.ToString();
    return;
  }
  std::vector<Tuple>* tuples = &decode_scratch_;
  SeqNo& last = last_received_[input_name];
  SeqNo* dedup = stream != nullptr && transport_opts_.stream_dedup
                     ? &stream_dedup_watermark_[*stream]
                     : nullptr;
  Tracer& tracer = Tracer::Global();
  for (auto& t : *tuples) {
    if (dedup != nullptr && t.seq() != kNoSeqNo) {
      // Streams are FIFO per transport connection, so a sequence number at
      // or below the watermark is a duplicate (chaos duplication) or an
      // overtaken copy (chaos reorder) — suppressing it keeps delivery
      // at-most-once per stream.
      if (t.seq() <= *dedup) {
        dup_tuples_dropped_++;
        m_dup_dropped_->Add();
        if (delivery_probe_) delivery_probe_(id_, *stream, t, true);
        continue;
      }
      *dedup = t.seq();
    }
    if (delivery_probe_ && stream != nullptr) {
      delivery_probe_(id_, *stream, t, false);
    }
    if (t.seq() != kNoSeqNo && t.seq() > last) last = t.seq();
    if (tracer.enabled() && t.trace_id() != 0) {
      // Recorded at the receiver: the hop is complete once the batch lands.
      tracer.Record({t.trace_id(), SpanKind::kTransportHop,
                     static_cast<int>(id_), "stream:" + input_name,
                     sim_->Now().micros(), sim_->Now().micros()});
    }
    // Remote arrivals bypass the ingestion gate: they already consumed
    // transport credit, so dropping them here would lose accepted data.
    Status st = engine_.PushInput(*port, std::move(t), sim_->Now(),
                                  /*gate_ingest=*/false);
    if (!st.ok()) {
      AURORA_LOG(Error) << "node " << id_ << ": push failed: " << st.ToString();
    }
  }
  FlushPending();
  Kick();
}

Status StreamNode::Inject(const std::string& input_name, Tuple t) {
  if (!up_) return Status::Unavailable("node is down");
  if (t.timestamp().micros() == 0) t.set_timestamp(sim_->Now());
  AURORA_RETURN_NOT_OK(engine_.PushInputByName(input_name, std::move(t),
                                               sim_->Now()));
  // Relay arcs (input port -> output port) deliver synchronously; flush so
  // their tuples do not wait for the next engine step.
  FlushPending();
  Kick();
  return Status::OK();
}

void StreamNode::Kick() {
  // While out of downstream credit the node stops consuming: its input
  // backlog grows, which in turn stops its own credit grants — that is how
  // back-pressure cascades upstream toward the sources.
  if (!up_ || flow_blocked_ || step_scheduled_ || !engine_.HasWork()) return;
  ScheduleStep();
}

void StreamNode::ScheduleStep() {
  step_scheduled_ = true;
  // Never start a step while the CPU is still charged with earlier work.
  SimTime at = std::max(sim_->Now() + SimDuration::Micros(1), busy_until_);
  sim_->ScheduleAt(at, [this]() { Step(); });
}

void StreamNode::Step() {
  step_scheduled_ = false;
  if (!up_) return;
  auto cost = engine_.RunOneStep(sim_->Now());
  if (!cost.ok()) {
    AURORA_LOG(Error) << "node " << id_ << ": " << cost.status().ToString();
    return;
  }
  steps_executed_++;
  FlushPending();
  double scaled_us = *cost / std::max(1e-6, speed());
  busy_until_ = sim_->Now() + SimDuration::Micros(std::max<int64_t>(
                                  1, static_cast<int64_t>(scaled_us)));
  // Utilization window bookkeeping.
  busy_us_in_window_ += scaled_us;
  double elapsed_s = (sim_->Now() - window_start_).seconds();
  if (elapsed_s >= kUtilizationWindowS) {
    utilization_ = std::min(1.0, busy_us_in_window_ / (elapsed_s * 1e6));
    busy_us_in_window_ = 0.0;
    window_start_ = sim_->Now();
  }
  if (engine_.HasWork()) {
    ScheduleStep();
  }
}

void StreamNode::FlushPending() {
  // With flow control on, a pending buffer held through a blocked spell is
  // sent in window/4-byte chunks with a credit re-check between them, so
  // the transport queue overshoots the credit window by at most one chunk.
  // Flow off keeps the legacy one-message-per-flush batching.
  const size_t chunk_cap =
      flow_enabled()
          ? std::max<size_t>(1, transport_opts_.credit_window_bytes / 4)
          : SIZE_MAX;
  for (auto& [name, binding] : bindings_) {
    Transport* tx = nullptr;
    while (!binding.pending.empty()) {
      if (tx == nullptr) tx = TransportTo(binding.dst);
      if (flow_enabled() && tx->StreamBlocked(binding.stream)) {
        // Out of credit: hold the batch (sequence numbers are assigned at
        // send time, so holding is transparent to dedup and HA logs).
        if (binding.blocked_since_us < 0) {
          binding.blocked_since_us = sim_->Now().micros();
        }
        break;
      }
      size_t n = 0, bytes = 0;
      while (n < binding.pending.size() && (n == 0 || bytes < chunk_cap)) {
        bytes += binding.pending[n].WireSize();
        ++n;
      }
      std::vector<Tuple>& batch = send_batch_;
      batch.assign(std::make_move_iterator(binding.pending.begin()),
                   std::make_move_iterator(binding.pending.begin() + n));
      binding.pending.erase(binding.pending.begin(),
                            binding.pending.begin() + n);
      if (binding.blocked_since_us >= 0) {
        // These tuples sat out a credit-blocked spell before getting on the
        // wire; attribute the wait to each traced tuple's lineage.
        Tracer& tracer = Tracer::Global();
        if (tracer.enabled()) {
          for (const Tuple& t : batch) {
            if (t.trace_id() == 0) continue;
            tracer.Record({t.trace_id(), SpanKind::kCreditWait, id_,
                           "credit:" + binding.stream,
                           binding.blocked_since_us, sim_->Now().micros()});
          }
        }
        binding.blocked_since_us = -1;
      }
      OutputLog& log = binding.output_log;
      const size_t logged_from = log.size();
      for (auto& t : batch) {
        SeqNo lineage = t.seq();  // in the incoming stream's space
        t.set_seq(binding.next_seq++);
        if (binding.retain_log) log.Append(t, lineage);
      }
      if (binding.retain_log && store_ != nullptr) {
        // Mirror the chunk's log records to the durable halog stream in one
        // append, keyed by the binding's own sequence numbers, so a
        // recovered node can rebuild and replay this exact log.
        halog_batch_.clear();
        for (size_t i = logged_from; i < log.size(); ++i) {
          halog_batch_.push_back(
              {log.entries()[i].seq,
               batch[i - logged_from].timestamp().micros(), log.Record(i)});
        }
        Status st =
            store_->AppendBatchWithSeq("halog/" + binding.stream, halog_batch_);
        if (st.ok()) {
          m_halog_appends_->Add(halog_batch_.size());
        } else {
          AURORA_LOG(Error) << "node " << id_ << ": halog append failed: "
                            << st.ToString();
        }
      }
      binding.tuples_sent += batch.size();
      binding.messages_sent++;
      m_tuples_sent_->Add(batch.size());
      m_msgs_sent_->Add();
      // Span Send: the whole chunk serializes into one train sub-message
      // with a single flow/queue update.
      Status st = tx->Send(binding.stream, batch.data(), batch.size());
      if (!st.ok()) {
        AURORA_LOG(Error) << "node " << id_
                          << ": send failed: " << st.ToString();
      }
      batch.clear();  // the bodies die here, still in cache
    }
  }
  if (flow_enabled()) UpdateFlowBlocked();
}

void StreamNode::SetUp(bool up) {
  up_ = up;
  net_->SetNodeUp(id_, up);
  if (up) Kick();
}

size_t StreamNode::Crash() {
  SetUp(false);
  size_t lost = 0;
  for (auto& [name, binding] : bindings_) {
    lost += binding.pending.size();
    lost += binding.output_log.size();
    binding.pending.clear();
    binding.output_log.Clear();
  }
  last_received_.clear();
  stream_dedup_watermark_.clear();
  // Receiver-side flow state is volatile too: offsets restart at zero. The
  // senders' cumulative offsets survive on their side, so their next credit
  // probes walk our watermark forward again (see FLOW_CONTROL.md).
  for (auto& [stream, in] : incoming_) {
    in.received_offset = 0;
    in.granted_limit = transport_opts_.credit_window_bytes;
  }
  flow_blocked_ = false;
  engine_.SetIngestBlocked(false);
  if (store_ != nullptr) {
    // Volatile storage state dies with the process: connection points lose
    // their memory tier and index, the store loses unsynced bytes. The
    // durable remainder is what RecoverDurableState() rebuilds from.
    engine_.WipeVolatileStorage();
    store_->Crash();
  }
  if (lost > 0) m_crash_lost_->Add(lost);
  FlightRecorder::Global().Trigger(
      "node_crash",
      "node=" + std::to_string(id_) + " lost=" + std::to_string(lost),
      sim_->Now().micros());
  AURORA_LOG(Debug) << "node " << id_ << ": crashed, lost " << lost
                    << " buffered tuples";
  return lost;
}

void StreamNode::RetainOutputLogs(bool retain) {
  retain_logs_ = retain;
  for (auto& [name, binding] : bindings_) binding.retain_log = retain;
}

size_t StreamNode::TruncateOutputLog(const std::string& stream, SeqNo upto) {
  size_t discarded = 0;
  for (auto& [name, binding] : bindings_) {
    if (binding.stream != stream) continue;
    discarded += binding.output_log.TruncateUpTo(upto);
  }
  if (store_ != nullptr && discarded > 0) {
    // Confirmed entries are dead durably too (§6.2 queue truncation).
    store_->Truncate("halog/" + stream, upto);
  }
  return discarded;
}

std::vector<Tuple> StreamNode::OutputLogSnapshot(
    const std::string& stream) const {
  for (const auto& [name, binding] : bindings_) {
    if (binding.stream == stream) return binding.output_log.Decode();
  }
  return {};
}

SeqNo StreamNode::UnconfirmedOutputMinLineage() const {
  SeqNo min_seq = kNoSeqNo;
  auto consider = [&min_seq](SeqNo s) {
    if (s == kNoSeqNo) return;
    if (min_seq == kNoSeqNo || s < min_seq) min_seq = s;
  };
  for (const auto& [name, binding] : bindings_) {
    consider(binding.output_log.MinLineage());
    for (const auto& t : binding.pending) consider(t.seq());
  }
  return min_seq;
}

size_t StreamNode::OutputLogSize(const std::string& stream) const {
  for (const auto& [name, binding] : bindings_) {
    if (binding.stream == stream) return binding.output_log.size();
  }
  return 0;
}

SeqNo StreamNode::LastReceivedSeq(const std::string& input_name) const {
  auto it = last_received_.find(input_name);
  return it == last_received_.end() ? kNoSeqNo : it->second;
}

}  // namespace aurora
