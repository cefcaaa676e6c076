#include "net/transport.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/trace.h"
#include "tuple/serde.h"

namespace aurora {

namespace {

/// Little-endian framing helpers for train sub-messages. Each sub-message
/// is encoded as [u64 flow_offset][u32 length][payload bytes]; the frame's
/// train_count says how many to read back, so trailing link padding (mode
/// overhead bytes) is ignored by the decoder.
constexpr size_t kTrainSubHeaderBytes = 12;

void AppendU32(std::vector<uint8_t>* buf, uint32_t v) {
  for (int i = 0; i < 4; ++i) buf->push_back((v >> (8 * i)) & 0xff);
}

void AppendU64(std::vector<uint8_t>* buf, uint64_t v) {
  for (int i = 0; i < 8; ++i) buf->push_back((v >> (8 * i)) & 0xff);
}

bool ReadU32(const std::vector<uint8_t>& buf, size_t* pos, uint32_t* v) {
  if (*pos + 4 > buf.size()) return false;
  *v = 0;
  for (int i = 0; i < 4; ++i) *v |= static_cast<uint32_t>(buf[*pos + i]) << (8 * i);
  *pos += 4;
  return true;
}

bool ReadU64(const std::vector<uint8_t>& buf, size_t* pos, uint64_t* v) {
  if (*pos + 8 > buf.size()) return false;
  *v = 0;
  for (int i = 0; i < 8; ++i) *v |= static_cast<uint64_t>(buf[*pos + i]) << (8 * i);
  *pos += 8;
  return true;
}

/// Train budget units of one message: its tuple count when known, else 1.
size_t BudgetUnits(const Message& m) {
  return m.tuple_count > 0 ? m.tuple_count : 1;
}

}  // namespace

Transport::Transport(Simulation* sim, OverlayNetwork* net, NodeId src,
                     NodeId dst, TransportOptions opts)
    : sim_(sim), net_(net), src_(src), dst_(dst), opts_(opts) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  const std::string base = "net.transport." + std::to_string(src) + "->" +
                           std::to_string(dst) + ".";
  m_wire_bytes_ = reg.GetCounter(base + "wire_bytes");
  m_payload_bytes_ = reg.GetCounter(base + "payload_bytes");
  m_msgs_ = reg.GetCounter(base + "msgs");
  m_queue_delay_us_ = reg.GetHistogram("net.transport.queue_delay_us");
  m_flow_stalls_ = reg.GetCounter("net.flow.stalls");
  m_flow_probes_ = reg.GetCounter("net.flow.probes");
  m_train_msgs_ = reg.GetHistogram("net.flow.train_msgs");
  m_train_tuples_ = reg.GetHistogram("net.flow.train_tuples");
  if (opts_.mode == TransportMode::kMultiplexed) {
    // One shared connection: pay setup once up front.
    total_wire_bytes_ += opts_.connection_setup_bytes;
    m_wire_bytes_->Add(opts_.connection_setup_bytes);
  }
}

Status Transport::RegisterStream(const std::string& name, double weight) {
  if (weight <= 0.0) {
    return Status::InvalidArgument("stream weight must be positive");
  }
  if (streams_.count(name)) {
    return Status::AlreadyExists("stream '" + name + "' already registered");
  }
  StreamState& st = streams_[name];
  st.weight = weight;
  // Implicit initial grant: both sides start from one full window, so the
  // first data can flow before any credit message has crossed the wire.
  st.credit_limit = opts_.credit_window_bytes;
  rr_order_.push_back(name);
  if (opts_.mode == TransportMode::kPerStreamConnections) {
    // Each stream opens its own connection: handshake bytes on the wire.
    total_wire_bytes_ += opts_.connection_setup_bytes;
    m_wire_bytes_->Add(opts_.connection_setup_bytes);
  }
  return Status::OK();
}

Status Transport::Send(const std::string& stream, Message msg) {
  auto it = streams_.find(stream);
  if (it == streams_.end()) {
    return Status::NotFound("stream '" + stream + "' not registered");
  }
  StreamState& st = it->second;
  msg.stream = stream;
  if (flow_enabled()) {
    st.enqueued_offset += msg.payload.size();
    msg.flow_offset = st.enqueued_offset;
  }
  st.queued_bytes += msg.WireSize();
  st.queued_payload += msg.payload.size();
  st.queue.push_back(std::move(msg));
  st.enqueue_us.push_back(sim_->Now().micros());
  peak_queued_bytes_ = std::max(peak_queued_bytes_, queued_bytes());
  peak_queued_payload_ = std::max(peak_queued_payload_, queued_payload_bytes());
  MaybeDispatch();
  return Status::OK();
}

Status Transport::Send(const std::string& stream, const Tuple* tuples,
                       size_t n) {
  Message msg;
  msg.kind = "tuples";
  msg.tuple_count = static_cast<uint32_t>(n);
  SerializeTuplesInto(tuples, n, &encode_scratch_);
  msg.payload = encode_scratch_;  // exact-size copy; scratch keeps capacity
  return Send(stream, std::move(msg));
}

void Transport::GrantCredit(const std::string& stream, uint64_t limit) {
  auto it = streams_.find(stream);
  if (it == streams_.end()) return;
  StreamState& st = it->second;
  if (limit <= st.credit_limit) return;  // stale or duplicated grant
  st.credit_limit = limit;
  if (st.stalled &&
      (st.queue.empty() || st.queue.front().flow_offset <= st.credit_limit)) {
    NoteUnstalled(stream, st);
  }
  MaybeDispatch();
}

void Transport::NoteUnstalled(const std::string& stream, StreamState& st) {
  st.stalled = false;
  if (st.stall_start_us < 0) return;
  int64_t start_us = st.stall_start_us;
  st.stall_start_us = -1;
  Tracer& tracer = Tracer::Global();
  if (tracer.enabled()) {
    tracer.Record({0, SpanKind::kCreditWait, static_cast<int>(src_),
                   "credit:" + stream, start_us, sim_->Now().micros()});
  }
}

bool Transport::StreamBlocked(const std::string& stream) const {
  if (!flow_enabled()) return false;
  auto it = streams_.find(stream);
  if (it == streams_.end()) return false;
  return it->second.enqueued_offset >= it->second.credit_limit;
}

uint64_t Transport::credit_limit(const std::string& stream) const {
  auto it = streams_.find(stream);
  return it == streams_.end() ? 0 : it->second.credit_limit;
}

uint64_t Transport::sent_offset(const std::string& stream) const {
  auto it = streams_.find(stream);
  return it == streams_.end() ? 0 : it->second.sent_offset;
}

bool Transport::OversizedHead(const StreamState& st) const {
  if (!flow_enabled() || st.queue.empty()) return false;
  const Message& m = st.queue.front();
  return m.payload.size() > opts_.credit_window_bytes &&
         m.flow_offset - m.payload.size() < st.credit_limit;
}

size_t Transport::TrainLength(const StreamState& st) const {
  const size_t budget = std::max<size_t>(1, opts_.train_size);
  size_t k = 0;
  size_t units = 0;
  for (const Message& m : st.queue) {
    if (flow_enabled() && m.flow_offset > st.credit_limit) {
      // A message bigger than the whole window can never satisfy the limit;
      // once all data before it is credited, it departs alone instead of
      // deadlocking the stream (the receiver's backlog-based grants absorb
      // the one-message overdraft).
      if (k == 0 && OversizedHead(st)) return 1;
      break;
    }
    if (k > 0 && m.kind != st.queue.front().kind) break;
    size_t u = BudgetUnits(m);
    if (k > 0 && units + u > budget) break;
    units += u;
    ++k;
    if (units >= budget) break;
  }
  return k;
}

size_t Transport::TrainWireSize(const StreamState& st, size_t k) const {
  AURORA_CHECK(k >= 1 && k <= st.queue.size());
  if (k == 1) return st.queue.front().WireSize();
  const Message& head = st.queue.front();
  size_t wire = kMessageHeaderBytes + head.kind.size() + head.stream.size();
  for (size_t i = 0; i < k; ++i) {
    wire += kTrainSubHeaderBytes + st.queue[i].payload.size();
  }
  return wire;
}

bool Transport::ReadyToDispatch(const std::string& name, StreamState& st,
                                SimTime* wake) {
  if (st.queue.empty()) return false;
  if (flow_enabled()) {
    if (!net_->PathUp(src_, dst_)) {
      // Partitioned or peer down: hold the queue (a send would be dropped
      // on the floor) and retry on a deterministic cadence.
      *wake = std::min(*wake, sim_->Now() + opts_.flow_retry_interval);
      return false;
    }
    if (st.queue.front().flow_offset > st.credit_limit &&
        !OversizedHead(st)) {
      if (!st.stalled) {
        st.stalled = true;
        st.stall_start_us = sim_->Now().micros();
        credit_stalls_++;
        m_flow_stalls_->Add();
      }
      // Probe so a lost grant (or data lost past the receiver's watermark)
      // cannot deadlock the stream.
      if (sim_->Now() >= st.next_probe_at) {
        SendCreditProbe(name, st);
        st.next_probe_at = sim_->Now() + opts_.flow_retry_interval;
      }
      *wake = std::min(*wake, st.next_probe_at);
      return false;
    }
    if (st.stalled) NoteUnstalled(name, st);
  }
  if (opts_.train_size <= 1) return true;
  // Train gating: depart when a full train is ready or the oldest message
  // has waited out the batching delay.
  size_t k = TrainLength(st);
  size_t units = 0;
  for (size_t i = 0; i < k; ++i) units += BudgetUnits(st.queue[i]);
  if (units >= opts_.train_size) return true;
  SimTime deadline =
      SimTime::Micros(st.enqueue_us.front()) + opts_.train_max_delay;
  if (sim_->Now() >= deadline) return true;
  *wake = std::min(*wake, deadline);
  return false;
}

void Transport::ArmWake(SimTime when) {
  if (when == SimTime::Max()) return;
  when = std::max(when, sim_->Now() + SimDuration::Micros(1));
  if (wake_armed_ && wake_at_ <= when) return;
  wake_armed_ = true;
  wake_at_ = when;
  sim_->ScheduleAt(when, lifeline_.Guard([this, when]() {
    if (wake_at_ == when) wake_armed_ = false;
    MaybeDispatch();
  }));
}

void Transport::SendCreditProbe(const std::string& stream, StreamState& st) {
  Message probe;
  probe.kind = "flow_probe";
  probe.stream = stream;
  probe.flow_offset = st.sent_offset;
  size_t wire = probe.WireSize();
  total_wire_bytes_ += wire;
  m_wire_bytes_->Add(wire);
  m_flow_probes_->Add();
  Status sent = net_->Send(
      src_, dst_, std::move(probe),
      lifeline_.Guard([this, stream](const Message& m) {
        if (probe_handler_) probe_handler_(stream, m.flow_offset);
      }));
  if (!sent.ok()) {
    AURORA_LOG(Warn) << "credit probe send failed: " << sent.ToString();
  }
}

void Transport::MaybeDispatch() {
  if (in_flight_) return;
  SimTime wake = SimTime::Max();
  switch (opts_.mode) {
    case TransportMode::kMultiplexed: {
      // Start-time fair queuing (SFQ): serve the stream whose head-of-line
      // message has the smallest virtual *start* tag; the virtual time is
      // the start tag of the message in service. Backlogged streams then
      // share the connection in proportion to their weights.
      const std::string* best = nullptr;
      double best_start = 0.0;
      for (auto& [name, st] : streams_) {
        if (!ReadyToDispatch(name, st, &wake)) continue;
        double start = std::max(virtual_time_, st.last_finish_tag);
        if (best == nullptr || start < best_start) {
          best = &name;
          best_start = start;
        }
      }
      if (best == nullptr) {
        ArmWake(wake);
        return;
      }
      StreamState& st = streams_[*best];
      size_t k = TrainLength(st);
      st.last_finish_tag =
          best_start + static_cast<double>(TrainWireSize(st, k)) / st.weight;
      virtual_time_ = best_start;
      DispatchTrain(*best, k, opts_.mux_tag_bytes);
      return;
    }
    case TransportMode::kPerStreamConnections: {
      // Round-robin over connections with queued data: each connection gets
      // an equal turn at the bottleneck, regardless of weight.
      size_t active = 0;
      for (const auto& [name, st] : streams_) {
        if (!st.queue.empty()) ++active;
      }
      if (active == 0) return;
      for (size_t scan = 0; scan < rr_order_.size(); ++scan) {
        const std::string& name = rr_order_[rr_next_ % rr_order_.size()];
        rr_next_++;
        StreamState& st = streams_[name];
        if (!ReadyToDispatch(name, st, &wake)) continue;
        size_t k = TrainLength(st);
        // Interference: extra bytes proportional to other live connections.
        size_t extra = static_cast<size_t>(
            static_cast<double>(TrainWireSize(st, k)) *
            opts_.cross_connection_interference *
            static_cast<double>(active - 1));
        DispatchTrain(name, k, extra);
        return;
      }
      ArmWake(wake);
      return;
    }
  }
}

void Transport::DispatchTrain(const std::string& stream, size_t k,
                              size_t extra_bytes) {
  StreamState& st = streams_[stream];
  AURORA_CHECK(!st.queue.empty() && k >= 1 && k <= st.queue.size());
  std::vector<Message> subs;
  subs.reserve(k);
  size_t sub_payload = 0;
  size_t sub_wire = 0;
  uint32_t tuples = 0;
  for (size_t i = 0; i < k; ++i) {
    Message m = std::move(st.queue.front());
    st.queue.pop_front();
    int64_t enq_us = st.enqueue_us.front();
    st.enqueue_us.pop_front();
    m_queue_delay_us_->Record(
        static_cast<double>(sim_->Now().micros() - enq_us));
    sub_payload += m.payload.size();
    sub_wire += m.WireSize();
    tuples += BudgetUnits(m);
    subs.push_back(std::move(m));
  }
  st.queued_bytes -= sub_wire;
  st.queued_payload -= sub_payload;

  Message frame;
  if (k == 1) {
    frame = subs.front();
  } else {
    // One framed train: the fixed header, kind, and stream are paid once;
    // each coalesced message costs only the 12-byte sub-header.
    frame.kind = subs.front().kind;
    frame.stream = stream;
    frame.train_count = static_cast<uint32_t>(k);
    frame.payload.reserve(sub_payload + k * kTrainSubHeaderBytes);
    for (const Message& m : subs) {
      AppendU64(&frame.payload, m.flow_offset);
      AppendU32(&frame.payload, static_cast<uint32_t>(m.payload.size()));
      frame.payload.insert(frame.payload.end(), m.payload.begin(),
                           m.payload.end());
    }
  }
  frame.tuple_count = tuples;
  frame.flow_offset = subs.back().flow_offset;
  if (flow_enabled()) st.sent_offset = subs.back().flow_offset;

  // The mode's overhead rides as accounted padding (Message::pad_bytes), so
  // no padded copy of the payload is ever materialized.
  frame.pad_bytes = extra_bytes;
  size_t padded = frame.WireSize();
  total_wire_bytes_ += padded;
  payload_bytes_ += sub_payload;
  frames_sent_++;
  m_wire_bytes_->Add(padded);
  m_payload_bytes_->Add(sub_payload);
  m_msgs_->Add();
  m_train_msgs_->Record(static_cast<double>(k));
  m_train_tuples_->Record(static_cast<double>(tuples));
  in_flight_ = true;
  Status st_send = net_->Send(
      src_, dst_, std::move(frame),
      lifeline_.Guard([this, stream](const Message& delivered) {
        DeliverFrame(stream, delivered);
      }));
  if (!st_send.ok()) {
    AURORA_LOG(Warn) << "transport send failed: " << st_send.ToString();
  }
  // The connection frees when the link finishes serializing this message
  // (not when it is delivered — propagation is pipelined).
  SimTime free_at = net_->LinkBusyUntil(src_, dst_);
  if (free_at == SimTime::Max()) {
    // No direct link (multi-hop path): approximate with next event slot.
    free_at = sim_->Now() + SimDuration::Micros(1);
  }
  sim_->ScheduleAt(std::max(free_at, sim_->Now()), lifeline_.Guard([this]() {
    in_flight_ = false;
    MaybeDispatch();
  }));
}

void Transport::DeliverFrame(const std::string& stream, const Message& frame) {
  StreamState& st = streams_[stream];
  if (frame.train_count <= 1) {
    st.delivered++;
    st.delivered_bytes += frame.payload.size();
    if (handler_) handler_(stream, frame);
    return;
  }
  // Unpack the train: one delivery per original message, in order.
  size_t pos = 0;
  for (uint32_t i = 0; i < frame.train_count; ++i) {
    Message sub;
    uint32_t len = 0;
    if (!ReadU64(frame.payload, &pos, &sub.flow_offset) ||
        !ReadU32(frame.payload, &pos, &len) ||
        pos + len > frame.payload.size()) {
      AURORA_LOG(Error) << "transport: corrupt train frame on stream '"
                        << stream << "'";
      return;
    }
    sub.kind = frame.kind;
    sub.stream = stream;
    sub.src = frame.src;
    sub.dst = frame.dst;
    sub.payload.assign(frame.payload.begin() + pos,
                       frame.payload.begin() + pos + len);
    pos += len;
    st.delivered++;
    st.delivered_bytes += len;
    if (handler_) handler_(stream, sub);
  }
}

uint64_t Transport::delivered_count(const std::string& stream) const {
  auto it = streams_.find(stream);
  return it == streams_.end() ? 0 : it->second.delivered;
}

uint64_t Transport::delivered_bytes(const std::string& stream) const {
  auto it = streams_.find(stream);
  return it == streams_.end() ? 0 : it->second.delivered_bytes;
}

size_t Transport::queued_messages() const {
  size_t n = 0;
  for (const auto& [name, st] : streams_) n += st.queue.size();
  return n;
}

size_t Transport::queued_bytes() const {
  size_t n = 0;
  for (const auto& [name, st] : streams_) n += st.queued_bytes;
  return n;
}

size_t Transport::queued_bytes(const std::string& stream) const {
  auto it = streams_.find(stream);
  return it == streams_.end() ? 0 : it->second.queued_bytes;
}

size_t Transport::queued_payload_bytes() const {
  size_t n = 0;
  for (const auto& [name, st] : streams_) n += st.queued_payload;
  return n;
}

}  // namespace aurora
