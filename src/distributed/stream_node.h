#ifndef AURORA_DISTRIBUTED_STREAM_NODE_H_
#define AURORA_DISTRIBUTED_STREAM_NODE_H_

#include <deque>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "engine/aurora_engine.h"
#include "net/transport.h"
#include "sim/simulation.h"
#include "storage/tiered_store.h"

namespace aurora {

/// \brief The retained HA output log of one remote binding (upstream
/// backup, §6.2 / Fig. 8), kept as bytes.
///
/// Each entry is the record the durable "halog/<stream>" mirror stores:
/// `PutTuple(t)` followed by `PutU64(lineage)`, where lineage is the
/// sequence number (in the space of the node's *incoming* stream) of the
/// earliest input tuple the sent tuple was derived from. Records are packed
/// into fixed-size chunks and found through a compact (seq, lineage,
/// location) index, so a retained entry pins no tuple body. Truncation
/// frees whole chunks; tuples are decoded only when a reader asks for them
/// (recovery replay, durable restore).
class OutputLog {
 public:
  /// Chunk capacity; a record larger than this gets a chunk of its own.
  static constexpr size_t kChunkBytes = 64 * 1024;

  struct Entry {
    SeqNo seq = kNoSeqNo;      ///< the binding's outgoing sequence number
    SeqNo lineage = kNoSeqNo;  ///< earliest incoming seq it depends on
    uint32_t chunk = 0;        ///< absolute chunk number
    uint32_t offset = 0;       ///< record start within the chunk
  };

  bool empty() const { return entries_.empty(); }
  size_t size() const { return entries_.size(); }
  const std::deque<Entry>& entries() const { return entries_; }
  /// Chunks currently allocated (introspection for tests).
  size_t num_chunks() const { return chunks_.size(); }

  /// Encodes `t` (its seq() is the outgoing sequence number) and appends
  /// it with its lineage. A non-null schema becomes the log's schema.
  void Append(const Tuple& t, SeqNo lineage);
  /// Appends an already-encoded record (PutTuple + PutU64 lineage bytes).
  void AppendRecord(SeqNo seq, SeqNo lineage, std::span<const uint8_t> record);
  /// The encoded bytes of entry `i`.
  std::span<const uint8_t> Record(size_t i) const;

  /// Drops leading entries with seq <= `upto` (§6.2 queue truncation) and
  /// frees every chunk no remaining entry lives in. Returns how many
  /// entries were dropped.
  size_t TruncateUpTo(SeqNo upto);
  /// Drops every entry (crash). The schema is configuration, not data, so
  /// it survives and decodes the durable log during recovery.
  void Clear();

  /// Decodes every entry, oldest first, with the log's schema.
  std::vector<Tuple> Decode() const;
  /// Smallest lineage over the entries (kNoSeqNo lineages are skipped);
  /// kNoSeqNo when there is none.
  SeqNo MinLineage() const;

  const SchemaPtr& schema() const { return schema_; }

 private:
  std::deque<Entry> entries_;
  /// Live chunks; chunks_[i] is absolute chunk first_chunk_ + i. A chunk's
  /// size() is its used bytes, its capacity is reserved once.
  std::deque<std::vector<uint8_t>> chunks_;
  uint32_t first_chunk_ = 0;
  SchemaPtr schema_;
  std::vector<uint8_t> scratch_;  // encode buffer recycled across appends
};

/// \brief One Aurora server in the distributed system: an AuroraEngine
/// bound to a simulated node's CPU and links.
///
/// The node schedules engine steps as simulation events — each step's
/// returned CPU cost (scaled by the node's speed) is the time until the
/// node can run again, so overload manifests as queue growth exactly as it
/// would on a real machine. Cross-node arcs are *remote bindings*: an
/// engine output whose tuples are batched, sequence-numbered, serialized,
/// and sent over the pair's Transport to an engine input on the peer.
class StreamNode {
 public:
  StreamNode(Simulation* sim, OverlayNetwork* net, NodeId id,
             EngineOptions engine_opts, TransportOptions transport_opts,
             SimDuration tick_interval = SimDuration::Millis(10));

  NodeId id() const { return id_; }
  AuroraEngine& engine() { return engine_; }
  const AuroraEngine& engine() const { return engine_; }
  double speed() const { return net_->node(id_).speed; }

  /// Begins periodic engine ticks (WSort timeouts etc.).
  void Start();

  // ---- Remote arcs -------------------------------------------------------

  /// Routes the named engine output to `remote_input` on `dst`. The stream
  /// name (globally unique, caller-chosen) keys transport scheduling and
  /// HA logs.
  Status BindRemoteOutput(const std::string& output_name, StreamNode* dst,
                          const std::string& remote_input,
                          const std::string& stream_name, double weight = 1.0);
  Status UnbindRemoteOutput(const std::string& output_name);
  bool HasRemoteBinding(const std::string& output_name) const {
    return bindings_.count(output_name) > 0;
  }
  /// Name of the binding (== engine output name) attached to the given
  /// engine output port, or NotFound.
  Result<std::string> BindingNameForOutputPort(PortId port) const;

  /// Registers which local engine input a named incoming transport stream
  /// feeds. Called by the sender-side binding setup; `src` (the sending
  /// node) is needed for credit-based flow control — grants travel back to
  /// it over the network.
  void RegisterIncomingStream(const std::string& stream,
                              const std::string& input_name,
                              StreamNode* src = nullptr) {
    IncomingStream& in = incoming_[stream];
    in.input_name = input_name;
    if (src != nullptr) in.src = src;
    in.granted_limit = transport_opts_.credit_window_bytes;
  }

  /// Called (via transport delivery) when a batch of tuples arrives on a
  /// registered stream.
  void OnRemoteStream(const std::string& stream,
                      const std::vector<uint8_t>& payload);

  /// Full delivery entry point used by the transport: tracks the stream's
  /// received flow offset, delivers the payload, and re-grants credit.
  void OnRemoteMessage(const std::string& stream, const Message& msg);

  /// Credit probe from a stalled sender: `sent_offset` is its cumulative
  /// dispatched bytes. Data lost on the wire (chaos) leaves the receiver's
  /// watermark behind the sender's; adopting the larger offset re-opens the
  /// window so the stream cannot deadlock on loss.
  void OnFlowProbe(const std::string& stream, uint64_t sent_offset);

  /// Cumulative credit grant arriving back at this (sending) node.
  void OnFlowGrant(const std::string& stream, uint64_t limit);

  /// True while some remote binding is out of credit, which pauses engine
  /// stepping and makes Inject() reject with "blocked upstream".
  bool flow_blocked() const { return flow_blocked_; }

  /// Sender-side transport toward `dst`, or nullptr if no traffic has been
  /// bound there yet. Read-only: lets tests and observability inspect queue
  /// depth and credit state without going through the metrics registry.
  const Transport* PeerTransport(NodeId dst) const {
    auto it = transports_.find(dst);
    return it == transports_.end() ? nullptr : it->second.get();
  }

  /// Pushes a batch of serialized tuples into a local engine input.
  void OnRemoteTuples(const std::string& input_name,
                      const std::vector<uint8_t>& payload);

  // ---- Data sources ------------------------------------------------------

  /// Pushes a source tuple into a local engine input (§4.2: a data source
  /// sends events to one of the nodes).
  Status Inject(const std::string& input_name, Tuple t);

  /// Ensures a processing step is scheduled.
  void Kick();

  /// Immediately sends any tuples buffered on remote bindings (used after
  /// out-of-band emissions during reconfiguration).
  void Flush() { FlushPending(); }

  // ---- Failure model -----------------------------------------------------

  /// Crashes / restores the node (pairs with OverlayNetwork::SetNodeUp).
  void SetUp(bool up);
  bool up() const { return up_; }

  /// Fail-stop crash (fault injection): goes down AND wipes the node's
  /// volatile sender state — unsent pending batches, retained output logs,
  /// and received-sequence watermarks — exactly what a real process loses.
  /// Upstream-backup recovery replays the *upstream* neighbours' logs, so
  /// the wiped state is never read again (§6.3). Returns the number of
  /// tuples lost from this node's own buffers.
  size_t Crash();

  /// Tuples dropped as duplicates by per-stream sequence tracking (chaos
  /// duplication or retransmits; see OnRemoteStream).
  uint64_t duplicate_tuples_dropped() const { return dup_tuples_dropped_; }

  // ---- Durable storage ----------------------------------------------------

  /// Wires a tiered store (not owned) under this node: the engine's spills
  /// and connection points go durable, and every retained HA output log is
  /// mirrored to a "halog/<stream>" store stream. Crash() then also crashes
  /// the store (unsynced bytes lost) and RecoverDurableState() rebuilds CP
  /// history, output logs, and sequence counters from what survived.
  void AttachDurableStorage(TieredStore* store);
  bool has_durable_storage() const { return store_ != nullptr; }
  TieredStore* durable_store() { return store_; }

  /// Recovery after a crash+restart with durable storage: re-opens the
  /// store, rebuilds connection-point history, restores each retained
  /// binding's output log and next_seq from its halog stream, and replays
  /// the restored log downstream (receivers' dedup watermarks suppress
  /// anything they already processed — the §6.3 upstream-backup replay, fed
  /// from disk instead of from a surviving peer).
  Status RecoverDurableState();

  // ---- Invariant probes (used by src/check) -------------------------------

  /// Observes every tuple arriving on a named transport stream, *before*
  /// engine ingestion: `duplicate` is true when the per-stream dedup
  /// watermark suppressed it. Model-checking harnesses hang per-stream
  /// FIFO / exactly-once invariant checks here; unset in production.
  using DeliveryProbe = std::function<void(
      NodeId node, const std::string& stream, const Tuple& t, bool duplicate)>;
  void SetDeliveryProbe(DeliveryProbe probe) {
    delivery_probe_ = std::move(probe);
  }

  // ---- HA hooks (used by src/ha) ------------------------------------------

  struct RemoteBinding {
    PortId output_port = -1;
    StreamNode* dst = nullptr;
    std::string remote_input;
    std::string stream;
    double weight = 1.0;
    /// Next sequence number to assign on this stream (§6.2: monotonically
    /// increasing, per stream).
    SeqNo next_seq = 1;
    /// When true, sent tuples are retained in `output_log` until the
    /// downstream confirms them processed (upstream backup, Fig. 8). Each
    /// entry's lineage is what cascaded truncation reports upstream
    /// ("tuples whose values got determined directly or indirectly", §6.2).
    bool retain_log = false;
    OutputLog output_log;
    std::vector<Tuple> pending;  // emitted this step, not yet sent
    /// When the pending buffer first hit a credit-blocked stream (-1 =
    /// not blocked). Tuples sent after a blocked spell get a kCreditWait
    /// span covering it, so latency attribution charges the wait to credit
    /// back-pressure instead of to the wire.
    int64_t blocked_since_us = -1;
    uint64_t tuples_sent = 0;
    uint64_t messages_sent = 0;
  };

  /// The durable part of a binding: its retained log and sequence counter.
  /// When a slide re-routes a binding whose consumer carried its operator
  /// state along (state migration), the replacement binding must continue
  /// the same sequence space and keep the unconfirmed log — otherwise a
  /// later failure of the destination could lose the migrated open-window
  /// contents.
  struct BindingContinuity {
    OutputLog output_log;
    SeqNo next_seq = 1;
  };
  Result<BindingContinuity> SnapshotBindingContinuity(
      const std::string& output_name) const;
  Status RestoreBindingContinuity(const std::string& output_name,
                                  BindingContinuity continuity);

  /// Enables upstream-backup retention on all current and future bindings.
  void RetainOutputLogs(bool retain);
  const std::map<std::string, RemoteBinding>& bindings() const {
    return bindings_;
  }
  /// Discards logged tuples with seq <= `upto` on the stream (§6.2 queue
  /// truncation). Returns how many were discarded.
  size_t TruncateOutputLog(const std::string& stream, SeqNo upto);
  /// Tuples currently retained on the stream's output log, decoded.
  std::vector<Tuple> OutputLogSnapshot(const std::string& stream) const;
  size_t OutputLogSize(const std::string& stream) const;
  /// Smallest lineage over all retained + pending tuples of every binding:
  /// the oldest *input* tuple this node's unconfirmed outputs still depend
  /// on. kNoSeqNo when nothing is retained.
  SeqNo UnconfirmedOutputMinLineage() const;
  /// Highest sequence number received so far per input stream.
  SeqNo LastReceivedSeq(const std::string& input_name) const;

  // ---- Statistics ---------------------------------------------------------

  /// Fraction of time the CPU was busy over the most recent utilization
  /// window (smoothed).
  double utilization() const { return utilization_; }
  uint64_t steps_executed() const { return steps_executed_; }

 private:
  /// Receiver-side flow state of one incoming stream (see FLOW_CONTROL.md).
  struct IncomingStream {
    std::string input_name;
    StreamNode* src = nullptr;  // grants are sent back to this node
    PortId input_port = -1;     // resolved lazily from input_name
    /// Highest cumulative payload-byte offset received (or probed).
    uint64_t received_offset = 0;
    /// Last cumulative limit granted to the sender.
    uint64_t granted_limit = 0;
  };

  void ScheduleStep();
  void Step();
  void FlushPending();
  Transport* TransportTo(StreamNode* dst);
  /// Deserializes and pushes a batch; `stream` (when non-null) enables
  /// per-stream duplicate suppression by sequence number.
  void DeliverTuples(const std::string& input_name, const std::string* stream,
                     const std::vector<uint8_t>& payload);
  bool flow_enabled() const { return transport_opts_.credit_window_bytes > 0; }
  /// Re-grants credit on the stream when the input backlog leaves room for
  /// more than already granted; `force` resends the current limit even when
  /// unchanged (probe replies, healing lost grants).
  void MaybeGrantCredit(const std::string& stream, IncomingStream& in,
                        bool force);
  /// Recomputes flow_blocked_ from the bindings' transport credit state and
  /// mirrors it into the engine's ingestion gate.
  void UpdateFlowBlocked();

  Simulation* sim_;
  OverlayNetwork* net_;
  NodeId id_;
  AuroraEngine engine_;
  TransportOptions transport_opts_;
  SimDuration tick_interval_;
  std::map<NodeId, std::unique_ptr<Transport>> transports_;
  std::map<std::string, RemoteBinding> bindings_;
  std::map<std::string, IncomingStream> incoming_;
  std::map<std::string, SeqNo> last_received_;
  /// Highest sequence seen per incoming *stream* — the dedup watermark.
  /// Streams are FIFO per transport, so in normal operation sequences only
  /// grow and this never drops anything; under chaos duplication (or
  /// overtaking reorder) stale tuples are suppressed, which keeps the §6
  /// recovery invariant "only in-process tuples are redone" intact.
  std::map<std::string, SeqNo> stream_dedup_watermark_;
  /// Per-node decode scratch recycled across remote batches (the encode
  /// side now lives in Transport's span Send).
  std::vector<Tuple> decode_scratch_;
  DeliveryProbe delivery_probe_;
  TieredStore* store_ = nullptr;
  /// Per-flush scratch: one sent chunk moved out of a binding's pending
  /// buffer, and its halog mirror records (views into the output log).
  std::vector<Tuple> send_batch_;
  std::vector<TieredStore::SeqRecord> halog_batch_;
  uint64_t dup_tuples_dropped_ = 0;
  bool retain_logs_ = false;
  bool step_scheduled_ = false;
  bool up_ = true;
  bool started_ = false;
  bool flow_blocked_ = false;
  /// CPU accounting: the node may not start another step before this time,
  /// enforcing its processing capacity even across idle gaps.
  SimTime busy_until_{};
  uint64_t steps_executed_ = 0;
  // Utilization accounting.
  SimTime window_start_{};
  double busy_us_in_window_ = 0.0;
  double utilization_ = 0.0;
  // Registry mirrors of cross-node traffic (process-wide totals).
  Counter* m_tuples_sent_;
  Counter* m_msgs_sent_;
  Counter* m_dup_dropped_;
  Counter* m_crash_lost_;
  Counter* m_flow_grants_;
  Counter* m_flow_granted_bytes_;
  Counter* m_halog_appends_;
  Counter* m_halog_replayed_;
};

}  // namespace aurora

#endif  // AURORA_DISTRIBUTED_STREAM_NODE_H_
