#ifndef AURORA_NET_OVERLAY_NETWORK_H_
#define AURORA_NET_OVERLAY_NETWORK_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "net/message.h"
#include "obs/metrics.h"
#include "sim/simulation.h"

namespace aurora {

/// Properties of one directed overlay link.
struct LinkOptions {
  /// Serialization rate. 10 MB/s default (fast LAN-ish for a 2003 paper).
  double bandwidth_bytes_per_sec = 10e6;
  /// One-way propagation delay.
  SimDuration latency = SimDuration::Millis(5);
};

/// Seeded chaos applied per directed link (fault-injection hooks; see
/// src/fault). Draws come from the network's perturbation Rng in
/// simulation-event order, so a fixed seed replays bit-identically.
struct LinkPerturbation {
  /// Probability a message entering the link is silently dropped.
  double drop_p = 0.0;
  /// Probability the message is transmitted twice (both copies charged).
  double dup_p = 0.0;
  /// Probability the message's delivery is delayed by `reorder_delay`, so
  /// later traffic on the link overtakes it.
  double reorder_p = 0.0;
  SimDuration reorder_delay = SimDuration::Millis(20);

  bool Active() const { return drop_p > 0.0 || dup_p > 0.0 || reorder_p > 0.0; }
};

struct NodeOptions {
  std::string name;
  /// Relative CPU speed multiplier (1.0 = reference machine). Weak sensor
  /// proxies get < 1 (paper §5.1: "some of the nodes can be very weak").
  double speed = 1.0;
  /// Operator kinds this node can execute; empty = everything. A sensor
  /// node might support only {"filter"} (§5.1's slide-a-Filter-to-a-sensor
  /// discussion).
  std::vector<std::string> supported_kinds;
};

/// \brief The simulated overlay network (paper §4): nodes, links with
/// bandwidth and latency, and multi-hop message routing.
///
/// Messages are charged for serialization time (FIFO per link) plus
/// propagation latency per hop, and are dropped when a node on the path is
/// down — failures surface exactly as silence, which is what the HA layer's
/// heartbeat protocol (§6.3) detects.
class OverlayNetwork {
 public:
  explicit OverlayNetwork(Simulation* sim) : sim_(sim) {
    MetricsRegistry& reg = MetricsRegistry::Global();
    m_delivered_ = reg.GetCounter("net.delivered");
    m_dropped_ = reg.GetCounter("net.dropped");
    m_dropped_down_ = reg.GetCounter("net.link.dropped_down");
    m_dropped_unroutable_ = reg.GetCounter("net.link.dropped_unroutable");
    m_chaos_dropped_ = reg.GetCounter("net.chaos.dropped");
    m_chaos_duplicated_ = reg.GetCounter("net.chaos.duplicated");
    m_chaos_reordered_ = reg.GetCounter("net.chaos.reordered");
  }

  NodeId AddNode(NodeOptions opts);
  size_t num_nodes() const { return nodes_.size(); }
  const NodeOptions& node(NodeId id) const { return nodes_[id].opts; }
  Result<NodeId> FindNode(const std::string& name) const;

  /// Adds a bidirectional link (two directed links with the same options).
  Status AddLink(NodeId a, NodeId b, LinkOptions opts);
  /// Convenience: full mesh over all current nodes.
  void FullMesh(LinkOptions opts);
  bool HasLink(NodeId a, NodeId b) const;
  /// Options of the directed link, or NotFound.
  Result<LinkOptions> GetLinkOptions(NodeId a, NodeId b) const;

  /// True if the node can run an operator of this kind (§5.1 capability
  /// check before sliding a box).
  bool NodeSupports(NodeId id, const std::string& kind) const;

  /// Marks a node down (crash) or back up. Down nodes neither receive nor
  /// forward messages.
  void SetNodeUp(NodeId id, bool up) { nodes_[id].up = up; }
  bool IsNodeUp(NodeId id) const { return nodes_[id].up; }

  /// Changes a node's relative CPU speed at run time (fault injection's
  /// CPU-slowdown events; StreamNode reads the live value every step).
  void SetNodeSpeed(NodeId id, double speed) { nodes_[id].opts.speed = speed; }

  // ---- Fault-injection hooks (src/fault) --------------------------------

  /// Takes one *direction* of a link down (partition) or back up (heal) and
  /// recomputes routes. Traffic that then finds no route is dropped and
  /// counted under `net.link.dropped_unroutable`. NotFound without a link.
  Status SetLinkUp(NodeId a, NodeId b, bool up);
  bool IsLinkUp(NodeId a, NodeId b) const;

  /// Installs seeded drop/duplicate/reorder behaviour on the directed link.
  /// Overwrites any previous perturbation; a default-constructed value
  /// clears it. NotFound without a link.
  Status SetLinkPerturbation(NodeId a, NodeId b, LinkPerturbation pert);
  Result<LinkPerturbation> GetLinkPerturbation(NodeId a, NodeId b) const;

  /// Reseeds the perturbation Rng. Chaos runs call this once up front so
  /// two runs with the same seed and schedule are bit-identical.
  void SeedPerturbations(uint64_t seed) { chaos_rng_ = Rng(seed); }

  using DeliveryFn = std::function<void(const Message&)>;

  /// Sends a message from `from` toward `to` along shortest-hop routes,
  /// charging each hop's bandwidth and latency. `on_deliver` runs at the
  /// destination at delivery time; the message is silently dropped when a
  /// node on the path is down or no route exists.
  Status Send(NodeId from, NodeId to, Message msg, DeliveryFn on_deliver);

  /// Time at which the direct link from->to would finish serializing a
  /// message sent now (link FIFO backlog); SimTime::Max() without a link.
  SimTime LinkBusyUntil(NodeId from, NodeId to) const;

  /// True when a message sent now from->to would reach its destination:
  /// both endpoints up, a route exists, and every node along it is up.
  /// Flow-controlled transports poll this to *pause* instead of letting a
  /// partition drop their in-flight data.
  bool PathUp(NodeId from, NodeId to) const;

  // ---- Statistics -------------------------------------------------------

  /// Total payload+header bytes ever serialized onto the directed link.
  uint64_t LinkBytesSent(NodeId from, NodeId to) const;
  uint64_t TotalBytesSent() const { return total_bytes_; }
  uint64_t MessagesDelivered() const { return messages_delivered_; }
  uint64_t MessagesDropped() const { return messages_dropped_; }
  /// Drops caused by a down node on the path (sender, forwarder, or final
  /// hop) — the loss chaos runs assert against.
  uint64_t MessagesDroppedDown() const { return messages_dropped_down_; }
  /// Drops caused by a missing route (partitions, no link).
  uint64_t MessagesDroppedUnroutable() const {
    return messages_dropped_unroutable_;
  }
  uint64_t ChaosDropped() const { return chaos_dropped_; }
  uint64_t ChaosDuplicated() const { return chaos_duplicated_; }
  uint64_t ChaosReordered() const { return chaos_reordered_; }

 private:
  struct LinkRt {
    LinkOptions opts;
    SimTime busy_until{};
    uint64_t bytes_sent = 0;
    /// False while this direction is partitioned away.
    bool up = true;
    LinkPerturbation pert;
    // Registry mirrors, `net.link.<a>-><b>.bytes/.msgs`.
    Counter* bytes_counter = nullptr;
    Counter* msgs_counter = nullptr;
  };
  struct NodeRt {
    NodeOptions opts;
    bool up = true;
  };

  /// Creates the directed link and registers its counters.
  void InstallLink(NodeId a, NodeId b, const LinkOptions& opts);
  void RecomputeRoutes();
  /// Transmits over one directed link; schedules `arrive` at the far end
  /// `extra_delay` after the normal arrival time (reorder perturbation).
  void TransmitHop(NodeId from, NodeId to, size_t bytes,
                   SimDuration extra_delay, std::function<void()> arrive);
  void Forward(NodeId at, NodeId to, Message msg, DeliveryFn on_deliver);
  /// Bumps the shared + down-specific drop counters and debug-logs.
  void DropForDownNode(NodeId at, const Message& msg);

  Simulation* sim_;
  std::vector<NodeRt> nodes_;
  std::map<std::pair<NodeId, NodeId>, LinkRt> links_;
  /// next_hop_[{a,b}] = neighbor of a on a shortest path to b.
  std::map<std::pair<NodeId, NodeId>, NodeId> next_hop_;
  uint64_t total_bytes_ = 0;
  uint64_t messages_delivered_ = 0;
  uint64_t messages_dropped_ = 0;
  uint64_t messages_dropped_down_ = 0;
  uint64_t messages_dropped_unroutable_ = 0;
  uint64_t chaos_dropped_ = 0;
  uint64_t chaos_duplicated_ = 0;
  uint64_t chaos_reordered_ = 0;
  /// Drives every probabilistic perturbation; reseed via SeedPerturbations.
  Rng chaos_rng_{0x9e3779b97f4a7c15ull};
  /// Guards in-flight hop arrivals against outliving the overlay.
  Lifeline lifeline_;
  Counter* m_delivered_ = nullptr;
  Counter* m_dropped_ = nullptr;
  Counter* m_dropped_down_ = nullptr;
  Counter* m_dropped_unroutable_ = nullptr;
  Counter* m_chaos_dropped_ = nullptr;
  Counter* m_chaos_duplicated_ = nullptr;
  Counter* m_chaos_reordered_ = nullptr;
};

}  // namespace aurora

#endif  // AURORA_NET_OVERLAY_NETWORK_H_
