#include "net/overlay_network.h"

#include <algorithm>
#include <deque>

#include "common/logging.h"

namespace aurora {

NodeId OverlayNetwork::AddNode(NodeOptions opts) {
  nodes_.push_back(NodeRt{std::move(opts), true});
  return static_cast<NodeId>(nodes_.size() - 1);
}

Result<NodeId> OverlayNetwork::FindNode(const std::string& name) const {
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].opts.name == name) return static_cast<NodeId>(i);
  }
  return Status::NotFound("no node named '" + name + "'");
}

void OverlayNetwork::InstallLink(NodeId a, NodeId b, const LinkOptions& opts) {
  LinkRt& link = links_[{a, b}];
  link = LinkRt{};
  link.opts = opts;
  MetricsRegistry& reg = MetricsRegistry::Global();
  const std::string base =
      "net.link." + std::to_string(a) + "->" + std::to_string(b) + ".";
  link.bytes_counter = reg.GetCounter(base + "bytes");
  link.msgs_counter = reg.GetCounter(base + "msgs");
}

Status OverlayNetwork::AddLink(NodeId a, NodeId b, LinkOptions opts) {
  if (a < 0 || b < 0 || a >= static_cast<int>(nodes_.size()) ||
      b >= static_cast<int>(nodes_.size()) || a == b) {
    return Status::InvalidArgument("bad link endpoints");
  }
  InstallLink(a, b, opts);
  InstallLink(b, a, opts);
  RecomputeRoutes();
  return Status::OK();
}

void OverlayNetwork::FullMesh(LinkOptions opts) {
  for (NodeId a = 0; a < static_cast<NodeId>(nodes_.size()); ++a) {
    for (NodeId b = a + 1; b < static_cast<NodeId>(nodes_.size()); ++b) {
      InstallLink(a, b, opts);
      InstallLink(b, a, opts);
    }
  }
  RecomputeRoutes();
}

bool OverlayNetwork::HasLink(NodeId a, NodeId b) const {
  return links_.count({a, b}) > 0;
}

Result<LinkOptions> OverlayNetwork::GetLinkOptions(NodeId a, NodeId b) const {
  auto it = links_.find({a, b});
  if (it == links_.end()) return Status::NotFound("no such link");
  return it->second.opts;
}

Status OverlayNetwork::SetLinkUp(NodeId a, NodeId b, bool up) {
  auto it = links_.find({a, b});
  if (it == links_.end()) return Status::NotFound("no such link");
  if (it->second.up != up) {
    it->second.up = up;
    RecomputeRoutes();
  }
  return Status::OK();
}

bool OverlayNetwork::IsLinkUp(NodeId a, NodeId b) const {
  auto it = links_.find({a, b});
  return it != links_.end() && it->second.up;
}

Status OverlayNetwork::SetLinkPerturbation(NodeId a, NodeId b,
                                           LinkPerturbation pert) {
  auto it = links_.find({a, b});
  if (it == links_.end()) return Status::NotFound("no such link");
  it->second.pert = pert;
  return Status::OK();
}

Result<LinkPerturbation> OverlayNetwork::GetLinkPerturbation(NodeId a,
                                                             NodeId b) const {
  auto it = links_.find({a, b});
  if (it == links_.end()) return Status::NotFound("no such link");
  return it->second.pert;
}

bool OverlayNetwork::NodeSupports(NodeId id, const std::string& kind) const {
  const auto& supported = nodes_[id].opts.supported_kinds;
  if (supported.empty()) return true;
  return std::find(supported.begin(), supported.end(), kind) != supported.end();
}

void OverlayNetwork::RecomputeRoutes() {
  // BFS from every node over the directed link graph (hop-count routes).
  next_hop_.clear();
  const int n = static_cast<int>(nodes_.size());
  for (NodeId src = 0; src < n; ++src) {
    std::vector<int> parent(n, -1);
    std::vector<bool> seen(n, false);
    std::deque<NodeId> frontier{src};
    seen[src] = true;
    while (!frontier.empty()) {
      NodeId at = frontier.front();
      frontier.pop_front();
      for (const auto& [key, link] : links_) {
        if (key.first != at || !link.up) continue;  // partitioned: no route
        NodeId next = key.second;
        if (seen[next]) continue;
        seen[next] = true;
        parent[next] = at;
        frontier.push_back(next);
      }
    }
    for (NodeId dst = 0; dst < n; ++dst) {
      if (dst == src || !seen[dst]) continue;
      // Walk back from dst to find src's neighbor on the path.
      NodeId hop = dst;
      while (parent[hop] != src) hop = parent[hop];
      next_hop_[{src, dst}] = hop;
    }
  }
}

bool OverlayNetwork::PathUp(NodeId from, NodeId to) const {
  const int n = static_cast<int>(nodes_.size());
  if (from < 0 || to < 0 || from >= n || to >= n) return false;
  if (!nodes_[from].up || !nodes_[to].up) return false;
  // Walk the next-hop chain; routes already avoid downed *links*, so only
  // downed intermediate nodes remain to be checked.
  NodeId at = from;
  while (at != to) {
    auto it = next_hop_.find({at, to});
    if (it == next_hop_.end()) return false;
    at = it->second;
    if (!nodes_[at].up) return false;
  }
  return true;
}

void OverlayNetwork::TransmitHop(NodeId from, NodeId to, size_t bytes,
                                 SimDuration extra_delay,
                                 std::function<void()> arrive) {
  auto it = links_.find({from, to});
  AURORA_CHECK(it != links_.end());
  LinkRt& link = it->second;
  SimTime start = std::max(sim_->Now(), link.busy_until);
  SimDuration tx = SimDuration::Micros(static_cast<int64_t>(
      static_cast<double>(bytes) / link.opts.bandwidth_bytes_per_sec * 1e6));
  link.busy_until = start + tx;
  link.bytes_sent += bytes;
  total_bytes_ += bytes;
  link.bytes_counter->Add(bytes);
  link.msgs_counter->Add();
  sim_->ScheduleAt(link.busy_until + link.opts.latency + extra_delay,
                   std::move(arrive));
}

Status OverlayNetwork::Send(NodeId from, NodeId to, Message msg,
                            DeliveryFn on_deliver) {
  if (from < 0 || to < 0 || from >= static_cast<int>(nodes_.size()) ||
      to >= static_cast<int>(nodes_.size())) {
    return Status::InvalidArgument("bad node id");
  }
  if (from == to) {
    // Local delivery: no link cost, next event slot.
    sim_->Schedule(SimDuration::Micros(1),
                   [this, msg = std::move(msg), on_deliver]() {
                     messages_delivered_++;
                     m_delivered_->Add();
                     if (on_deliver) on_deliver(msg);
                   });
    return Status::OK();
  }
  msg.src = from;
  msg.dst = to;
  Forward(from, to, std::move(msg), std::move(on_deliver));
  return Status::OK();
}

void OverlayNetwork::DropForDownNode(NodeId at, const Message& msg) {
  messages_dropped_++;
  messages_dropped_down_++;
  m_dropped_->Add();
  m_dropped_down_->Add();
  AURORA_LOG(Debug) << "dropping '" << msg.kind << "' message " << msg.src
                    << "->" << msg.dst << ": node " << at << " is down";
}

void OverlayNetwork::Forward(NodeId at, NodeId to, Message msg,
                             DeliveryFn on_deliver) {
  if (!nodes_[at].up) {
    DropForDownNode(at, msg);
    return;
  }
  auto hop_it = next_hop_.find({at, to});
  if (hop_it == next_hop_.end()) {
    messages_dropped_++;
    messages_dropped_unroutable_++;
    m_dropped_->Add();
    m_dropped_unroutable_->Add();
    AURORA_LOG(Debug) << "dropping '" << msg.kind << "' message " << msg.src
                      << "->" << msg.dst << ": no route from " << at;
    return;
  }
  NodeId hop = hop_it->second;

  // Per-link chaos (fault injection): drop, duplicate, or delay the message
  // on this hop. Rng draws happen in simulation-event order, so a fixed
  // seed replays identically.
  const LinkPerturbation& pert = links_.find({at, hop})->second.pert;
  int copies = 1;
  SimDuration extra_delay{};
  if (pert.Active()) {
    if (pert.drop_p > 0.0 && chaos_rng_.OneIn(pert.drop_p)) {
      messages_dropped_++;
      chaos_dropped_++;
      m_dropped_->Add();
      m_chaos_dropped_->Add();
      return;
    }
    if (pert.dup_p > 0.0 && chaos_rng_.OneIn(pert.dup_p)) {
      copies = 2;
      chaos_duplicated_++;
      m_chaos_duplicated_->Add();
    }
    if (pert.reorder_p > 0.0 && chaos_rng_.OneIn(pert.reorder_p)) {
      extra_delay = pert.reorder_delay;
      chaos_reordered_++;
      m_chaos_reordered_->Add();
    }
  }

  size_t bytes = msg.WireSize();
  auto make_arrival = [this, hop, to, on_deliver](Message m) {
    return lifeline_.Guard([this, hop, to, m = std::move(m),
                            on_deliver]() mutable {
      if (!nodes_[hop].up) {
        DropForDownNode(hop, m);
        return;
      }
      if (hop == to) {
        messages_delivered_++;
        m_delivered_->Add();
        if (on_deliver) on_deliver(m);
      } else {
        Forward(hop, to, std::move(m), std::move(on_deliver));
      }
    });
  };
  for (int c = 0; c < copies; ++c) {
    Message m = (c + 1 < copies) ? msg : std::move(msg);
    TransmitHop(at, hop, bytes, extra_delay, make_arrival(std::move(m)));
  }
}

SimTime OverlayNetwork::LinkBusyUntil(NodeId from, NodeId to) const {
  auto it = links_.find({from, to});
  if (it == links_.end()) return SimTime::Max();
  return it->second.busy_until;
}

uint64_t OverlayNetwork::LinkBytesSent(NodeId from, NodeId to) const {
  auto it = links_.find({from, to});
  return it == links_.end() ? 0 : it->second.bytes_sent;
}

}  // namespace aurora
