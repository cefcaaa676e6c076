#include "medusa/medusa_system.h"

namespace aurora {

Result<Participant*> MedusaSystem::AddParticipant(const std::string& name,
                                                  std::vector<NodeId> nodes,
                                                  double initial_balance,
                                                  double cost_per_cpu_us) {
  if (participants_.count(name)) {
    return Status::AlreadyExists("participant '" + name + "' exists");
  }
  for (NodeId node : nodes) {
    if (node < 0 || node >= static_cast<int>(star_->num_nodes())) {
      return Status::InvalidArgument("bad node id for participant");
    }
    auto owner = ParticipantOfNode(node);
    if (owner.ok()) {
      return Status::AlreadyExists("node " + std::to_string(node) +
                                   " already belongs to " + *owner);
    }
  }
  auto participant = std::make_unique<Participant>(
      name, std::move(nodes), initial_balance, cost_per_cpu_us);
  Participant* raw = participant.get();
  participants_[name] = std::move(participant);
  return raw;
}

Result<Participant*> MedusaSystem::GetParticipant(const std::string& name) {
  auto it = participants_.find(name);
  if (it == participants_.end()) {
    return Status::NotFound("no participant '" + name + "'");
  }
  return it->second.get();
}

Result<std::string> MedusaSystem::ParticipantOfNode(NodeId node) const {
  for (const auto& [name, p] : participants_) {
    if (p->OwnsNode(node)) return name;
  }
  return Status::NotFound("node " + std::to_string(node) +
                          " belongs to no participant");
}

void MedusaSystem::Start() {
  if (settle_timer_.active()) return;
  settle_timer_ = star_->sim()->SchedulePeriodicCancelable(
      opts_.settle_interval, [this]() {
        SettleContracts();
        SettleMovementProcessing();
        RunOracles();
        return true;
      });
}

// ---------------------------------------------------------------------------
// Remote definition
// ---------------------------------------------------------------------------

Result<BoxId> MedusaSystem::RemoteDefine(const std::string& definer,
                                         const std::string& owner, NodeId node,
                                         const std::string& output_name,
                                         const OperatorSpec& spec) {
  AURORA_ASSIGN_OR_RETURN(Participant * owner_p, GetParticipant(owner));
  AURORA_RETURN_NOT_OK(GetParticipant(definer).status());
  if (!owner_p->IsAuthorized(definer)) {
    return Status::FailedPrecondition("'" + definer +
                                      "' is not authorized to remotely "
                                      "define operators at '" +
                                      owner + "'");
  }
  if (!owner_p->Offers(spec.kind)) {
    return Status::FailedPrecondition("'" + owner + "' does not offer '" +
                                      spec.kind +
                                      "' in its remote-definition set");
  }
  if (!owner_p->OwnsNode(node)) {
    return Status::InvalidArgument("node does not belong to '" + owner + "'");
  }
  AuroraEngine& engine = star_->node(node).engine();
  AURORA_ASSIGN_OR_RETURN(PortId port, engine.FindOutput(output_name));
  std::vector<ArcId> feeds = engine.ArcsInto(port);
  if (feeds.empty()) {
    return Status::FailedPrecondition("output '" + output_name +
                                      "' has no feeding arc to intercept");
  }
  AURORA_ASSIGN_OR_RETURN(BoxId box, engine.AddBox(spec));
  auto op = engine.BoxOp(box);
  if ((*op)->num_inputs() != 1 || (*op)->num_outputs() < 1) {
    return Status::InvalidArgument(
        "remote definition intercepts require a unary operator");
  }
  if (feeds.size() > 1) {
    return Status::NotImplemented(
        "intercepting a fan-in output port is not supported");
  }
  Endpoint src_ep = engine.ArcFrom(feeds[0]);
  AURORA_RETURN_NOT_OK(engine.DisconnectArc(feeds[0]));
  AURORA_RETURN_NOT_OK(
      engine.Connect(src_ep, Endpoint::BoxPort(box, 0)).status());
  AURORA_RETURN_NOT_OK(
      engine.Connect(Endpoint::BoxPort(box, 0), Endpoint::OutputPort(port))
          .status());
  AURORA_RETURN_NOT_OK(engine.InitializeBoxes(/*require_all=*/false));
  if (!engine.IsBoxInitialized(box)) {
    return Status::Internal("remotely defined box failed to initialize");
  }
  // Record the definition in the owner's per-participant catalog (§4.1).
  (void)owner_p->catalog().DefineOperator(
      definer + "/" + output_name + "/" + spec.kind, spec);
  return box;
}

// ---------------------------------------------------------------------------
// Content contracts
// ---------------------------------------------------------------------------

Result<NodeId> MedusaSystem::FindStreamSource(const std::string& stream) const {
  for (size_t i = 0; i < star_->num_nodes(); ++i) {
    NodeId id = static_cast<NodeId>(i);
    for (const auto& [output, binding] : star_->node(id).bindings()) {
      if (binding.stream == stream) return id;
    }
  }
  return Status::NotFound("no binding carries stream '" + stream + "'");
}

Result<int> MedusaSystem::EstablishContentContract(
    const std::string& seller, const std::string& buyer,
    const std::string& stream, double price_per_message, SimDuration period,
    double availability_guarantee, double upfront_payment) {
  AURORA_ASSIGN_OR_RETURN(Participant * seller_p, GetParticipant(seller));
  AURORA_RETURN_NOT_OK(GetParticipant(buyer).status());
  AURORA_ASSIGN_OR_RETURN(NodeId src_node, FindStreamSource(stream));
  if (!seller_p->OwnsNode(src_node)) {
    return Status::FailedPrecondition("stream does not originate at '" +
                                      seller + "'");
  }
  ContentContract contract;
  contract.id = next_contract_id_++;
  contract.stream = stream;
  contract.seller = seller;
  contract.buyer = buyer;
  contract.price_per_message = price_per_message;
  contract.upfront_payment = upfront_payment;
  contract.established = star_->sim()->Now();
  contract.period = period;
  contract.availability_guarantee = availability_guarantee;
  if (upfront_payment > 0.0) {
    Transfer(buyer, seller, upfront_payment);
    contract.total_paid += upfront_payment;
  }
  // Watermark starts at the current sent count: only future messages bill.
  uint64_t sent = 0;
  for (const auto& [output, binding] : star_->node(src_node).bindings()) {
    if (binding.stream == stream) sent = binding.tuples_sent;
  }
  settled_watermark_[contract.id] = sent;
  content_.push_back(contract);
  return contract.id;
}

Status MedusaSystem::CancelContentContract(int id) {
  for (auto& c : content_) {
    if (c.id == id) {
      c.active = false;
      detector_.ForgetWatcher(c.id);
      return Status::OK();
    }
  }
  return Status::NotFound("no content contract " + std::to_string(id));
}

Result<const ContentContract*> MedusaSystem::GetContentContract(int id) const {
  for (const auto& c : content_) {
    if (c.id == id) return &c;
  }
  return Status::NotFound("no content contract " + std::to_string(id));
}

void MedusaSystem::Transfer(const std::string& from, const std::string& to,
                            double amount) {
  auto from_p = GetParticipant(from);
  auto to_p = GetParticipant(to);
  if (!from_p.ok() || !to_p.ok() || amount <= 0.0) return;
  (*from_p)->Debit(amount);
  (*to_p)->Credit(amount);
  total_transferred_ += amount;
}

void MedusaSystem::SettleContracts() {
  SimTime now = star_->sim()->Now();
  // Liveness pass: every active contract watches its seller node through
  // the shared heartbeat detector (§6.3 reused across layers). An up
  // seller's settle round doubles as its heartbeat; a fully silent round
  // raises the suspicion consumed by the billing pass below.
  for (auto& c : content_) {
    if (!c.active) continue;
    auto src = FindStreamSource(c.stream);
    if (!src.ok()) continue;
    detector_.Arm(c.id, *src, now);
    if (star_->node(*src).up()) detector_.RecordHeartbeat(c.id, *src, now);
  }
  (void)detector_.CheckSilence(now);
  for (auto& c : content_) {
    if (!c.active) continue;
    if (c.period.micros() > 0 && now > c.established + c.period) {
      c.active = false;  // the time period expired
      detector_.ForgetWatcher(c.id);
      continue;
    }
    auto src = FindStreamSource(c.stream);
    if (!src.ok()) continue;
    c.settle_checks++;
    if (detector_.IsSuspected(*src)) {
      c.down_checks++;
      // Availability clause: breach voids the contract.
      if (c.availability_guarantee > 0.0 && c.settle_checks > 4) {
        double uptime = 1.0 - static_cast<double>(c.down_checks) /
                                  static_cast<double>(c.settle_checks);
        if (uptime < c.availability_guarantee) {
          c.active = false;
          detector_.ForgetWatcher(c.id);
        }
      }
      continue;
    }
    uint64_t sent = 0;
    for (const auto& [output, binding] : star_->node(*src).bindings()) {
      if (binding.stream == c.stream) sent = binding.tuples_sent;
    }
    uint64_t& mark = settled_watermark_[c.id];
    if (sent <= mark) continue;
    uint64_t delta = sent - mark;
    mark = sent;
    double payment = static_cast<double>(delta) * c.price_per_message;
    Transfer(c.buyer, c.seller, payment);
    c.messages_settled += delta;
    c.total_paid += payment;
  }
}

Result<int> MedusaSystem::SuggestContract(const std::string& from,
                                          int contract_id,
                                          const std::string& new_seller,
                                          const std::string& new_stream,
                                          bool accept) {
  ContentContract* original = nullptr;
  for (auto& c : content_) {
    if (c.id == contract_id) original = &c;
  }
  if (original == nullptr || !original->active) {
    return Status::NotFound("no active contract " + std::to_string(contract_id));
  }
  if (original->seller != from) {
    return Status::FailedPrecondition(
        "only the current seller can suggest an alternate source");
  }
  SuggestedContract suggestion;
  suggestion.from = from;
  suggestion.buyer = original->buyer;
  suggestion.stream = new_stream;
  suggestion.new_seller = new_seller;
  suggestion.accepted = accept;
  suggestions_.push_back(suggestion);
  if (!accept) return contract_id;  // buyer ignored it; old contract stands
  AURORA_ASSIGN_OR_RETURN(
      int new_id,
      EstablishContentContract(new_seller, original->buyer, new_stream,
                               original->price_per_message, original->period,
                               original->availability_guarantee));
  original->active = false;
  return new_id;
}

// ---------------------------------------------------------------------------
// Movement contracts / oracles
// ---------------------------------------------------------------------------

Result<int> MedusaSystem::EstablishMovementContract(
    const std::string& a, NodeId node_a, const std::string& b, NodeId node_b,
    const std::string& box_name, DeployedQuery* deployed, double price_a,
    double price_b) {
  AURORA_ASSIGN_OR_RETURN(Participant * pa, GetParticipant(a));
  AURORA_ASSIGN_OR_RETURN(Participant * pb, GetParticipant(b));
  if (!pa->OwnsNode(node_a) || !pb->OwnsNode(node_b)) {
    return Status::InvalidArgument("movement contract nodes must belong to "
                                   "the contracting participants");
  }
  auto it = deployed->boxes.find(box_name);
  if (it == deployed->boxes.end()) {
    return Status::NotFound("no deployed box '" + box_name + "'");
  }
  if (it->second.node != node_a && it->second.node != node_b) {
    return Status::FailedPrecondition(
        "box currently runs on neither contract node");
  }
  MovementContract m;
  m.id = next_contract_id_++;
  m.participant_a = a;
  m.participant_b = b;
  m.box_name = box_name;
  m.node_a = node_a;
  m.node_b = node_b;
  m.price_a = price_a;
  m.price_b = price_b;
  m.hosted_at_b = (it->second.node == node_b);
  movement_.push_back(m);
  movement_state_[m.id] = {deployed, 0};
  return m.id;
}

Status MedusaSystem::CancelMovementContract(int id) {
  for (auto& m : movement_) {
    if (m.id == id) {
      m.active = false;
      return Status::OK();
    }
  }
  return Status::NotFound("no movement contract " + std::to_string(id));
}

void MedusaSystem::SettleMovementProcessing() {
  // Convention: participant A owns the query; when the box runs at B, A
  // pays B's per-tuple price for the processing service.
  for (auto& m : movement_) {
    if (!m.active || !m.hosted_at_b) continue;
    auto state = movement_state_.find(m.id);
    if (state == movement_state_.end()) continue;
    DeployedQuery* deployed = state->second.first;
    auto it = deployed->boxes.find(m.box_name);
    if (it == deployed->boxes.end()) continue;
    auto op = star_->node(it->second.node).engine().BoxOp(it->second.box);
    if (!op.ok()) continue;
    uint64_t in_now = (*op)->tuples_in();
    uint64_t& mark = state->second.second;
    if (in_now <= mark) continue;
    uint64_t delta = in_now - mark;
    mark = in_now;
    Transfer(m.participant_a, m.participant_b,
             static_cast<double>(delta) * m.price_b);
  }
}

int MedusaSystem::RunOracles() {
  int switches = 0;
  for (auto& m : movement_) {
    if (!m.active) continue;
    auto state = movement_state_.find(m.id);
    if (state == movement_state_.end()) continue;
    DeployedQuery* deployed = state->second.first;
    NodeId host = m.hosted_at_b ? m.node_b : m.node_a;
    NodeId other = m.hosted_at_b ? m.node_a : m.node_b;
    StreamNode& host_node = star_->node(host);
    StreamNode& other_node = star_->node(other);
    if (!host_node.up() || !other_node.up()) continue;
    // The hosting oracle proposes a hand-off when overloaded; the
    // counterpart accepts when underloaded AND the hosting fee covers its
    // processing cost ("their contracts have to make money").
    if (host_node.utilization() < opts_.oracle_overload) continue;
    if (other_node.utilization() > opts_.oracle_underload) continue;
    const std::string& acceptor =
        m.hosted_at_b ? m.participant_a : m.participant_b;
    double acceptor_price = m.hosted_at_b ? m.price_a : m.price_b;
    auto acceptor_p = GetParticipant(acceptor);
    auto it = deployed->boxes.find(m.box_name);
    if (!acceptor_p.ok() || it == deployed->boxes.end()) continue;
    auto op = star_->node(it->second.node).engine().BoxOp(it->second.box);
    if (!op.ok()) continue;
    double marginal_cost =
        (*op)->cost_micros_per_tuple() * (*acceptor_p)->cost_per_cpu_us();
    // The query owner (A) hosting its own box charges itself nothing.
    bool profitable = (acceptor == m.participant_a) ||
                      acceptor_price > marginal_cost;
    if (!profitable) continue;
    // Cross-domain moves use remote definition, never process migration
    // (§4.4): the box is re-instantiated from its spec at the counterpart,
    // with any open state drained downstream first.
    auto result =
        slider_.Slide(deployed, m.box_name, other, SlideMode::kRemoteDefinition);
    if (!result.ok()) continue;
    m.hosted_at_b = !m.hosted_at_b;
    m.switches++;
    switches++;
    total_switches_++;
    // Reset the processing watermark in the new location's counter space.
    auto new_op = star_->node(other).engine().BoxOp(deployed->boxes.at(m.box_name).box);
    state->second.second = new_op.ok() ? (*new_op)->tuples_in() : 0;
  }
  return switches;
}

}  // namespace aurora
