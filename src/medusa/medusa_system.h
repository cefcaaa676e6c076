#ifndef AURORA_MEDUSA_MEDUSA_SYSTEM_H_
#define AURORA_MEDUSA_MEDUSA_SYSTEM_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "distributed/box_slider.h"
#include "fault/failure_detector.h"
#include "medusa/contracts.h"
#include "medusa/participant.h"
#include "sim/simulation.h"

namespace aurora {

struct MedusaOptions {
  /// How often content contracts are settled (messages metered, money
  /// transferred) and oracles evaluate movement contracts.
  SimDuration settle_interval = SimDuration::Millis(200);
  /// Oracle thresholds: a side proposes moving the box away above
  /// `overload`, and accepts hosting below `underload`.
  double oracle_overload = 0.8;
  double oracle_underload = 0.5;
};

/// \brief Medusa: federated operation across administrative boundaries
/// (paper §3.2, §7.2).
///
/// Layers the agoric economy over an AuroraStarSystem whose nodes are
/// partitioned among participants. Content contracts meter the tuples of
/// boundary-crossing streams and move money from buyer to seller each
/// settlement; movement contracts let the paired oracles migrate a query
/// piece between the two participants when both sides profit; remote
/// definition instantiates operators from a participant's offered set
/// inside its domain (§4.4).
class MedusaSystem {
 public:
  MedusaSystem(AuroraStarSystem* system, MedusaOptions opts)
      : star_(system),
        opts_(opts),
        slider_(system),
        // Buyers watch seller nodes through the shared detector: a settle
        // round doubles as the heartbeat, so silence shorter than a round
        // can never convict and a full silent round always does.
        detector_(FailureDetectorOptions{
            SimDuration::Micros(opts.settle_interval.micros() / 2), 1}) {}

  AuroraStarSystem* star() { return star_; }

  // ---- Participants ------------------------------------------------------

  Result<Participant*> AddParticipant(const std::string& name,
                                      std::vector<NodeId> nodes,
                                      double initial_balance,
                                      double cost_per_cpu_us);
  Result<Participant*> GetParticipant(const std::string& name);
  /// Owner of a node, or NotFound.
  Result<std::string> ParticipantOfNode(NodeId node) const;
  size_t num_participants() const { return participants_.size(); }

  /// Starts the settlement/oracle timers.
  void Start();

  // ---- Remote definition (§4.4) -------------------------------------------

  /// `definer` instantiates an operator inside `owner`'s domain: the spec's
  /// kind must be in the owner's offered set, the definer must be
  /// authorized, and `output_name` names an engine output on `node` whose
  /// feed the new box intercepts (content customization: "remotely define
  /// the filter, and receive directly the customized content").
  Result<BoxId> RemoteDefine(const std::string& definer,
                             const std::string& owner, NodeId node,
                             const std::string& output_name,
                             const OperatorSpec& spec);

  // ---- Content contracts (§7.2) -------------------------------------------

  /// Establishes a per-message contract over the named transport stream
  /// (which must originate on a seller node and terminate on a buyer node).
  Result<int> EstablishContentContract(const std::string& seller,
                                       const std::string& buyer,
                                       const std::string& stream,
                                       double price_per_message,
                                       SimDuration period,
                                       double availability_guarantee = 0.0,
                                       double upfront_payment = 0.0);
  Status CancelContentContract(int id);
  Result<const ContentContract*> GetContentContract(int id) const;

  /// Meters all active content contracts once and transfers payments.
  void SettleContracts();

  /// A leaving participant suggests an alternate seller to a buyer (§7.2).
  /// The buyer (modeled as always accepting, the paper allows refusal via
  /// `accept=false`) establishes a replacement contract and the original is
  /// cancelled.
  Result<int> SuggestContract(const std::string& from, int contract_id,
                              const std::string& new_seller,
                              const std::string& new_stream, bool accept);

  // ---- Movement contracts and oracles (§7.2) -------------------------------

  /// Pre-agrees that `box_name` (currently at a's node) may run at either
  /// participant, with per-tuple prices each side charges for hosting.
  Result<int> EstablishMovementContract(const std::string& a, NodeId node_a,
                                        const std::string& b, NodeId node_b,
                                        const std::string& box_name,
                                        DeployedQuery* deployed,
                                        double price_a, double price_b);
  /// Either side may cancel at any time (§7.2).
  Status CancelMovementContract(int id);

  /// One oracle evaluation pass: for each active movement contract, the
  /// hosting side proposes a hand-off when overloaded, and the counterpart
  /// accepts when underloaded and profitable. Returns switches performed.
  int RunOracles();

  // ---- Statistics ----------------------------------------------------------

  double total_transferred() const { return total_transferred_; }
  int total_switches() const { return total_switches_; }
  const std::vector<ContentContract>& content_contracts() const {
    return content_;
  }
  const std::vector<MovementContract>& movement_contracts() const {
    return movement_;
  }
  const std::vector<SuggestedContract>& suggestions() const {
    return suggestions_;
  }
  /// The availability-clause failure detector (contract id = watcher,
  /// seller NodeId = watched).
  const HeartbeatFailureDetector& detector() const { return detector_; }

 private:
  /// Locates the (node, binding stream) pair for a stream name; returns the
  /// holder node or NotFound.
  Result<NodeId> FindStreamSource(const std::string& stream) const;
  void Transfer(const std::string& from, const std::string& to, double amount);
  /// Hosting participant's per-tuple processing charge for a movement
  /// contract's box, paid by the box's owner side.
  void SettleMovementProcessing();

  AuroraStarSystem* star_;
  MedusaOptions opts_;
  BoxSlider slider_;
  HeartbeatFailureDetector detector_;
  std::map<std::string, std::unique_ptr<Participant>> participants_;
  std::vector<ContentContract> content_;
  std::vector<MovementContract> movement_;
  std::vector<SuggestedContract> suggestions_;
  /// Per content contract: tuples_sent watermark at last settlement.
  std::map<int, uint64_t> settled_watermark_;
  /// Movement contract -> (deployed query handle, tuples_in watermark).
  std::map<int, std::pair<DeployedQuery*, uint64_t>> movement_state_;
  int next_contract_id_ = 1;
  double total_transferred_ = 0.0;
  int total_switches_ = 0;
  /// Settlement tick; destroying the system cancels it.
  PeriodicTimer settle_timer_;
};

}  // namespace aurora

#endif  // AURORA_MEDUSA_MEDUSA_SYSTEM_H_
