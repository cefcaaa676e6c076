#ifndef AURORA_DISTRIBUTED_LOAD_DAEMON_H_
#define AURORA_DISTRIBUTED_LOAD_DAEMON_H_

#include <map>
#include <string>

#include "distributed/box_slider.h"
#include "distributed/box_splitter.h"
#include "sim/simulation.h"

namespace aurora {

/// Which repartitioning mechanisms the daemon may use (§5.1).
enum class RepartitionAction {
  kSlideOnly,
  kSplitOnly,
  kSlideOrSplit,
};

struct LoadDaemonOptions {
  /// How often each node's daemon wakes up ("a query optimizer/load share
  /// daemon will run periodically in the background", §5.1). Too-frequent
  /// rebalancing causes instability (§5.2) — see cooldown below.
  SimDuration interval = SimDuration::Millis(250);
  /// Utilization above which a node tries to offload.
  double high_water = 0.85;
  /// Peers below this utilization will accept load.
  double low_water = 0.6;
  RepartitionAction action = RepartitionAction::kSlideOrSplit;
  /// A box is not moved again within this period — the paper's stability
  /// concern ("shifting boxes around too frequently could lead to
  /// instability", §5.2).
  SimDuration cooldown = SimDuration::Seconds(1);
  /// Consider link bandwidth before moving a box (§5.2 "Choosing What to
  /// Offload": a neighbour may have cycles but not bandwidth).
  bool bandwidth_aware = true;
  /// Fraction of link bandwidth a moved arc may consume.
  double bandwidth_headroom = 0.8;
  /// Field used for hash-partition split predicates.
  std::string split_field;
};

/// \brief Decentralized load-share daemon (paper §5).
///
/// Each round, every overloaded node looks for an underloaded peer and
/// moves work in a pair-wise interaction: it slides its heaviest movable
/// box (or splits it when sliding is disallowed or insufficient), subject
/// to the destination's operator-capability and the link's bandwidth.
class LoadShareDaemon {
 public:
  LoadShareDaemon(AuroraStarSystem* system, DeployedQuery* deployed,
                  LoadDaemonOptions opts)
      : system_(system),
        deployed_(deployed),
        opts_(opts),
        slider_(system),
        splitter_(system) {}

  /// Starts the periodic daemon on the simulation clock.
  void Start();

  /// One decision round over all nodes; returns the number of
  /// repartitioning actions performed.
  int RunOnce();

  uint64_t slides() const { return slides_; }
  uint64_t splits() const { return splits_; }
  uint64_t rounds() const { return rounds_; }

 private:
  struct BoxLoad {
    std::string name;
    double recent_cost_us = 0.0;  // measured work since last round
    double in_rate_bytes_per_s = 0.0;
  };

  /// Measured per-box work on a node since the previous round.
  std::vector<BoxLoad> MeasureBoxLoads(NodeId node);
  bool BandwidthAllows(NodeId src, NodeId dst, double bytes_per_s) const;

  AuroraStarSystem* system_;
  DeployedQuery* deployed_;
  LoadDaemonOptions opts_;
  BoxSlider slider_;
  BoxSplitter splitter_;
  std::map<std::string, uint64_t> last_tuples_in_;
  std::map<std::string, SimTime> last_moved_;
  SimTime last_round_{};
  uint64_t slides_ = 0;
  uint64_t splits_ = 0;
  uint64_t rounds_ = 0;
  uint64_t split_counter_ = 0;
  PeriodicTimer timer_;
};

}  // namespace aurora

#endif  // AURORA_DISTRIBUTED_LOAD_DAEMON_H_
