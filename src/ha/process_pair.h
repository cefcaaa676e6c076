#ifndef AURORA_HA_PROCESS_PAIR_H_
#define AURORA_HA_PROCESS_PAIR_H_

#include "distributed/aurora_star.h"

namespace aurora {

/// \brief Process-pair checkpointing baseline (paper §6.4; Tandem [1],
/// Gray & Reuter [10]).
///
/// The comparator the paper argues against: "to achieve high availability
/// with a process-pair model would require a checkpoint message every time
/// a box processed a message". This model attaches to a primary node and
/// ships one checkpoint message per box-processed tuple to a dedicated
/// backup node, charging real bytes on the overlay. Its advantage is
/// recovery: only the tuples in process at failure time are redone.
class ProcessPairModel {
 public:
  ProcessPairModel(AuroraStarSystem* system, NodeId primary, NodeId backup,
                   size_t checkpoint_bytes_per_tuple = 64)
      : system_(system),
        primary_(primary),
        backup_(backup),
        bytes_per_tuple_(checkpoint_bytes_per_tuple) {}

  /// Starts mirroring: polls the primary's per-box processed counts every
  /// `poll` and sends one checkpoint message per newly processed tuple.
  void Start(SimDuration poll = SimDuration::Millis(1));

  uint64_t checkpoint_messages() const { return checkpoint_messages_; }
  uint64_t checkpoint_bytes() const {
    return checkpoint_messages_ * bytes_per_tuple_;
  }

  /// Work redone on failover: only tuples queued (in process) at the
  /// primary at failure time.
  size_t RecoveryWorkTuples() const {
    return system_->node(primary_).engine().TotalQueuedTuples();
  }

 private:
  uint64_t ProcessedSoFar() const;

  AuroraStarSystem* system_;
  NodeId primary_;
  NodeId backup_;
  size_t bytes_per_tuple_;
  uint64_t last_seen_ = 0;
  uint64_t checkpoint_messages_ = 0;
  PeriodicTimer poll_timer_;
};

}  // namespace aurora

#endif  // AURORA_HA_PROCESS_PAIR_H_
