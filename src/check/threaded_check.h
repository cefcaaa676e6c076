#ifndef AURORA_CHECK_THREADED_CHECK_H_
#define AURORA_CHECK_THREADED_CHECK_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "check/scenario.h"

namespace aurora {

/// Result of one threaded-vs-oracle run. Scenario chains are linear
/// (single-input boxes), so the ThreadedEngine determinism contract
/// guarantees byte-identical per-output row sequences — the diff is always
/// exact, never a lossy subsequence check.
struct ThreadedCheckReport {
  int workers = 0;
  uint64_t injected = 0;
  uint64_t activations = 0;
  uint64_t steals = 0;
  uint64_t ring_full_events = 0;
  std::vector<std::string> violations;
  /// Output name -> canonical rows ('|'-joined field values, in emission
  /// order) from the threaded run and the single-threaded oracle.
  std::map<std::string, std::vector<std::string>> outputs;
  std::map<std::string, std::vector<std::string>> oracle_outputs;

  bool ok() const { return violations.empty(); }
  std::string Summary() const;
};

/// Deploys the scenario's query onto a ThreadedEngine with `workers`
/// threads, pushes the full generated trace from the calling thread,
/// drains, then replays the same trace through a single-threaded
/// AuroraEngine oracle and diffs every output port exactly.
///
/// The scenario's transport knobs (flow_window, dedup) and fault plan do
/// not apply — there is no network here. What this gate checks is the
/// threaded runtime itself: per-arc FIFO, exactly-once consumption, and
/// quiescence, across worker counts.
///
/// `train_size` > 0 overrides the engine train size (the most tuples one
/// activation hands a single-input box as a batch); 0 derives it from the
/// scenario's transport train.
ThreadedCheckReport RunThreadedScenario(const ScenarioSpec& spec,
                                        int workers, int train_size = 0);

}  // namespace aurora

#endif  // AURORA_CHECK_THREADED_CHECK_H_
