#ifndef AURORA_CHECK_RUNNER_H_
#define AURORA_CHECK_RUNNER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "check/invariants.h"
#include "check/scenario.h"

namespace aurora {

struct RunOptions {
  /// Run the single-node oracle and diff outputs against it.
  bool oracle_diff = true;
  /// How long past the trace end a healthy run may take to quiesce.
  SimDuration drain_timeout = SimDuration::Seconds(30);
  /// Idle-detection granularity while draining.
  SimDuration drain_slice = SimDuration::Millis(100);
};

/// Everything one scenario execution produced. Deterministic: running the
/// same spec twice yields byte-identical Summary() text.
struct RunReport {
  uint64_t injected = 0;
  uint64_t accepted = 0;
  uint64_t rejected = 0;
  uint64_t delivered = 0;
  uint64_t duplicates = 0;
  bool drained = false;
  /// Oracle diff was skipped (lossy run through stateful operators —
  /// documented nondeterminism, outputs are not comparable).
  bool diff_skipped = false;
  std::vector<Violation> violations;
  /// Output name -> canonical rows ('|'-joined field values, in emission
  /// order) from the distributed run and the oracle.
  std::map<std::string, std::vector<std::string>> outputs;
  std::map<std::string, std::vector<std::string>> oracle_outputs;

  bool ok() const { return violations.empty(); }
  std::string Summary() const;
};

/// Executes the scenario end to end: deploys its query over a simulated
/// Aurora* federation, injects the trace under the fault plan with the
/// invariant monitor attached, drains, then replays the accepted input
/// through a single-node oracle engine and diffs the outputs.
RunReport RunScenario(const ScenarioSpec& spec, const RunOptions& opts = {});

}  // namespace aurora

#endif  // AURORA_CHECK_RUNNER_H_
