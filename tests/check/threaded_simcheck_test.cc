// Threaded-runtime simcheck gate: generated scenarios run on the
// ThreadedEngine at several worker counts must produce byte-identical
// output rows to the single-threaded oracle engine. Scenario chains are
// linear, so the diff is exact — any divergence is a runtime bug (lost,
// duplicated, or reordered tuple on some arc).
#include <gtest/gtest.h>

#include "check/threaded_check.h"

namespace aurora {
namespace {

constexpr int kSeeds = 25;

void RunSeeds(int workers, int train_size = 0) {
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    ScenarioSpec spec = GenerateScenario(seed);
    ThreadedCheckReport report = RunThreadedScenario(spec, workers,
                                                    train_size);
    ASSERT_TRUE(report.ok()) << "seed " << seed << " workers " << workers
                             << " train " << train_size << "\n"
                             << report.Summary();
    EXPECT_EQ(report.injected, static_cast<uint64_t>(spec.trace_n));
    EXPECT_FALSE(report.outputs.empty());
  }
}

TEST(ThreadedSimcheckTest, OneWorkerMatchesOracle) { RunSeeds(1); }
TEST(ThreadedSimcheckTest, TwoWorkersMatchOracle) { RunSeeds(2); }
TEST(ThreadedSimcheckTest, FourWorkersMatchOracle) { RunSeeds(4); }

// Batched + threaded vs the single-threaded oracle: the batch a box
// consumes per activation is its train_size, here an odd 7 so batch tails
// never divide evenly and many activations end mid-ring. The diff is still
// exact — batch dequeue preserves per-arc FIFO on linear chains.
TEST(ThreadedSimcheckTest, OneWorkerBatchedMatchesOracle) { RunSeeds(1, 7); }
TEST(ThreadedSimcheckTest, TwoWorkersBatchedMatchOracle) { RunSeeds(2, 7); }
TEST(ThreadedSimcheckTest, FourWorkersBatchedMatchOracle) { RunSeeds(4, 7); }

}  // namespace
}  // namespace aurora
