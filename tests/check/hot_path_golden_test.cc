// Bit-identical regression gate for the hot-path overhaul: 25 simcheck
// scenario seeds must produce exactly the run reports they produced before
// copy-on-write tuples, bound-once field access, hash group-by, and the
// ready-queue scheduler landed. The goldens hash both the generated scenario
// spec text (workload determinism) and the full run-report summary (output
// tuples, QoS numbers, recovery stats), so any behavioural drift — emission
// order, drain order, scheduler decisions — shows up as a hash mismatch.
//
// Golden values were captured on the pre-overhaul tree (commit 0858d04) with
// the same FNV-1a construction. If a FUTURE, intentional semantic change
// shifts them, regenerate with that construction and note why in the commit.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "check/runner.h"
#include "check/scenario.h"

namespace aurora {
namespace {

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ull;
  for (char c : s) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

struct Golden {
  uint64_t seed;
  uint64_t hash;
};

constexpr Golden kPreOverhaulGoldens[] = {
    {1, 0xdd610af5f48d3489ull},  {2, 0x9d437ba8e55bc75dull},
    {3, 0x6c356c9059ee29abull},  {4, 0x361621eb27f49532ull},
    {5, 0xe64f3e52d70dc100ull},  {6, 0xe57edd5935be9cfaull},
    {7, 0xdb7b6b965eb9c3d4ull},  {8, 0x127ad1138b070bbfull},
    {9, 0xde20a3d4e37d0430ull},  {10, 0x31c6e0efbd7afadbull},
    {11, 0xc745ee3241d97912ull}, {12, 0x9afe381d3eadee83ull},
    {13, 0xb1697d882c959aa8ull}, {14, 0x5578c56b9f6dec5eull},
    {15, 0x6c32727558bfa6d8ull}, {16, 0x3f3b61520b1d3f2full},
    {17, 0xaa18190947399567ull}, {18, 0x379bab8dcd7e0c33ull},
    {19, 0x6f643f3e7cd99837ull}, {20, 0xe1594ba77b6819bfull},
    {21, 0x81b896b1d1103fa6ull}, {22, 0x29ba3f29c1bed541ull},
    {23, 0xcb09fc349e69aa3full}, {24, 0xcf27737b00053476ull},
    {25, 0xd0a8daa5db5ac914ull},
};

// The goldens predate batched activation: every box now consumes its train
// through Operator::ProcessBatch, and must not move a single byte of any
// run report — output rows, QoS numbers, scheduler stats, recovery
// behaviour all identical to the per-tuple loop that produced them.
TEST(HotPathGoldenTest, TwentyFiveSeedsBitIdenticalToPreOverhaul) {
  for (const Golden& g : kPreOverhaulGoldens) {
    ScenarioSpec spec = GenerateScenario(g.seed);
    std::string text = spec.ToSpec();
    RunReport report = RunScenario(spec);
    uint64_t h = Fnv1a(text + "\n--\n" + report.Summary());
    EXPECT_EQ(h, g.hash) << "seed " << g.seed
                         << " diverged from the pre-overhaul golden";
  }
}

}  // namespace
}  // namespace aurora
