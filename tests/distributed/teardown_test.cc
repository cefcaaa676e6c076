// Teardown while the simulation runs on: a StreamNode, or a whole Aurora*
// system with its overlay, destroyed mid-run must leave no queued event that
// still reaches it. Run under ASan, any tick, step, wake or delivery firing
// on a destroyed owner aborts as heap-use-after-free.
#include <gtest/gtest.h>

#include "distributed/deployment.h"
#include "tests/test_util.h"

namespace aurora {
namespace {

using testing_util::SchemaAB;

Tuple Row(int i) { return MakeTuple(SchemaAB(), {Value(i), Value(i % 7)}); }

TEST(TeardownTest, DestroyedNodeNeverRunsAgain) {
  Simulation sim;
  OverlayNetwork net(&sim);
  // A slow CPU keeps steps queued behind each other, so the node dies with
  // a step and a tick both pending.
  NodeId id = net.AddNode(NodeOptions{"solo", 0.01, {}});
  auto node = std::make_unique<StreamNode>(&sim, &net, id, EngineOptions{},
                                           TransportOptions{});
  AuroraEngine& engine = node->engine();
  PortId in = *engine.AddInput("in", SchemaAB());
  PortId out = *engine.AddOutput("out");
  BoxId f = *engine.AddBox(FilterSpec(Predicate::True()));
  ASSERT_OK(engine.Connect(Endpoint::InputPort(in), Endpoint::BoxPort(f, 0))
                .status());
  ASSERT_OK(engine.Connect(Endpoint::BoxPort(f, 0), Endpoint::OutputPort(out))
                .status());
  ASSERT_OK(engine.InitializeBoxes());
  uint64_t delivered = 0;
  engine.SetOutputCallback(out, [&](const Tuple&, SimTime) { ++delivered; });
  node->Start();
  for (int i = 0; i < 500; ++i) ASSERT_OK(node->Inject("in", Row(i)));

  sim.RunFor(SimDuration::Millis(25));
  ASSERT_GT(delivered, 0u);
  ASSERT_TRUE(node->engine().HasWork());  // mid-run: work is left
  node.reset();
  const uint64_t at_death = delivered;
  EXPECT_GT(sim.pending(), 0u);  // its tick and step are still queued

  sim.RunFor(SimDuration::Seconds(1));
  EXPECT_EQ(delivered, at_death);
}

/// A three-node chain s1 -> s2 -> s3 (filter, map, filter) on its own
/// overlay, all on the caller's simulation. A small credit window keeps
/// flow-control grants and probes in flight beside the data.
struct Chain {
  Chain(Simulation* sim, uint64_t* delivered) {
    net = std::make_unique<OverlayNetwork>(sim);
    StarOptions opts;
    opts.transport.credit_window_bytes = 2048;
    system = std::make_unique<AuroraStarSystem>(sim, net.get(), opts);
    for (const char* name : {"s1", "s2", "s3"}) {
      nodes.push_back(*system->AddNode(NodeOptions{name, 1.0, {}}));
    }
    net->FullMesh(LinkOptions{});
    EXPECT_OK(query.AddInput("in", SchemaAB()));
    EXPECT_OK(query.AddBox("f", FilterSpec(Predicate::True())));
    EXPECT_OK(query.AddBox("m", MapSpec({{"A", Expr::FieldRef("A")},
                                         {"B", Expr::FieldRef("B")}})));
    EXPECT_OK(query.AddBox("g", FilterSpec(Predicate::True())));
    EXPECT_OK(query.AddOutput("out"));
    EXPECT_OK(query.ConnectInputToBox("in", "f"));
    EXPECT_OK(query.ConnectBoxes("f", 0, "m", 0));
    EXPECT_OK(query.ConnectBoxes("m", 0, "g", 0));
    EXPECT_OK(query.ConnectBoxToOutput("g", 0, "out"));
    auto deployed = DeployQuery(
        system.get(), query,
        {{"f", nodes[0]}, {"m", nodes[1]}, {"g", nodes[2]}});
    EXPECT_TRUE(deployed.ok()) << deployed.status().ToString();
    EXPECT_OK(system->CollectOutput(
        nodes[2], "out", [delivered](const Tuple&, SimTime) { ++*delivered; }));
  }

  void Inject(int n) {
    for (int i = 0; i < n; ++i) {
      EXPECT_OK(system->node(nodes[0]).Inject("in", Row(i)));
    }
  }

  std::unique_ptr<OverlayNetwork> net;
  std::unique_ptr<AuroraStarSystem> system;
  GlobalQuery query;
  std::vector<NodeId> nodes;
};

/// Destroys a chain mid-run, in either order, keeps stepping the same
/// simulation, then checks that a fresh chain on it delivers everything.
void TearDownMidRunThenRebuild(bool overlay_first) {
  Simulation sim;
  uint64_t first_delivered = 0;
  auto first = std::make_unique<Chain>(&sim, &first_delivered);
  first->Inject(300);
  while (first_delivered == 0 && sim.Now() < SimTime::Seconds(1)) {
    sim.RunFor(SimDuration::Micros(100));
  }
  ASSERT_GT(first_delivered, 0u);
  ASSERT_LT(first_delivered, 300u);  // mid-run: tuples are still in flight
  const uint64_t at_death = first_delivered;
  if (overlay_first) first->net.reset();
  first->system.reset();
  EXPECT_GT(sim.pending(), 0u);
  // While the overlay is still up, frames in flight arrive for dead nodes.
  sim.RunFor(SimDuration::Seconds(1));
  first.reset();
  sim.RunFor(SimDuration::Seconds(1));
  EXPECT_EQ(first_delivered, at_death);

  uint64_t second_delivered = 0;
  Chain second(&sim, &second_delivered);
  second.Inject(300);
  sim.RunFor(SimDuration::Seconds(2));
  EXPECT_EQ(second_delivered, 300u);
  EXPECT_EQ(first_delivered, at_death);
}

TEST(TeardownTest, DestroyedSystemNeverRunsAgain) {
  TearDownMidRunThenRebuild(/*overlay_first=*/false);
}

// The order of a test fixture that rebuilds its system on one simulation:
// the overlay goes first, then the nodes that used it.
TEST(TeardownTest, DestroyedOverlayThenSystemNeverRunAgain) {
  TearDownMidRunThenRebuild(/*overlay_first=*/true);
}

}  // namespace
}  // namespace aurora
