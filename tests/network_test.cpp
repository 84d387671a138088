// Network IR: builder, ASAP layering, depth, statistics, validation, and
// the logical output order machinery.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "core/l_network.h"
#include "core/module.h"
#include "net/linked_network.h"
#include "net/network.h"

namespace scn {
namespace {

TEST(NetworkBuilder, EmptyNetwork) {
  const Network net = NetworkBuilder(4).finish_identity();
  EXPECT_EQ(net.width(), 4u);
  EXPECT_EQ(net.depth(), 0u);
  EXPECT_EQ(net.gate_count(), 0u);
  EXPECT_EQ(net.validate(), "");
}

TEST(NetworkBuilder, DropsTrivialGates) {
  NetworkBuilder b(3);
  b.add_balancer(std::initializer_list<Wire>{});
  b.add_balancer({1});
  EXPECT_EQ(b.gate_count(), 0u);
  EXPECT_EQ(b.depth(), 0u);
}

TEST(NetworkBuilder, AsapLayering) {
  NetworkBuilder b(4);
  b.add_balancer({0, 1});  // layer 1
  b.add_balancer({2, 3});  // layer 1 (disjoint wires)
  b.add_balancer({1, 2});  // layer 2 (touches both)
  b.add_balancer({0, 3});  // layer 2
  b.add_balancer({0, 1, 2, 3});  // layer 3
  EXPECT_EQ(b.depth(), 3u);
  const Network net = std::move(b).finish_identity();
  EXPECT_EQ(net.gates()[0].layer, 1u);
  EXPECT_EQ(net.gates()[1].layer, 1u);
  EXPECT_EQ(net.gates()[2].layer, 2u);
  EXPECT_EQ(net.gates()[3].layer, 2u);
  EXPECT_EQ(net.gates()[4].layer, 3u);
  EXPECT_EQ(net.validate(), "");
}

TEST(Network, LayersGrouping) {
  NetworkBuilder b(4);
  b.add_balancer({0, 1});
  b.add_balancer({2, 3});
  b.add_balancer({1, 2});
  const Network net = std::move(b).finish_identity();
  const auto layers = net.layers();
  ASSERT_EQ(layers.size(), 2u);
  EXPECT_EQ(layers[0], (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(layers[1], (std::vector<std::size_t>{2}));
}

TEST(Network, GateWidthHistogramAndStats) {
  NetworkBuilder b(6);
  b.add_balancer({0, 1});
  b.add_balancer({2, 3, 4});
  b.add_balancer({0, 1, 2, 3, 4, 5});
  const Network net = std::move(b).finish_identity();
  EXPECT_EQ(net.max_gate_width(), 6u);
  const auto hist = net.gate_width_histogram();
  EXPECT_EQ(hist[2], 1u);
  EXPECT_EQ(hist[3], 1u);
  EXPECT_EQ(hist[6], 1u);
  EXPECT_EQ(net.wire_endpoint_count(), 11u);
}

TEST(Network, GateWidthHistogramOfEmptyNetworkIsTrivial) {
  const Network net = NetworkBuilder(5).finish_identity();
  EXPECT_EQ(net.gate_width_histogram(), (std::vector<std::size_t>{0}));
  EXPECT_EQ(net.wire_endpoint_count(), 0u);
}

TEST(Network, GateWidthHistogramSumsMatchStructure) {
  const Network net = make_l_network({3, 4, 3});
  const auto hist = net.gate_width_histogram();
  ASSERT_EQ(hist.size(), net.max_gate_width() + 1u);
  EXPECT_EQ(hist[0], 0u);
  EXPECT_EQ(hist[1], 0u);  // width-<2 gates are dropped at build time
  std::size_t gates = 0, endpoints = 0;
  for (std::size_t p = 0; p < hist.size(); ++p) {
    gates += hist[p];
    endpoints += p * hist[p];
  }
  EXPECT_EQ(gates, net.gate_count());
  EXPECT_EQ(endpoints, net.wire_endpoint_count());
}

TEST(Network, InternedStampingPreservesHistogramAndEndpoints) {
  // The module cache changes how networks are built (stamped templates vs
  // recursive appends), which must not move any structural statistic.
  Network stamped, cold;
  {
    ScopedModuleCacheToggle on(true);
    (void)make_l_network({4, 3, 5});  // warm the cache
    stamped = make_l_network({4, 3, 5});
  }
  {
    ScopedModuleCacheToggle off(false);
    cold = make_l_network({4, 3, 5});
  }
  EXPECT_EQ(stamped.gate_width_histogram(), cold.gate_width_histogram());
  EXPECT_EQ(stamped.wire_endpoint_count(), cold.wire_endpoint_count());
  EXPECT_EQ(stamped.gate_count(), cold.gate_count());
  EXPECT_EQ(stamped.depth(), cold.depth());
  EXPECT_EQ(stamped.max_gate_width(), cold.max_gate_width());
}

TEST(Network, OutputOrderRoundTrip) {
  NetworkBuilder b(3);
  b.add_balancer({0, 2});
  const Network net = std::move(b).finish({2, 0, 1});
  EXPECT_EQ(net.output_position(2), 0u);
  EXPECT_EQ(net.output_position(0), 1u);
  EXPECT_EQ(net.output_position(1), 2u);
  EXPECT_EQ(net.validate(), "");
}

TEST(Network, ValidateRejectsBadOutputOrder) {
  // finish() validates the order before indexing by it, so a bad order
  // never reaches a Network: repeated, out-of-range (either sign) and
  // wrong-length orders all throw.
  for (const std::vector<Wire>& order : std::vector<std::vector<Wire>>{
           {0, 0}, {0, 5}, {-1, 0}, {0}, {0, 1, 2}}) {
    NetworkBuilder b(2);
    b.add_balancer({0, 1});
    EXPECT_THROW((void)std::move(b).finish(order), std::invalid_argument);
  }
}

TEST(Network, PermutedKeepsLayersOutputOrderAndHash) {
  NetworkBuilder b(4);
  b.add_balancer({2, 3});
  b.add_balancer({0, 1});
  b.add_balancer({1, 2});
  const Network net = std::move(b).finish({3, 1, 2, 0});
  const std::uint64_t hash = net.structural_hash();
  const std::vector<std::uint32_t> order = {1, 0, 2};
  const Network out = net.permuted(order);
  EXPECT_EQ(out.validate(), "");
  EXPECT_EQ(out.depth(), net.depth());
  EXPECT_EQ(out.gate_wires(0)[0], 0);
  EXPECT_EQ(out.gate_wires(1)[0], 2);
  EXPECT_EQ(out.output_position(3), 0u);
  EXPECT_EQ(out.structural_hash(), hash);
}

TEST(Network, PermutedRejectsBadOrders) {
  if (!builder_checks_enabled()) GTEST_SKIP() << "assert-only build";
  NetworkBuilder b(3);
  b.add_balancer({0, 1});
  b.add_balancer({1, 2});
  const Network net = std::move(b).finish_identity();
  // Wrong length, a repeated gate, an out-of-range gate, and an order
  // that lists the layer-2 gate first.
  for (const std::vector<std::uint32_t>& order :
       std::vector<std::vector<std::uint32_t>>{
           {0}, {0, 0}, {0, 2}, {1, 0}}) {
    EXPECT_THROW((void)net.permuted(order), std::invalid_argument);
  }
}

TEST(LinkedNetwork, FollowsWireChains) {
  // wire layout:   g0 spans {0,1}; g1 spans {1,2}; wire 0 then exits.
  NetworkBuilder b(3);
  b.add_balancer({0, 1});
  b.add_balancer({1, 2});
  const Network net = std::move(b).finish_identity();
  const LinkedNetwork linked(net);
  EXPECT_EQ(linked.entry_gate(0), 0);
  EXPECT_EQ(linked.entry_gate(1), 0);
  EXPECT_EQ(linked.entry_gate(2), 1);
  // g0 slot 0 is wire 0 -> exit; slot 1 is wire 1 -> g1.
  EXPECT_EQ(linked.next_gate(0, 0), LinkedNetwork::kExit);
  EXPECT_EQ(linked.next_gate(0, 1), 1);
  EXPECT_EQ(linked.next_gate(1, 0), LinkedNetwork::kExit);
  EXPECT_EQ(linked.next_gate(1, 1), LinkedNetwork::kExit);
  EXPECT_EQ(linked.slot_wire(0, 1), 1);
}

TEST(IdentityOrder, IsIota) {
  EXPECT_EQ(identity_order(3), (std::vector<Wire>{0, 1, 2}));
}

}  // namespace
}  // namespace scn
