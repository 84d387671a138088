// Quiescent count propagation: the balancer transfer function and its
// propagation through networks.
#include <gtest/gtest.h>

#include <limits>
#include <numeric>

#include "net/network.h"
#include "sim/count_sim.h"

namespace scn {
namespace {

TEST(BalancerOutputs, RoundRobinSplit) {
  const Count in[] = {5, 0};
  EXPECT_EQ(balancer_outputs(in), (std::vector<Count>{3, 2}));
  const Count in3[] = {1, 1, 5};
  EXPECT_EQ(balancer_outputs(in3), (std::vector<Count>{3, 2, 2}));
}

TEST(BalancerOutputs, ZeroTokens) {
  const Count in[] = {0, 0, 0, 0};
  EXPECT_EQ(balancer_outputs(in), (std::vector<Count>{0, 0, 0, 0}));
}

TEST(BalancerOutputs, OutputsDependOnlyOnTotal) {
  const Count a[] = {7, 0, 0};
  const Count b[] = {3, 3, 1};
  const Count c[] = {0, 0, 7};
  EXPECT_EQ(balancer_outputs(a), balancer_outputs(b));
  EXPECT_EQ(balancer_outputs(b), balancer_outputs(c));
}

TEST(BalancerOutputs, StepAndSumPreserved) {
  for (Count total = 0; total <= 30; ++total) {
    const std::vector<Count> in = {total, 0, 0, 0, 0};
    const auto out = balancer_outputs(in);
    EXPECT_TRUE(has_step_property(out));
    EXPECT_EQ(std::accumulate(out.begin(), out.end(), Count{0}), total);
  }
}

TEST(BalancerOutputs, TotalNearInt64MaxDoesNotOverflow) {
  // ceil((total - i) / p) computed as total - i + p - 1 overflows here;
  // q + (i < r) does not. INT64_MAX = 8q + 7, so seven slots get q + 1.
  constexpr Count kMax = std::numeric_limits<Count>::max();
  constexpr Count q = kMax / 8;
  const std::vector<Count> in = {kMax, 0, 0, 0, 0, 0, 0, 0};
  std::vector<Count> expect(8, q + 1);
  expect[7] = q;
  EXPECT_EQ(balancer_outputs(in), expect);

  NetworkBuilder b(8);
  b.add_balancer({0, 1, 2, 3, 4, 5, 6, 7});
  const Network net = std::move(b).finish_identity();
  EXPECT_EQ(propagate_counts(net, in), expect);
}

TEST(PropagateCounts, SingleBalancerNetwork) {
  NetworkBuilder b(3);
  b.add_balancer({0, 1, 2});
  const Network net = std::move(b).finish_identity();
  const std::vector<Count> in = {4, 0, 0};
  EXPECT_EQ(propagate_counts(net, in), (std::vector<Count>{2, 1, 1}));
}

TEST(PropagateCounts, PreservesTotalThroughDeepNetworks) {
  NetworkBuilder b(4);
  b.add_balancer({0, 1});
  b.add_balancer({2, 3});
  b.add_balancer({1, 2});
  b.add_balancer({0, 3});
  const Network net = std::move(b).finish_identity();
  const std::vector<Count> in = {9, 1, 0, 4};
  const auto out = propagate_counts(net, in);
  EXPECT_EQ(std::accumulate(out.begin(), out.end(), Count{0}), 14);
}

TEST(OutputCounts, AppliesLogicalOrder) {
  NetworkBuilder b(2);
  b.add_balancer({0, 1});
  const Network net = std::move(b).finish({1, 0});
  const std::vector<Count> in = {3, 0};
  // Physical: wire0 = 2, wire1 = 1; logical order (1, 0) -> (1, 2).
  EXPECT_EQ(output_counts(net, in), (std::vector<Count>{1, 2}));
}

TEST(CountsToStep, TrueForSingleBalancer) {
  NetworkBuilder b(5);
  b.add_balancer({0, 1, 2, 3, 4});
  const Network net = std::move(b).finish_identity();
  const std::vector<Count> in = {0, 0, 13, 0, 0};
  EXPECT_TRUE(counts_to_step(net, in));
}

TEST(CountsToStep, FalseForEmptyNetworkOnSkewedInput) {
  const Network net = NetworkBuilder(2).finish_identity();
  const std::vector<Count> in = {0, 2};
  EXPECT_FALSE(counts_to_step(net, in));
}

}  // namespace
}  // namespace scn
