// peephole-optimal soundness and effectiveness. Soundness: every rewrite
// preserves the comparator input-output function (proven exhaustively over
// all 2^w 0-1 inputs) and never increases depth — on whole networks and at
// arbitrary wire offsets, on constructed K/L/bubble networks and on random
// fuzzed gate streams. Effectiveness: pinned wins the paper's construction
// leaves on the table (L(2x2x2) at depth 12 compresses to the proven
// 8-wire optimum 6). Plus the plumbing: level parsing, PlanCache keying,
// stats/provenance, and cross-backend bit-identity of rewritten plans.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "baseline/bubble.h"
#include "core/k_network.h"
#include "core/l_network.h"
#include "engine/backend.h"
#include "engine/execution_plan.h"
#include "net/serialize.h"
#include "opt/optimal_lib.h"
#include "opt/pass.h"
#include "opt/passes.h"
#include "opt/plan_cache.h"
#include "runtime/runtime.h"
#include "seq/generators.h"
#include "sim/comparator_sim.h"
#include "verify/fast_zero_one.h"

namespace scn {
namespace {

/// Exhaustive 0-1 equivalence (the 0-1 principle lifts agreement on all
/// 2^w binary inputs to all inputs).
void expect_zero_one_equivalent(const Network& a, const Network& b) {
  ASSERT_EQ(a.width(), b.width());
  ASSERT_LE(a.width(), 16u);
  const std::size_t w = a.width();
  for (std::uint64_t x = 0; x < (std::uint64_t{1} << w); ++x) {
    std::vector<Count> in(w);
    for (std::size_t i = 0; i < w; ++i) {
      in[i] = static_cast<Count>((x >> i) & 1u);
    }
    ASSERT_EQ(comparator_output_counts(a, in),
              comparator_output_counts(b, in))
        << "0-1 input " << x;
  }
}

TEST(PeepholeOptimal, LevelParsesAndRoundTrips) {
  EXPECT_STREQ(to_string(PassLevel::kOptimal), "optimal");
  EXPECT_EQ(parse_pass_level("optimal"), PassLevel::kOptimal);
  EXPECT_EQ(parse_pass_level(to_string(PassLevel::kOptimal)),
            PassLevel::kOptimal);
  EXPECT_EQ(parse_pass_level("optimall"), std::nullopt);
}

TEST(PeepholeOptimal, CompressesL222ToProvenOptimum) {
  // L(2x2x2): width 8, construction depth 12. The default pipeline trims
  // to 8; the peephole pass recognizes the whole network as an 8-wire
  // sorter and rewrites it to the depth-6 proven optimum.
  const Network net = make_l_network({2, 2, 2});
  ASSERT_EQ(net.width(), 8u);
  const PipelineResult dflt = optimize_network(net, PassLevel::kDefault);
  const PipelineResult opt = optimize_network(net, PassLevel::kOptimal);
  EXPECT_EQ(opt.network.depth(), 6u) << "proven optimum for n = 8";
  EXPECT_LT(opt.network.depth(), dflt.network.depth());
  expect_zero_one_equivalent(net, opt.network);
  EXPECT_TRUE(fast_verify_sorting_exhaustive(opt.network).ok);
}

TEST(PeepholeOptimal, RewritesBubbleSortWholeNetwork) {
  const Network net = make_bubble_network(8);
  const PipelineResult opt = optimize_network(net, PassLevel::kOptimal);
  EXPECT_EQ(opt.network.depth(), 6u);
  expect_zero_one_equivalent(net, opt.network);
}

TEST(PeepholeOptimal, NeverDeeperThanDefaultAcrossKAndL) {
  const std::vector<std::vector<std::size_t>> factors = {
      {2, 2}, {2, 3}, {3, 3}, {2, 2, 2}, {4, 4}, {2, 2, 3}};
  for (const auto& f : factors) {
    for (const bool is_l : {false, true}) {
      const Network net = is_l ? make_l_network(f) : make_k_network(f);
      const PipelineResult dflt = optimize_network(net, PassLevel::kDefault);
      const PipelineResult opt = optimize_network(net, PassLevel::kOptimal);
      EXPECT_LE(opt.network.depth(), dflt.network.depth())
          << (is_l ? "L" : "K") << " width " << net.width();
      EXPECT_LE(opt.network.depth(), net.depth());
      if (net.width() <= 16) {
        expect_zero_one_equivalent(net, opt.network);
      }
    }
  }
}

TEST(PeepholeOptimal, DeclinesWhenAlreadyAtLeastAsShallow) {
  // K(2x2x2) reaches depth 4 after the default pipeline — shallower than
  // the 8-wire sorter optimum 6 (a K network is a counting/merging
  // structure, not a from-scratch sorter), so no rewrite may fire.
  const Network net = make_k_network({2, 2, 2});
  const PipelineResult dflt = optimize_network(net, PassLevel::kDefault);
  const PipelineResult opt = optimize_network(net, PassLevel::kOptimal);
  EXPECT_EQ(opt.network.depth(), dflt.network.depth());
  for (const PassStats& s : opt.passes) {
    if (s.name == "peephole-optimal") {
      EXPECT_EQ(s.rewrites, 0u);
    }
  }
  expect_zero_one_equivalent(dflt.network, opt.network);
}

TEST(PeepholeOptimal, RewritesSubBlockAtWireOffset) {
  // A depth-12 L(2x2x2) sorter embedded on wires 2..9 of a 12-wire
  // network, flanked by independent comparators. The pass must find the
  // embedded block, rewrite only it, and leave the flanks alone.
  const Network inner = make_l_network({2, 2, 2});
  NetworkBuilder builder(12);
  builder.add_balancer({1, 0});
  builder.add_balancer({11, 10});
  for (const Gate& g : inner.gates()) {
    const auto gw = inner.gate_wires(g);
    std::vector<Wire> wires(gw.begin(), gw.end());
    for (Wire& w : wires) w = w + 2;
    builder.add_balancer(wires);
  }
  const Network net = std::move(builder).finish(identity_order(12));
  const PipelineResult opt = optimize_network(net, PassLevel::kOptimal);
  std::size_t rewrites = 0;
  for (const PassStats& s : opt.passes) {
    if (s.name == "peephole-optimal") rewrites += s.rewrites;
  }
  EXPECT_GE(rewrites, 1u);
  EXPECT_LE(opt.network.depth(), 6u + 0u) << "block depth 12 -> 6";
  expect_zero_one_equivalent(net, opt.network);
}

TEST(PeepholeOptimal, SkipsBalancerSemantics) {
  // The rewrite preserves the input-output function, not token routing:
  // it is comparator-only and must report inapplicable for balancers.
  const Network net = make_l_network({2, 2, 2});
  const auto pass = make_peephole_optimal_pass();
  EXPECT_TRUE(pass->applicable(net, PassOptions{}));
  EXPECT_FALSE(pass->applicable(
      net, PassOptions{.semantics = Semantics::kBalancer}));
  const PipelineResult opt = optimize_network(
      net, PassLevel::kOptimal, PassOptions{.semantics = Semantics::kBalancer});
  for (const PassStats& s : opt.passes) {
    if (s.name == "peephole-optimal") {
      EXPECT_FALSE(s.applied);
    }
  }
}

TEST(PeepholeOptimal, ReportsRewriteProvenance) {
  const Network net = make_l_network({2, 2, 2});
  const PipelineResult opt = optimize_network(net, PassLevel::kOptimal);
  bool found = false;
  for (const PassStats& s : opt.passes) {
    if (s.name != "peephole-optimal") continue;
    found = true;
    EXPECT_TRUE(s.applied);
    EXPECT_GE(s.rewrites, 1u);
    EXPECT_NE(s.detail.find("Opt("), std::string::npos) << s.detail;
  }
  EXPECT_TRUE(found) << "optimal pipeline must include peephole-optimal";
  const std::string summary = opt.summary();
  EXPECT_NE(summary.find("peephole-optimal"), std::string::npos);
  EXPECT_NE(summary.find("rewrites"), std::string::npos);
}

TEST(PeepholeOptimal, PlanCacheKeysLevelsDistinctly) {
  PlanCache cache(8);
  const Network net = make_l_network({2, 2, 2});
  (void)cache.compiled(net, PassLevel::kDefault);
  (void)cache.compiled(net, PassLevel::kOptimal);
  EXPECT_EQ(cache.stats().entries, 2u);
  const CachedPlan again = cache.compiled(net, PassLevel::kOptimal);
  EXPECT_TRUE(again.hit);
}

TEST(PeepholeOptimal, FuzzedNetworksStayEquivalentAndNoDeeper) {
  // Random width-2 comparator streams at widths 6..12: the pass must
  // preserve the 0-1 function and never deepen, whatever block structure
  // the union-find carves out.
  std::mt19937_64 rng(77);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t width = 6 + static_cast<std::size_t>(trial % 7);
    const std::size_t gates = 4 + rng() % 40;
    NetworkBuilder builder(width);
    for (std::size_t g = 0; g < gates; ++g) {
      const Wire a = static_cast<Wire>(rng() % width);
      Wire b = static_cast<Wire>(rng() % width);
      while (b == a) b = static_cast<Wire>(rng() % width);
      builder.add_balancer({a, b});
    }
    const Network net = std::move(builder).finish(identity_order(width));
    const PipelineResult opt = optimize_network(net, PassLevel::kOptimal);
    ASSERT_TRUE(opt.network.validate().empty()) << "trial " << trial;
    EXPECT_LE(opt.network.depth(), net.depth()) << "trial " << trial;
    expect_zero_one_equivalent(net, opt.network);
  }
}

TEST(PeepholeOptimal, RewrittenPlansAreBitIdenticalAcrossBackends) {
  // The rewritten network must produce identical sorted outputs through
  // every registered engine backend.
  Runtime rt;
  const Network net = make_l_network({2, 2, 2});
  const PipelineResult opt = optimize_network(net, PassLevel::kOptimal);
  const ExecutionPlan plan = compile_plan(opt.network);
  std::mt19937_64 rng(5);
  std::vector<std::vector<Count>> inputs;
  for (int i = 0; i < 257; ++i) {
    inputs.push_back(random_count_vector(rng, net.width(), 40));
  }
  const auto reference = engine::run(plan, Semantics::kComparator, inputs,
                                     rt, EngineBackend::kScalar);
  for (const EngineBackend which : engine::registered_backends()) {
    EXPECT_EQ(engine::run(plan, Semantics::kComparator, inputs, rt, which),
              reference)
        << "backend " << to_string(which);
  }
}

}  // namespace
}  // namespace scn
