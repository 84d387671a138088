// Layer-partition correctness of the ExecutionPlan compiler, plus
// thread-pool behavior the engine relies on.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <random>
#include <set>

#include "baseline/batcher.h"
#include "baseline/bitonic.h"
#include "core/k_network.h"
#include "core/l_network.h"
#include "core/r_network.h"
#include "engine/backend.h"
#include "engine/execution_plan.h"
#include "engine/kernels.h"
#include "perf/thread_pool.h"
#include "seq/generators.h"
#include "sim/comparator_sim.h"
#include "sim/count_sim.h"

namespace scn {
namespace {

std::vector<Network> grid() {
  std::vector<Network> nets;
  nets.push_back(make_k_network({2, 3, 2}));
  nets.push_back(make_k_network({4, 4}));
  nets.push_back(make_l_network({3, 2, 2}));
  nets.push_back(make_r_network(4, 3));
  nets.push_back(make_bitonic_network(4));
  nets.push_back(make_batcher_network(10));
  return nets;
}

TEST(ExecutionPlan, LayerCountEqualsNetworkDepth) {
  for (const Network& net : grid()) {
    const ExecutionPlan plan = compile_plan(net);
    EXPECT_EQ(plan.depth(), net.depth());
    EXPECT_EQ(plan.width(), net.width());
    EXPECT_EQ(plan.gate_count(), net.gate_count());
  }
}

TEST(ExecutionPlan, NoWireReusedWithinALayer) {
  for (const Network& net : grid()) {
    const ExecutionPlan plan = compile_plan(net);
    for (const ExecutionPlan::Layer& layer : plan.layers()) {
      std::set<Wire> touched;
      for (std::uint32_t k = layer.pair_begin; k < layer.pair_end; ++k) {
        EXPECT_TRUE(touched.insert(plan.pair_wires()[2 * k]).second);
        EXPECT_TRUE(touched.insert(plan.pair_wires()[2 * k + 1]).second);
      }
      for (std::uint32_t g = layer.wide_begin; g < layer.wide_end; ++g) {
        const auto wg = plan.wide_gates()[g];
        for (std::uint32_t i = 0; i < wg.width; ++i) {
          EXPECT_TRUE(
              touched.insert(plan.wide_wires()[wg.first + i]).second);
        }
      }
    }
  }
}

TEST(ExecutionPlan, EveryGateLandsInExactlyOneBucket) {
  for (const Network& net : grid()) {
    const ExecutionPlan plan = compile_plan(net);
    std::size_t pair_gates = 0;
    std::size_t wide_gates = 0;
    for (const Gate& g : net.gates()) {
      (g.width == 2 ? pair_gates : wide_gates) += 1;
    }
    EXPECT_EQ(plan.pair_wires().size(), 2 * pair_gates);
    EXPECT_EQ(plan.wide_gates().size(), wide_gates);
    EXPECT_EQ(pair_gates + wide_gates, net.gate_count());
    // Layer ranges tile the tables without gaps or overlap, and so do the
    // wide gates' CE ranges.
    std::uint32_t expect_pair = 0;
    std::uint32_t expect_wide = 0;
    for (const ExecutionPlan::Layer& layer : plan.layers()) {
      EXPECT_EQ(layer.pair_begin, expect_pair);
      EXPECT_EQ(layer.wide_begin, expect_wide);
      EXPECT_LE(layer.pair_begin, layer.pair_end);
      EXPECT_LE(layer.wide_begin, layer.wide_end);
      expect_pair = layer.pair_end;
      expect_wide = layer.wide_end;
    }
    EXPECT_EQ(expect_pair, plan.pair_wires().size() / 2);
    EXPECT_EQ(expect_wide, plan.wide_gates().size());
    std::uint32_t expect_ce = 0;
    for (const auto& wg : plan.wide_gates()) {
      EXPECT_EQ(wg.ce_begin, expect_ce);
      EXPECT_LE(wg.ce_begin, wg.ce_end);
      expect_ce = wg.ce_end;
    }
    EXPECT_EQ(expect_ce, plan.ce_wires().size() / 2);
  }
}

TEST(ExecutionPlan, CeExpansionMatchesWideGates) {
  bool saw_wider = false;
  for (const Network& net : grid()) {
    const ExecutionPlan plan = compile_plan(net);
    for (const auto& wg : plan.wide_gates()) {
      const std::uint32_t ces = wg.ce_end - wg.ce_begin;
      if (wg.width <= engine::kMaxFixedWidth) {
        // The in-register kernel runs this gate on every tier.
        EXPECT_EQ(ces, 0u) << "width " << wg.width;
        continue;
      }
      saw_wider = true;
      // A Batcher odd-even network over the gate's wires...
      EXPECT_EQ(ces, make_batcher_network(wg.width).gate_count());
      const std::set<Wire> gate_wires(
          plan.wide_wires().begin() + wg.first,
          plan.wide_wires().begin() + wg.first + wg.width);
      // ...that references no wire outside them.
      for (std::uint32_t k = wg.ce_begin; k < wg.ce_end; ++k) {
        EXPECT_TRUE(gate_wires.count(plan.ce_wires()[2 * k]));
        EXPECT_TRUE(gate_wires.count(plan.ce_wires()[2 * k + 1]));
      }
    }
  }
  EXPECT_TRUE(saw_wider) << "the grid needs a gate wider than 8";
}

TEST(ExecutionPlan, WideGateWidthsExceedTwo) {
  for (const Network& net : grid()) {
    const ExecutionPlan plan = compile_plan(net);
    for (const auto& wg : plan.wide_gates()) {
      EXPECT_GT(wg.width, 2u);
      EXPECT_LE(wg.width, plan.max_wide_width());
    }
    EXPECT_EQ(plan.max_wide_width() > 0, !plan.wide_gates().empty());
  }
}

TEST(ExecutionPlan, ScalarRunMatchesInterpreter) {
  std::mt19937_64 rng(11);
  for (const Network& net : grid()) {
    const ExecutionPlan plan = compile_plan(net);
    for (int trial = 0; trial < 8; ++trial) {
      const auto vals = random_count_vector(rng, net.width(), 200);
      EXPECT_EQ(engine::run(plan, Semantics::kComparator, vals),
                comparator_output_counts(net, vals));
      EXPECT_EQ(engine::run(plan, Semantics::kBalancer, vals),
                output_counts(net, vals));
    }
  }
}

TEST(ExecutionPlan, EmptyNetworkCompilesToEmptyPlan) {
  NetworkBuilder b(4);
  const Network net = std::move(b).finish_identity();
  const ExecutionPlan plan = compile_plan(net);
  EXPECT_EQ(plan.depth(), 0u);
  const std::vector<Count> in{3, 1, 4, 1};
  EXPECT_EQ(engine::run(plan, Semantics::kComparator, in), in);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(hits.size(), 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SubmitAndWaitIdleRunsEverything) {
  ThreadPool pool(3);
  std::atomic<int> sum{0};
  for (int i = 1; i <= 100; ++i) {
    pool.submit([&sum, i] { sum.fetch_add(i, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(sum.load(), 5050);
  // The pool is reusable after wait_idle.
  pool.submit([&sum] { sum.fetch_add(1, std::memory_order_relaxed); });
  pool.wait_idle();
  EXPECT_EQ(sum.load(), 5051);
}

TEST(ThreadPool, ParallelForOnTinyRangeRunsInline) {
  ThreadPool pool(8);
  int calls = 0;
  pool.parallel_for(3, 100, [&](std::size_t begin, std::size_t end) {
    ++calls;  // single chunk => runs on the calling thread, no data race
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 3u);
  });
  EXPECT_EQ(calls, 1);
}

}  // namespace
}  // namespace scn
