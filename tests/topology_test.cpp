// The topology layer: spec parsing, synthetic machines, worker
// apportionment, placement solving, node-affine pools, and the engine's
// placed execution tier agreeing bit-for-bit with blind striping.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <random>
#include <string>

#include "core/k_network.h"
#include "core/l_network.h"
#include "core/cost_model.h"
#include "engine/backend.h"
#include "engine/batch_engine.h"
#include "engine/execution_plan.h"
#include "obs/metrics.h"
#include "perf/thread_pool.h"
#include "runtime/runtime.h"
#include "seq/generators.h"
#include "sim/comparator_sim.h"
#include "sim/count_sim.h"
#include "topo/placement.h"
#include "topo/topology.h"

namespace scn {
namespace {

using topo::HardwareTopology;
using topo::PlacementPlan;

TEST(TopologySpec, ParsesWellFormedSpecs) {
  const auto spec = topo::parse_topology_spec("2x4");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->first, 2u);
  EXPECT_EQ(spec->second, 4u);
  const auto big = topo::parse_topology_spec("16x128");
  ASSERT_TRUE(big.has_value());
  EXPECT_EQ(big->first, 16u);
  EXPECT_EQ(big->second, 128u);
}

TEST(TopologySpec, RejectsMalformedSpecs) {
  EXPECT_FALSE(topo::parse_topology_spec("").has_value());
  EXPECT_FALSE(topo::parse_topology_spec("2").has_value());
  EXPECT_FALSE(topo::parse_topology_spec("x4").has_value());
  EXPECT_FALSE(topo::parse_topology_spec("2x").has_value());
  EXPECT_FALSE(topo::parse_topology_spec("0x4").has_value());
  EXPECT_FALSE(topo::parse_topology_spec("2x0").has_value());
  EXPECT_FALSE(topo::parse_topology_spec("2x4x8").has_value());
  EXPECT_FALSE(topo::parse_topology_spec("axb").has_value());
  EXPECT_FALSE(topo::parse_topology_spec("2x4 ").has_value());
  EXPECT_FALSE(topo::parse_topology_spec("9999x4").has_value());
}

TEST(Topology, SyntheticShapeAndDistances) {
  const HardwareTopology t = HardwareTopology::synthetic(2, 4);
  EXPECT_EQ(t.node_count(), 2u);
  EXPECT_EQ(t.total_cores(), 8u);
  EXPECT_EQ(t.node_cores(0), 4u);
  EXPECT_EQ(t.node_cores(1), 4u);
  EXPECT_EQ(t.distance(0, 0), 10u);
  EXPECT_EQ(t.distance(1, 1), 10u);
  EXPECT_EQ(t.distance(0, 1), 21u);
  EXPECT_EQ(t.distance(1, 0), 21u);
  EXPECT_DOUBLE_EQ(t.remote_penalty(), 2.1);
  EXPECT_TRUE(t.is_synthetic());
  EXPECT_NE(t.describe().find("2 nodes"), std::string::npos);
}

TEST(Topology, UniformIsSingleNode) {
  const HardwareTopology t = HardwareTopology::uniform(6);
  EXPECT_EQ(t.node_count(), 1u);
  EXPECT_EQ(t.total_cores(), 6u);
  EXPECT_DOUBLE_EQ(t.remote_penalty(), 1.0);
  EXPECT_FALSE(t.is_synthetic());
}

TEST(Topology, NodeViewSlicesOneNode) {
  const HardwareTopology t = HardwareTopology::synthetic(3, 2);
  const HardwareTopology v = t.node_view(1);
  EXPECT_EQ(v.node_count(), 1u);
  EXPECT_EQ(v.total_cores(), 2u);
  EXPECT_TRUE(v.is_synthetic());  // inherited: cpu ids stay virtual
  EXPECT_NE(v.source().find("node1"), std::string::npos);
}

TEST(Topology, SplitWorkersProportionalAndExhaustive) {
  const HardwareTopology t = HardwareTopology::synthetic(2, 4);
  const auto even = topo::split_workers(8, t);
  ASSERT_EQ(even.size(), 2u);
  EXPECT_EQ(even[0], 4u);
  EXPECT_EQ(even[1], 4u);
  // Odd worker counts: largest remainder, ties to lower node ids, and the
  // total is always exactly the requested worker count.
  for (std::size_t w = 1; w <= 16; ++w) {
    const auto split = topo::split_workers(w, t);
    std::size_t total = 0;
    for (const std::size_t s : split) total += s;
    EXPECT_EQ(total, w) << "workers " << w;
    if (w >= t.node_count()) {
      for (std::size_t k = 0; k < split.size(); ++k) {
        EXPECT_GE(split[k], 1u) << "workers " << w << " node " << k;
      }
    }
  }
}

TEST(Topology, SplitWorkersOversubscription) {
  // More workers than cores still apportions evenly over equal nodes.
  const HardwareTopology t = HardwareTopology::synthetic(2, 1);
  const auto split = topo::split_workers(4, t);
  ASSERT_EQ(split.size(), 2u);
  EXPECT_EQ(split[0], 2u);
  EXPECT_EQ(split[1], 2u);
}

TEST(Placement, LaneRangesCoverContiguously) {
  PlacementPlan plan;
  plan.group_workers = {3, 1};
  const auto ranges = plan.lane_ranges(100);
  ASSERT_EQ(ranges.size(), 2u);
  EXPECT_EQ(ranges[0].begin, 0u);
  EXPECT_EQ(ranges[0].end, 75u);
  EXPECT_EQ(ranges[1].begin, 75u);
  EXPECT_EQ(ranges[1].end, 100u);
  // Determinism + exhaustiveness across lane counts.
  for (const std::size_t lanes : {1u, 7u, 33u, 257u, 1000u}) {
    const auto r = plan.lane_ranges(lanes);
    std::size_t covered = 0;
    std::size_t prev_end = 0;
    for (const auto& lr : r) {
      EXPECT_EQ(lr.begin, prev_end);
      prev_end = lr.end;
      covered += lr.end - lr.begin;
    }
    EXPECT_EQ(covered, lanes);
  }
}

TEST(Placement, SolverProducesMultiNodePlanOnSyntheticMachine) {
  const HardwareTopology t = HardwareTopology::synthetic(2, 4);
  const Network net = make_l_network({3, 2, 2});
  const ExecutionPlan plan = compile_plan(net);
  const PlacementPlan placement = topo::plan_placement(plan, t);
  EXPECT_TRUE(placement.multi_node());
  ASSERT_EQ(placement.group_workers.size(), 2u);
  EXPECT_EQ(placement.layer_nodes.size(), plan.depth());
  // Layer partition is monotone: node ids never decrease along layers.
  for (std::size_t l = 1; l < placement.layer_nodes.size(); ++l) {
    EXPECT_GE(placement.layer_nodes[l], placement.layer_nodes[l - 1]);
  }
  EXPECT_LE(placement.placed_cost, placement.striped_cost);
  EXPECT_FALSE(placement.rationale.empty());
}

TEST(Placement, SingleNodeIsNotMultiNode) {
  const HardwareTopology t = HardwareTopology::uniform(8);
  const Network net = make_k_network({2, 2});
  const PlacementPlan placement =
      topo::plan_placement(compile_plan(net), t);
  EXPECT_FALSE(placement.multi_node());
  EXPECT_DOUBLE_EQ(placement.placed_cost, placement.striped_cost);
}

TEST(Placement, PlaceShardsKeepsEveryPrefixBalanced) {
  const HardwareTopology t = HardwareTopology::synthetic(2, 4);
  const auto nodes = topo::place_shards(6, t);
  ASSERT_EQ(nodes.size(), 6u);
  for (std::size_t prefix = 1; prefix <= nodes.size(); ++prefix) {
    std::size_t per_node[2] = {0, 0};
    for (std::size_t j = 0; j < prefix; ++j) ++per_node[nodes[j]];
    const std::size_t hi = std::max(per_node[0], per_node[1]);
    const std::size_t lo = std::min(per_node[0], per_node[1]);
    EXPECT_LE(hi - lo, 1u) << "prefix " << prefix;
  }
}

TEST(CostModel, InterconnectFactorKicksInPastOneNode) {
  const HardwareTopology one = HardwareTopology::uniform(8);
  EXPECT_DOUBLE_EQ(interconnect_factor(64.0, one), 1.0);
  const HardwareTopology two = HardwareTopology::synthetic(2, 4);
  // Fits on the largest node: no crossing, no penalty.
  EXPECT_DOUBLE_EQ(interconnect_factor(4.0, two), 1.0);
  // Spills: 1 + (penalty - 1) * (n - 1) / n = 1 + 1.1 * 0.5.
  EXPECT_DOUBLE_EQ(interconnect_factor(8.0, two), 1.55);
  EXPECT_GT(interconnect_factor(8.0, HardwareTopology::synthetic(4, 2)),
            interconnect_factor(8.0, two));
}

TEST(ThreadPoolGroups, TopologyBlindPoolHasOneGroup) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
  EXPECT_EQ(pool.group_count(), 1u);
  EXPECT_EQ(pool.group_size(0), 3u);
}

TEST(ThreadPoolGroups, MultiNodeTopologySplitsGroups) {
  const HardwareTopology t = HardwareTopology::synthetic(2, 4);
  ThreadPool pool(4, &t);
  EXPECT_EQ(pool.size(), 4u);
  EXPECT_EQ(pool.group_count(), 2u);
  EXPECT_EQ(pool.group_size(0), 2u);
  EXPECT_EQ(pool.group_size(1), 2u);
}

TEST(ThreadPoolGroups, SubmitToGroupRunsEverything) {
  const HardwareTopology t = HardwareTopology::synthetic(2, 2);
  ThreadPool pool(4, &t);
  std::atomic<int> ran{0};
  for (int i = 0; i < 64; ++i) {
    pool.submit_to_group(static_cast<std::size_t>(i % 2),
                         [&ran] { ran.fetch_add(1); });
  }
  // Out-of-range groups fall back to the shared queue, never drop work.
  pool.submit_to_group(99, [&ran] { ran.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 65);
}

TEST(ThreadPoolDefaults, AbsurdThreadCountsAreClamped) {
  // Satellite: SCNET_THREADS beyond the ceiling clamps (with a warning)
  // instead of trying to spawn thousands of workers.
  const char* saved = std::getenv("SCNET_THREADS");
  const std::string saved_value = saved ? saved : "";
  ::setenv("SCNET_THREADS", "80000", 1);
  EXPECT_EQ(default_thread_count(), kMaxThreadCount);
  ::setenv("SCNET_THREADS", "3", 1);
  EXPECT_EQ(default_thread_count(), 3u);
  if (saved) {
    ::setenv("SCNET_THREADS", saved_value.c_str(), 1);
  } else {
    ::unsetenv("SCNET_THREADS");
  }
  EXPECT_GE(default_thread_count(), 1u);
}

TEST(PlacedExecution, BitIdenticalToBlindStriping) {
  // The engine acceptance gate: a placement-enabled runtime on a synthetic
  // multi-node machine must produce byte-identical batch results to a
  // placement-disabled one, for both semantics, across lane counts.
  std::mt19937_64 rng(7);
  Runtime::Options placed_opts;
  placed_opts.threads = 4;
  placed_opts.placement = true;
  placed_opts.topology = std::make_shared<const HardwareTopology>(
      HardwareTopology::synthetic(2, 2));
  Runtime placed_rt(placed_opts);

  Runtime::Options striped_opts = placed_opts;
  striped_opts.placement = false;
  Runtime striped_rt(striped_opts);

  ASSERT_TRUE(placed_rt.placement_enabled());
  ASSERT_FALSE(striped_rt.placement_enabled());
  ASSERT_EQ(placed_rt.pool().group_count(), 2u);

  for (const Network& net :
       {make_k_network({2, 3, 2}), make_l_network({3, 2, 2})}) {
    const ExecutionPlan plan = compile_plan(net);
    for (const std::size_t lanes : {1u, 7u, 129u, 600u}) {
      std::vector<std::vector<Count>> inputs;
      inputs.reserve(lanes);
      for (std::size_t j = 0; j < lanes; ++j) {
        inputs.push_back(random_count_vector(
            rng, net.width(), 1 + static_cast<Count>(rng() % 100)));
      }
      const auto placed_sort =
          engine::run(plan, Semantics::kComparator, inputs, placed_rt,
                      EngineBackend::kThreaded);
      const auto striped_sort =
          engine::run(plan, Semantics::kComparator, inputs, striped_rt,
                      EngineBackend::kThreaded);
      ASSERT_EQ(placed_sort, striped_sort)
          << "sort, width " << net.width() << ", " << lanes << " lanes";
      const auto placed_count =
          engine::run(plan, Semantics::kBalancer, inputs, placed_rt,
                      EngineBackend::kThreaded);
      const auto striped_count =
          engine::run(plan, Semantics::kBalancer, inputs, striped_rt,
                      EngineBackend::kThreaded);
      ASSERT_EQ(placed_count, striped_count)
          << "count, width " << net.width() << ", " << lanes << " lanes";
      // Both agree with the per-gate interpreters.
      for (std::size_t j = 0; j < lanes; ++j) {
        ASSERT_EQ(placed_sort[j], comparator_output_counts(net, inputs[j]));
        ASSERT_EQ(placed_count[j], output_counts(net, inputs[j]));
      }
    }
  }
}

TEST(PlacedExecution, DirectPlacedEntryPointsAgreeWithSerial) {
  // The public batch entry points on a runtime pinned to the threaded tier
  // over a synthetic multi-node machine take the placed path, and agree
  // with the scalar tier run one vector at a time.
  Runtime::Options options;
  options.threads = 4;
  options.placement = true;
  options.backend = EngineBackend::kThreaded;
  options.topology = std::make_shared<const HardwareTopology>(
      HardwareTopology::synthetic(2, 2));
  Runtime rt(options);
  const Network net = make_k_network({2, 2, 2});
  const ExecutionPlan plan = compile_plan(net);
  ASSERT_TRUE(
      topo::plan_placement(plan, rt.topology(), rt.pool().size()).multi_node());
  std::mt19937_64 rng(11);
  std::vector<std::vector<Count>> inputs;
  for (int j = 0; j < 200; ++j) {
    inputs.push_back(random_count_vector(rng, net.width(), 50));
  }
  std::vector<std::vector<Count>> serial_sort;
  std::vector<std::vector<Count>> serial_count;
  for (const std::vector<Count>& in : inputs) {
    serial_sort.push_back(engine::run(plan, Semantics::kComparator, in));
    serial_count.push_back(engine::run(plan, Semantics::kBalancer, in));
  }
  const obs::MetricsRegistry& registry = obs::MetricsRegistry::shared();
  const std::uint64_t placed_runs = registry.value("engine.run.placed");
  EXPECT_EQ(plan_sort_batch(plan, inputs, rt), serial_sort);
  EXPECT_EQ(plan_count_batch(plan, inputs, rt), serial_count);
  if (obs::compiled_in()) {
    EXPECT_EQ(registry.value("engine.run.placed") - placed_runs, 2u);
  }
}

}  // namespace
}  // namespace scn
