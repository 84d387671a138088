// Cross-engine agreement matrix: for a grid of (network, load) pairs, the
// quiescent outputs of every execution engine must coincide:
//   count propagation == compiled plan (scalar, batch, threaded batch)
//   == token sim (all policies) == manual router == concurrent threads
//   == event sim.
// This is the strongest single guard against a divergence bug in any one
// engine's balancer semantics.
#include <gtest/gtest.h>

#include <random>

#include "baseline/bitonic.h"
#include "baseline/periodic.h"
#include "core/k_network.h"
#include "core/l_network.h"
#include "core/r_network.h"
#include "engine/backend.h"
#include "engine/execution_plan.h"
#include "runtime/runtime.h"
#include "seq/generators.h"
#include "sim/comparator_sim.h"
#include "sim/concurrent_sim.h"
#include "sim/count_sim.h"
#include "sim/event_sim.h"
#include "sim/manual_router.h"
#include "sim/token_sim.h"
#include "topo/topology.h"

namespace scn {
namespace {

constexpr Semantics kSort = Semantics::kComparator;
constexpr Semantics kCount = Semantics::kBalancer;

std::vector<Network> grid() {
  std::vector<Network> nets;
  nets.push_back(make_k_network({2, 3, 2}));
  nets.push_back(make_l_network({3, 2, 2}));
  nets.push_back(make_r_network(4, 3));
  nets.push_back(make_bitonic_network(3));
  nets.push_back(make_periodic_network(3));
  return nets;
}

TEST(EngineCrossCheck, AllEnginesAgreeOnQuiescentOutputs) {
  std::mt19937_64 rng(1);
  Runtime::Options three_threads;
  three_threads.threads = 3;
  Runtime rt(three_threads);
  for (const Network& net : grid()) {
    for (int load = 0; load < 6; ++load) {
      const auto in =
          random_count_vector(rng, net.width(), 9 + 13 * load);
      const auto expected = output_counts(net, in);

      // Compiled plan: scalar count path.
      const ExecutionPlan plan = compile_plan(net);
      ASSERT_EQ(engine::run(plan, kCount, in), expected) << "plan scalar";

      // Token simulator, every schedule policy.
      for (const SchedulePolicy policy : all_schedule_policies()) {
        const auto sim = run_token_simulation(net, in, policy, 99);
        ASSERT_EQ(sim.outputs, expected)
            << "token sim policy " << static_cast<int>(policy);
      }

      // Manual router, random interleaving.
      {
        ManualTokenRouter router(net);
        std::vector<ManualTokenRouter::TokenId> live;
        for (std::size_t w = 0; w < in.size(); ++w) {
          for (Count t = 0; t < in[w]; ++t) {
            live.push_back(router.spawn(static_cast<Wire>(w)));
          }
        }
        while (!live.empty()) {
          std::uniform_int_distribution<std::size_t> pick(0,
                                                          live.size() - 1);
          const std::size_t i = pick(rng);
          if (!router.step(live[i])) {
            live[i] = live.back();
            live.pop_back();
          }
        }
        ASSERT_EQ(router.exit_counts(), expected) << "manual router";
      }

      // Real threads (single feeder thread per wire group keeps the load
      // exact).
      {
        ConcurrentNetwork cn(net);
        for (std::size_t w = 0; w < in.size(); ++w) {
          for (Count t = 0; t < in[w]; ++t) {
            cn.traverse(static_cast<Wire>(w));
          }
        }
        ASSERT_EQ(cn.output_counts(), expected) << "concurrent";
      }
    }

    // Compiled plan: batch and threaded-batch count paths (private and
    // shared pool), checked against the interpreter lane by lane.
    {
      const ExecutionPlan plan = compile_plan(net);
      std::vector<std::vector<Count>> inputs;
      std::vector<std::vector<Count>> expected_outs;
      for (int j = 0; j < 150; ++j) {
        inputs.push_back(random_count_vector(rng, net.width(), 5 + j));
        expected_outs.push_back(output_counts(net, inputs.back()));
      }
      ASSERT_EQ(engine::run(plan, kCount, inputs, rt, EngineBackend::kBatch),
                expected_outs)
          << "plan batch counts";
      ASSERT_EQ(
          engine::run(plan, kCount, inputs, rt, EngineBackend::kThreaded),
          expected_outs)
          << "plan threaded batch counts";
      ASSERT_EQ(engine::run(plan, kCount, inputs, Runtime::shared(),
                            EngineBackend::kThreaded),
                expected_outs)
          << "plan shared-pool batch counts";
    }

    // Compiled plan: comparator path (scalar, batch, threaded) against the
    // per-gate interpreter.
    {
      const ExecutionPlan plan = compile_plan(net);
      std::vector<std::vector<Count>> inputs;
      std::vector<std::vector<Count>> expected_outs;
      for (int j = 0; j < 150; ++j) {
        inputs.push_back(random_count_vector(rng, net.width(), 40 + 3 * j));
        expected_outs.push_back(comparator_output_counts(net, inputs.back()));
        ASSERT_EQ(engine::run(plan, kSort, inputs.back()),
                  expected_outs.back())
            << "plan scalar sort";
      }
      ASSERT_EQ(engine::run(plan, kSort, inputs, rt, EngineBackend::kBatch),
                expected_outs)
          << "plan batch sort";
      ASSERT_EQ(engine::run(plan, kSort, inputs, rt, EngineBackend::kThreaded),
                expected_outs)
          << "plan threaded batch sort";
    }

    // Event simulator: loads are generated internally, so check the
    // step-form invariant instead of an exact vector.
    EventSimConfig cfg;
    cfg.clients = 5;
    cfg.tokens_per_client = 60;
    const EventSimResult ev = run_event_simulation(net, cfg);
    const auto total = static_cast<Count>(cfg.clients *
                                          cfg.tokens_per_client);
    ASSERT_EQ(ev.outputs, step_sequence(net.width(), total)) << "event sim";
  }
}

TEST(EngineCrossCheck, AllBackendsBitIdenticalToScalar) {
  // Randomized sweep over every registered engine backend: for each grid
  // network (K/L/R widths with >2-wide gates, plus the width-2-only
  // baselines) and a spread of batch sizes — including odd ones and one
  // past the engine's execution-block size — the batched comparator and
  // count outputs must be bit-identical to the scalar reference backend,
  // lane by lane. This is the contract that makes backend choice a pure
  // performance decision.
  std::mt19937_64 rng(42);
  Runtime rt;
  for (const Network& net : grid()) {
    const ExecutionPlan plan = compile_plan(net);
    for (const std::size_t lanes : {1u, 7u, 33u, 257u}) {
      std::vector<std::vector<Count>> inputs;
      inputs.reserve(lanes);
      for (std::size_t j = 0; j < lanes; ++j) {
        inputs.push_back(random_count_vector(
            rng, net.width(), 1 + static_cast<Count>(rng() % 200)));
      }
      const auto ref_sort =
          engine::run(plan, kSort, inputs, rt, EngineBackend::kScalar);
      const auto ref_count =
          engine::run(plan, kCount, inputs, rt, EngineBackend::kScalar);
      // The scalar reference must itself agree with the per-gate
      // interpreter before anything is pinned against it.
      for (std::size_t j = 0; j < lanes; ++j) {
        ASSERT_EQ(ref_sort[j], comparator_output_counts(net, inputs[j]))
            << "scalar vs interpreter, lane " << j;
        ASSERT_EQ(ref_count[j], output_counts(net, inputs[j]))
            << "scalar vs count propagation, lane " << j;
      }
      for (const EngineBackend b : engine::registered_backends()) {
        ASSERT_EQ(engine::run(plan, kSort, inputs, rt, b), ref_sort)
            << to_string(b) << " sort, " << lanes << " lanes, width "
            << net.width();
        ASSERT_EQ(engine::run(plan, kCount, inputs, rt, b), ref_count)
            << to_string(b) << " counts, " << lanes << " lanes, width "
            << net.width();
      }
      ASSERT_EQ(engine::run(plan, kSort, inputs, rt, EngineBackend::kAuto),
                ref_sort)
          << "auto sort, " << lanes << " lanes";
      ASSERT_EQ(engine::run(plan, kCount, inputs, rt, EngineBackend::kAuto),
                ref_count)
          << "auto counts, " << lanes << " lanes";
    }
  }
}

TEST(EngineCrossCheck, PlacementOnOffBitIdenticalAcrossBackends) {
  // Acceptance gate for the placement layer: every backend must produce
  // bit-identical outputs whether the threaded tier partitions lanes by
  // PlacementPlan (multi-node runtime, placement on) or blind-stripes
  // them (placement off). Synthetic 2x2 topology so this holds on any
  // host, including single-core CI runners.
  std::mt19937_64 rng(1234);
  const auto topology = std::make_shared<const topo::HardwareTopology>(
      topo::HardwareTopology::synthetic(2, 2));
  Runtime::Options on_opts;
  on_opts.threads = 4;
  on_opts.topology = topology;
  on_opts.placement = true;
  Runtime rt_on(on_opts);
  Runtime::Options off_opts = on_opts;
  off_opts.placement = false;
  Runtime rt_off(off_opts);
  for (const Network& net : grid()) {
    const ExecutionPlan plan = compile_plan(net);
    for (const std::size_t lanes : {1u, 7u, 33u, 257u}) {
      std::vector<std::vector<Count>> inputs;
      inputs.reserve(lanes);
      for (std::size_t j = 0; j < lanes; ++j) {
        inputs.push_back(random_count_vector(
            rng, net.width(), 1 + static_cast<Count>(rng() % 200)));
      }
      for (const EngineBackend b : engine::registered_backends()) {
        ASSERT_EQ(engine::run(plan, kSort, inputs, rt_on, b),
                  engine::run(plan, kSort, inputs, rt_off, b))
            << to_string(b) << " sort, " << lanes << " lanes, width "
            << net.width();
        ASSERT_EQ(engine::run(plan, kCount, inputs, rt_on, b),
                  engine::run(plan, kCount, inputs, rt_off, b))
            << to_string(b) << " counts, " << lanes << " lanes, width "
            << net.width();
      }
      // And both agree with the scalar reference on a private runtime.
      Runtime rt_ref;
      ASSERT_EQ(
          engine::run(plan, kSort, inputs, rt_on, EngineBackend::kThreaded),
          engine::run(plan, kSort, inputs, rt_ref, EngineBackend::kScalar))
          << "placed threaded vs scalar, " << lanes << " lanes";
    }
  }
}

TEST(EngineCrossCheck, HopAccountingConsistency) {
  // Token-sim hop totals equal the analytic expectation on uniform loads
  // for networks with full layers.
  const Network net = make_k_network({2, 2, 2, 2});
  std::vector<Count> in(net.width(), 8);
  const auto sim =
      run_token_simulation(net, in, SchedulePolicy::kRoundRobin, 1);
  EXPECT_EQ(sim.hops,
            static_cast<std::uint64_t>(8 * net.width()) * net.depth());
}

}  // namespace
}  // namespace scn
