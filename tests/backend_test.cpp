// The backend registry and its dispatch policy: name/parse round-trips,
// select_backend() threshold behavior, kAuto resolution against real
// plans, the dispatch counters, and the Runtime plumbing that carries a
// backend request from SCNET_BACKEND / Runtime::Options to the engine.
// Bit-identity of the backends themselves is pinned by the randomized
// sweep in engine_cross_check_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <numeric>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "baseline/bitonic.h"
#include "core/cost_model.h"
#include "core/k_network.h"
#include "engine/backend.h"
#include "engine/batch_engine.h"
#include "engine/execution_plan.h"
#include "engine/kernels.h"
#include "engine/simd_kernels.h"
#include "obs/metrics.h"
#include "runtime/runtime.h"
#include "seq/generators.h"
#include "sim/comparator_sim.h"
#include "sim/count_sim.h"

namespace scn {
namespace {

TEST(BackendNames, ToStringParseRoundTrip) {
  for (const EngineBackend b : engine::registered_backends()) {
    const auto parsed = parse_backend(to_string(b));
    ASSERT_TRUE(parsed.has_value()) << to_string(b);
    EXPECT_EQ(*parsed, b);
  }
  EXPECT_EQ(parse_backend("auto"), EngineBackend::kAuto);
  EXPECT_EQ(std::string(to_string(EngineBackend::kAuto)), "auto");
  EXPECT_FALSE(parse_backend("").has_value());
  EXPECT_FALSE(parse_backend("sse").has_value());
  EXPECT_FALSE(parse_backend("Scalar").has_value());  // case-sensitive
}

TEST(BackendRegistry, FourConcreteBackendsWithDistinctNames) {
  const auto all = engine::registered_backends();
  ASSERT_EQ(all.size(), 4u);
  EXPECT_EQ(all[0], EngineBackend::kScalar);
  EXPECT_EQ(all[1], EngineBackend::kBatch);
  EXPECT_EQ(all[2], EngineBackend::kSimd);
  EXPECT_EQ(all[3], EngineBackend::kThreaded);
  std::set<std::string> names;
  for (const EngineBackend b : all) names.insert(to_string(b));
  EXPECT_EQ(names.size(), all.size());
  EXPECT_EQ(names.count("auto"), 0u);
}

TEST(DispatchPolicy, SingleLaneIsAlwaysScalar) {
  const PlanShape pairs{.width = 16, .depth = 10, .pair_gates = 80,
                        .wide_gates = 0};
  const MachineCaps everything{.simd = true, .threads = 8};
  EXPECT_EQ(select_backend(pairs, 1, everything), EngineBackend::kScalar);
  EXPECT_EQ(select_backend(pairs, 0, everything), EngineBackend::kScalar);
}

TEST(DispatchPolicy, ThreadedNeedsLanesWorkAndThreads) {
  const PlanShape pairs{.width = 16, .depth = 10, .pair_gates = 2048,
                        .wide_gates = 0};
  const MachineCaps multi{.simd = false, .threads = 8};
  const MachineCaps single{.simd = false, .threads = 1};
  // 256 lanes x 2048 gates = 1 << 19 >= kThreadedMinWork.
  EXPECT_EQ(select_backend(pairs, kThreadedMinLanes, multi),
            EngineBackend::kThreaded);
  // Same shape, one thread: no pool to win on.
  EXPECT_EQ(select_backend(pairs, kThreadedMinLanes, single),
            EngineBackend::kBatch);
  // Enough lanes but a tiny plan: lanes x gates below the work floor.
  const PlanShape tiny{.width = 4, .depth = 3, .pair_gates = 6,
                       .wide_gates = 0};
  EXPECT_EQ(select_backend(tiny, kThreadedMinLanes, multi),
            EngineBackend::kBatch);
  // Lots of work but too few lanes to shard.
  EXPECT_EQ(select_backend(pairs, kThreadedMinLanes - 1, multi),
            EngineBackend::kBatch);
}

TEST(DispatchPolicy, SimdWantsWidth2DominatedPlansAndTheKernels) {
  const MachineCaps simd_host{.simd = true, .threads = 1};
  const MachineCaps plain_host{.simd = false, .threads = 1};
  const PlanShape pairs{.width = 16, .depth = 10, .pair_gates = 80,
                        .wide_gates = 0};
  EXPECT_EQ(select_backend(pairs, 64, simd_host), EngineBackend::kSimd);
  EXPECT_EQ(select_backend(pairs, 64, plain_host), EngineBackend::kBatch);
  // 50% width-2 is below kSimdMinWidth2Fraction: wide gates dominate the
  // run time and they execute through the same code as the batch tier.
  const PlanShape mixed{.width = 16, .depth = 10, .pair_gates = 40,
                        .wide_gates = 40};
  EXPECT_EQ(select_backend(mixed, 64, simd_host), EngineBackend::kBatch);
  // A gate-free plan counts as width-2 dominated (fraction 1.0).
  const PlanShape empty{.width = 4, .depth = 0, .pair_gates = 0,
                        .wide_gates = 0};
  EXPECT_EQ(select_backend(empty, 64, simd_host), EngineBackend::kSimd);
  EXPECT_DOUBLE_EQ(empty.width2_fraction(), 1.0);
}

TEST(DispatchPolicy, PlanShapeExtraction) {
  // bitonic(3): width 8, every gate width-2.
  const ExecutionPlan b = compile_plan(make_bitonic_network(3));
  const PlanShape bs = engine::plan_shape(b);
  EXPECT_EQ(bs.width, 8u);
  EXPECT_EQ(bs.depth, b.depth());
  EXPECT_EQ(bs.pair_gates + bs.wide_gates, b.gate_count());
  EXPECT_EQ(bs.wide_gates, 0u);
  EXPECT_DOUBLE_EQ(bs.width2_fraction(), 1.0);

  // K(2,2): the base balancers are 4-wide, so wide gates exist.
  const ExecutionPlan k = compile_plan(make_k_network({2, 2}));
  const PlanShape ks = engine::plan_shape(k);
  EXPECT_GT(ks.wide_gates, 0u);
  EXPECT_LT(ks.width2_fraction(), 1.0);
}

TEST(DispatchPolicy, ResolvePassesConcreteRequestsThrough) {
  const ExecutionPlan plan = compile_plan(make_bitonic_network(3));
  for (const EngineBackend b : engine::registered_backends()) {
    EXPECT_EQ(engine::resolve_backend(b, plan, 1), b);
    EXPECT_EQ(engine::resolve_backend(b, plan, 4096), b);
  }
  // kAuto resolves per the policy: single lane -> scalar, always.
  EXPECT_EQ(engine::resolve_backend(EngineBackend::kAuto, plan, 1),
            EngineBackend::kScalar);
  const EngineBackend many =
      engine::resolve_backend(EngineBackend::kAuto, plan, 64);
  EXPECT_NE(many, EngineBackend::kAuto);
  EXPECT_NE(many, EngineBackend::kScalar);
}

TEST(BackendPlumbing, EnvironmentVariableSetsTheDefault) {
  // default_backend() reads SCNET_BACKEND per call; Runtime captures it at
  // construction. setenv/unsetenv is safe here: tests run single-threaded.
  ASSERT_EQ(setenv("SCNET_BACKEND", "threaded", 1), 0);
  EXPECT_EQ(default_backend(), EngineBackend::kThreaded);
  Runtime rt;
  EXPECT_EQ(rt.backend(), EngineBackend::kThreaded);
  ASSERT_EQ(setenv("SCNET_BACKEND", "not-a-backend", 1), 0);
  EXPECT_EQ(default_backend(), EngineBackend::kAuto);
  ASSERT_EQ(unsetenv("SCNET_BACKEND"), 0);
  EXPECT_EQ(default_backend(), EngineBackend::kAuto);
  // The runtime constructed under the old value keeps its capture.
  EXPECT_EQ(rt.backend(), EngineBackend::kThreaded);
}

TEST(BackendDispatch, SingleVectorEntryPointsMatchScalarReference) {
  // The single-vector run() against the per-gate interpreters and against
  // lane 0 of a one-lane batch call on every tier.
  std::mt19937_64 rng(7);
  const Network net = make_k_network({2, 3});
  const ExecutionPlan plan = compile_plan(net);
  const auto in = random_count_vector(rng, net.width(), 50);
  const std::vector<Count> sorted =
      engine::run(plan, Semantics::kComparator, in);
  const std::vector<Count> counts = engine::run(plan, Semantics::kBalancer, in);
  EXPECT_EQ(sorted, comparator_output_counts(net, in));
  EXPECT_EQ(counts, output_counts(net, in));
  const std::vector<std::vector<Count>> one_lane = {in};
  Runtime rt;
  for (const EngineBackend b : engine::registered_backends()) {
    EXPECT_EQ(engine::run(plan, Semantics::kComparator, one_lane, rt, b),
              std::vector<std::vector<Count>>{sorted})
        << to_string(b);
    EXPECT_EQ(engine::run(plan, Semantics::kBalancer, one_lane, rt, b),
              std::vector<std::vector<Count>>{counts})
        << to_string(b);
  }
}

// engine.backend.<name>.dispatches for every registered backend, in
// registration order.
std::vector<std::uint64_t> dispatch_counts() {
  std::vector<std::uint64_t> out;
  for (const EngineBackend b : engine::registered_backends()) {
    out.push_back(obs::MetricsRegistry::shared().value(
        std::string("engine.backend.") + to_string(b) + ".dispatches"));
  }
  return out;
}

TEST(BackendDispatch, SingleVectorCallsCountTheScalarTierThatRan) {
  // One vector always runs the scalar tier, so each call adds one to the
  // scalar dispatch counter and to engine.run.scalar, and nothing else.
  if (!obs::compiled_in()) GTEST_SKIP() << "metrics compiled out";
  const obs::MetricsRegistry& registry = obs::MetricsRegistry::shared();
  const ExecutionPlan plan = compile_plan(make_k_network({2, 2}));
  const std::vector<Count> in = {3, 1, 4, 1};
  const std::vector<std::uint64_t> before = dispatch_counts();
  const std::uint64_t scalar_runs = registry.value("engine.run.scalar");
  static_cast<void>(engine::run(plan, Semantics::kComparator, in));
  static_cast<void>(engine::run(plan, Semantics::kBalancer, in));
  const std::vector<std::uint64_t> after = dispatch_counts();
  const auto all = engine::registered_backends();
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(after[i] - before[i], all[i] == EngineBackend::kScalar ? 2u : 0u)
        << "counter " << to_string(all[i]);
  }
  EXPECT_EQ(registry.value("engine.run.scalar") - scalar_runs, 2u);
}

TEST(BackendDispatch, BatchCallCountsExactlyOneDispatch) {
  // One plan_sort_batch / plan_count_batch call on a runtime pinned to a
  // request adds exactly one to the counter of the tier the request
  // resolves to, and nothing to any other tier's counter. Lane counts
  // cover the single-lane and the sharded cases of kAuto.
  if (!obs::compiled_in()) GTEST_SKIP() << "metrics compiled out";
  std::mt19937_64 rng(17);
  const Network net = make_k_network({2, 2, 2});
  const ExecutionPlan plan = compile_plan(net);
  std::vector<EngineBackend> requests(engine::registered_backends().begin(),
                                      engine::registered_backends().end());
  requests.push_back(EngineBackend::kAuto);
  const auto all = engine::registered_backends();
  for (const EngineBackend requested : requests) {
    Runtime::Options options;
    options.backend = requested;
    options.threads = 2;
    Runtime rt(options);
    for (const std::size_t lanes : {1u, 300u}) {
      std::vector<std::vector<Count>> inputs;
      for (std::size_t j = 0; j < lanes; ++j) {
        inputs.push_back(random_count_vector(rng, net.width(), 30));
      }
      const EngineBackend ran =
          engine::resolve_backend(requested, plan, lanes);
      for (const Semantics semantics :
           {Semantics::kComparator, Semantics::kBalancer}) {
        const std::vector<std::uint64_t> before = dispatch_counts();
        static_cast<void>(semantics == Semantics::kComparator
                              ? plan_sort_batch(plan, inputs, rt)
                              : plan_count_batch(plan, inputs, rt));
        const std::vector<std::uint64_t> after = dispatch_counts();
        for (std::size_t i = 0; i < all.size(); ++i) {
          EXPECT_EQ(after[i] - before[i], all[i] == ran ? 1u : 0u)
              << "requested " << to_string(requested) << ", " << lanes
              << " lanes, " << to_string(semantics) << ", counter "
              << to_string(all[i]);
        }
      }
    }
  }
}

TEST(SimdKernels, PairRowsMatchScalarKernels) {
  // The raw row kernels against the scalar pair kernels, across sizes that
  // cover the unrolled main loop, the single-vector loop, and the tail.
  std::mt19937_64 rng(11);
  const auto random_rows = [&rng](std::size_t n) {
    std::vector<Count> rows(n);
    for (Count& v : rows) v = static_cast<Count>(rng() % 80);
    return rows;
  };
  for (const std::size_t n : {0u, 1u, 3u, 4u, 7u, 8u, 9u, 64u, 257u}) {
    const auto a = random_rows(n);
    const auto b = random_rows(n);
    std::vector<Count> hi = a, lo = b, hi_ref = a, lo_ref = b;
    engine::simd::pair_sort_rows(hi.data(), lo.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      engine::pair_sort_kernel(hi_ref[i], lo_ref[i]);
    }
    EXPECT_EQ(hi, hi_ref) << "sort n=" << n;
    EXPECT_EQ(lo, lo_ref) << "sort n=" << n;

    std::vector<Count> chi = a, clo = b, chi_ref = a, clo_ref = b;
    engine::simd::pair_count_rows(chi.data(), clo.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      engine::pair_count_kernel(chi_ref[i], clo_ref[i]);
    }
    EXPECT_EQ(chi, chi_ref) << "count n=" << n;
    EXPECT_EQ(clo, clo_ref) << "count n=" << n;
  }
}

TEST(WideCountKernels, MatchCountSimOnEverySlot) {
  // The engine's wide-balancer kernels (the row kernel every lane-parallel
  // tier runs, and the scalar one-vector kernel) against sim/count_sim's
  // ceil((total - i) / p). Totals cover 0, below p, exact
  // multiples of p, random values and the neighbourhood of INT64_MAX / p;
  // each total is split unevenly over the gate's inputs.
  std::mt19937_64 rng(23);
  for (std::size_t p = 3; p <= 8; ++p) {
    const auto ip = static_cast<Count>(p);
    const Count big = std::numeric_limits<Count>::max() / ip;
    std::vector<Count> totals = {0};
    for (Count t = 1; t < ip; ++t) totals.push_back(t);
    for (const Count k : {1, 2, 7, 1000}) totals.push_back(k * ip);
    for (int k = 0; k < 40; ++k) {
      totals.push_back(static_cast<Count>(rng() % 1000000007));
    }
    for (Count d = 0; d <= ip + 1; ++d) totals.push_back(big - d);

    // Listed wires are a shuffled subset of wider batch rows, so the
    // kernel must follow the listed order and leave the other rows alone.
    const std::size_t width = p + 3;
    std::vector<Wire> all(width);
    std::iota(all.begin(), all.end(), Wire{0});
    std::shuffle(all.begin(), all.end(), rng);
    const std::vector<Wire> wires(all.begin(),
                                  all.begin() + static_cast<std::ptrdiff_t>(p));

    const std::size_t begin = 5;  // a block that does not start at lane 0
    const std::size_t n = totals.size();
    engine::Batch<Count> batch(width, begin + n + 2);
    for (std::size_t w = 0; w < width; ++w) {
      for (std::size_t j = 0; j < batch.batch_size(); ++j) {
        batch.at(w, j) = -1;  // sentinel
      }
    }
    std::vector<std::vector<Count>> inputs(n, std::vector<Count>(p, 0));
    for (std::size_t j = 0; j < n; ++j) {
      Count left = totals[j];
      for (std::size_t i = 0; i + 1 < p && left > 0; ++i) {
        const auto part = static_cast<Count>(
            rng() % (static_cast<std::uint64_t>(left) + 1));
        inputs[j][i] = part;
        left -= part;
      }
      inputs[j][p - 1] += left;
      for (std::size_t i = 0; i < p; ++i) {
        batch.at(static_cast<std::size_t>(wires[i]), begin + j) =
            inputs[j][i];
      }
    }

    std::vector<Count> scratch(2 * n);
    engine::wide_count_rows(batch, wires, begin, n, scratch);
    for (std::size_t j = 0; j < n; ++j) {
      const std::vector<Count> expect = balancer_outputs(inputs[j]);
      std::vector<Count> scalar = inputs[j];
      engine::wide_count_kernel(scalar);
      EXPECT_EQ(scalar, expect) << "p=" << p << " total=" << totals[j];
      for (std::size_t i = 0; i < p; ++i) {
        EXPECT_EQ(batch.at(static_cast<std::size_t>(wires[i]), begin + j),
                  expect[i])
            << "p=" << p << " total=" << totals[j] << " slot " << i;
      }
    }
    // Lanes outside the block and rows outside the gate are untouched.
    for (std::size_t w = 0; w < width; ++w) {
      const bool listed =
          std::find(wires.begin(), wires.end(), static_cast<Wire>(w)) !=
          wires.end();
      for (std::size_t j = 0; j < batch.batch_size(); ++j) {
        if (listed && j >= begin && j < begin + n) continue;
        EXPECT_EQ(batch.at(w, j), -1) << "p=" << p << " row " << w;
      }
    }
  }
}

}  // namespace
}  // namespace scn
