// Canonical structural hashing and the LRU plan cache: hit/miss/eviction
// accounting, order-insensitivity of the hash, how copies and moves carry
// the memoized hash, and correctness of cached plans against the per-gate
// interpreter.
#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <thread>
#include <vector>

#include "baseline/batcher.h"
#include "baseline/bitonic.h"
#include "baseline/bubble.h"
#include "core/family.h"
#include "core/k_network.h"
#include "core/l_network.h"
#include "engine/backend.h"
#include "engine/execution_plan.h"
#include "net/network.h"
#include "net/serialize.h"
#include "net/transform.h"
#include "obs/metrics.h"
#include "opt/plan_cache.h"
#include "perf/thread_pool.h"
#include "runtime/runtime.h"
#include "seq/generators.h"
#include "sim/comparator_sim.h"

namespace scn {
namespace {

TEST(StructuralHash, InsensitiveToIndependentGateOrder) {
  NetworkBuilder a(6);
  a.add_balancer({4, 5});
  a.add_balancer({0, 1});
  a.add_balancer({2, 3});
  NetworkBuilder b(6);
  b.add_balancer({0, 1});
  b.add_balancer({2, 3});
  b.add_balancer({4, 5});
  EXPECT_EQ(std::move(a).finish_identity().structural_hash(),
            std::move(b).finish_identity().structural_hash());
}

TEST(StructuralHash, SensitiveToStructure) {
  const Network k22 = make_k_network({2, 2});
  const Network k23 = make_k_network({2, 3});
  EXPECT_NE(k22.structural_hash(), k23.structural_hash());

  // Same gates, different logical output order.
  NetworkBuilder a(2);
  a.add_balancer({0, 1});
  NetworkBuilder b(2);
  b.add_balancer({0, 1});
  const Network identity = std::move(a).finish_identity();
  const Network swapped = std::move(b).finish({1, 0});
  EXPECT_NE(identity.structural_hash(), swapped.structural_hash());

  // Same wire set, different listed (logical) order within the gate.
  NetworkBuilder c(2);
  c.add_balancer({1, 0});
  EXPECT_NE(identity.structural_hash(),
            std::move(c).finish_identity().structural_hash());
}

TEST(StructuralHash, SensitiveToLayerAndAcrossWidths) {
  // Same gate multiset on different layers: {0,1} then {1,2} puts the
  // second gate on layer 2; {1,2} then {0,1} swaps which gate is later.
  NetworkBuilder a(3);
  a.add_balancer({0, 1});
  a.add_balancer({1, 2});
  NetworkBuilder b(3);
  b.add_balancer({1, 2});
  b.add_balancer({0, 1});
  EXPECT_NE(std::move(a).finish_identity().structural_hash(),
            std::move(b).finish_identity().structural_hash());

  // Over a family of K and L networks, two hashes agree exactly when the
  // serializations do (K(2,3) and K(3,2) are both one width-6 balancer).
  std::vector<Network> nets;
  for (const std::vector<std::size_t>& f :
       std::vector<std::vector<std::size_t>>{
           {2, 2}, {2, 3}, {3, 2}, {2, 2, 2}, {4, 4}, {2, 3, 4}}) {
    nets.push_back(make_k_network(f));
    nets.push_back(make_l_network(f));
  }
  for (const Network& x : nets) {
    for (const Network& y : nets) {
      EXPECT_EQ(x.structural_hash() == y.structural_hash(),
                serialize_network(x) == serialize_network(y));
    }
  }
}

TEST(StructuralHash, CopiesCarryTheHash) {
  const Network original = make_l_network({2, 3, 4});
  const std::uint64_t h = original.structural_hash();
  const Network copy = original;
  EXPECT_EQ(copy.structural_hash(), h);
  Network assigned = make_k_network({2, 2});
  (void)assigned.structural_hash();
  assigned = original;
  EXPECT_EQ(assigned.structural_hash(), h);

  // A copy taken before the first call computes the same value itself.
  const Network fresh = make_l_network({2, 3, 4});
  const Network early = fresh;
  EXPECT_EQ(early.structural_hash(), h);
  EXPECT_EQ(fresh.structural_hash(), h);
}

TEST(StructuralHash, MovedFromReportsItsOwnState) {
  Network source = make_l_network({2, 3, 4});
  const std::uint64_t h = source.structural_hash();
  const Network target = std::move(source);
  EXPECT_EQ(target.structural_hash(), h);
  // The moved-from network is empty, and its hash says so.
  EXPECT_EQ(source.structural_hash(), Network{}.structural_hash());
  EXPECT_NE(source.structural_hash(), h);

  Network assigned_from = make_k_network({2, 3});
  const std::uint64_t k = assigned_from.structural_hash();
  Network assigned = make_l_network({2, 2});
  assigned = std::move(assigned_from);
  EXPECT_EQ(assigned.structural_hash(), k);
  EXPECT_EQ(assigned_from.structural_hash(), Network{}.structural_hash());
}

TEST(PlanCache, CopyOfACachedNetworkHits) {
  PlanCache cache(8);
  const Network net = make_l_network({2, 3, 4});
  (void)cache.compiled(net, PassLevel::kDefault);
  const Network copy = net;
  EXPECT_TRUE(cache.compiled(copy, PassLevel::kDefault).hit);

  Runtime rt;
  (void)rt.compiled(net, PassLevel::kDefault);
  const Network runtime_copy = net;
  EXPECT_TRUE(rt.compiled(runtime_copy, PassLevel::kDefault).hit);
}

TEST(PlanCache, ConcurrentFirstHashesAgree) {
  // One fresh Network, eight threads racing its first structural_hash()
  // and the cache lookup keyed on it: every thread sees the same hash and
  // the same plan, and the cache compiled it once.
  const Network net = make_l_network({2, 3, 4});
  const std::uint64_t expected = make_l_network({2, 3, 4}).structural_hash();
  PlanCache cache(8);
  constexpr int kThreads = 8;
  std::vector<std::uint64_t> hashes(kThreads);
  std::vector<const ExecutionPlan*> plans(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const auto i = static_cast<std::size_t>(t);
      hashes[i] = net.structural_hash();
      plans[i] = cache.compiled(net, PassLevel::kDefault).plan.get();
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    const auto i = static_cast<std::size_t>(t);
    EXPECT_EQ(hashes[i], expected);
    EXPECT_EQ(plans[i], plans[0]);
  }
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, static_cast<std::uint64_t>(kThreads - 1));
}

TEST(PlanCache, SecondLookupHitsAndSharesThePlan) {
  PlanCache cache(8);
  const Network net = make_k_network({2, 3});
  const CachedPlan first = cache.compiled(net, PassLevel::kDefault);
  const CachedPlan second = cache.compiled(net, PassLevel::kDefault);
  EXPECT_FALSE(first.hit);
  EXPECT_TRUE(second.hit);
  EXPECT_EQ(first.plan.get(), second.plan.get());
  EXPECT_EQ(first.passes.get(), second.passes.get());
  const PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(PlanCache, StructurallyIdenticalRebuildsHit) {
  PlanCache cache(8);
  (void)cache.compiled(make_l_network({2, 2}), PassLevel::kDefault);
  const CachedPlan again =
      cache.compiled(make_l_network({2, 2}), PassLevel::kDefault);
  EXPECT_TRUE(again.hit);
}

TEST(PlanCache, DistinctConfigurationsGetDistinctEntries) {
  PlanCache cache(8);
  const Network net = make_k_network({2, 3});
  (void)cache.compiled(net, PassLevel::kDefault);
  const CachedPlan aggressive = cache.compiled(net, PassLevel::kAggressive);
  EXPECT_FALSE(aggressive.hit);
  const CachedPlan balancer = cache.compiled(
      net, PassLevel::kDefault, PassOptions{.semantics = Semantics::kBalancer});
  EXPECT_FALSE(balancer.hit);
  EXPECT_EQ(cache.stats().entries, 3u);
}

TEST(PlanCache, EvictsLeastRecentlyUsedAtCapacity) {
  PlanCache cache(1);
  const Network a = make_k_network({2, 2});
  const Network b = make_k_network({2, 3});
  (void)cache.compiled(a, PassLevel::kDefault);
  (void)cache.compiled(b, PassLevel::kDefault);  // evicts a
  const CachedPlan a_again = cache.compiled(a, PassLevel::kDefault);
  EXPECT_FALSE(a_again.hit);
  const PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.capacity, 1u);
}

TEST(PlanCache, EvictedPlansSurviveForHolders) {
  PlanCache cache(1);
  const CachedPlan held =
      cache.compiled(make_k_network({2, 2}), PassLevel::kDefault);
  (void)cache.compiled(make_k_network({2, 3}), PassLevel::kDefault);
  // `held` was evicted from the cache but the shared_ptr keeps it alive.
  EXPECT_EQ(held.plan->width(), 4u);
}

TEST(PlanCache, ClearResetsEntriesAndCounters) {
  PlanCache cache(4);
  (void)cache.compiled(make_k_network({2, 2}), PassLevel::kDefault);
  cache.clear();
  const PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
}

TEST(PlanCache, CachedPlanMatchesInterpreterOnEveryLevel) {
  const Network net = make_bitonic_network(4);
  std::mt19937_64 rng(5);
  for (const PassLevel level :
       {PassLevel::kNone, PassLevel::kDefault, PassLevel::kAggressive}) {
    const CachedPlan cached = compiled_plan(net, level);
    for (int trial = 0; trial < 20; ++trial) {
      const auto in = random_count_vector(rng, net.width(), 300);
      ASSERT_EQ(comparator_output_counts(net, in),
                engine::run(*cached.plan, Semantics::kComparator, in))
          << to_string(level);
    }
  }
}

TEST(PlanCache, PlanEqualsCompiledPipelineOutputFieldByField) {
  // The cache compiles the caller's network when no pass rewrites it, and
  // the pipeline's network otherwise; either way its plan is the plan of
  // optimize_network's output, and its provenance is the same.
  Runtime rt;
  std::vector<Network> nets;
  nets.push_back(make_network_for_width(64, 8, NetworkKind::kK, rt));
  nets.push_back(make_network_for_width(720, 8, NetworkKind::kL, rt));
  nets.push_back(make_l_network({2, 3, 2}));
  nets.push_back(compose(make_batcher_network(8), make_bubble_network(8)));
  // Already optimized: every pass of the default pipeline leaves it as is.
  nets.push_back(optimize_network(make_l_network({2, 3, 2}),
                                  PassLevel::kDefault)
                     .network);
  for (const Network& net : nets) {
    for (const PassLevel level :
         {PassLevel::kNone, PassLevel::kDefault, PassLevel::kAggressive,
          PassLevel::kOptimal}) {
      for (const Semantics semantics :
           {Semantics::kComparator, Semantics::kBalancer}) {
        const PassOptions opts{.semantics = semantics};
        PlanCache cache(4);
        const CachedPlan cached = cache.compiled(net, level, opts);
        const PipelineResult expected = optimize_network(net, level, opts);
        EXPECT_TRUE(*cached.plan == compile_plan(expected.network))
            << "width " << net.width() << " " << to_string(level) << " "
            << to_string(semantics);
        ASSERT_EQ(cached.passes->size(), expected.passes.size());
        for (std::size_t i = 0; i < expected.passes.size(); ++i) {
          const PassStats& got = (*cached.passes)[i];
          const PassStats& want = expected.passes[i];
          EXPECT_EQ(got.name, want.name);
          EXPECT_EQ(got.applied, want.applied);
          EXPECT_EQ(got.gates_before, want.gates_before);
          EXPECT_EQ(got.gates_after, want.gates_after);
          EXPECT_EQ(got.depth_before, want.depth_before);
          EXPECT_EQ(got.depth_after, want.depth_after);
          EXPECT_EQ(got.rewrites, want.rewrites);
        }
      }
    }
  }
}

TEST(PlanCache, SharedCacheMissesRaceRegistrySnapshotsWithoutDeadlock) {
  // Regression for a lock-order inversion: the shared cache's miss path
  // optimizes and compiles under the cache mutex, and its instrumentation
  // may take the registry lock (first-use counter resolution) — so the
  // registry-side entries gauge must never lock the cache mutex. Misses
  // racing snapshots here deadlocked before the gauge sampled an atomic.
  std::atomic<bool> stop{false};
  std::thread sampler([&stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)obs::MetricsRegistry::shared().snapshot();
      (void)obs::MetricsRegistry::shared().value("plan_cache.entries");
    }
  });
  {
    ThreadPool pool(4);
    for (std::size_t k = 2; k <= 9; ++k) {
      pool.submit([k] {
        (void)compiled_plan(make_k_network({2, k}), PassLevel::kDefault);
      });
    }
    pool.wait_idle();
  }
  stop.store(true, std::memory_order_relaxed);
  sampler.join();
  // The gauge mirrors the cache's entry count exactly when quiescent.
  EXPECT_EQ(obs::MetricsRegistry::shared().value("plan_cache.entries"),
            PlanCache::shared().stats().entries);
}

TEST(PlanCache, ProvenanceTravelsWithThePlan) {
  PlanCache cache(4);
  const CachedPlan cached =
      cache.compiled(make_k_network({2, 3}), PassLevel::kDefault);
  ASSERT_NE(cached.passes, nullptr);
  EXPECT_EQ(cached.passes->size(), 4u);  // default pipeline length
}

}  // namespace
}  // namespace scn
