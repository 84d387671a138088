// E-TOPO — placement-aware execution vs blind striping on the machine's
// (or a synthetic) hardware topology.
//
// Two experiments, both written to BENCH_topo.json:
//
//   1. Threaded batch sort throughput with the PlacementPlan lane
//      partition ON vs OFF, across widths. Placed execution keeps each
//      lane range on its home node's worker group, so the win scales with
//      the interconnect penalty — which a single-node host does not have.
//   2. Sharded service saturation with node-affine shard runtimes ON vs
//      OFF (same token volume, linearity verified either way).
//
// Gating policy mirrors the tune gate: on a REAL multi-node machine the
// placed path must hold at least 0.95x of blind striping (placement that
// loses throughput outright is a solver bug); on single-node or synthetic
// topologies the numbers are informational — synthetic cpu ids cannot be
// pinned, so "placement" there exercises the code path, not the silicon.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/cost_model.h"
#include "core/k_network.h"
#include "engine/backend.h"
#include "engine/batch_engine.h"
#include "engine/execution_plan.h"
#include "perf/thread_pool.h"
#include "runtime/runtime.h"
#include "service/saturate.h"
#include "service/shard_manager.h"
#include "topo/placement.h"
#include "topo/topology.h"

namespace {

using namespace scn;

constexpr std::size_t kLanes = 4096;

struct TopoRow {
  std::string experiment;
  std::string label;
  double placed_vps = 0.0;
  double striped_vps = 0.0;
  [[nodiscard]] double ratio() const {
    return striped_vps > 0 ? placed_vps / striped_vps : 0.0;
  }
};

Runtime::Options runtime_options(bool placement) {
  Runtime::Options opts;
  opts.placement = placement;
  // Both runtimes share the process topology (SCNET_TOPOLOGY included) so
  // the ONLY difference between the two measurements is the lane split.
  opts.topology = std::shared_ptr<const topo::HardwareTopology>(
      &topo::HardwareTopology::shared(), [](const topo::HardwareTopology*) {});
  return opts;
}

double sort_vps(Runtime& rt, const ExecutionPlan& plan,
                const std::vector<std::vector<Count>>& inputs) {
  const double secs = bench::best_time([&] {
    benchmark::DoNotOptimize(engine::run(plan, Semantics::kComparator,
                                         inputs, rt, EngineBackend::kThreaded));
  });
  return secs > 0 ? static_cast<double>(inputs.size()) / secs : 0.0;
}

std::vector<TopoRow> measure_batch_rows() {
  std::vector<TopoRow> rows;
  for (const std::size_t factor_count : {3u, 4u, 5u}) {
    const std::vector<std::size_t> factors(factor_count, 2);
    Runtime placed_rt(runtime_options(true));
    Runtime striped_rt(runtime_options(false));
    const Network net = make_k_network(factors, placed_rt);
    const ExecutionPlan plan = compile_plan(net);
    const auto inputs = bench::random_inputs(net.width(), kLanes, 7);
    TopoRow row;
    row.experiment = "threaded_sort";
    row.label = "K(2^" + std::to_string(factor_count) + ") x" +
                std::to_string(kLanes) + " lanes";
    // Warm both pools before timing (first dispatch spawns workers).
    (void)sort_vps(placed_rt, plan, inputs);
    (void)sort_vps(striped_rt, plan, inputs);
    row.placed_vps = sort_vps(placed_rt, plan, inputs);
    row.striped_vps = sort_vps(striped_rt, plan, inputs);
    rows.push_back(row);
  }
  return rows;
}

double service_tps(bool node_affine) {
  Runtime rt(runtime_options(true));
  ShardManager::Options shard_opts;
  shard_opts.shards = 4;
  shard_opts.node_affine = node_affine;
  shard_opts.dispatch_offset = 0;
  ShardManager service(shard_opts, rt);
  SaturationOptions sat;
  sat.threads = 4;
  sat.tokens_per_thread = 20000;
  sat.async = false;
  const SaturationResult res = run_saturation(service, sat, rt);
  if (!res.linearity.ok) {
    std::fprintf(stderr, "linearity FAILED (node_affine=%d): %s\n",
                 node_affine ? 1 : 0, res.linearity.detail.c_str());
    return -1.0;
  }
  return res.tokens_per_second();
}

int emit_report() {
  const topo::HardwareTopology& topology = topo::HardwareTopology::shared();
  const bool enforced = topology.node_count() > 1 &&
                        !topology.is_synthetic() &&
                        !bench::single_core_host();
  bench::print_header(
      "E-TOPO: placement-aware execution vs blind striping",
      "locality-aware partitioning never loses to uniform spreading");
  std::printf("topology: %s%s\n", topology.describe().c_str(),
              enforced ? "" : " [informational: no real multi-node hardware]");
  bench::print_row_rule();

  bench::JsonReport report("BENCH_topo.json", "topo_placement");
  bool pass = true;

  std::printf("%-28s %14s %14s %7s\n", "case", "placed v/s", "striped v/s",
              "ratio");
  for (const TopoRow& row : measure_batch_rows()) {
    const bool row_ok = !enforced || row.ratio() >= 0.95;
    pass = pass && row_ok;
    std::printf("%-28s %14.0f %14.0f %6.2fx %s\n", row.label.c_str(),
                row.placed_vps, row.striped_vps, row.ratio(),
                bench::mark(row_ok));
    report.begin_row();
    report.kv("experiment", row.experiment);
    report.kv("case", row.label);
    report.kv("placed_vectors_per_sec", row.placed_vps);
    report.kv("striped_vectors_per_sec", row.striped_vps);
    report.kv("ratio", row.ratio());
    report.kv("enforced", enforced);
    report.end_row();
  }

  bench::print_row_rule();
  const double affine_tps = service_tps(true);
  const double blind_tps = service_tps(false);
  const bool service_ok =
      affine_tps > 0 && blind_tps > 0 &&
      (!enforced || affine_tps >= 0.95 * blind_tps);
  pass = pass && service_ok;
  std::printf("%-28s %14.0f %14.0f %6.2fx %s\n", "service 4 shards",
              affine_tps, blind_tps,
              blind_tps > 0 ? affine_tps / blind_tps : 0.0,
              bench::mark(service_ok));
  report.begin_row();
  report.kv("experiment", "service_saturation");
  report.kv("case", "4 shards, node-affine vs blind");
  report.kv("affine_tokens_per_sec", affine_tps);
  report.kv("blind_tokens_per_sec", blind_tps);
  report.kv("enforced", enforced);
  report.end_row();

  return report.finish(pass) ? 0 : 1;
}

// Microbenchmark view of the same comparison for `--benchmark_filter` use.
void BM_PlacedSort(benchmark::State& state) {
  const bool placement = state.range(0) != 0;
  Runtime rt(runtime_options(placement));
  const Network net = make_k_network({2, 2, 2, 2}, rt);
  const ExecutionPlan plan = compile_plan(net);
  const auto inputs = bench::random_inputs(net.width(), kLanes, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine::run(plan, Semantics::kComparator,
                                         inputs, rt, EngineBackend::kThreaded));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kLanes));
  state.SetLabel(placement ? "placed" : "striped");
}
BENCHMARK(BM_PlacedSort)->Arg(0)->Arg(1)->MinTime(0.05)->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  const int gate = emit_report();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return gate;
}
