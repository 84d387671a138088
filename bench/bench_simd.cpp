// E-SIMD — explicit AVX2 kernels vs the auto-vectorized batch tier.
//
// Sweeps batch size x network x backend and reports sorted vectors/sec for
// every registered engine backend (engine/backend.h). The networks split
// into two regimes:
//
//   * width-2 dominated (bitonic, Batcher odd-even): every gate is a pair
//     compare-exchange, exactly what the simd backend's hand-written
//     AVX2 min/max kernels cover — this is where explicit vectorization
//     must beat the compiler's auto-vectorized batch tier;
//   * wide-gate heavy (K(4x4x4): 4-wide base balancers): the wide gates
//     run through the same scalar-per-lane code in both tiers, so simd
//     and batch should be near-identical — measured as a sanity check,
//     never gated.
//
// The sweep itself is a tune::ExperimentManager config — the declarative
// cross product (networks x backends x batch sizes) that `scnet_cli tune`
// also runs — executed with parallelism 1 because the rows feed an
// acceptance gate. Each cell gets a fresh private Runtime and best-of-reps
// timing under a time guard.
//
// Acceptance gate (exit 1 on failure): on every width-2-dominated network,
// the simd backend's best throughput across batch sizes is at least that
// of the batch backend (within a small tolerance for timer noise). The
// gate only arms when the AVX2 kernels are compiled in
// (engine::simd::compiled_in()); elsewhere the report is informational —
// the simd backend degrades to the scalar-kernel fallback there and parity
// is all that is expected.
//
// Emits BENCH_simd.json: one row per (network, batch_size) with the
// per-backend throughputs and the simd/batch ratio.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "baseline/batcher.h"
#include "baseline/bitonic.h"
#include "bench_common.h"
#include "core/cost_model.h"
#include "core/k_network.h"
#include "engine/backend.h"
#include "engine/execution_plan.h"
#include "engine/simd_kernels.h"
#include "runtime/runtime.h"
#include "tune/experiment.h"

namespace {

using namespace scn;

constexpr std::size_t kBatchSizes[] = {64, 256, 1024, 4096};

/// Networks under test; `gated` marks the width-2-dominated regime the
/// acceptance gate covers.
struct NetUnderTest {
  tune::NetworkSpec spec;
  bool width2_dominated;
};

std::vector<NetUnderTest> nets_under_test() {
  std::vector<NetUnderTest> nets;
  nets.push_back({tune::NetworkSpec::named(
                      "bitonic32",
                      [](Runtime&) { return make_bitonic_network(5); }),
                  true});
  nets.push_back({tune::NetworkSpec::named(
                      "batcher24",
                      [](Runtime&) { return make_batcher_network(24); }),
                  true});
  nets.push_back(
      {tune::NetworkSpec::member(NetworkKind::kK, {4, 4, 4}), false});
  return nets;
}

tune::ExperimentConfig sweep_config() {
  tune::ExperimentConfig c;
  c.name = "simd_backends";
  for (const NetUnderTest& n : nets_under_test()) {
    c.axes.networks.push_back(n.spec);
  }
  c.axes.pass_levels = {PassLevel::kNone};
  c.axes.backends = {};  // every registered backend
  c.axes.batch_sizes.assign(std::begin(kBatchSizes), std::end(kBatchSizes));
  c.reps = 3;
  c.max_cell_seconds = 5.0;
  c.parallelism = 1;  // rows feed the acceptance gate
  return c;
}

void backend_bench(benchmark::State& state, EngineBackend b) {
  static const Network net = make_bitonic_network(5);
  const ExecutionPlan plan = compile_plan(net);
  const auto inputs = bench::random_inputs(net.width(), 4096, 2024);
  Runtime rt;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine::run(plan, Semantics::kComparator, inputs, rt, b));
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}

void BM_BatchBitonic32(benchmark::State& state) {
  backend_bench(state, EngineBackend::kBatch);
}
BENCHMARK(BM_BatchBitonic32)->Unit(benchmark::kMillisecond);

void BM_SimdBitonic32(benchmark::State& state) {
  backend_bench(state, EngineBackend::kSimd);
}
BENCHMARK(BM_SimdBitonic32)->Unit(benchmark::kMillisecond);

void BM_ThreadedBitonic32(benchmark::State& state) {
  backend_bench(state, EngineBackend::kThreaded);
}
BENCHMARK(BM_ThreadedBitonic32)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const bool gated = engine::simd::compiled_in();
  bench::print_header(
      "E-SIMD  Explicit AVX2 kernels vs auto-vectorized batch tier",
      "simd >= batch vectors/sec on width-2-dominated plans (AVX2 hosts)");
  if (!gated) {
    std::printf("AVX2 kernels not compiled in: report is informational, "
                "the gate is off.\n");
  }

  tune::ExperimentManager manager(sweep_config());
  const std::vector<tune::CellResult> results = manager.run();

  // Regroup the flat cell list into (network, batch_size) rows with one
  // throughput column per backend.
  struct Row {
    double width2_fraction = 0.0;
    std::map<EngineBackend, double> vps;
  };
  std::map<std::string, std::map<std::size_t, Row>> rows;
  for (const tune::CellResult& r : results) {
    if (!r.ok) {
      std::fprintf(stderr, "cell %s failed: %s\n", r.cell.label().c_str(),
                   r.error.c_str());
      continue;
    }
    Row& row = rows[r.cell.network.name][r.cell.lanes];
    row.width2_fraction = r.width2_fraction;
    row.vps[r.cell.backend] = r.vectors_per_sec;
  }

  std::printf("%-11s %6s %6s %12s %12s %12s %12s %8s\n", "network", "B",
              "w2frac", "scalar v/s", "batch v/s", "simd v/s",
              "threaded v/s", "simd/x");
  bench::print_row_rule();

  bench::JsonReport report("BENCH_simd.json", "simd_backends");
  bool all_pass = true;
  for (const NetUnderTest& n : nets_under_test()) {
    double best_ratio = 0.0;
    for (const std::size_t batch_size : kBatchSizes) {
      const Row& row = rows[n.spec.name][batch_size];
      const auto vps = [&](EngineBackend b) {
        const auto it = row.vps.find(b);
        return it == row.vps.end() ? 0.0 : it->second;
      };
      const double batch_vps = vps(EngineBackend::kBatch);
      const double simd_vps = vps(EngineBackend::kSimd);
      const double ratio = batch_vps > 0 ? simd_vps / batch_vps : 0.0;
      best_ratio = std::max(best_ratio, ratio);
      std::printf("%-11s %6zu %6.2f %12.0f %12.0f %12.0f %12.0f %7.2fx\n",
                  n.spec.name.c_str(), batch_size, row.width2_fraction,
                  vps(EngineBackend::kScalar), batch_vps, simd_vps,
                  vps(EngineBackend::kThreaded), ratio);
      report.begin_row();
      report.kv("network", n.spec.name);
      report.kv("batch_size", static_cast<std::uint64_t>(batch_size));
      report.kv("width2_fraction", row.width2_fraction);
      report.kv("scalar_vps", vps(EngineBackend::kScalar));
      report.kv("batch_vps", batch_vps);
      report.kv("simd_vps", simd_vps);
      report.kv("threaded_vps", vps(EngineBackend::kThreaded));
      report.kv("simd_over_batch", ratio);
      report.kv("gated", gated && n.width2_dominated);
      report.end_row();
    }
    if (n.width2_dominated) {
      // Gate on the best batch size: the claim is "the explicit kernels
      // win where they apply", not "they win at every sweep point" —
      // tiny batches are dominated by pack/unpack in both tiers. 5%
      // tolerance absorbs timer noise on shared CI runners.
      const bool pass = !gated || best_ratio >= 0.95;
      all_pass = all_pass && pass;
      std::printf("%-11s best simd/batch %.2fx %s\n", n.spec.name.c_str(),
                  best_ratio, gated ? bench::mark(pass) : "(info)");
    }
    bench::print_row_rule();
  }
  const bool ok = report.finish(all_pass);

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return ok ? 0 : 1;
}
