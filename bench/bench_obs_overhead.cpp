// E-OBS — observability overhead and measured-vs-predicted contention.
//
// Two experiments in one binary (docs/observability.md):
//
//  1. Overhead of the instrumentation on the bench_engine_batch workload
//     (K(4x4x4), 4096-lane SoA batch sort + the scalar tier), comparing a
//     plain run against a run with a trace actively recording. Built with
//     SCNET_OBS=OFF the macros are compiled out, both arms execute the
//     same code, and the measured ratio must stay within 2% — that is the
//     CI gate proving the kill switch works (exit code 1 on failure).
//     Built with SCNET_OBS=ON the same ratio is *reported* as the
//     enabled-mode cost of per-layer spans (not gated: recording spans is
//     expected to cost something; you only pay it while tracing).
//
//  2. The ConcurrentNetwork visit probe against the analytical contention
//     model: per-gate traffic measured by routing tokens with the probe
//     enabled, next to gate_traffic() predictions, joined by
//     compare_contention(). Round-robin balancers make measured traffic
//     nearly deterministic, so the hottest-gate fraction must land within
//     10% of the prediction (gated in every build — the probe is runtime
//     machinery, not SCNET_OBS-conditional).
//
// Emits BENCH_obs.json with both sections.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <random>
#include <vector>

#include "bench_common.h"
#include "core/k_network.h"
#include "core/l_network.h"
#include "engine/backend.h"
#include "engine/execution_plan.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "perf/contention_model.h"
#include "runtime/runtime.h"
#include "seq/generators.h"
#include "sim/concurrent_sim.h"

namespace {

using namespace scn;

constexpr std::size_t kBatch = 4096;
constexpr int kInnerReps = 8;   // per timing sample, to lift it out of noise
constexpr int kSamples = 9;     // best-of, alternating arms
constexpr double kOverheadGate = 0.02;       // compiled-out ceiling
constexpr double kContentionTolerance = 0.10;  // doc-stated (observability.md)

std::vector<std::vector<Count>> make_inputs(std::size_t width,
                                            std::size_t n) {
  std::mt19937_64 rng(99);
  std::vector<std::vector<Count>> inputs;
  inputs.reserve(n);
  for (std::size_t j = 0; j < n; ++j) {
    inputs.push_back(random_count_vector(rng, width, 1000));
  }
  return inputs;
}

double time_once(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

struct OverheadResult {
  double idle_seconds = 0.0;    // best sample, tracer inactive
  double traced_seconds = 0.0;  // best sample, tracer recording
  [[nodiscard]] double overhead_fraction() const {
    return idle_seconds > 0 ? traced_seconds / idle_seconds - 1.0 : 0.0;
  }
};

// Best-of-kSamples for the workload with the tracer idle vs recording,
// alternating arms each round so drift (thermal, scheduler) hits both
// equally. The tracer restarts per traced sample, so the span buffer
// never approaches its cap and each sample pays the same recording cost.
OverheadResult measure_overhead(const std::function<void()>& workload) {
  OverheadResult r;
  workload();  // untimed warmup: fault in pages, settle caches
  for (int s = 0; s < kSamples; ++s) {
    const double idle = time_once([&] {
      for (int i = 0; i < kInnerReps; ++i) workload();
    });
    obs::Tracer::shared().start();
    const double traced = time_once([&] {
      for (int i = 0; i < kInnerReps; ++i) workload();
    });
    obs::Tracer::shared().stop();
    r.idle_seconds = s == 0 ? idle : std::min(r.idle_seconds, idle);
    r.traced_seconds = s == 0 ? traced : std::min(r.traced_seconds, traced);
  }
  obs::Tracer::shared().clear();
  return r;
}

struct ContentionRow {
  const char* network;
  std::size_t width = 0;
  std::size_t gates = 0;
  ContentionComparison cmp;
  [[nodiscard]] bool pass() const {
    return cmp.hottest_relative_error() <= kContentionTolerance;
  }
};

ContentionRow measure_contention(const char* name, const Network& net,
                                 std::size_t threads,
                                 std::uint64_t tokens_per_thread) {
  ContentionRow row;
  row.network = name;
  row.width = net.width();
  row.gates = net.gate_count();
  ConcurrentNetwork cnet(net);
  cnet.enable_visit_probe();
  const ConcurrentRunResult run =
      run_concurrent(cnet, threads, tokens_per_thread, /*seed=*/7);
  row.cmp = compare_contention(net, cnet.gate_visits(), run.tokens);
  return row;
}

bool emit_report(const OverheadResult& batch, const OverheadResult& scalar,
                 const std::vector<ContentionRow>& rows) {
  bench::print_header(
      "E-OBS  Observability overhead + measured-vs-predicted contention",
      "SCNET_OBS=OFF builds pay <= 2% on the batch-engine workload; "
      "probe traffic matches gate_traffic() within 10%");

  const bool gated = !obs::compiled_in();
  std::printf("observability compiled %s -> overhead %s\n\n",
              obs::compiled_in() ? "IN" : "OUT",
              gated ? "GATED at 2%" : "reported only");
  std::printf("%-22s %12s %12s %10s\n", "workload", "idle s", "traced s",
              "overhead");
  bench::print_row_rule();
  bool overhead_ok = true;
  const auto overhead_row = [&](const char* name, const OverheadResult& r) {
    const bool pass = !gated || r.overhead_fraction() <= kOverheadGate;
    overhead_ok = overhead_ok && pass;
    std::printf("%-22s %12.6f %12.6f %9.2f%% %s\n", name, r.idle_seconds,
                r.traced_seconds, 100.0 * r.overhead_fraction(),
                gated ? bench::mark(pass) : "");
  };
  overhead_row("K(4x4x4) batch 4096", batch);
  overhead_row("K(4x4x4) scalar", scalar);

  std::printf("\n%-12s %5s %6s %9s %10s %10s %8s %9s\n", "network", "w",
              "gates", "tokens", "pred hot", "meas hot", "rel err",
              "mean |e|");
  bench::print_row_rule();
  bool contention_ok = true;
  for (const ContentionRow& row : rows) {
    contention_ok = contention_ok && row.pass();
    std::printf("%-12s %5zu %6zu %9llu %10.4f %10.4f %7.2f%% %9.5f %s\n",
                row.network, row.width, row.gates,
                static_cast<unsigned long long>(row.cmp.tokens),
                row.cmp.predicted_hottest, row.cmp.measured_hottest,
                100.0 * row.cmp.hottest_relative_error(),
                row.cmp.mean_abs_error, bench::mark(row.pass()));
  }

  FILE* json = std::fopen("BENCH_obs.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n  \"experiment\": \"obs_overhead\",\n");
    std::fprintf(json, "  \"obs_compiled_in\": %s,\n",
                 obs::compiled_in() ? "true" : "false");
    std::fprintf(json, "  \"batch_size\": %zu,\n", kBatch);
    std::fprintf(json, "  \"overhead_gate\": %.2f,\n",
                 gated ? kOverheadGate : -1.0);
    std::fprintf(json, "  \"overhead\": [\n");
    const auto json_overhead = [&](const char* name, const OverheadResult& r,
                                   bool last) {
      std::fprintf(json,
                   "    {\"workload\": \"%s\", \"idle_seconds\": %.6f, "
                   "\"traced_seconds\": %.6f, \"overhead_fraction\": %.4f}%s\n",
                   name, r.idle_seconds, r.traced_seconds,
                   r.overhead_fraction(), last ? "" : ",");
    };
    json_overhead("batch", batch, false);
    json_overhead("scalar", scalar, true);
    std::fprintf(json, "  ],\n  \"contention_tolerance\": %.2f,\n",
                 kContentionTolerance);
    std::fprintf(json, "  \"contention\": [\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const ContentionRow& row = rows[i];
      std::fprintf(
          json,
          "    {\"network\": \"%s\", \"width\": %zu, \"gates\": %zu, "
          "\"tokens\": %llu, \"predicted_hottest\": %.6f, "
          "\"measured_hottest\": %.6f, \"hottest_relative_error\": %.6f, "
          "\"mean_abs_error\": %.6f, \"pass\": %s}%s\n",
          row.network, row.width, row.gates,
          static_cast<unsigned long long>(row.cmp.tokens),
          row.cmp.predicted_hottest, row.cmp.measured_hottest,
          row.cmp.hottest_relative_error(), row.cmp.mean_abs_error,
          row.pass() ? "true" : "false", i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(json, "  ],\n  \"pass\": %s\n}\n",
                 overhead_ok && contention_ok ? "true" : "false");
    std::fclose(json);
    std::printf("\nwrote BENCH_obs.json\n");
  }
  std::printf("\n");
  return overhead_ok && contention_ok;
}

const Network& k64() {
  static const Network net = make_k_network({4, 4, 4});
  return net;
}

// The single-threaded SoA batch tier.
std::vector<std::vector<Count>> sort_batch(
    const ExecutionPlan& plan, const std::vector<std::vector<Count>>& inputs) {
  return engine::run(plan, Semantics::kComparator, inputs, Runtime::shared(),
                     EngineBackend::kBatch);
}

void BM_BatchIdle(benchmark::State& state) {
  const ExecutionPlan plan = compile_plan(k64());
  const auto inputs = make_inputs(k64().width(), kBatch);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sort_batch(plan, inputs));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kBatch));
}
BENCHMARK(BM_BatchIdle)->Unit(benchmark::kMillisecond);

void BM_BatchTraced(benchmark::State& state) {
  const ExecutionPlan plan = compile_plan(k64());
  const auto inputs = make_inputs(k64().width(), kBatch);
  obs::Tracer::shared().start();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sort_batch(plan, inputs));
    // Keep the buffer small so late iterations pay what early ones do.
    obs::Tracer::shared().clear();
  }
  obs::Tracer::shared().stop();
  obs::Tracer::shared().clear();
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kBatch));
}
BENCHMARK(BM_BatchTraced)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const ExecutionPlan plan = compile_plan(k64());
  const auto inputs = make_inputs(k64().width(), kBatch);

  const OverheadResult batch = measure_overhead(
      [&] { benchmark::DoNotOptimize(sort_batch(plan, inputs)); });
  const OverheadResult scalar = measure_overhead([&] {
    for (const auto& in : inputs) {
      benchmark::DoNotOptimize(engine::run(plan, Semantics::kComparator, in));
    }
  });

  std::vector<ContentionRow> rows;
  rows.push_back(
      measure_contention("K(4x4)", make_k_network({4, 4}), 2, 20000));
  rows.push_back(
      measure_contention("K(2x2x2x2)", make_k_network({2, 2, 2, 2}), 2,
                         20000));
  rows.push_back(
      measure_contention("L(3x4)", make_l_network({3, 4}), 2, 20000));

  if (!emit_report(batch, scalar, rows)) {
    std::fprintf(stderr,
                 "OBS GATE FAILED: overhead above 2%% with observability "
                 "compiled out, or probe traffic outside the 10%% "
                 "contention-model tolerance\n");
    return 1;
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
