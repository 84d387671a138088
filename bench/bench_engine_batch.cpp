// E-ENG — compiled batch engine vs the per-gate interpreter.
//
// Sorts a large batch of random vectors through K / L / bitonic networks
// four ways: per-gate interpreter (apply_comparators, one vector at a
// time), compiled plan scalar, compiled plan SoA batch, and the SoA batch
// sharded over the pool. The headline number is vectors/sec; the
// acceptance bar for the engine is >= 3x interpreter throughput for the
// single-threaded SoA batch on a width >= 24 network.
//
// The backend tiers are measured through tune::ExperimentManager — the
// same declarative sweep `scnet_cli tune` runs — with one cell per
// (network, backend): each cell gets a fresh private Runtime, a time
// guard and best-of-reps timing. Only the interpreter row is measured
// locally (it is not an engine backend). The sweep runs with
// parallelism 1: rows feed an acceptance gate, so no sibling cell may
// perturb a measurement.
//
// Besides the google-benchmark timings, the preamble emits
// BENCH_engine.json — a machine-readable report of the measured
// throughputs and speedups per network.
#include <benchmark/benchmark.h>

#include <map>
#include <string>

#include "baseline/bitonic.h"
#include "bench_common.h"
#include "core/family.h"
#include "core/k_network.h"
#include "core/l_network.h"
#include "engine/backend.h"
#include "engine/execution_plan.h"
#include "runtime/runtime.h"
#include "sim/comparator_sim.h"
#include "tune/experiment.h"

namespace {

using namespace scn;

constexpr std::size_t kBatch = 4096;

/// The backend tiers one sweep covers; the interpreter is measured apart.
const tune::ExperimentConfig& sweep_config() {
  static const tune::ExperimentConfig config = [] {
    tune::ExperimentConfig c;
    c.name = "engine_batch";
    c.axes.networks = {
        tune::NetworkSpec::member(NetworkKind::kK, {4, 4, 4}),
        tune::NetworkSpec::member(NetworkKind::kK, {2, 3, 4}),
        tune::NetworkSpec::member(NetworkKind::kL, {4, 4, 4}),
        tune::NetworkSpec::named(
            "bitonic32", [](Runtime&) { return make_bitonic_network(5); }),
    };
    c.axes.pass_levels = {PassLevel::kNone};  // measure the raw networks
    c.axes.backends = {EngineBackend::kScalar, EngineBackend::kBatch,
                       EngineBackend::kThreaded};
    c.axes.batch_sizes = {kBatch};
    c.reps = 3;
    c.max_cell_seconds = 5.0;  // roomy: rows feed the acceptance gate
    c.parallelism = 1;
    return c;
  }();
  return config;
}

struct Measurement {
  std::string network;
  std::size_t width = 0;
  std::uint32_t depth = 0;
  double interp_vps = 0;    // vectors/sec, per-gate interpreter
  double scalar_vps = 0;    // plan, scalar tier
  double batch_vps = 0;     // plan, SoA batch tier
  double threaded_vps = 0;  // plan, SoA batch over the pool
};

std::vector<Measurement> measure_all() {
  tune::ExperimentManager manager(sweep_config());
  const std::vector<tune::CellResult> results = manager.run();

  // One Measurement per network, in axes order; cells fill the tier
  // columns, the interpreter column is measured here (best-of-3, same
  // rep discipline via bench::best_time).
  std::vector<Measurement> ms;
  std::map<std::string, std::size_t> index;
  for (const tune::CellResult& r : results) {
    if (!r.ok) {
      std::fprintf(stderr, "cell %s failed: %s\n", r.cell.label().c_str(),
                   r.error.c_str());
      continue;
    }
    const std::string& name = r.cell.network.name;
    if (index.find(name) == index.end()) {
      index[name] = ms.size();
      Measurement m;
      m.network = name;
      m.width = r.width;
      m.depth = r.depth;
      ms.push_back(std::move(m));
    }
    Measurement& m = ms[index[name]];
    switch (r.cell.backend) {
      case EngineBackend::kScalar: m.scalar_vps = r.vectors_per_sec; break;
      case EngineBackend::kBatch: m.batch_vps = r.vectors_per_sec; break;
      case EngineBackend::kThreaded:
        m.threaded_vps = r.vectors_per_sec;
        break;
      default: break;
    }
  }
  for (const tune::NetworkSpec& spec : sweep_config().axes.networks) {
    Runtime rt;
    const Network net =
        spec.is_family()
            ? (spec.kind == NetworkKind::kK
                   ? make_k_network(spec.factors, rt)
                   : make_l_network(spec.factors, rt))
            : spec.build(rt);
    const auto inputs = bench::random_inputs(net.width(), kBatch, 99);
    const double t = bench::best_time([&] {
      for (const auto& in : inputs) {
        benchmark::DoNotOptimize(comparator_output_counts(net, in));
      }
    });
    ms[index[spec.name]].interp_vps = static_cast<double>(kBatch) / t;
  }
  return ms;
}

void emit_report(const std::vector<Measurement>& ms) {
  bench::print_header(
      "E-ENG  Compiled batch engine vs per-gate interpreter",
      "layer-scheduled SoA batches >= 3x interpreter throughput (w >= 24)");
  std::printf("%-14s %5s %5s %12s %12s %12s %12s %8s\n", "network", "w", "d",
              "interp v/s", "scalar v/s", "batch v/s", "threaded v/s",
              "batch/x");
  bench::print_row_rule();
  bench::JsonReport report("BENCH_engine.json", "engine_batch");
  bool all_pass = true;
  for (const Measurement& m : ms) {
    const double speedup = m.batch_vps / m.interp_vps;
    const bool pass = speedup >= 3.0;
    all_pass = all_pass && pass;
    std::printf("%-14s %5zu %5u %12.0f %12.0f %12.0f %12.0f %7.2fx %s\n",
                m.network.c_str(), m.width, m.depth, m.interp_vps,
                m.scalar_vps, m.batch_vps, m.threaded_vps, speedup,
                bench::mark(pass));
    report.begin_row();
    report.kv("network", m.network);
    report.kv("width", static_cast<std::uint64_t>(m.width));
    report.kv("depth", static_cast<std::uint64_t>(m.depth));
    report.kv("batch_size", static_cast<std::uint64_t>(kBatch));
    report.kv("interpreter_vps", m.interp_vps);
    report.kv("plan_scalar_vps", m.scalar_vps);
    report.kv("plan_batch_vps", m.batch_vps);
    report.kv("plan_threaded_vps", m.threaded_vps);
    report.kv("batch_speedup", speedup);
    report.end_row();
  }
  report.finish(all_pass);
  std::printf("\n");
}

template <typename Runner>
void batch_bench(benchmark::State& state, const Network& net, Runner run) {
  const ExecutionPlan plan = compile_plan(net);
  const auto inputs = bench::random_inputs(net.width(), kBatch, 99);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run(net, plan, inputs));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kBatch));
}

const Network& k64() {
  static const Network net = make_k_network({4, 4, 4});
  return net;
}

void BM_InterpreterK64(benchmark::State& state) {
  batch_bench(state, k64(),
              [](const Network& net, const ExecutionPlan&,
                 const std::vector<std::vector<Count>>& inputs) {
                std::vector<Count> last;
                for (const auto& in : inputs) {
                  last = comparator_output_counts(net, in);
                }
                return last;
              });
}
BENCHMARK(BM_InterpreterK64)->Unit(benchmark::kMillisecond);

void BM_PlanScalarK64(benchmark::State& state) {
  batch_bench(state, k64(),
              [](const Network&, const ExecutionPlan& plan,
                 const std::vector<std::vector<Count>>& inputs) {
                std::vector<Count> last;
                for (const auto& in : inputs) {
                  last = engine::run(plan, Semantics::kComparator, in);
                }
                return last;
              });
}
BENCHMARK(BM_PlanScalarK64)->Unit(benchmark::kMillisecond);

void BM_PlanBatchK64(benchmark::State& state) {
  batch_bench(state, k64(),
              [](const Network&, const ExecutionPlan& plan,
                 const std::vector<std::vector<Count>>& inputs) {
                return engine::run(plan, Semantics::kComparator, inputs,
                                   Runtime::shared(), EngineBackend::kBatch);
              });
}
BENCHMARK(BM_PlanBatchK64)->Unit(benchmark::kMillisecond);

void BM_PlanThreadedK64(benchmark::State& state) {
  batch_bench(state, k64(),
              [](const Network&, const ExecutionPlan& plan,
                 const std::vector<std::vector<Count>>& inputs) {
                return engine::run(plan, Semantics::kComparator, inputs,
                                   Runtime::shared(),
                                   EngineBackend::kThreaded);
              });
}
BENCHMARK(BM_PlanThreadedK64)->Unit(benchmark::kMillisecond);

void BM_PlanCountBatchK64(benchmark::State& state) {
  batch_bench(state, k64(),
              [](const Network&, const ExecutionPlan& plan,
                 const std::vector<std::vector<Count>>& inputs) {
                return engine::run(plan, Semantics::kBalancer, inputs,
                                   Runtime::shared(), EngineBackend::kBatch);
              });
}
BENCHMARK(BM_PlanCountBatchK64)->Unit(benchmark::kMillisecond);

// L(720) with comparator cap 8, the benchmark suite's middle network: its
// wide balancers (widths 4 to 8) run the fixed-width count kernels.
const Network& l720() {
  static const Network net =
      make_network_for_width(720, 8, NetworkKind::kL);
  return net;
}

void BM_PlanCountBatchL720(benchmark::State& state) {
  batch_bench(state, l720(),
              [](const Network&, const ExecutionPlan& plan,
                 const std::vector<std::vector<Count>>& inputs) {
                return engine::run(plan, Semantics::kBalancer, inputs,
                                   Runtime::shared(), EngineBackend::kBatch);
              });
}
BENCHMARK(BM_PlanCountBatchL720)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  emit_report(measure_all());
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
