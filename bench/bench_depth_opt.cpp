// E-DEPTH-OPT — what the peephole-optimal pass wins on the paper's own
// constructions, proven as it is measured.
//
// For a grid of K and L instances this records the depth curve
//   construction -> default pipeline -> optimal pipeline
// next to the paper's closed-form depth bound (Prop 6 / Theorem 7), plus
// the rewrite count the peephole reports. The preamble emits
// BENCH_depth_opt.json and the process exit code is a CI gate:
//
//   * no instance may regress: depth(optimal) <= depth(default) <= built;
//   * at least one L instance must come in strictly BELOW both the default
//     pipeline and the paper's construction bound (the measured win the
//     optimality map exists for);
//   * every rewritten network must still sort — exhaustively by the 0-1
//     principle up to width 20, by randomized agreement with the original
//     above — and produce bit-identical outputs on every registered
//     engine backend.
//
// CI runs this with --benchmark_filter=^$ (gate only, no timing loops).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <random>
#include <vector>

#include "bench_common.h"
#include "core/factorization.h"
#include "core/k_network.h"
#include "core/l_network.h"
#include "engine/backend.h"
#include "engine/execution_plan.h"
#include "opt/pass.h"
#include "runtime/runtime.h"
#include "seq/generators.h"
#include "sim/comparator_sim.h"
#include "verify/fast_zero_one.h"

namespace {

using namespace scn;

constexpr std::size_t kExhaustiveCap = 20;

struct Measurement {
  std::string network;
  std::size_t width;
  std::size_t paper_bound;      // Prop 6 / Thm 7 closed form
  std::uint32_t depth_built;    // as constructed
  std::uint32_t depth_default;  // after the default pipeline
  std::uint32_t depth_optimal;  // after the optimal pipeline
  std::size_t gates_built;
  std::size_t gates_optimal;
  std::size_t rewrites;         // peephole-optimal rewrite count
  bool verified;                // rewritten network still sorts
  bool backends_agree;          // bit-identical across engine backends
};

/// Rewritten network still computes the same sort. Exhaustive (0-1
/// principle, bit-sliced) up to kExhaustiveCap wires; randomized
/// per-gate-interpreter agreement with the original above that.
bool verify_equivalent(const Network& original, const Network& optimized) {
  if (optimized.width() <= kExhaustiveCap) {
    return fast_verify_sorting_exhaustive(optimized).ok;
  }
  std::mt19937_64 rng(99);
  for (int t = 0; t < 64; ++t) {
    const auto in = random_count_vector(rng, original.width(), 70);
    if (comparator_output_counts(original, in) !=
        comparator_output_counts(optimized, in)) {
      return false;
    }
  }
  return true;
}

/// Every registered backend sorts a 256-vector batch of the optimized
/// plan bit-identically to the scalar reference.
bool backends_bit_identical(const Network& optimized) {
  Runtime rt;
  const ExecutionPlan plan = compile_plan(optimized);
  const auto inputs = bench::random_inputs(optimized.width(), 256, 4321);
  const auto reference = engine::run(plan, Semantics::kComparator, inputs,
                                     rt, EngineBackend::kScalar);
  for (const EngineBackend which : engine::registered_backends()) {
    if (engine::run(plan, Semantics::kComparator, inputs, rt, which) !=
        reference) {
      return false;
    }
  }
  return true;
}

Measurement measure(const char* family,
                    const std::vector<std::size_t>& factors) {
  Runtime rt;
  const bool is_l = family[0] == 'L';
  const Network net =
      is_l ? make_l_network(factors, rt) : make_k_network(factors, rt);
  Measurement m{};
  m.network = std::string(family) + "(" + format_factors(factors) + ")";
  m.width = net.width();
  m.paper_bound =
      is_l ? l_depth_bound(factors.size()) : k_depth_formula(factors.size());
  m.depth_built = net.depth();
  m.gates_built = net.gate_count();

  const PipelineResult dflt = optimize_network(net, PassLevel::kDefault);
  m.depth_default = dflt.network.depth();
  const PipelineResult opt = optimize_network(net, PassLevel::kOptimal);
  m.depth_optimal = opt.network.depth();
  m.gates_optimal = opt.network.gate_count();
  for (const PassStats& s : opt.passes) {
    if (s.name == "peephole-optimal") m.rewrites += s.rewrites;
  }
  m.verified = verify_equivalent(net, opt.network);
  m.backends_agree = backends_bit_identical(opt.network);
  return m;
}

/// Per-instance gate: monotone depth curve and a sound rewrite.
bool row_ok(const Measurement& m) {
  return m.depth_optimal <= m.depth_default &&
         m.depth_default <= m.depth_built && m.verified && m.backends_agree;
}

/// The headline win: strictly below the default pipeline AND the paper's
/// construction bound on the same instance.
bool is_win(const Measurement& m) {
  return m.depth_optimal < m.depth_default &&
         m.paper_bound > m.depth_optimal;
}

int run_gate() {
  std::vector<Measurement> ms;
  ms.push_back(measure("K", {2, 3}));
  ms.push_back(measure("K", {2, 2, 2}));
  ms.push_back(measure("K", {2, 2, 3}));
  ms.push_back(measure("K", {4, 4}));
  ms.push_back(measure("L", {2, 2}));
  ms.push_back(measure("L", {2, 3}));
  ms.push_back(measure("L", {3, 3}));
  ms.push_back(measure("L", {2, 2, 2}));
  ms.push_back(measure("L", {2, 2, 2, 2}));
  ms.push_back(measure("L", {2, 2, 2, 2, 2}));

  bench::print_header(
      "E-DEPTH-OPT  Peephole-optimal depth wins on K/L instances",
      "optimal <= default everywhere; L instances beat the construction");
  std::printf("%-16s %5s %6s | %6s %6s %6s | %4s %4s %4s\n", "network", "w",
              "bound", "built", "dflt", "opt", "rw", "ver", "eng");
  bench::print_row_rule();

  bench::JsonReport report("BENCH_depth_opt.json", "depth_opt");
  bool all_ok = true;
  bool any_win = false;
  for (const Measurement& m : ms) {
    const bool ok = row_ok(m);
    all_ok = all_ok && ok;
    any_win = any_win || is_win(m);
    std::printf("%-16s %5zu %6zu | %6u %6u %6u | %4zu %4s %4s %s\n",
                m.network.c_str(), m.width, m.paper_bound, m.depth_built,
                m.depth_default, m.depth_optimal, m.rewrites,
                m.verified ? "ok" : "NO", m.backends_agree ? "ok" : "NO",
                bench::mark(ok));
    report.begin_row();
    report.kv("network", m.network);
    report.kv("width", static_cast<std::uint64_t>(m.width));
    report.kv("paper_bound", static_cast<std::uint64_t>(m.paper_bound));
    report.kv("depth_built", static_cast<std::uint64_t>(m.depth_built));
    report.kv("depth_default", static_cast<std::uint64_t>(m.depth_default));
    report.kv("depth_optimal", static_cast<std::uint64_t>(m.depth_optimal));
    report.kv("gates_built", static_cast<std::uint64_t>(m.gates_built));
    report.kv("gates_optimal", static_cast<std::uint64_t>(m.gates_optimal));
    report.kv("rewrites", static_cast<std::uint64_t>(m.rewrites));
    report.kv("layers_removed_vs_default",
              static_cast<std::uint64_t>(m.depth_default - m.depth_optimal));
    report.kv("verified", m.verified);
    report.kv("backends_agree", m.backends_agree);
    report.kv("win", is_win(m));
    report.end_row();
  }
  const bool pass = all_ok && any_win;
  report.finish(pass);
  if (!all_ok) {
    std::fprintf(stderr, "DEPTH-OPT GATE: regression or unsound rewrite on "
                         "at least one instance\n");
    return 1;
  }
  if (!any_win) {
    std::fprintf(stderr, "DEPTH-OPT GATE: no instance improved on both the "
                         "default pipeline and the paper bound\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const int gate = run_gate();
  if (gate != 0) return gate;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
