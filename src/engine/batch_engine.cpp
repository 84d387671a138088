#include "engine/batch_engine.h"

#include <algorithm>
#include <cassert>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "engine/backend.h"
#include "engine/batch.h"
#include "engine/kernels.h"
#include "engine/simd_kernels.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "opt/pass.h"
#include "perf/thread_pool.h"
#include "runtime/runtime.h"
#include "topo/placement.h"
#include "topo/topology.h"

namespace scn {
namespace {

using engine::Batch;

// Lanes are processed in blocks so per-lane transposed accesses (pack,
// unpack) stay within a few cache lines per row.
constexpr std::size_t kLaneBlock = 32;

// Execution is additionally cache-blocked over the lane dimension: a plan
// revisits each row once per touching gate, so running the WHOLE plan over
// a lane block whose row segments fit in L1/L2 turns those revisits into
// cache hits instead of streaming full rows from memory per gate.
// 256 lanes x 8 bytes = 2 KB per row segment.
constexpr std::size_t kExecBlock = 256;

// Smallest lane range a pool task gets from the threaded tiers.
constexpr std::size_t kMinLanesPerTask = 64;

// Width-2 row kernels of the batch and threaded tiers: branchless loops
// over two contiguous row segments, which the compiler auto-vectorizes
// across the lane dimension. The simd tier passes the explicit AVX2 rows
// of engine/simd_kernels.h instead.
void sort_rows(Count* hi, Count* lo, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) engine::pair_sort_kernel(hi[j], lo[j]);
}

void count_rows(Count* hi, Count* lo, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) engine::pair_count_kernel(hi[j], lo[j]);
}

using PairRows = void (*)(Count*, Count*, std::size_t);

// Runs one wide gate of width 3..kMaxFixedWidth over n lanes through its
// in-register kernel. Returns false, running nothing, for a wider gate.
// `row(w)` is wire w's row, offset to the first lane.
template <Semantics S, typename RowOf>
bool run_fixed_gate(const Wire* ws, std::uint32_t width, std::size_t n,
                    RowOf row) {
  return engine::with_fixed_width(width, [&](auto p) {
    constexpr std::size_t P = decltype(p)::value;
    engine::GateRows<P> rows;
    for (std::size_t i = 0; i < P; ++i) rows[i] = row(ws[i]);
    if constexpr (S == Semantics::kBalancer) {
      engine::count_gate_rows(rows, n);
    } else {
      engine::sort_gate_rows(rows, n);
    }
  });
}

std::string layer_args(const ExecutionPlan& plan,
                       const ExecutionPlan::Layer& layer, std::size_t lanes) {
  const auto pairs = layer.pair_end - layer.pair_begin;
  const auto wides = layer.wide_end - layer.wide_begin;
  // A layer's wide gates own consecutive CE ranges.
  const auto& gates = plan.wide_gates();
  const auto ces = wides == 0 ? 0
                              : gates[layer.wide_end - 1].ce_end -
                                    gates[layer.wide_begin].ce_begin;
  return "{\"pairs\":" + std::to_string(pairs) + ",\"ce\":" +
         std::to_string(ces) + ",\"wide\":" + std::to_string(wides) +
         ",\"lanes\":" + std::to_string(lanes) + "}";
}

// Per-layer timing of one runner call. Armed only while a trace is
// recording: it then reads the tracer clock once per layer per lane block,
// sums the time per layer, and at the end records one `engine.layer`
// event per layer, back to back from the call's start. Unarmed, it holds
// no storage and tick() is one predictable branch.
class LayerClock {
 public:
  explicit LayerClock(std::size_t depth) {
    if constexpr (obs::compiled_in()) {
      if (obs::Tracer::shared().active()) {
        armed_ = true;
        sums_.assign(depth, 0);
        start_ns_ = last_ns_ = obs::Tracer::shared().now_ns();
      }
    }
  }

  void tick(std::size_t layer) {
    if (!armed_) return;
    const std::uint64_t now = obs::Tracer::shared().now_ns();
    sums_[layer] += now - last_ns_;
    last_ns_ = now;
  }

  void record(const ExecutionPlan& plan, std::size_t lanes) const {
    if (!armed_) return;
    obs::Tracer& tracer = obs::Tracer::shared();
    std::uint64_t at = start_ns_;
    for (std::size_t i = 0; i < sums_.size(); ++i) {
      tracer.record_complete("layer " + std::to_string(i), "engine.layer", at,
                             sums_[i],
                             layer_args(plan, plan.layers()[i], lanes));
      at += sums_[i];
    }
  }

 private:
  bool armed_ = false;
  std::vector<std::uint64_t> sums_;
  std::uint64_t start_ns_ = 0;
  std::uint64_t last_ns_ = 0;
};

// The lane runner every lane-parallel tier calls: the full plan over every
// lane of `batch`, one kExecBlock lane block at a time. Width-2 gates run
// through `pair_rows`. A wide gate of width <= kMaxFixedWidth runs as one
// in-register kernel over the block. A wider comparator runs its Batcher
// CE expansion through `pair_rows`; a wider balancer is irreducible (a
// width-p balancer is not a network of 2-balancers), so it runs as the row
// kernel engine::wide_count_rows, with `scratch` (2 counts per lane) as its
// quotient and remainder rows.
template <Semantics S, PairRows pair_rows>
void run_lanes(const ExecutionPlan& plan, Batch<Count>& batch) {
  constexpr bool kCount = S == Semantics::kBalancer;
  const std::size_t lanes = batch.batch_size();
  const auto& layers = plan.layers();
  const auto& pairs = plan.pair_wires();
  const auto& ces = plan.ce_wires();
  const auto& wides = plan.wide_gates();
  const auto& wide_wires = plan.wide_wires();
  const auto row = [&](Wire w) {
    return batch.row(static_cast<std::size_t>(w)).data();
  };
  const bool wider = plan.max_wide_width() > engine::kMaxFixedWidth;
  std::vector<Count> scratch(
      kCount && wider ? 2 * std::min(kExecBlock, lanes) : 0);
  LayerClock clock(layers.size());
  for (std::size_t b = 0; b < lanes; b += kExecBlock) {
    const std::size_t n = std::min(kExecBlock, lanes - b);
    const auto block_row = [&](Wire w) { return row(w) + b; };
    for (std::size_t li = 0; li < layers.size(); ++li) {
      const ExecutionPlan::Layer& layer = layers[li];
      for (std::uint32_t k = layer.pair_begin; k < layer.pair_end; ++k) {
        pair_rows(row(pairs[2 * k]) + b, row(pairs[2 * k + 1]) + b, n);
      }
      for (std::uint32_t g = layer.wide_begin; g < layer.wide_end; ++g) {
        const ExecutionPlan::WideGate wg = wides[g];
        const Wire* ws = wide_wires.data() + wg.first;
        if (run_fixed_gate<S>(ws, wg.width, n, block_row)) continue;
        if constexpr (kCount) {
          engine::wide_count_rows(batch, {ws, wg.width}, b, n, scratch);
        } else {
          for (std::uint32_t k = wg.ce_begin; k < wg.ce_end; ++k) {
            pair_rows(row(ces[2 * k]) + b, row(ces[2 * k + 1]) + b, n);
          }
        }
      }
      clock.tick(li);
    }
  }
  clock.record(plan, lanes);
}

using LaneRunner = void (*)(const ExecutionPlan&, Batch<Count>&);

// The runner instance for a semantics and a choice of width-2 row kernel.
template <Semantics S>
LaneRunner lane_runner(bool explicit_simd) {
  if constexpr (S == Semantics::kComparator) {
    return explicit_simd ? &run_lanes<S, &engine::simd::pair_sort_rows>
                         : &run_lanes<S, &sort_rows>;
  } else {
    return explicit_simd ? &run_lanes<S, &engine::simd::pair_count_rows>
                         : &run_lanes<S, &count_rows>;
  }
}

// Packs input vector j into lane j of the batch, lane blocks keeping each
// input vector hot while its elements scatter across rows.
void pack_lanes(Batch<Count>& batch,
                std::span<const std::vector<Count>> inputs) {
  const std::size_t width = batch.width();
  for (std::size_t b = 0; b < inputs.size(); b += kLaneBlock) {
    const std::size_t e = std::min(b + kLaneBlock, inputs.size());
    for (std::size_t w = 0; w < width; ++w) {
      for (std::size_t j = b; j < e; ++j) batch.at(w, j) = inputs[j][w];
    }
  }
}

// Gathers lane j into outs[j] in logical output order, same blocking as
// pack_lanes.
void unpack_lanes(const Batch<Count>& batch, std::span<const Wire> order,
                  std::span<std::vector<Count>> outs) {
  for (std::size_t b = 0; b < outs.size(); b += kLaneBlock) {
    const std::size_t e = std::min(b + kLaneBlock, outs.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      const auto w = static_cast<std::size_t>(order[i]);
      for (std::size_t j = b; j < e; ++j) outs[j][i] = batch.at(w, j);
    }
  }
}

using LaneBody = std::function<void(std::size_t, std::size_t)>;

// Runs `body(begin, end)` over [0, n) partitioned by the placement: each
// node's contiguous lane range (placement.lane_ranges) is sub-chunked
// across that node's worker group and submitted via submit_to_group, so
// the work lands on the lanes' home node. The caller blocks until every
// chunk is done (group queues always drain: the pool has >= 1 worker and
// empty groups fall back to the shared queue). Chunk boundaries are pure
// functions of (n, placement, grain) — determinism is preserved.
void placed_for(ThreadPool& pool, const topo::PlacementPlan& placement,
                std::size_t n, std::size_t grain, const LaneBody& body) {
  if (n == 0) return;
  grain = std::max<std::size_t>(1, grain);
  struct State {
    std::size_t done = 0;
    std::mutex mu;
    std::condition_variable cv;
  };
  auto state = std::make_shared<State>();
  std::size_t tasks = 0;
  for (const topo::PlacementPlan::LaneRange& range : placement.lane_ranges(n)) {
    if (range.begin == range.end) continue;
    const std::size_t len = range.end - range.begin;
    const std::size_t workers =
        range.node < pool.group_count()
            ? std::max<std::size_t>(1, pool.group_size(range.node))
            : 1;
    const std::size_t chunks =
        std::min(workers, std::max<std::size_t>(1, len / grain));
    const std::size_t base = len / chunks;
    const std::size_t extra = len % chunks;
    std::size_t begin = range.begin;
    for (std::size_t c = 0; c < chunks; ++c) {
      const std::size_t end = begin + base + (c < extra ? 1 : 0);
      ++tasks;
      pool.submit_to_group(range.node, [state, begin, end, &body] {
        body(begin, end);
        {
          const std::lock_guard<std::mutex> lock(state->mu);
          ++state->done;
        }
        state->cv.notify_all();
      });
      begin = end;
    }
  }
  std::unique_lock<std::mutex> lock(state->mu);
  state->cv.wait(lock, [&] { return state->done == tasks; });
}

// Splits [0, n) into lane ranges and runs a body over each: serially,
// striped over a pool (ThreadPool::parallel_for) or by placement
// (placed_for).
using Partitioner = std::function<void(std::size_t n, const LaneBody&)>;

void serial(std::size_t n, const LaneBody& body) { body(0, n); }

Partitioner striped(ThreadPool& pool) {
  return [&pool](std::size_t n, const LaneBody& body) {
    pool.parallel_for(n, kMinLanesPerTask, body);
  };
}

Partitioner placed(ThreadPool& pool, const topo::PlacementPlan& placement) {
  return [&pool, &placement](std::size_t n, const LaneBody& body) {
    placed_for(pool, placement, n, kMinLanesPerTask, body);
  };
}

// Pack -> run -> unpack, each lane range handled end to end (the
// transposes parallelize with the kernels; lanes are independent). Each
// range gets its own Batch: ranges of one shared Batch would meet inside
// cache lines of every row, and two pool threads would write those lines.
std::vector<std::vector<Count>> run_packed(
    const ExecutionPlan& plan, std::span<const std::vector<Count>> inputs,
    LaneRunner runner, const Partitioner& partition) {
  std::vector<std::vector<Count>> outs(inputs.size(),
                                       std::vector<Count>(plan.width()));
  partition(inputs.size(), [&](std::size_t begin, std::size_t end) {
    Batch<Count> batch(plan.width(), end - begin);
    pack_lanes(batch, inputs.subspan(begin, end - begin));
    runner(plan, batch);
    unpack_lanes(batch, plan.output_order(),
                 std::span(outs).subspan(begin, end - begin));
  });
  return outs;
}

// Scalar traversal: same layer walk on a single per-wire vector. Gates up
// to kMaxFixedWidth run their in-register kernel over this one lane; a
// wider comparator uses the insertion-sort kernel (cheaper than the CE
// expansion when there is no lane dimension to vectorize over).
template <Semantics S>
void run_scalar(const ExecutionPlan& plan, std::span<Count> values) {
  constexpr bool kCount = S == Semantics::kBalancer;
  assert(values.size() == plan.width());
  const auto& pairs = plan.pair_wires();
  const auto& wides = plan.wide_gates();
  const auto& wide_wires = plan.wide_wires();
  const auto slot = [&](Wire w) {
    return values.data() + static_cast<std::size_t>(w);
  };
  std::vector<Count> scratch(
      plan.max_wide_width() > engine::kMaxFixedWidth ? plan.max_wide_width()
                                                     : 0);
  for (const ExecutionPlan::Layer& layer : plan.layers()) {
    for (std::uint32_t k = layer.pair_begin; k < layer.pair_end; ++k) {
      Count& hi = values[static_cast<std::size_t>(pairs[2 * k])];
      Count& lo = values[static_cast<std::size_t>(pairs[2 * k + 1])];
      if constexpr (kCount) {
        engine::pair_count_kernel(hi, lo);
      } else {
        engine::pair_sort_kernel(hi, lo);
      }
    }
    for (std::uint32_t g = layer.wide_begin; g < layer.wide_end; ++g) {
      const ExecutionPlan::WideGate wg = wides[g];
      const Wire* ws = wide_wires.data() + wg.first;
      if (run_fixed_gate<S>(ws, wg.width, 1, slot)) continue;
      const std::span<Count> vals(scratch.data(), wg.width);
      for (std::uint32_t i = 0; i < wg.width; ++i) {
        vals[i] = values[static_cast<std::size_t>(ws[i])];
      }
      if constexpr (kCount) {
        engine::wide_count_kernel(vals);
      } else {
        engine::small_sort_descending(vals);
      }
      for (std::uint32_t i = 0; i < wg.width; ++i) {
        values[static_cast<std::size_t>(ws[i])] = vals[i];
      }
    }
  }
}

std::vector<Count> in_output_order(const ExecutionPlan& plan,
                                   std::span<const Count> phys) {
  std::vector<Count> out;
  out.reserve(plan.width());
  for (const Wire w : plan.output_order()) {
    out.push_back(phys[static_cast<std::size_t>(w)]);
  }
  return out;
}

// The scalar tier on one vector: a copy of `input` through run_scalar,
// returned in logical output order.
template <Semantics S>
std::vector<Count> run_one(const ExecutionPlan& plan,
                           std::span<const Count> input) {
  SCNET_COUNTER_ADD("engine.run.scalar", 1);
  std::vector<Count> values(input.begin(), input.end());
  run_scalar<S>(plan, values);
  return in_output_order(plan, values);
}

// When the runtime sits on a multi-node topology (and placement is on),
// the threaded tier partitions lanes by PlacementPlan onto node-affine
// worker groups instead of blind striping; the two are bit-identical
// (lanes are independent, all boundaries deterministic), so this is
// purely a locality decision. The placement depends only on plan shape x
// topology x pool size, all fixed per runtime, so it is solved per call
// without caching (a handful of integer divisions).
std::optional<topo::PlacementPlan> placement_for(const ExecutionPlan& plan,
                                                 Runtime& rt) {
  if (!rt.placement_enabled() || rt.pool().group_count() <= 1) {
    return std::nullopt;
  }
  topo::PlacementPlan placement =
      topo::plan_placement(plan, rt.topology(), rt.pool().size());
  if (!placement.multi_node()) return std::nullopt;
  return placement;
}

// Runs every input through the resolved tier; results in logical output
// order.
template <Semantics S>
std::vector<std::vector<Count>> run_tier(
    const ExecutionPlan& plan, std::span<const std::vector<Count>> inputs,
    Runtime& rt, EngineBackend tier) {
  switch (tier) {
    case EngineBackend::kScalar:
    case EngineBackend::kAuto: {  // kAuto is resolved before this switch
      std::vector<std::vector<Count>> outs;
      outs.reserve(inputs.size());
      for (const std::vector<Count>& in : inputs) {
        outs.push_back(run_one<S>(plan, in));
      }
      return outs;
    }
    case EngineBackend::kBatch:
    case EngineBackend::kSimd:
      SCNET_COUNTER_ADD("engine.run.batch", 1);
      SCNET_HISTOGRAM_RECORD("engine.batch.lanes", inputs.size());
      return run_packed(plan, inputs,
                        lane_runner<S>(tier == EngineBackend::kSimd), serial);
    case EngineBackend::kThreaded:
      SCNET_HISTOGRAM_RECORD("engine.batch.lanes", inputs.size());
      if (const auto placement = placement_for(plan, rt)) {
        SCNET_COUNTER_ADD("engine.run.placed", 1);
        return run_packed(plan, inputs, lane_runner<S>(false),
                          placed(rt.pool(), *placement));
      }
      SCNET_COUNTER_ADD("engine.run.batch", 1);
      return run_packed(plan, inputs, lane_runner<S>(false),
                        striped(rt.pool()));
  }
  return {};
}

void count_dispatch(EngineBackend resolved) {
  // One switch so every branch hands the macro a literal name (the macro
  // caches the registry lookup per call site).
  switch (resolved) {
    case EngineBackend::kScalar:
      SCNET_COUNTER_ADD("engine.backend.scalar.dispatches", 1);
      break;
    case EngineBackend::kBatch:
      SCNET_COUNTER_ADD("engine.backend.batch.dispatches", 1);
      break;
    case EngineBackend::kSimd:
      SCNET_COUNTER_ADD("engine.backend.simd.dispatches", 1);
      break;
    case EngineBackend::kThreaded:
      SCNET_COUNTER_ADD("engine.backend.threaded.dispatches", 1);
      break;
    case EngineBackend::kAuto:
      break;  // unreachable: dispatch resolves before counting
  }
}

// Builds a batch call's span args only when a trace is actually recording,
// so untraced calls allocate nothing. (Unreferenced when SCNET_OBS is off:
// the trace macro it feeds compiles to nothing.)
[[maybe_unused]] std::string dispatch_args(EngineBackend resolved,
                                           std::size_t lanes) {
  if constexpr (obs::compiled_in()) {
    if (obs::Tracer::shared().active()) {
      return std::string("{\"backend\":\"") + to_string(resolved) +
             "\",\"lanes\":" + std::to_string(lanes) + "}";
    }
  }
  return {};
}

[[maybe_unused]] const char* span_name(Semantics semantics) {
  return semantics == Semantics::kComparator ? "dispatch.sort"
                                             : "dispatch.count";
}

}  // namespace

std::vector<std::vector<Count>> plan_sort_batch(
    const ExecutionPlan& plan, std::span<const std::vector<Count>> inputs,
    Runtime& rt) {
  return engine::run(plan, Semantics::kComparator, inputs, rt, rt.backend());
}

std::vector<std::vector<Count>> plan_count_batch(
    const ExecutionPlan& plan, std::span<const std::vector<Count>> inputs,
    Runtime& rt) {
  return engine::run(plan, Semantics::kBalancer, inputs, rt, rt.backend());
}

namespace engine {

std::span<const EngineBackend> registered_backends() {
  static constexpr EngineBackend kAll[] = {
      EngineBackend::kScalar, EngineBackend::kBatch, EngineBackend::kSimd,
      EngineBackend::kThreaded};
  return kAll;
}

PlanShape plan_shape(const ExecutionPlan& plan) {
  PlanShape shape;
  shape.width = plan.width();
  shape.depth = plan.depth();
  shape.pair_gates = plan.pair_wires().size() / 2;
  shape.wide_gates = plan.wide_gates().size();
  return shape;
}

EngineBackend resolve_backend(EngineBackend requested,
                              const ExecutionPlan& plan, std::size_t lanes) {
  if (requested != EngineBackend::kAuto) return requested;
  // Machine caps are stable for the process (compile-time SIMD flag,
  // SCNET_THREADS read once) — sample them once, not per dispatch.
  static const MachineCaps caps = machine_caps();
  return select_backend(plan_shape(plan), lanes, caps);
}

std::vector<std::vector<Count>> run(const ExecutionPlan& plan,
                                    Semantics semantics,
                                    std::span<const std::vector<Count>> inputs,
                                    Runtime& rt, EngineBackend choice) {
  const EngineBackend resolved = resolve_backend(choice, plan, inputs.size());
  count_dispatch(resolved);
  SCNET_TRACE_SPAN_ARGS("engine", span_name(semantics),
                        dispatch_args(resolved, inputs.size()));
  return semantics == Semantics::kComparator
             ? run_tier<Semantics::kComparator>(plan, inputs, rt, resolved)
             : run_tier<Semantics::kBalancer>(plan, inputs, rt, resolved);
}

std::vector<Count> run(const ExecutionPlan& plan, Semantics semantics,
                       std::span<const Count> input) {
  count_dispatch(EngineBackend::kScalar);
  // Always the scalar tier on one lane, so the span needs no args.
  SCNET_TRACE_SPAN("engine", span_name(semantics));
  return semantics == Semantics::kComparator
             ? run_one<Semantics::kComparator>(plan, input)
             : run_one<Semantics::kBalancer>(plan, input);
}

}  // namespace engine
}  // namespace scn
