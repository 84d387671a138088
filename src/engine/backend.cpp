#include "engine/backend.h"

#include <algorithm>
#include <cassert>
#include <optional>
#include <string>

#include "engine/batch_engine.h"
#include "engine/kernels.h"
#include "engine/simd_kernels.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/runtime.h"
#include "topo/placement.h"
#include "topo/topology.h"

namespace scn::engine {
namespace {

// ---------------------------------------------------------------------------
// SIMD lane runners. Same structure as the batch tier in batch_engine.cpp —
// cache-blocked over the lane dimension, with a layer-major traced twin —
// but the width-2 inner loops go through the explicit kernels in
// engine/simd_kernels.h instead of relying on auto-vectorization. Wide
// count gates share the batch tier's row kernel (engine::wide_count_rows):
// they carry no compare-exchange to hand-vectorize.

// Same blocking rationale as batch_engine.cpp: 256 lanes x 8 bytes = 2 KB
// per row segment keeps the plan's row revisits in cache.
constexpr std::size_t kSimdExecBlock = 256;

void simd_comparator_layer(const ExecutionPlan& plan,
                           const ExecutionPlan::Layer& layer,
                           Batch<Count>& batch, std::size_t block_begin,
                           std::size_t block_end) {
  const auto& pairs = plan.pair_wires();
  const auto& ces = plan.ce_wires();
  const std::size_t n = block_end - block_begin;
  for (std::uint32_t k = layer.pair_begin; k < layer.pair_end; ++k) {
    Count* hi = batch.row(static_cast<std::size_t>(pairs[2 * k])).data();
    Count* lo = batch.row(static_cast<std::size_t>(pairs[2 * k + 1])).data();
    simd::pair_sort_rows(hi + block_begin, lo + block_begin, n);
  }
  for (std::uint32_t k = layer.ce_begin; k < layer.ce_end; ++k) {
    Count* hi = batch.row(static_cast<std::size_t>(ces[2 * k])).data();
    Count* lo = batch.row(static_cast<std::size_t>(ces[2 * k + 1])).data();
    simd::pair_sort_rows(hi + block_begin, lo + block_begin, n);
  }
}

void simd_count_layer(const ExecutionPlan& plan,
                      const ExecutionPlan::Layer& layer, Batch<Count>& batch,
                      std::size_t block_begin, std::size_t block_end,
                      std::span<Count> scratch) {
  const auto& pairs = plan.pair_wires();
  const auto& wides = plan.wide_gates();
  const auto& wide_wires = plan.wide_wires();
  const std::size_t n = block_end - block_begin;
  for (std::uint32_t k = layer.pair_begin; k < layer.pair_end; ++k) {
    Count* hi = batch.row(static_cast<std::size_t>(pairs[2 * k])).data();
    Count* lo = batch.row(static_cast<std::size_t>(pairs[2 * k + 1])).data();
    simd::pair_count_rows(hi + block_begin, lo + block_begin, n);
  }
  for (std::uint32_t g = layer.wide_begin; g < layer.wide_end; ++g) {
    const ExecutionPlan::WideGate wg = wides[g];
    wide_count_rows(batch, {wide_wires.data() + wg.first, wg.width},
                    block_begin, n, scratch);
  }
}

void simd_comparator_lanes(const ExecutionPlan& plan, Batch<Count>& batch,
                           std::size_t lane_begin, std::size_t lane_end) {
  for (std::size_t b = lane_begin; b < lane_end; b += kSimdExecBlock) {
    const std::size_t e = std::min(b + kSimdExecBlock, lane_end);
    for (const ExecutionPlan::Layer& layer : plan.layers()) {
      simd_comparator_layer(plan, layer, batch, b, e);
    }
  }
}

void simd_count_lanes(const ExecutionPlan& plan, Batch<Count>& batch,
                      std::size_t lane_begin, std::size_t lane_end) {
  std::vector<Count> scratch(
      plan.wide_gates().empty()
          ? 0
          : 2 * std::min<std::size_t>(kSimdExecBlock, lane_end - lane_begin));
  for (std::size_t b = lane_begin; b < lane_end; b += kSimdExecBlock) {
    const std::size_t e = std::min(b + kSimdExecBlock, lane_end);
    for (const ExecutionPlan::Layer& layer : plan.layers()) {
      simd_count_layer(plan, layer, batch, b, e, scratch);
    }
  }
}

// Traced twins: layer-major over the whole lane range so each layer is one
// span, exactly like the batch tier's. Kernels are lane-pointwise within a
// layer, so giving up the cache blocking changes nothing but timing.
std::string simd_layer_args(const ExecutionPlan::Layer& layer,
                            std::size_t lanes) {
  const auto pairs = layer.pair_end - layer.pair_begin;
  const auto ces = layer.ce_end - layer.ce_begin;
  const auto wides = layer.wide_end - layer.wide_begin;
  return "{\"pairs\":" + std::to_string(pairs) + ",\"ce\":" +
         std::to_string(ces) + ",\"wide\":" + std::to_string(wides) +
         ",\"lanes\":" + std::to_string(lanes) + "}";
}

void simd_comparator_lanes_traced(const ExecutionPlan& plan,
                                  Batch<Count>& batch, std::size_t lane_begin,
                                  std::size_t lane_end) {
  std::size_t li = 0;
  for (const ExecutionPlan::Layer& layer : plan.layers()) {
    obs::ScopedSpan span("engine.layer", "layer " + std::to_string(li++),
                         simd_layer_args(layer, lane_end - lane_begin));
    simd_comparator_layer(plan, layer, batch, lane_begin, lane_end);
  }
}

void simd_count_lanes_traced(const ExecutionPlan& plan, Batch<Count>& batch,
                             std::size_t lane_begin, std::size_t lane_end) {
  std::vector<Count> scratch(
      plan.wide_gates().empty() ? 0 : 2 * (lane_end - lane_begin));
  std::size_t li = 0;
  for (const ExecutionPlan::Layer& layer : plan.layers()) {
    obs::ScopedSpan span("engine.layer", "layer " + std::to_string(li++),
                         simd_layer_args(layer, lane_end - lane_begin));
    simd_count_layer(plan, layer, batch, lane_begin, lane_end, scratch);
  }
}

using SimdLaneRunner = void (*)(const ExecutionPlan&, Batch<Count>&,
                                std::size_t, std::size_t);

SimdLaneRunner simd_comparator_runner() {
  if constexpr (obs::compiled_in()) {
    if (obs::Tracer::shared().active()) return &simd_comparator_lanes_traced;
  }
  return &simd_comparator_lanes;
}

SimdLaneRunner simd_count_runner() {
  if constexpr (obs::compiled_in()) {
    if (obs::Tracer::shared().active()) return &simd_count_lanes_traced;
  }
  return &simd_count_lanes;
}

// ---------------------------------------------------------------------------
// Backend implementations. All stateless; metrics stay the tier functions'
// job (engine.run.scalar / engine.run.batch fire where the work happens,
// not in the dispatcher), so the scalar/batch/threaded backends are thin
// adapters over batch_engine.h and the simd backend counts itself the way
// a tier does.

class ScalarBackend final : public Backend {
 public:
  [[nodiscard]] const char* name() const override { return "scalar"; }
  [[nodiscard]] BackendCaps caps() const override {
    return {.lane_parallel = false,
            .uses_pool = false,
            .explicit_simd = false,
            .min_profitable_lanes = 1};
  }
  void run_batch(const ExecutionPlan& plan, Batch<Count>& batch,
                 Runtime& /*rt*/) const override {
    assert(batch.width() == plan.width());
    for (std::size_t j = 0; j < batch.batch_size(); ++j) {
      std::vector<Count> values = batch.lane(j);
      run_plan(plan, values);
      batch.set_lane(j, values);
    }
  }
  void run_counts_batch(const ExecutionPlan& plan, Batch<Count>& batch,
                        Runtime& /*rt*/) const override {
    assert(batch.width() == plan.width());
    for (std::size_t j = 0; j < batch.batch_size(); ++j) {
      std::vector<Count> counts = batch.lane(j);
      run_plan_counts(plan, counts);
      batch.set_lane(j, counts);
    }
  }
};

class BatchBackend final : public Backend {
 public:
  [[nodiscard]] const char* name() const override { return "batch"; }
  [[nodiscard]] BackendCaps caps() const override {
    return {.lane_parallel = true,
            .uses_pool = false,
            .explicit_simd = false,
            .min_profitable_lanes = 2};
  }
  void run_batch(const ExecutionPlan& plan, Batch<Count>& batch,
                 Runtime& /*rt*/) const override {
    run_plan_batch(plan, batch);
  }
  void run_counts_batch(const ExecutionPlan& plan, Batch<Count>& batch,
                        Runtime& /*rt*/) const override {
    run_plan_counts_batch(plan, batch);
  }
};

class SimdBackend final : public Backend {
 public:
  [[nodiscard]] const char* name() const override { return "simd"; }
  [[nodiscard]] BackendCaps caps() const override {
    return {.lane_parallel = true,
            .uses_pool = false,
            .explicit_simd = simd::compiled_in(),
            .min_profitable_lanes = 2};
  }
  void run_batch(const ExecutionPlan& plan, Batch<Count>& batch,
                 Runtime& /*rt*/) const override {
    assert(batch.width() == plan.width());
    SCNET_COUNTER_ADD("engine.run.batch", 1);
    SCNET_HISTOGRAM_RECORD("engine.batch.lanes", batch.batch_size());
    SCNET_TRACE_SPAN("engine", "run_plan_batch(simd)");
    simd_comparator_runner()(plan, batch, 0, batch.batch_size());
  }
  void run_counts_batch(const ExecutionPlan& plan, Batch<Count>& batch,
                        Runtime& /*rt*/) const override {
    assert(batch.width() == plan.width());
    SCNET_COUNTER_ADD("engine.run.batch", 1);
    SCNET_HISTOGRAM_RECORD("engine.batch.lanes", batch.batch_size());
    SCNET_TRACE_SPAN("engine", "run_plan_counts_batch(simd)");
    simd_count_runner()(plan, batch, 0, batch.batch_size());
  }
};

class ThreadedBackend final : public Backend {
 public:
  [[nodiscard]] const char* name() const override { return "threaded"; }
  [[nodiscard]] BackendCaps caps() const override {
    return {.lane_parallel = true,
            .uses_pool = true,
            .explicit_simd = false,
            .min_profitable_lanes = kThreadedMinLanes};
  }
  // When the runtime sits on a multi-node topology (and placement is on),
  // lanes are partitioned by PlacementPlan onto node-affine worker groups
  // instead of blind striping; the two paths are bit-identical (lanes are
  // independent, all boundaries deterministic), so this is purely a
  // locality decision. The placement depends only on plan shape x topology
  // x pool size, all fixed per runtime, so it is solved per call without
  // caching (it is a handful of integer divisions).
  void run_batch(const ExecutionPlan& plan, Batch<Count>& batch,
                 Runtime& rt) const override {
    if (const auto placement = placement_for(plan, rt)) {
      run_plan_batch(plan, batch, rt.pool(), *placement);
      return;
    }
    run_plan_batch(plan, batch, rt.pool());
  }
  void run_counts_batch(const ExecutionPlan& plan, Batch<Count>& batch,
                        Runtime& rt) const override {
    if (const auto placement = placement_for(plan, rt)) {
      run_plan_counts_batch(plan, batch, rt.pool(), *placement);
      return;
    }
    run_plan_counts_batch(plan, batch, rt.pool());
  }
  // The tier's pack -> run -> unpack path shards the transposes along with
  // the kernels; keep it instead of the serial default.
  [[nodiscard]] std::vector<std::vector<Count>> sort_batch(
      const ExecutionPlan& plan, std::span<const std::vector<Count>> inputs,
      Runtime& rt) const override {
    if (const auto placement = placement_for(plan, rt)) {
      return plan_sort_batch(plan, inputs, rt.pool(), *placement);
    }
    return plan_sort_batch(plan, inputs, &rt.pool());
  }
  [[nodiscard]] std::vector<std::vector<Count>> count_batch(
      const ExecutionPlan& plan, std::span<const std::vector<Count>> inputs,
      Runtime& rt) const override {
    if (const auto placement = placement_for(plan, rt)) {
      return plan_count_batch(plan, inputs, rt.pool(), *placement);
    }
    return plan_count_batch(plan, inputs, &rt.pool());
  }

 private:
  [[nodiscard]] static std::optional<topo::PlacementPlan> placement_for(
      const ExecutionPlan& plan, Runtime& rt) {
    if (!rt.placement_enabled() || rt.pool().group_count() <= 1) {
      return std::nullopt;
    }
    topo::PlacementPlan placement =
        topo::plan_placement(plan, rt.topology(), rt.pool().size());
    if (!placement.multi_node()) return std::nullopt;
    return placement;
  }
};

// ---------------------------------------------------------------------------
// Dispatch plumbing.

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

// Builds the span args only when a trace is actually recording — dispatch
// sits on per-vector paths (verification sweeps), where an unconditional
// allocation would show up. (Unreferenced when SCNET_OBS is off: the
// trace macro it feeds compiles to nothing.)
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

std::vector<Count> in_output_order(const ExecutionPlan& plan,
                                   std::span<const Count> phys) {
  std::vector<Count> out;
  out.reserve(plan.width());
  for (const Wire w : plan.output_order()) {
    out.push_back(phys[static_cast<std::size_t>(w)]);
  }
  return out;
}

}  // namespace

void Backend::run(const ExecutionPlan& plan, std::span<Count> values) const {
  run_plan(plan, values);
}

void Backend::run_counts(const ExecutionPlan& plan,
                         std::span<Count> counts) const {
  run_plan_counts(plan, counts);
}

std::vector<std::vector<Count>> Backend::sort_batch(
    const ExecutionPlan& plan, std::span<const std::vector<Count>> inputs,
    Runtime& rt) const {
  Batch<Count> batch = pack_batch(inputs, plan.width());
  run_batch(plan, batch, rt);
  std::vector<std::vector<Count>> outs;
  outs.reserve(inputs.size());
  for (std::size_t j = 0; j < inputs.size(); ++j) {
    outs.push_back(batch.lane_in_order(j, plan.output_order()));
  }
  return outs;
}

std::vector<std::vector<Count>> Backend::count_batch(
    const ExecutionPlan& plan, std::span<const std::vector<Count>> inputs,
    Runtime& rt) const {
  Batch<Count> batch = pack_batch(inputs, plan.width());
  run_counts_batch(plan, batch, rt);
  std::vector<std::vector<Count>> outs;
  outs.reserve(inputs.size());
  for (std::size_t j = 0; j < inputs.size(); ++j) {
    outs.push_back(batch.lane_in_order(j, plan.output_order()));
  }
  return outs;
}

const Backend& backend(EngineBackend which) {
  static const ScalarBackend scalar;
  static const BatchBackend batch;
  static const SimdBackend simd;
  static const ThreadedBackend threaded;
  switch (which) {
    case EngineBackend::kBatch:
      return batch;
    case EngineBackend::kSimd:
      return simd;
    case EngineBackend::kThreaded:
      return threaded;
    case EngineBackend::kAuto:
    case EngineBackend::kScalar:
      break;
  }
  return scalar;
}

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

std::vector<Count> sorted_output(const ExecutionPlan& plan,
                                 std::span<const Count> input,
                                 EngineBackend choice) {
  const EngineBackend resolved = resolve_backend(choice, plan, 1);
  count_dispatch(resolved);
  SCNET_TRACE_SPAN_ARGS("engine", "dispatch.sorted_output",
                        dispatch_args(resolved, 1));
  std::vector<Count> values(input.begin(), input.end());
  backend(resolved).run(plan, values);
  return in_output_order(plan, values);
}

std::vector<Count> counts_output(const ExecutionPlan& plan,
                                 std::span<const Count> input,
                                 EngineBackend choice) {
  const EngineBackend resolved = resolve_backend(choice, plan, 1);
  count_dispatch(resolved);
  SCNET_TRACE_SPAN_ARGS("engine", "dispatch.counts_output",
                        dispatch_args(resolved, 1));
  std::vector<Count> counts(input.begin(), input.end());
  backend(resolved).run_counts(plan, counts);
  return in_output_order(plan, counts);
}

std::vector<std::vector<Count>> sort_batch(
    const ExecutionPlan& plan, std::span<const std::vector<Count>> inputs,
    Runtime& rt, EngineBackend choice) {
  const EngineBackend resolved = resolve_backend(choice, plan, inputs.size());
  count_dispatch(resolved);
  SCNET_TRACE_SPAN_ARGS("engine", "dispatch.sort_batch",
                        dispatch_args(resolved, inputs.size()));
  return backend(resolved).sort_batch(plan, inputs, rt);
}

std::vector<std::vector<Count>> count_batch(
    const ExecutionPlan& plan, std::span<const std::vector<Count>> inputs,
    Runtime& rt, EngineBackend choice) {
  const EngineBackend resolved = resolve_backend(choice, plan, inputs.size());
  count_dispatch(resolved);
  SCNET_TRACE_SPAN_ARGS("engine", "dispatch.count_batch",
                        dispatch_args(resolved, inputs.size()));
  return backend(resolved).count_batch(plan, inputs, rt);
}

}  // namespace scn::engine
