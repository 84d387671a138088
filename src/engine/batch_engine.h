// Runtime-scoped batch entry points for compiled plans.
//
// The engine has four tiers, all bit-identical to the per-gate
// interpreters (sim/comparator_sim.h, sim/count_sim.h):
//   * scalar: one vector at a time through layer-scheduled kernels;
//   * batch: the vectors in SoA layout, run by one cache-blocked lane
//     runner, so width-2 layers vectorize across the batch dimension;
//   * simd: the same lane runner with explicit AVX2 width-2 row kernels;
//   * threaded: lanes are independent, so the batch is sharded into
//     contiguous lane ranges over the runtime's ThreadPool (by
//     PlacementPlan on a multi-node topology), each shard calling the same
//     lane runner on its range. No synchronization is needed between
//     layers, and lane results cannot depend on the shard boundaries —
//     determinism is structural.
//
// engine::run (engine/backend.h) picks the tier; the two functions below
// are its batch form under the runtime's own backend request.
//
// While a trace is recording, the lane runner times each layer per lane
// block and records one `engine.layer` event per layer per call
// (docs/observability.md).
#pragma once

#include <span>
#include <vector>

#include "engine/execution_plan.h"
#include "seq/sequence_props.h"

namespace scn {

class Runtime;  // runtime/runtime.h

/// Sorts every input vector through `plan` on the tier `rt.backend()`
/// resolves to (SCNET_BACKEND / Runtime::Options::backend, default `auto`,
/// which picks the tier from plan shape x lane count x machine caps).
/// Each result equals comparator_output_counts(net, inputs[j]).
[[nodiscard]] std::vector<std::vector<Count>> plan_sort_batch(
    const ExecutionPlan& plan, std::span<const std::vector<Count>> inputs,
    Runtime& rt);

/// Batched count propagation on the tier `rt.backend()` resolves to; each
/// result equals output_counts(net, inputs[j]).
[[nodiscard]] std::vector<std::vector<Count>> plan_count_batch(
    const ExecutionPlan& plan, std::span<const std::vector<Count>> inputs,
    Runtime& rt);

}  // namespace scn
