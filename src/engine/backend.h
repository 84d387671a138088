// The engine's entry points: one per call shape, over the tiers that
// batch_engine.cpp implements.
//
//   * `scalar`   — one lane at a time through the scalar kernels; the
//                  reference implementation every other backend is pinned
//                  against.
//   * `batch`    — the cache-blocked SoA lane runner; its width-2 row loops
//                  auto-vectorize.
//   * `simd`     — the same lane runner with explicit AVX2 width-2 row
//                  kernels (engine/simd_kernels.h); they fall back to the
//                  scalar pair kernels when AVX2 is not compiled in, so the
//                  backend stays registered and bit-identical on every build.
//   * `threaded` — the batch lane runner sharded over the runtime's
//                  ThreadPool (by placement on a multi-node topology).
//
// A batch call passes an EngineBackend *request* (core/cost_model.h) —
// typically `Runtime::backend()`, which is `SCNET_BACKEND` resolved once at
// runtime construction, default kAuto. run() resolves kAuto per call
// through select_backend() (plan shape x lane count x machine caps), then
// switches on the result. A single vector has no lane dimension to
// vectorize or shard, so it always runs the scalar tier and takes no
// request. Every call records one `engine.backend.<name>.dispatches`
// counter for the tier that ran and, when a trace is recording, one span
// in the `engine` category carrying that tier as an arg.
//
// All backends are bit-identical on every (plan, input) pair — enforced by
// tests/engine_cross_check_test.cpp's randomized all-backend sweep — so
// backend choice is purely a performance decision.
//
// Comparator runs use the default descending numeric order (the fast
// kernels exist precisely because the order is known); callers needing a
// custom comparator stay on apply_comparators.
#pragma once

#include <span>
#include <vector>

#include "core/cost_model.h"
#include "engine/execution_plan.h"
#include "opt/pass.h"
#include "seq/sequence_props.h"

namespace scn {

class Runtime;  // runtime/runtime.h — source of the threaded tier's pool

namespace engine {

/// Every concrete backend, in registration order
/// (scalar, batch, simd, threaded) — the sweep tests iterate this.
[[nodiscard]] std::span<const EngineBackend> registered_backends();

/// The shape facts the dispatch policy scores a plan by.
[[nodiscard]] PlanShape plan_shape(const ExecutionPlan& plan);

/// Resolves a backend request for running `lanes` lanes through `plan`:
/// concrete requests pass through; kAuto goes to select_backend() with
/// this build's machine_caps().
[[nodiscard]] EngineBackend resolve_backend(EngineBackend requested,
                                            const ExecutionPlan& plan,
                                            std::size_t lanes);

/// Runs every input vector through `plan` under `semantics` (comparator:
/// sorted values; balancer: quiescent token counts) on the tier `choice`
/// resolves to. Returns each lane's values in logical output order: lane j
/// equals comparator_output_counts(net, inputs[j]) or
/// output_counts(net, inputs[j]).
[[nodiscard]] std::vector<std::vector<Count>> run(
    const ExecutionPlan& plan, Semantics semantics,
    std::span<const std::vector<Count>> inputs, Runtime& rt,
    EngineBackend choice);

/// Runs one vector through `plan` on the scalar tier; logical output
/// order.
[[nodiscard]] std::vector<Count> run(const ExecutionPlan& plan,
                                     Semantics semantics,
                                     std::span<const Count> input);

}  // namespace engine
}  // namespace scn
