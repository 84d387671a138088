// Execution backends for compiled plans: one dispatcher over the tiers of
// batch_engine.h, which implements both headers.
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
// Callers pass an EngineBackend *request* (core/cost_model.h) — typically
// `Runtime::backend()`, which is `SCNET_BACKEND` resolved once at runtime
// construction, default kAuto — and the dispatch entry points below
// resolve kAuto per call through select_backend() (plan shape x lane
// count x machine caps), then switch on the result. Every dispatch
// records an `engine.backend.<name>.dispatches` counter and, when a trace
// is recording, a span in the `engine` category carrying the chosen
// backend as an arg.
//
// All backends are bit-identical on every (plan, input) pair — enforced by
// tests/engine_cross_check_test.cpp's randomized all-backend sweep — so
// backend choice is purely a performance decision.
#pragma once

#include <span>
#include <vector>

#include "core/cost_model.h"
#include "engine/execution_plan.h"
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

// ---------------------------------------------------------------------------
// Dispatch entry points — what the layers above the engine call. Each
// resolves the request, bumps `engine.backend.<name>.dispatches`, opens a
// traced span carrying the choice, and runs the selected backend.

/// Runs `plan` as a comparator network on a copy of `input`; returns
/// values in logical output order. A single vector has no lane dimension
/// to vectorize or shard, so every request runs — and is counted and
/// traced as — the scalar backend.
[[nodiscard]] std::vector<Count> sorted_output(const ExecutionPlan& plan,
                                               std::span<const Count> input,
                                               EngineBackend choice);

/// Count propagation on a copy of `input`, logical output order; runs the
/// scalar backend for every request, like sorted_output.
[[nodiscard]] std::vector<Count> counts_output(const ExecutionPlan& plan,
                                               std::span<const Count> input,
                                               EngineBackend choice);

/// Sorts every input vector through the resolved backend.
[[nodiscard]] std::vector<std::vector<Count>> sort_batch(
    const ExecutionPlan& plan, std::span<const std::vector<Count>> inputs,
    Runtime& rt, EngineBackend choice);

/// Batched count propagation through the resolved backend.
[[nodiscard]] std::vector<std::vector<Count>> count_batch(
    const ExecutionPlan& plan, std::span<const std::vector<Count>> inputs,
    Runtime& rt, EngineBackend choice);

}  // namespace engine
}  // namespace scn
