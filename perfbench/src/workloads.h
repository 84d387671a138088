// The four benchmark workloads. Each builds its own private Runtimes with
// explicit Options, so no SCNET_* environment variable can change what is
// measured, and returns end-to-end metrics (untraced phase) plus, on a
// traced run, the per-layer metrics.
#pragma once

#include <memory>

#include "harness.h"
#include "runtime/runtime.h"

namespace scn::topo {
class HardwareTopology;
}  // namespace scn::topo

namespace perfbench {

/// Explicit runtime configuration shared by every workload: default pass
/// pipeline, interned module templates, kAuto dispatch, placement on, and
/// the topology detected once at start-up.
[[nodiscard]] scn::Runtime::Options runtime_options(std::size_t threads);

/// The detected topology every runtime is laid out on (set up by main).
void set_topology(std::shared_ptr<const scn::topo::HardwareTopology> topology);

[[nodiscard]] Result run_sort_mixed(const RunConfig& cfg);
[[nodiscard]] Result run_count_mixed(const RunConfig& cfg);
[[nodiscard]] Result run_service_next(const RunConfig& cfg);
[[nodiscard]] Result run_service_increment(const RunConfig& cfg);

/// AtomicCounter::next throughput from `threads` threads over `seconds`:
/// the paper's central-counter baseline at the workload's thread count.
[[nodiscard]] double atomic_items_per_s(unsigned threads, double seconds);

}  // namespace perfbench
