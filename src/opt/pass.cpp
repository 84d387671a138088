#include "opt/pass.h"

#include <cassert>
#include <chrono>
#include <cstdlib>
#include <sstream>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "opt/passes.h"

namespace scn {

const char* to_string(Semantics semantics) {
  switch (semantics) {
    case Semantics::kComparator:
      return "comparator";
    case Semantics::kBalancer:
      return "balancer";
  }
  return "?";
}

const char* to_string(PassLevel level) {
  switch (level) {
    case PassLevel::kNone:
      return "none";
    case PassLevel::kDefault:
      return "default";
    case PassLevel::kAggressive:
      return "aggressive";
    case PassLevel::kOptimal:
      return "optimal";
  }
  return "?";
}

std::optional<PassLevel> parse_pass_level(std::string_view s) {
  if (s == "none") return PassLevel::kNone;
  if (s == "default") return PassLevel::kDefault;
  if (s == "aggressive") return PassLevel::kAggressive;
  if (s == "optimal") return PassLevel::kOptimal;
  return std::nullopt;
}

PassLevel default_pass_level() {
  static const PassLevel level = [] {
    const char* env = std::getenv("SCNET_DEFAULT_PASSES");
    if (env != nullptr) {
      if (const auto parsed = parse_pass_level(env)) return *parsed;
    }
    return PassLevel::kDefault;
  }();
  return level;
}

std::size_t PipelineResult::gates_removed() const {
  std::size_t removed = 0;
  for (const PassStats& s : passes) {
    if (s.applied && s.gates_after < s.gates_before) {
      removed += s.gates_before - s.gates_after;
    }
  }
  return removed;
}

std::uint32_t PipelineResult::layers_removed() const {
  if (passes.empty()) return 0;
  const std::uint32_t before = passes.front().depth_before;
  const std::uint32_t after = passes.back().depth_after;
  return after < before ? before - after : 0;
}

std::string PipelineResult::summary() const {
  std::ostringstream out;
  for (const PassStats& s : passes) {
    out << s.name << ": ";
    if (!s.applied) {
      out << "skipped\n";
      continue;
    }
    out << "gates " << s.gates_before << "->" << s.gates_after << ", depth "
        << s.depth_before << "->" << s.depth_after;
    if (s.rewrites > 0) out << ", rewrites " << s.rewrites;
    out << "\n";
    out << s.detail;  // per-rewrite provenance lines, already terminated
  }
  return out.str();
}

PassManager& PassManager::add(std::unique_ptr<Pass> pass) {
  passes_.push_back(std::move(pass));
  return *this;
}

Network Pass::run(const Network& net, const PassOptions& opts) const {
  PassStats ignored;
  std::optional<Network> rewritten = rewrite(net, opts, ignored);
  return rewritten ? std::move(*rewritten) : net;
}

PipelineRewrite PassManager::rewrite(const Network& net,
                                     const PassOptions& opts) const {
  SCNET_COUNTER_ADD("opt.pipeline.runs", 1);
  SCNET_TRACE_SPAN("opt", "pipeline");
  PipelineRewrite result;
  result.passes.reserve(passes_.size());
  // The network the next pass reads: the caller's until a pass rewrites.
  const Network* current = &net;
  for (const auto& pass : passes_) {
    PassStats stats;
    stats.name = std::string(pass->name());
    stats.gates_before = current->gate_count();
    stats.depth_before = current->depth();
    if (!pass->applicable(*current, opts)) {
      SCNET_COUNTER_ADD("opt.pass.skipped", 1);
      stats.gates_after = stats.gates_before;
      stats.depth_after = stats.depth_before;
      result.passes.push_back(std::move(stats));
      continue;
    }
    const std::uint64_t span_start_ns = obs::Tracer::shared().now_ns();
    const auto t0 = std::chrono::steady_clock::now();
    std::optional<Network> rewritten = pass->rewrite(*current, opts, stats);
    const auto t1 = std::chrono::steady_clock::now();
    stats.applied = true;
    stats.seconds = std::chrono::duration<double>(t1 - t0).count();
    if (rewritten) {
      assert(rewritten->width() == current->width());
      assert(rewritten->validate().empty());
      result.network = std::move(*rewritten);
      current = &*result.network;
    }
    stats.gates_after = current->gate_count();
    stats.depth_after = current->depth();
    SCNET_COUNTER_ADD("opt.pass.applied", 1);
    SCNET_HISTOGRAM_RECORD(
        "opt.pass.micros",
        static_cast<std::uint64_t>(stats.seconds * 1e6));
    // The pass span reuses the provenance timing PassManager already
    // measures, and carries the gate/depth deltas as span args.
    if constexpr (obs::compiled_in()) {
      if (obs::Tracer::shared().active()) {
        std::ostringstream args;
        args << "{\"gates_before\":" << stats.gates_before
             << ",\"gates_after\":" << stats.gates_after
             << ",\"depth_before\":" << stats.depth_before
             << ",\"depth_after\":" << stats.depth_after << "}";
        obs::Tracer::shared().record_complete(
            stats.name, "opt.pass", span_start_ns,
            static_cast<std::uint64_t>(stats.seconds * 1e9), args.str());
      }
    }
    assert(!pass->never_increases_depth() ||
           stats.depth_after <= stats.depth_before);
    result.passes.push_back(std::move(stats));
  }
  return result;
}

PipelineResult PassManager::run(const Network& net,
                                const PassOptions& opts) const {
  PipelineRewrite rewritten = rewrite(net, opts);
  PipelineResult result;
  result.network = rewritten.network ? std::move(*rewritten.network) : net;
  result.passes = std::move(rewritten.passes);
  return result;
}

PassManager make_pass_pipeline(PassLevel level) {
  PassManager pm;
  if (level == PassLevel::kNone) return pm;
  pm.add(make_relayer_pass())
      .add(make_dedup_adjacent_pass())
      .add(make_zero_one_elim_pass());
  if (level == PassLevel::kAggressive) {
    // Expansion creates fresh CE pairs over partially ordered wires; a
    // second elimination round prunes the ones that can never fire.
    pm.add(make_expand_wide_gates_pass()).add(make_zero_one_elim_pass());
  }
  if (level == PassLevel::kOptimal) {
    // Runs after elimination so rewrite candidates are dead-gate-free;
    // never increases depth (docs/optimal_networks.md).
    pm.add(make_peephole_optimal_pass());
  }
  pm.add(make_relayer_pass());
  return pm;
}

PipelineResult optimize_network(const Network& net, PassLevel level,
                                const PassOptions& opts) {
  return make_pass_pipeline(level).run(net, opts);
}

}  // namespace scn
