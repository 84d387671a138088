// Per-layer trace events of the lane runner: while a trace records, every
// runner call (one per lane-parallel run, one per shard on the threaded
// tier) emits exactly plan.depth() `engine.layer` events, back to back,
// whose args carry the layer's gate counts and the call's lane count.
// Tracing must not change a single output bit, and an idle tracer must
// record nothing.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "core/cost_model.h"
#include "core/k_network.h"
#include "core/l_network.h"
#include "engine/batch_engine.h"
#include "engine/execution_plan.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/runtime.h"
#include "seq/generators.h"

namespace scn {
namespace {

struct LayerEvent {
  std::size_t layer = 0;
  unsigned tid = 0;
  double ts_us = 0;
  double dur_us = 0;
  std::size_t pairs = 0;
  std::size_t ce = 0;
  std::size_t wide = 0;
  std::size_t lanes = 0;
};

// The `engine.layer` events of a Chrome trace, in recording order.
std::vector<LayerEvent> layer_events(const std::string& json) {
  static constexpr char kStart[] = "{\"name\":\"layer ";
  std::vector<LayerEvent> out;
  for (std::size_t at = json.find(kStart); at != std::string::npos;
       at = json.find(kStart, at + 1)) {
    LayerEvent ev;
    const int fields = std::sscanf(
        json.c_str() + at,
        "{\"name\":\"layer %zu\",\"cat\":\"engine.layer\",\"ph\":\"X\","
        "\"pid\":1,\"tid\":%u,\"ts\":%lf,\"dur\":%lf,\"args\":{\"pairs\":%zu,"
        "\"ce\":%zu,\"wide\":%zu,\"lanes\":%zu}}",
        &ev.layer, &ev.tid, &ev.ts_us, &ev.dur_us, &ev.pairs, &ev.ce,
        &ev.wide, &ev.lanes);
    if (fields == 8) out.push_back(ev);
  }
  return out;
}

// Checks the events of one traced run over `lanes` lanes against `plan`.
void expect_layer_events(const ExecutionPlan& plan,
                         const std::vector<LayerEvent>& events,
                         std::size_t lanes) {
  const std::size_t depth = plan.depth();
  ASSERT_GT(depth, 0u);
  ASSERT_FALSE(events.empty());
  ASSERT_EQ(events.size() % depth, 0u);

  // Each thread runs its calls one after another, so its events split into
  // whole calls: layers 0..depth-1 in order, one lane count per call,
  // every event starting where the previous one ended.
  std::map<unsigned, std::vector<LayerEvent>> by_thread;
  for (const LayerEvent& ev : events) by_thread[ev.tid].push_back(ev);
  std::size_t lanes_seen = 0;
  for (const auto& [tid, evs] : by_thread) {
    ASSERT_EQ(evs.size() % depth, 0u) << "thread " << tid;
    for (std::size_t call = 0; call < evs.size(); call += depth) {
      const std::size_t call_lanes = evs[call].lanes;
      lanes_seen += call_lanes;
      for (std::size_t i = 0; i < depth; ++i) {
        const LayerEvent& ev = evs[call + i];
        const ExecutionPlan::Layer& layer = plan.layers()[i];
        EXPECT_EQ(ev.layer, i);
        SCOPED_TRACE("layer " + std::to_string(i));
        EXPECT_EQ(ev.pairs, layer.pair_end - layer.pair_begin);
        std::size_t ces = 0;
        for (std::uint32_t g = layer.wide_begin; g < layer.wide_end; ++g) {
          ces += plan.wide_gates()[g].ce_end - plan.wide_gates()[g].ce_begin;
        }
        EXPECT_EQ(ev.ce, ces);
        EXPECT_EQ(ev.wide, layer.wide_end - layer.wide_begin);
        EXPECT_EQ(ev.lanes, call_lanes);
        if (i > 0) {
          const LayerEvent& prev = evs[call + i - 1];
          // ts and dur are exported rounded to 1 ns (3 decimals of us).
          EXPECT_NEAR(ev.ts_us, prev.ts_us + prev.dur_us, 0.002);
        }
      }
    }
  }
  EXPECT_EQ(lanes_seen, lanes);
}

enum class Mode { kSort, kCount };

void check_traced_runs(Mode mode) {
  if (!obs::compiled_in()) GTEST_SKIP() << "tracing compiled out";
  obs::Tracer& tracer = obs::Tracer::shared();
  tracer.stop();
  tracer.clear();
  std::mt19937_64 rng(2024);
  const Network nets[] = {make_k_network({2, 3, 2}),
                          make_l_network({3, 2, 2})};
  for (const Network& net : nets) {
    const ExecutionPlan plan = compile_plan(net);
    for (const EngineBackend backend :
         {EngineBackend::kBatch, EngineBackend::kSimd,
          EngineBackend::kThreaded}) {
      Runtime::Options options;
      options.backend = backend;
      options.threads = 3;
      Runtime rt(options);
      for (const std::size_t lanes : {1u, 255u, 257u, 1000u}) {
        SCOPED_TRACE(std::string(mode == Mode::kSort ? "sort " : "count ") +
                     "width " + std::to_string(net.width()) + " " +
                     to_string(backend) + " lanes " + std::to_string(lanes));
        std::vector<std::vector<Count>> inputs;
        for (std::size_t j = 0; j < lanes; ++j) {
          inputs.push_back(random_count_vector(rng, net.width(), 40));
        }
        const auto run = [&] {
          return mode == Mode::kSort ? plan_sort_batch(plan, inputs, rt)
                                     : plan_count_batch(plan, inputs, rt);
        };
        const auto untraced = run();
        EXPECT_EQ(tracer.event_count(), 0u);

        tracer.start();
        const auto traced = run();
        tracer.stop();
        EXPECT_EQ(traced, untraced);
        expect_layer_events(plan, layer_events(tracer.chrome_trace_json()),
                            lanes);
        tracer.clear();
      }
    }
  }
}

TEST(EngineLayerTrace, SortRecordsDepthEventsPerRunnerCall) {
  check_traced_runs(Mode::kSort);
}

TEST(EngineLayerTrace, CountRecordsDepthEventsPerRunnerCall) {
  check_traced_runs(Mode::kCount);
}

}  // namespace
}  // namespace scn
