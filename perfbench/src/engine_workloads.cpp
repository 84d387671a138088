// sort_mixed and count_mixed: one client thread in a closed loop, each
// request `Runtime::compiled(net)` then `plan_sort_batch` /
// `plan_count_batch` on a private Runtime whose pool has nproc - 1 threads.
//
// The request mix is stratified so every seed sees the same shape of load:
// a round holds kPerStratum requests per network, the k-th drawing
// log2(lanes) uniformly from the k-th of kPerStratum equal slices of
// [0, log2(max lanes)], and the round is shuffled. The loop runs whole
// rounds until the deadline, so the mix stays exactly balanced. Input
// generation and output checks run with the clock paused.
#include <algorithm>
#include <array>
#include <cmath>
#include <string>
#include <vector>

#include "api/high_level.h"
#include "checks.h"
#include "core/family.h"
#include "engine/backend.h"
#include "engine/batch_engine.h"
#include "engine/execution_plan.h"
#include "obs/metrics.h"
#include "opt/plan_cache.h"
#include "workloads.h"

namespace perfbench {

namespace {

using scn::Count;
using scn::EngineBackend;

struct NetSpec {
  std::size_t width;
  scn::NetworkKind kind;
  std::size_t max_lanes;  // min(1024 lanes, 2^18 keys)
};

constexpr std::size_t kMaxComparator = 8;
constexpr std::array<NetSpec, 3> kNets = {{
    {64, scn::NetworkKind::kK, 1024},
    {720, scn::NetworkKind::kL, (1u << 18) / 720},
    {4096, scn::NetworkKind::kL, (1u << 18) / 4096},
}};
constexpr std::size_t kPerStratum = 8;
// Set-ups timed before the measured phases, and again after them; setup_s
// is the median of all of them.
constexpr int kSetupReps = 6;
constexpr std::array<EngineBackend, 4> kBackends = {
    EngineBackend::kScalar, EngineBackend::kBatch, EngineBackend::kSimd,
    EngineBackend::kThreaded};
constexpr std::array<const char*, 4> kBackendNames = {"scalar", "batch", "simd",
                                                      "threaded"};

std::size_t backend_index(EngineBackend b) {
  for (std::size_t i = 0; i < kBackends.size(); ++i) {
    if (kBackends[i] == b) return i;
  }
  return 0;
}

enum class Mode { kSort, kCount };

scn::PassOptions pass_options(Mode mode) {
  scn::PassOptions opts;
  opts.semantics = mode == Mode::kSort ? scn::Semantics::kComparator
                                       : scn::Semantics::kBalancer;
  return opts;
}

struct Request {
  std::uint32_t net = 0;
  std::uint32_t lanes = 1;
};

std::vector<Request> make_round(Rng& rng) {
  std::vector<Request> round;
  for (std::uint32_t n = 0; n < kNets.size(); ++n) {
    const double span = std::log2(static_cast<double>(kNets[n].max_lanes));
    for (std::size_t k = 0; k < kPerStratum; ++k) {
      const double x = (static_cast<double>(k) + rng.unit()) /
                       static_cast<double>(kPerStratum) * span;
      const auto lanes = std::clamp<std::size_t>(
          static_cast<std::size_t>(std::exp2(x)), 1, kNets[n].max_lanes);
      round.push_back({n, static_cast<std::uint32_t>(lanes)});
    }
  }
  for (std::size_t i = round.size() - 1; i > 0; --i) {
    std::swap(round[i], round[rng.below(i + 1)]);
  }
  return round;
}

// A cold private runtime made ready: pool spawned, networks constructed,
// plans compiled through the runtime's cache.
struct Setup {
  std::unique_ptr<scn::Runtime> rt;
  std::vector<scn::Network> nets;
  double setup_s = 0;
  double construct_s = 0;
  double compiled_s = 0;
};

Setup make_setup(Mode mode, std::size_t pool_threads) {
  Setup s;
  const std::int64_t t0 = now_ns();
  s.rt = std::make_unique<scn::Runtime>(runtime_options(pool_threads));
  (void)s.rt->pool();
  const std::int64_t t1 = now_ns();
  for (const NetSpec& spec : kNets) {
    s.nets.push_back(scn::make_network_for_width(spec.width, kMaxComparator,
                                                 spec.kind, *s.rt));
  }
  const std::int64_t t2 = now_ns();
  for (const scn::Network& net : s.nets) {
    (void)s.rt->compiled(net, pass_options(mode));
  }
  const std::int64_t t3 = now_ns();
  s.setup_s = static_cast<double>(t3 - t0) * 1e-9;
  s.construct_s = static_cast<double>(t2 - t1) * 1e-9;
  s.compiled_s = static_cast<double>(t3 - t2) * 1e-9;
  return s;
}

// Everything one measured phase accumulates.
struct Phase {
  std::uint64_t requests = 0;
  std::uint64_t failed = 0;
  std::uint64_t items = 0;
  double wall_s = 0;     // loop wall time minus generation and checks
  double library_s = 0;  // time inside library calls
  Windows windows;       // one window per round
  std::vector<double> latency_us;  // compiled + batch call, per request
  std::vector<double> call_us;     // batch call alone
  std::vector<double> lookup_us;   // compiled() alone
  std::array<std::uint64_t, 4> backend_requests{};
  std::array<double, 4> backend_ns{};
  std::array<double, 4> backend_layer_lanes{};
};

class RequestLoop {
 public:
  RequestLoop(Mode mode, Setup& setup, std::uint64_t seed)
      : mode_(mode), setup_(setup), rng_(seed, 1) {
    for (const NetSpec& spec : kNets) {
      inputs_.emplace_back(spec.max_lanes, std::vector<Count>(spec.width));
    }
  }

  // Runs whole rounds until `seconds` of wall time have passed. `log`
  // non-null records spans and labels each request's backend.
  Phase run(double seconds, SpanLog* log) {
    Phase p;
    const std::int64_t deadline =
        now_ns() + static_cast<std::int64_t>(seconds * 1e9);
    do {
      const std::int64_t start = now_ns();
      const double cpu_start = process_cpu_s();
      const std::uint64_t items_start = p.items;
      std::int64_t paused_ns = 0;
      double paused_cpu = 0;
      for (const Request& req : make_round(rng_)) {
        const std::int64_t g0 = now_ns();
        const double c0 = thread_cpu_s();
        fill(req);
        const std::int64_t g1 = now_ns();
        const double c1 = thread_cpu_s();
        auto out = send(req, p, log);
        const std::int64_t g2 = now_ns();
        const double c2 = thread_cpu_s();
        {
          ScopedSpan check(log, "bench.check", 0, p.requests);
          if (!check_outputs(req, out)) ++p.failed;
        }
        paused_ns += (g1 - g0) + (now_ns() - g2);
        paused_cpu += (c1 - c0) + (thread_cpu_s() - c2);
      }
      const double wall = static_cast<double>(now_ns() - start - paused_ns) * 1e-9;
      const double cpu = process_cpu_s() - cpu_start - paused_cpu;
      const auto items = static_cast<double>(p.items - items_start);
      p.wall_s += wall;
      p.windows.items_per_s.push_back(items / wall);
      p.windows.cpu_us_per_item.push_back(cpu * 1e6 / items);
    } while (now_ns() < deadline);
    return p;
  }

 private:
  void fill(const Request& req) {
    auto& vecs = inputs_[req.net];
    for (std::size_t j = 0; j < req.lanes; ++j) {
      for (Count& v : vecs[j]) {
        v = mode_ == Mode::kSort ? static_cast<Count>(rng_.next() >> 1)
                                 : static_cast<Count>(rng_.below(1024));
      }
    }
  }

  std::vector<std::vector<Count>> send(const Request& req, Phase& p,
                                       SpanLog* log) {
    scn::Runtime& rt = *setup_.rt;
    const scn::Network& net = setup_.nets[req.net];
    const std::span<const std::vector<Count>> inputs(inputs_[req.net].data(),
                                                     req.lanes);
    const std::uint64_t id = ++p.requests;
    ScopedSpan request(log, "bench.request", 0, id);
    const std::int64_t t0 = now_ns();
    scn::CachedPlan plan;
    {
      ScopedSpan s(log, "runtime.compiled", request.id(), id);
      plan = rt.compiled(net, pass_options(mode_));
    }
    const std::int64_t t1 = now_ns();
    std::size_t b = 0;
    if (log != nullptr) {
      ScopedSpan s(log, "engine.resolve_backend", request.id(), id);
      b = backend_index(scn::engine::resolve_backend(rt.backend(), *plan.plan,
                                                     req.lanes));
    }
    const std::int64_t t2 = now_ns();
    std::vector<std::vector<Count>> out;
    {
      ScopedSpan s(log,
                   mode_ == Mode::kSort ? "engine.plan_sort_batch"
                                        : "engine.plan_count_batch",
                   request.id(), id);
      out = mode_ == Mode::kSort ? scn::plan_sort_batch(*plan.plan, inputs, rt)
                                 : scn::plan_count_batch(*plan.plan, inputs, rt);
    }
    const std::int64_t t3 = now_ns();
    p.items += static_cast<std::uint64_t>(req.lanes) * net.width();
    p.latency_us.push_back(static_cast<double>((t1 - t0) + (t3 - t2)) * 1e-3);
    p.lookup_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
    p.call_us.push_back(static_cast<double>(t3 - t2) * 1e-3);
    p.library_s += static_cast<double>(t3 - t0) * 1e-9;
    if (log != nullptr) {
      ++p.backend_requests[b];
      p.backend_ns[b] += static_cast<double>(t3 - t2);
      p.backend_layer_lanes[b] +=
          static_cast<double>(plan.plan->depth()) * req.lanes;
    }
    return out;
  }

  bool check_outputs(const Request& req,
                     const std::vector<std::vector<Count>>& out) const {
    if (out.size() != req.lanes) return false;
    const auto& in = inputs_[req.net];
    for (std::size_t j = 0; j < req.lanes; ++j) {
      const bool ok = mode_ == Mode::kSort ? sort_output_ok(in[j], out[j])
                                           : count_output_ok(in[j], out[j]);
      if (!ok) return false;
    }
    return true;
  }

  Mode mode_;
  Setup& setup_;
  Rng rng_;
  std::vector<std::vector<std::vector<Count>>> inputs_;  // per network
};

std::uint64_t dispatch_count(std::size_t b) {
  return scn::obs::MetricsRegistry::shared().value(
      std::string("engine.backend.") + kBackendNames[b] + ".dispatches");
}

// Per-layer figures that come from the workload's networks rather than
// from the request loop: pass pipeline and plan compile timed apart from
// the runtime, plus the exact plan shape.
void static_layers(Result& r, Mode mode, const Setup& setup) {
  std::vector<double> passes_s;
  std::vector<double> compile_s;
  double depth_in = 0;
  double depth_out = 0;
  double layers = 0;
  double ce_pairs = 0;
  double wide = 0;
  for (int rep = 0; rep < 3; ++rep) {
    double passes = 0;
    double compile = 0;
    for (const scn::Network& net : setup.nets) {
      const std::int64_t t0 = now_ns();
      scn::PipelineResult opt = scn::optimize_network(
          net, setup.rt->pass_level(), pass_options(mode));
      const std::int64_t t1 = now_ns();
      const scn::ExecutionPlan plan = scn::compile_plan(opt.network);
      const std::int64_t t2 = now_ns();
      passes += static_cast<double>(t1 - t0) * 1e-9;
      compile += static_cast<double>(t2 - t1) * 1e-9;
      if (rep == 0) {
        depth_in += net.depth();
        depth_out += opt.network.depth();
        layers += plan.depth();
        ce_pairs += static_cast<double>(plan.pair_wires().size() / 2 +
                                        plan.ce_wires().size() / 2);
        wide += static_cast<double>(plan.wide_gates().size());
      }
    }
    passes_s.push_back(passes);
    compile_s.push_back(compile);
  }
  r.per_layer["opt.passes_s"] = {median(passes_s), "s"};
  r.per_layer["engine.compile_s"] = {median(compile_s), "s"};
  r.per_layer["opt.depth_in"] = {depth_in, "count"};
  r.per_layer["opt.depth_out"] = {depth_out, "count"};
  r.per_layer["engine.plan.layers"] = {layers, "count"};
  r.per_layer["engine.plan.ce_pairs"] = {ce_pairs, "count"};
  r.per_layer["engine.plan.wide_gates"] = {wide, "count"};
}

Result run_engine(Mode mode, const RunConfig& cfg) {
  Result r;
  const std::size_t pool_threads = std::max(1u, cfg.nproc - 1);
  std::vector<double> setup_s;
  std::vector<double> construct_s;
  std::vector<double> compiled_s;
  // Set-up is timed kSetupReps times before the measured phases and again
  // after them; the last set-up before is the one the phases run on.
  const auto timed_setups = [&] {
    Setup last;
    for (int rep = 0; rep < kSetupReps; ++rep) {
      last = Setup{};  // the previous runtime is torn down before timing
      last = make_setup(mode, pool_threads);
      setup_s.push_back(last.setup_s);
      construct_s.push_back(last.construct_s);
      compiled_s.push_back(last.compiled_s);
    }
    return last;
  };
  Setup setup = timed_setups();
  const scn::CacheStatsReport cold = scn::cache_stats(*setup.rt);

  RequestLoop loop(mode, setup, cfg.seed);
  const Phase warm = loop.run(0, nullptr);  // one round: lazy state settles
  r.attempted += warm.requests;
  r.failed += warm.failed;

  const double untraced_s = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
  const Phase main = loop.run(untraced_s, nullptr);
  r.attempted += main.requests;
  r.failed += main.failed;

  if (cfg.trace) {
    SpanRecorder recorder;
    std::array<std::uint64_t, 4> before{};
    for (std::size_t b = 0; b < 4; ++b) before[b] = dispatch_count(b);
    const Phase traced = loop.run(cfg.seconds / 2, recorder.log(0));
    r.attempted += traced.requests;
    r.failed += traced.failed;
    bool dispatch_ok = true;
    for (std::size_t b = 0; b < 4; ++b) {
      const std::string name = kBackendNames[b];
      const auto n = traced.backend_requests[b];
      r.per_layer["engine." + name + ".requests"] = {static_cast<double>(n),
                                                     "count"};
      r.per_layer["engine." + name + ".ns_per_layer_lane"] = {
          n == 0 ? 0.0 : traced.backend_ns[b] / traced.backend_layer_lanes[b],
          "ns"};
      if (scn::obs::compiled_in()) {
        dispatch_ok = dispatch_ok && dispatch_count(b) - before[b] == n;
      }
    }
    require(r, "engine_dispatch_cross_check", dispatch_ok);

    const scn::CacheStatsReport stats = scn::cache_stats(*setup.rt);
    const auto ratio = [](double hits, double misses) {
      return hits + misses > 0 ? hits / (hits + misses) : 0.0;
    };
    r.per_layer["core.construct_s"] = {median(construct_s), "s"};
    r.per_layer["core.module_cache.hit_ratio"] = {
        ratio(static_cast<double>(cold.module_hits),
              static_cast<double>(cold.module_misses)),
        "ratio"};
    r.per_layer["runtime.compiled_s"] = {median(compiled_s), "s"};
    r.per_layer["runtime.lookup_us"] = {quantile(traced.lookup_us, 0.5), "us"};
    r.per_layer["runtime.plan_cache.hit_ratio"] = {
        ratio(static_cast<double>(stats.plan_hits),
              static_cast<double>(stats.plan_misses)),
        "ratio"};
    r.per_layer["engine.call_us.p50"] = {quantile(traced.call_us, 0.50), "us"};
    r.per_layer["engine.call_us.p99"] = {quantile(traced.call_us, 0.99), "us"};
    r.per_layer["bench.self_share"] = {1.0 - traced.library_s / traced.wall_s,
                                       "ratio"};
    r.per_layer["trace.overhead_ratio"] = {
        median(traced.windows.items_per_s) / median(main.windows.items_per_s),
        "ratio"};
    static_layers(r, mode, setup);
    report_trace(r, cfg, recorder);
  }
  (void)timed_setups();
  report_end_to_end(r, main.windows, quantile(main.latency_us, 0.5),
                    quantile(main.latency_us, 0.99), "p99",
                    main.latency_us.size(), median(setup_s));
  return r;
}

}  // namespace

Result run_sort_mixed(const RunConfig& cfg) { return run_engine(Mode::kSort, cfg); }

Result run_count_mixed(const RunConfig& cfg) {
  return run_engine(Mode::kCount, cfg);
}

}  // namespace perfbench
