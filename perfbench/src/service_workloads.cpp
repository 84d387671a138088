// service_next and service_increment: closed-loop clients of
// CountingService (default options: 4 shards of K(2,2,2,2)) on a private
// Runtime.
//
//   * service_next: nproc clients call next() back to back; every value
//     goes into the client's ValueLog and one call in kSampleEvery is
//     timed.
//   * service_increment: nproc - 2 clients call increment(k), k drawn from
//     1..32, with the front end's two drainers on a 2-thread pool. The
//     measured phase runs as segments, each on a fresh runtime and service
//     and each ending with one drain().
#include <algorithm>
#include <atomic>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "api/high_level.h"
#include "checks.h"
#include "core/k_network.h"
#include "count/fetch_inc.h"
#include "obs/metrics.h"
#include "perf/thread_pool.h"
#include "service/front_end.h"
#include "service/shard_manager.h"
#include "sim/concurrent_sim.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr std::uint64_t kSampleEvery = 64;  // mean next() calls per timed call
constexpr std::uint64_t kIncrementSampleEvery = 4;
constexpr std::uint64_t kBlock = 64;  // calls between stop checks
constexpr std::uint32_t kMaxIncrement = 32;
// The tail reported for increment(): the mean of the slowest 1% of calls.
// Backpressure stalls about 1% of calls until a drainer pops the next
// batch, so any single high percentile sits on the edge of the stall mode
// (p99) or on the long upper tail of the stall lengths (p99.9), and both
// move with how the two drainers' batches happen to interleave. The mean
// of the slowest 1% covers the whole stall mode and holds still.
constexpr double kIncrementTail = 0.99;
// Where the scheduler puts the clients and drainers changes their CPU cost
// per token, and that holds for as long as the threads live. So
// service_increment measures in segments of this length, each on a fresh
// runtime (fresh pool threads) and service, and reports medians over the
// segments.
constexpr double kSegmentSeconds = 2.0;
constexpr int kServiceSetupReps = 20;  // before and again after the phases
constexpr double kProbeSeconds = 0.5;  // per-layer probes of a traced run
constexpr double kWindowSeconds = 0.5;
const std::vector<std::size_t> kShardFactors = {2, 2, 2, 2};

struct Setup {
  std::unique_ptr<scn::Runtime> rt;
  std::unique_ptr<scn::CountingService> svc;
};

// A cold private runtime and service made ready. The runtime's pool (the
// front end's drainers) spawns lazily on first use, as it would for any
// caller, so set-up measures construction alone.
Setup make_setup(std::size_t pool_threads, std::vector<double>& times) {
  Setup s;
  const std::int64_t t0 = now_ns();
  s.rt = std::make_unique<scn::Runtime>(runtime_options(pool_threads));
  s.svc = std::make_unique<scn::CountingService>(scn::CountingService::Options{},
                                                 *s.rt);
  times.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  return s;
}

// Drains the service and waits for the pool to go idle, so the set-up can
// be torn down: a finished drain task still signals the front end's
// condition variable after drain() has stopped waiting for it.
void settle(Setup& s) {
  s.svc->drain();
  s.rt->pool().wait_idle();
}

// kServiceSetupReps timed set-ups; returns the last one.
Setup timed_setups(std::size_t pool_threads, std::vector<double>& times) {
  Setup s;
  for (int rep = 0; rep < kServiceSetupReps; ++rep) {
    s = Setup{};  // tear the previous one down before timing the next
    s = make_setup(pool_threads, times);
  }
  return s;
}

// Per-client progress, on its own cache line: the client publishes its
// item count with a relaxed store once per block of calls, and the
// measuring thread reads it at each window boundary.
struct alignas(64) Progress {
  std::atomic<std::uint64_t> items{0};
};

// Runs `body(thread_index, stop, progress)` on `threads` threads released
// together, for `seconds`. When `windows` is non-null the calling thread
// cuts the run into kWindowSeconds windows and records each one's
// throughput and CPU cost. Returns the wall time from release until the
// last thread has finished.
template <typename Body>
double run_threads(unsigned threads, double seconds, Body body,
                   Windows* windows = nullptr) {
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::vector<Progress> progress(threads);
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      body(t, stop, progress[t].items);
    });
  }
  const auto sum = [&] {
    std::uint64_t n = 0;
    for (const Progress& p : progress) n += p.items.load(std::memory_order_relaxed);
    return n;
  };
  const std::int64_t start = now_ns();
  go.store(true, std::memory_order_release);
  const auto whole = static_cast<int>(seconds / kWindowSeconds);
  if (windows == nullptr || whole < 1) {
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  } else {
    std::int64_t t0 = start;
    double cpu0 = process_cpu_s();
    std::uint64_t n0 = sum();
    for (int w = 1; w <= whole; ++w) {
      std::this_thread::sleep_until(
          std::chrono::steady_clock::time_point(std::chrono::nanoseconds(
              start + static_cast<std::int64_t>(w * kWindowSeconds * 1e9))));
      const std::int64_t t1 = now_ns();
      const double cpu1 = process_cpu_s();
      const std::uint64_t n1 = sum();
      const auto items = static_cast<double>(std::max<std::uint64_t>(n1 - n0, 1));
      windows->items_per_s.push_back(items / (static_cast<double>(t1 - t0) * 1e-9));
      windows->cpu_us_per_item.push_back((cpu1 - cpu0) * 1e6 / items);
      t0 = t1;
      cpu0 = cpu1;
      n0 = n1;
    }
  }
  stop.store(true, std::memory_order_release);
  for (auto& th : pool) th.join();
  return static_cast<double>(now_ns() - start) * 1e-9;
}

struct Phase {
  std::uint64_t ops = 0;      // next() or increment() calls
  std::uint64_t tokens = 0;
  std::uint64_t failed = 0;
  double drain_s = 0;
  std::vector<double> latency_us;
  Windows windows;
};

std::vector<double> merge(const std::vector<std::vector<double>>& per_thread) {
  std::vector<double> all;
  for (const auto& v : per_thread) all.insert(all.end(), v.begin(), v.end());
  return all;
}

// Runs `call`, timing it (and recording a span) with probability
// 1/`every`. The draw is random rather than every N-th call so the samples
// cannot alias with periodic behaviour such as round-robin dispatch or the
// front end's queue refills.
template <typename Call>
auto sampled(Rng& rng, std::uint64_t every, std::vector<double>& latency_us,
             SpanLog* spans, const char* name, std::uint64_t id, Call call) {
  if (rng.below(every) != 0) return call();
  const std::int64_t t0 = now_ns();
  ScopedSpan span(spans, name, 0, id);
  const auto result = call();
  latency_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
  return result;
}

// next() from `threads` clients; values checked against [base, base + N).
Phase next_phase(scn::CountingService& svc, unsigned threads, double seconds,
                 std::uint64_t seed, std::uint64_t stream, SpanRecorder* recorder,
                 Result& r) {
  svc.drain();
  const std::uint64_t base = svc.total();
  std::vector<ValueLog> logs(threads);
  std::vector<std::vector<double>> lat(threads);
  std::vector<std::uint64_t> counts(threads, 0);
  std::vector<SpanLog*> span_logs(threads, nullptr);
  if (recorder != nullptr) {
    for (unsigned t = 0; t < threads; ++t) span_logs[t] = recorder->log(t);
  }
  Phase p;
  const auto client = [&](unsigned t, std::atomic<bool>& stop,
                          std::atomic<std::uint64_t>& progress) {
    Rng rng(seed, stream * 64 + t);
    ValueLog& log = logs[t];
    std::uint64_t n = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      for (std::uint64_t i = 0; i < kBlock; ++i, ++n) {
        log.add(sampled(rng, kSampleEvery, lat[t], span_logs[t], "service.next", n,
                        [&] { return svc.next(); }) -
                base);
      }
      progress.store(n, std::memory_order_relaxed);
    }
    counts[t] = n;
  };
  (void)run_threads(threads, seconds, client, &p.windows);
  for (const auto c : counts) p.tokens += c;
  p.ops = p.tokens;
  p.latency_us = merge(lat);
  p.failed = counter_value_failures(logs, p.tokens);
  svc.drain();
  require(r, "service_total_matches", svc.total() - base == p.tokens);
  const scn::ShardManager::LinearityReport lin = svc.shards().verify_linearity();
  require(r, "service_linearity", lin.ok);
  if (!lin.ok) r.notes["linearity_detail"] = lin.detail;
  return p;
}

// increment(k) from `threads` clients, then one drain() inside the phase.
Phase increment_phase(scn::CountingService& svc, unsigned threads,
                      double seconds, std::uint64_t seed, std::uint64_t stream,
                      SpanRecorder* recorder, Result& r) {
  svc.drain();
  const std::uint64_t base = svc.total();
  std::vector<std::vector<double>> lat(threads);
  std::vector<std::uint64_t> calls(threads, 0);
  std::vector<std::uint64_t> tokens(threads, 0);
  std::vector<SpanLog*> span_logs(threads + 1, nullptr);
  if (recorder != nullptr) {
    for (unsigned t = 0; t <= threads; ++t) span_logs[t] = recorder->log(t);
  }
  Phase p;
  const auto client = [&](unsigned t, std::atomic<bool>& stop,
                          std::atomic<std::uint64_t>& progress) {
    Rng rng(seed, stream * 64 + t);
    std::uint64_t n = 0;
    std::uint64_t sum = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      for (std::uint64_t i = 0; i < kBlock; ++i, ++n) {
        const auto k = static_cast<std::uint32_t>(1 + rng.below(kMaxIncrement));
        sampled(rng, kIncrementSampleEvery, lat[t], span_logs[t],
                "service.increment", n, [&] {
                  svc.increment(k);
                  return 0;
                });
        sum += k;
      }
      progress.store(sum, std::memory_order_relaxed);
    }
    calls[t] = n;
    tokens[t] = sum;
  };
  (void)run_threads(threads, seconds, client, &p.windows);
  const std::int64_t d0 = now_ns();
  {
    ScopedSpan s(span_logs[threads], "service.drain", 0, 0);
    svc.drain();
  }
  p.drain_s = static_cast<double>(now_ns() - d0) * 1e-9;
  for (unsigned t = 0; t < threads; ++t) {
    p.ops += calls[t];
    p.tokens += tokens[t];
  }
  p.latency_us = merge(lat);
  const std::uint64_t routed = svc.total() - base;
  const std::uint64_t lost = routed > p.tokens ? routed - p.tokens : p.tokens - routed;
  p.failed = std::min(lost, p.ops);
  require(r, "front_end_drained",
          svc.front_end().drained() == svc.front_end().enqueued());
  const scn::ShardManager::LinearityReport lin = svc.shards().verify_linearity();
  require(r, "service_linearity", lin.ok);
  if (!lin.ok) r.notes["linearity_detail"] = lin.detail;
  return p;
}

// Bare ConcurrentNetwork::traverse on one shard's network from `threads`
// threads, entering on every wire in turn: p50 of sampled traversals, ns.
double traverse_p50_ns(unsigned threads, double seconds) {
  scn::Runtime rt(runtime_options(1));
  const scn::Network net = scn::make_k_network(kShardFactors, rt);
  scn::ConcurrentNetwork cnet(net);
  const auto width = static_cast<scn::Wire>(net.width());
  std::vector<std::vector<double>> lat(threads);
  const auto client = [&](unsigned t, std::atomic<bool>& stop,
                          std::atomic<std::uint64_t>&) {
    Rng rng(t, 3);
    auto wire = static_cast<scn::Wire>(t);
    while (!stop.load(std::memory_order_relaxed)) {
      for (std::uint64_t i = 0; i < kBlock; ++i) {
        wire = (wire + 1) % width;
        (void)sampled(rng, kSampleEvery, lat[t], nullptr, "", 0,
                      [&] { return cnet.traverse(wire); });
      }
    }
  };
  (void)run_threads(threads, seconds, client);
  return median(merge(lat)) * 1e3;
}

// A visit-probe pass: a ShardManager with per-gate visit counters, driven
// by next() from `threads` threads.
void visit_probe(Result& r, unsigned threads, double seconds) {
  scn::Runtime rt(runtime_options(1));
  scn::ShardManager::Options opts;
  opts.factors = kShardFactors;
  opts.visit_probe = true;
  scn::ShardManager mgr(opts, rt);
  const auto client = [&](unsigned, std::atomic<bool>& stop,
                          std::atomic<std::uint64_t>&) {
    while (!stop.load(std::memory_order_relaxed)) (void)mgr.next();
  };
  (void)run_threads(threads, seconds, client);
  mgr.quiesce();
  std::uint64_t visits = 0;
  std::uint64_t hottest = 0;
  for (std::size_t j = 0; j < mgr.shard_count(); ++j) {
    for (const std::uint64_t v : mgr.shard_gate_visits(j)) {
      visits += v;
      hottest = std::max(hottest, v);
    }
  }
  const auto tokens = static_cast<double>(std::max<std::uint64_t>(mgr.dispatched(), 1));
  r.per_layer["sim.hops_per_token"] = {static_cast<double>(visits) / tokens, "count"};
  r.per_layer["sim.hottest_gate_share"] = {static_cast<double>(hottest) / tokens,
                                           "ratio"};
}

// The service layer's own counters, read from the home runtime's registry.
void service_layers(Result& r, Setup& s) {
  scn::obs::MetricsRegistry& reg = s.rt->metrics();
  const std::size_t shards = s.svc->shards().shard_count();
  double max_tokens = 0;
  double sum_tokens = 0;
  for (std::size_t j = 0; j < shards; ++j) {
    const auto v = static_cast<double>(
        reg.value("service.shard" + std::to_string(j) + ".tokens"));
    max_tokens = std::max(max_tokens, v);
    sum_tokens += v;
  }
  const double mean = sum_tokens / static_cast<double>(shards);
  r.per_layer["service.shard_imbalance"] = {mean > 0 ? max_tokens / mean : 0.0,
                                            "ratio"};
  r.per_layer["service.rebalances"] = {
      static_cast<double>(reg.value("service.rebalances")), "count"};
}

}  // namespace

Result run_service_next(const RunConfig& cfg) {
  Result r;
  const unsigned threads = cfg.nproc;
  std::vector<double> setup_times;
  Setup s = timed_setups(1, setup_times);
  const Phase warm = next_phase(*s.svc, threads, 0.05, cfg.seed, 0, nullptr, r);
  r.attempted += warm.ops;
  r.failed += warm.failed;

  const double untraced_s = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
  const Phase main = next_phase(*s.svc, threads, untraced_s, cfg.seed, 1, nullptr, r);
  r.attempted += main.ops;
  r.failed += main.failed;

  if (cfg.trace) {
    SpanRecorder recorder;
    const Phase traced =
        next_phase(*s.svc, threads, cfg.seconds / 2, cfg.seed, 2, &recorder, r);
    r.attempted += traced.ops;
    r.failed += traced.failed;
    const double traverse_ns = traverse_p50_ns(threads, kProbeSeconds);
    r.per_layer["sim.traverse_ns"] = {traverse_ns, "ns"};
    r.per_layer["service.overhead_ns"] = {
        quantile(main.latency_us, 0.5) * 1e3 - traverse_ns, "ns"};
    visit_probe(r, threads, kProbeSeconds);
    service_layers(r, s);
    r.per_layer["trace.overhead_ratio"] = {median(traced.windows.items_per_s) /
                                               median(main.windows.items_per_s),
                                           "ratio"};
    report_trace(r, cfg, recorder);
  }
  (void)timed_setups(1, setup_times);
  report_end_to_end(r, main.windows, quantile(main.latency_us, 0.5),
                    quantile(main.latency_us, 0.99), "p99",
                    main.latency_us.size(), median(setup_times));
  return r;
}

Result run_service_increment(const RunConfig& cfg) {
  Result r;
  const unsigned threads = std::max(1u, cfg.nproc - 2);
  std::vector<double> setup_times;
  Setup s = timed_setups(2, setup_times);
  const Phase warm = increment_phase(*s.svc, threads, 0.05, cfg.seed, 0, nullptr, r);
  r.attempted += warm.ops;
  r.failed += warm.failed;

  // The untraced phase: segments on fresh set-ups. Windows are pooled;
  // latency is summarised per segment, so the samples of a whole run are
  // never held at once (they would show in peak_rss_mb). Each segment's
  // set-up is timed like the others, and its pool spawns in a short
  // warm-up before the segment is measured.
  const double untraced_s = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
  const int segments =
      std::max(1, static_cast<int>(std::lround(untraced_s / kSegmentSeconds)));
  Windows windows;
  std::vector<double> segment_p50s;
  std::vector<double> segment_tails;
  std::size_t latency_samples = 0;
  for (int seg = 0; seg < segments; ++seg) {
    Setup fresh = make_setup(2, setup_times);
    const std::uint64_t stream = 16 + 2 * static_cast<std::uint64_t>(seg);
    const Phase spawn =
        increment_phase(*fresh.svc, threads, 0.05, cfg.seed, stream, nullptr, r);
    const Phase p = increment_phase(*fresh.svc, threads, untraced_s / segments,
                                    cfg.seed, stream + 1, nullptr, r);
    for (const Phase* q : {&spawn, &p}) {
      r.attempted += q->ops;
      r.failed += q->failed;
    }
    windows.items_per_s.insert(windows.items_per_s.end(),
                               p.windows.items_per_s.begin(),
                               p.windows.items_per_s.end());
    windows.cpu_us_per_item.insert(windows.cpu_us_per_item.end(),
                                   p.windows.cpu_us_per_item.begin(),
                                   p.windows.cpu_us_per_item.end());
    segment_p50s.push_back(quantile(p.latency_us, 0.5));
    segment_tails.push_back(tail_mean(p.latency_us, kIncrementTail));
    latency_samples += p.latency_us.size();
    settle(fresh);
  }

  if (cfg.trace) {
    scn::obs::MetricsRegistry& reg = s.rt->metrics();
    const std::uint64_t batches0 = reg.value("service.batches");
    const auto hist0 = reg.histogram("service.batch.tokens").snapshot();
    SpanRecorder recorder;
    const Phase traced = increment_phase(*s.svc, threads, cfg.seconds / 2,
                                         cfg.seed, 2, &recorder, r);
    r.attempted += traced.ops;
    r.failed += traced.failed;
    const auto hist1 = reg.histogram("service.batch.tokens").snapshot();
    const auto batches = static_cast<double>(reg.value("service.batches") - batches0);
    const auto batch_tokens = static_cast<double>(hist1.sum - hist0.sum);
    r.per_layer["front_end.batches"] = {batches, "count"};
    r.per_layer["front_end.tokens_per_batch"] = {
        batches > 0 ? batch_tokens / batches : 0.0, "count"};
    r.per_layer["front_end.drain_s"] = {traced.drain_s, "s"};
    r.per_layer["sim.traverse_ns"] = {traverse_p50_ns(threads, kProbeSeconds), "ns"};
    visit_probe(r, threads, kProbeSeconds);
    service_layers(r, s);
    r.per_layer["trace.overhead_ratio"] = {median(traced.windows.items_per_s) /
                                               median(windows.items_per_s),
                                           "ratio"};
    report_trace(r, cfg, recorder);
  }
  std::string tails;
  for (const double t : segment_tails) {
    if (!tails.empty()) tails += ' ';
    tails += std::to_string(std::lround(t));
  }
  r.notes["latency_tail.segments_us"] = tails;
  settle(s);
  (void)timed_setups(2, setup_times);
  report_end_to_end(r, windows, median(segment_p50s),
                    median(segment_tails),
                    "mean of the slowest 1%, median over " +
                        std::to_string(segments) + " segments",
                    latency_samples, median(setup_times));
  return r;
}

double atomic_items_per_s(unsigned threads, double seconds) {
  scn::AtomicCounter counter;
  std::vector<std::uint64_t> counts(threads, 0);
  const auto client = [&](unsigned t, std::atomic<bool>& stop,
                          std::atomic<std::uint64_t>&) {
    std::uint64_t n = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      for (std::uint64_t i = 0; i < kBlock; ++i) (void)counter.next();
      n += kBlock;
    }
    counts[t] = n;
  };
  const double wall = run_threads(threads, seconds, client);
  std::uint64_t total = 0;
  for (const auto c : counts) total += c;
  return static_cast<double>(total) / wall;
}

}  // namespace perfbench
