// Shared plumbing for the benchmark workloads: seeded generators, clocks,
// sample statistics, process resource readings, the benchmark-side span
// recorder (spans are recorded around calls into the library, never inside
// it) and the result object every workload fills in.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

// ---------------------------------------------------------------------------
// Randomness: splitmix64 seeding a xoshiro256** stream. Every input the
// library sees comes from one of these, derived from --seed.

[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state);

class Rng {
 public:
  explicit Rng(std::uint64_t seed, std::uint64_t stream = 0);
  std::uint64_t next();
  /// Uniform in [0, n) for 1 <= n < 2^32.
  std::uint64_t below(std::uint64_t n);
  /// Uniform in [0, 1).
  double unit();

 private:
  std::uint64_t s_[4];
};

// ---------------------------------------------------------------------------
// Clocks and resources.

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// User + system CPU seconds of the whole process so far.
[[nodiscard]] double process_cpu_s();
/// CPU seconds of the calling thread so far.
[[nodiscard]] double thread_cpu_s();
/// Peak resident set of the process, MiB.
[[nodiscard]] double peak_rss_mib();

/// Nearest-rank quantile of `samples` (q in [0, 1]); 0 when empty.
[[nodiscard]] double quantile(std::vector<double> samples, double q);
[[nodiscard]] double median(std::vector<double> samples);
/// Mean of the largest (1 - q) share of `samples` (the expected shortfall
/// beyond the q-quantile); 0 when empty.
[[nodiscard]] double tail_mean(std::vector<double> samples, double q);

// ---------------------------------------------------------------------------
// Span recording. One SpanLog per recording thread, so recording never
// shares a cache line between threads; the recorder owns the logs and
// writes them out as a Chrome trace when the run ends.

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 = root
  std::uint64_t request = 0;  ///< request the span belongs to
};

class SpanLog {
 public:
  /// Spans kept per log; later ones are dropped (and counted), so a long
  /// traced run stays bounded in memory and in the trace file.
  static constexpr std::size_t kMaxSpans = 1u << 15;

  explicit SpanLog(std::uint32_t tid) : tid_(tid) {}
  [[nodiscard]] std::uint32_t tid() const { return tid_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  /// Opens a span and returns its id (ids are unique across logs), or 0
  /// when the log is full.
  std::uint64_t open(const char* name, std::uint64_t parent,
                     std::uint64_t request);
  void close(std::uint64_t id);
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  std::uint32_t tid_;
  std::uint64_t seq_ = 0;
  std::uint64_t dropped_ = 0;
  std::vector<Span> spans_;
};

/// RAII span on an optional log: a null log records nothing, which is how
/// the untraced phases run the same code path.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, std::uint64_t parent,
             std::uint64_t request)
      : log_(log), id_(log ? log->open(name, parent, request) : 0) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] std::uint64_t id() const { return id_; }

 private:
  SpanLog* log_;
  std::uint64_t id_;
};

class SpanRecorder {
 public:
  /// A log for thread `tid`; call before the thread starts recording.
  SpanLog* log(std::uint32_t tid);
  [[nodiscard]] std::size_t span_count() const;
  [[nodiscard]] std::uint64_t dropped_count() const;
  /// Summed self time (duration minus child spans) per span name, seconds.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;
  /// Writes every span as a Chrome trace ("X" events, ids in args).
  [[nodiscard]] bool write_chrome_trace(const std::string& path) const;

 private:
  std::vector<std::unique_ptr<SpanLog>> logs_;
};

// ---------------------------------------------------------------------------
// What a workload run produces.

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Checks that are not per-operation (checker self-test, dispatch
  /// cross-check, linearizability): any false makes the run incorrect.
  std::map<std::string, bool> checks;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  /// Free-form readouts printed beside the metrics (sample counts, the
  /// paper-claim ratio, span file).
  std::map<std::string, std::string> notes;
};

/// Throughput and CPU cost per measurement window of a phase. The
/// end-to-end items_per_s and cpu_us_per_item are medians over windows, so
/// a burst of host noise in part of a run moves them little.
struct Windows {
  std::vector<double> items_per_s;
  std::vector<double> cpu_us_per_item;
};

/// Fills the end-to-end metrics of an untraced phase: window medians, the
/// median and tail latency (what the tail is goes into the notes as
/// `tail_meaning`) with the number of latency samples behind them, and the
/// set-up median.
void report_end_to_end(Result& r, const Windows& windows, double p50_us,
                       double tail_us, const std::string& tail_meaning,
                       std::size_t latency_samples, double setup_s);

/// Records a whole-run check; a name checked twice must pass both times.
inline void require(Result& r, const std::string& name, bool ok) {
  const auto [it, inserted] = r.checks.emplace(name, ok);
  if (!inserted) it->second = it->second && ok;
}

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 1.0;
  bool trace = false;
  std::string trace_path;  ///< Chrome trace output of a traced run
  unsigned nproc = 1;
};

/// Span count, per-name self times and the Chrome trace of a traced phase.
void report_trace(Result& r, const RunConfig& cfg, const SpanRecorder& recorder);

}  // namespace perfbench
