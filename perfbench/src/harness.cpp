#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cmath>
#include <ctime>
#include <fstream>
#include <unordered_map>

namespace perfbench {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t state = seed ^ (stream * 0xD1B54A32D192ED03ull);
  for (auto& word : s_) word = splitmix64(state);
}

std::uint64_t Rng::next() {
  const auto rotl = [](std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  };
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::below(std::uint64_t n) {
  // Multiply-shift on the high 32 bits: n stays far below 2^32 here, and
  // the bias is below anything a workload mix could show.
  return ((next() >> 32) * n) >> 32;
}

double Rng::unit() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

namespace {

double to_seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

}  // namespace

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return to_seconds(usage.ru_utime) + to_seconds(usage.ru_stime);
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const auto n = samples.size();
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n) - 1;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(rank),
                   samples.end());
  return samples[rank];
}

double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

double tail_mean(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const auto n = samples.size();
  const auto cut = std::min(
      n - 1, static_cast<std::size_t>(q * static_cast<double>(n)));
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(cut),
                   samples.end());
  double sum = 0;
  for (std::size_t i = cut; i < n; ++i) sum += samples[i];
  return sum / static_cast<double>(n - cut);
}

void report_end_to_end(Result& r, const Windows& windows, double p50_us,
                       double tail_us, const std::string& tail_meaning,
                       std::size_t latency_samples, double setup_s) {
  r.end_to_end["items_per_s"] = {median(windows.items_per_s), "items/s"};
  r.end_to_end["latency_p50_us"] = {p50_us, "us"};
  r.end_to_end["latency_tail_us"] = {tail_us, "us"};
  r.end_to_end["cpu_us_per_item"] = {median(windows.cpu_us_per_item), "us"};
  r.end_to_end["setup_s"] = {setup_s, "s"};
  r.per_layer["bench.latency_samples"] = {
      static_cast<double>(latency_samples), "count"};
  r.notes["latency_tail"] = tail_meaning;
  char spread[64];
  std::snprintf(spread, sizeof spread, "%zu windows, p10 %.6g, p90 %.6g",
                windows.items_per_s.size(), quantile(windows.items_per_s, 0.1),
                quantile(windows.items_per_s, 0.9));
  r.notes["items_per_s.windows"] = spread;
}

void report_trace(Result& r, const RunConfig& cfg, const SpanRecorder& recorder) {
  r.notes["spans"] = std::to_string(recorder.span_count()) + " kept, " +
                     std::to_string(recorder.dropped_count()) + " dropped";
  for (const auto& [name, self] : recorder.self_seconds()) {
    r.notes["self_s." + name] = std::to_string(self);
  }
  if (!cfg.trace_path.empty()) {
    require(r, "span_file_written", recorder.write_chrome_trace(cfg.trace_path));
  }
}

std::uint64_t SpanLog::open(const char* name, std::uint64_t parent,
                            std::uint64_t request) {
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return 0;
  }
  const std::uint64_t id = (static_cast<std::uint64_t>(tid_ + 1) << 40) | ++seq_;
  spans_.push_back(Span{name, now_ns(), 0, id, parent, request});
  return id;
}

void SpanLog::close(std::uint64_t id) {
  if (id == 0) return;
  const std::int64_t end = now_ns();
  // Spans close in LIFO order on one thread, so the match is at the back.
  for (auto it = spans_.rbegin(); it != spans_.rend(); ++it) {
    if (it->id == id) {
      it->end_ns = end;
      return;
    }
  }
}

SpanLog* SpanRecorder::log(std::uint32_t tid) {
  logs_.push_back(std::make_unique<SpanLog>(tid));
  return logs_.back().get();
}

std::size_t SpanRecorder::span_count() const {
  std::size_t n = 0;
  for (const auto& log : logs_) n += log->spans().size();
  return n;
}

std::uint64_t SpanRecorder::dropped_count() const {
  std::uint64_t n = 0;
  for (const auto& log : logs_) n += log->dropped();
  return n;
}

std::map<std::string, double> SpanRecorder::self_seconds() const {
  std::unordered_map<std::uint64_t, const Span*> by_id;
  for (const auto& log : logs_) {
    for (const Span& s : log->spans()) by_id.emplace(s.id, &s);
  }
  std::unordered_map<std::uint64_t, std::int64_t> child_ns;
  for (const auto& [id, s] : by_id) {
    if (s->parent != 0) child_ns[s->parent] += s->end_ns - s->start_ns;
  }
  std::map<std::string, double> self;
  for (const auto& [id, s] : by_id) {
    const auto it = child_ns.find(id);
    const std::int64_t children = it == child_ns.end() ? 0 : it->second;
    self[s->name] += static_cast<double>(s->end_ns - s->start_ns - children) * 1e-9;
  }
  return self;
}

bool SpanRecorder::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::int64_t origin = INT64_MAX;
  for (const auto& log : logs_) {
    for (const Span& s : log->spans()) origin = std::min(origin, s.start_ns);
  }
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  for (const auto& log : logs_) {
    for (const Span& s : log->spans()) {
      out << (first ? "\n" : ",\n");
      first = false;
      out << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
          << log->tid() << ",\"ts\":"
          << static_cast<double>(s.start_ns - origin) * 1e-3
          << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) * 1e-3
          << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
          << ",\"request\":" << s.request << "}}";
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
