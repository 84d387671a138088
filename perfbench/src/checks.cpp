#include "checks.h"

#include <algorithm>
#include <bit>
#include <numeric>

#include "harness.h"

namespace perfbench {

namespace {

struct Fingerprint {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  bool operator==(const Fingerprint&) const = default;
};

// Order-independent multiset fingerprint: two wrapping sums of independent
// mixes of each key.
Fingerprint fingerprint(std::span<const scn::Count> keys) {
  Fingerprint f;
  for (const scn::Count key : keys) {
    std::uint64_t s = static_cast<std::uint64_t>(key);
    f.a += splitmix64(s);
    s ^= 0x5851F42D4C957F2Dull;
    f.b += splitmix64(s);
  }
  return f;
}

}  // namespace

bool sort_output_ok(std::span<const scn::Count> in,
                    std::span<const scn::Count> out) {
  if (in.size() != out.size()) return false;
  if (!std::is_sorted(out.begin(), out.end(), std::greater<>())) return false;
  return fingerprint(in) == fingerprint(out);
}

bool count_output_ok(std::span<const scn::Count> in,
                     std::span<const scn::Count> out) {
  if (in.size() != out.size() || in.empty()) return false;
  const scn::Count total = std::accumulate(in.begin(), in.end(), scn::Count{0});
  const auto width = static_cast<scn::Count>(in.size());
  for (scn::Count i = 0; i < width; ++i) {
    const scn::Count expected = total > i ? (total - i + width - 1) / width : 0;
    if (out[static_cast<std::size_t>(i)] != expected) return false;
  }
  return true;
}

void ValueLog::grow(std::uint64_t word) {
  bits_.resize(std::max<std::uint64_t>(word + 1, bits_.size() * 2), 0);
}

std::uint64_t counter_value_failures(std::span<const ValueLog> logs,
                                     std::uint64_t n) {
  std::vector<std::uint64_t> seen((n + 63) / 64, 0);
  std::uint64_t failures = 0;
  for (const ValueLog& log : logs) {
    failures += log.duplicates();
    const auto& bits = log.bits();
    for (std::size_t w = 0; w < bits.size(); ++w) {
      std::uint64_t word = bits[w];
      if (w >= seen.size()) {
        failures += static_cast<std::uint64_t>(std::popcount(word));
        continue;
      }
      const std::uint64_t first = static_cast<std::uint64_t>(w) * 64;
      if (first + 64 > n) {  // the partial last word: values >= n
        const std::uint64_t keep = n - first;
        const std::uint64_t mask = (std::uint64_t{1} << keep) - 1;
        failures += static_cast<std::uint64_t>(std::popcount(word & ~mask));
        word &= mask;
      }
      failures += static_cast<std::uint64_t>(std::popcount(seen[w] & word));
      seen[w] |= word;
    }
  }
  std::uint64_t present = 0;
  for (const std::uint64_t word : seen) {
    present += static_cast<std::uint64_t>(std::popcount(word));
  }
  return failures + (n - present);
}

bool self_test() {
  bool ok = true;
  const auto expect = [&ok](bool got, bool want) { ok = ok && got == want; };

  // Sorting: a good output, one swapped adjacent pair, one changed key.
  const std::vector<scn::Count> in = {3, 9, 1, 7, 7, 0, 5, 2};
  std::vector<scn::Count> good = in;
  std::sort(good.begin(), good.end(), std::greater<>());
  expect(sort_output_ok(in, good), true);
  std::vector<scn::Count> swapped = good;
  std::swap(swapped[2], swapped[3]);
  expect(sort_output_ok(in, swapped), false);
  std::vector<scn::Count> changed = good;
  changed[4] = changed[5];  // still sorted, wrong multiset
  expect(sort_output_ok(in, changed), false);

  // Counting: total 11 over width 4 is the step sequence 3,3,3,2.
  const std::vector<scn::Count> tokens = {5, 0, 4, 2};
  expect(count_output_ok(tokens, std::vector<scn::Count>{3, 3, 3, 2}), true);
  expect(count_output_ok(tokens, std::vector<scn::Count>{3, 3, 2, 3}), false);
  expect(count_output_ok(tokens, std::vector<scn::Count>{4, 3, 3, 2}), false);

  // Counter values: exact, duplicated+missing, missing+out of range, and
  // a duplicate split across two threads' logs.
  const auto failures = [](std::vector<std::vector<std::uint64_t>> per_thread,
                           std::uint64_t n) {
    std::vector<ValueLog> logs(per_thread.size());
    for (std::size_t t = 0; t < per_thread.size(); ++t) {
      for (const std::uint64_t v : per_thread[t]) logs[t].add(v);
    }
    return counter_value_failures(logs, n);
  };
  expect(failures({{0, 2, 4}, {1, 3, 5}}, 6) == 0, true);
  expect(failures({{0, 1, 1, 3}}, 4) == 0, false);
  expect(failures({{0, 1, 3}}, 3) == 0, false);
  expect(failures({{0, 1, 2}, {2, 3}}, 5) == 0, false);
  expect(failures({{0, 1, 2, 3, 4, 5, 6, 7, 8}}, 130) == 0, false);
  return ok;
}

}  // namespace perfbench
