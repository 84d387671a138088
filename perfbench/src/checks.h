// Exact output checks. They run outside the timed regions and feed the
// `failed` count; self_test() proves each one rejects a known-bad output,
// so a checker that silently accepts everything cannot report zero failures.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "seq/sequence_props.h"

namespace perfbench {

/// True when `out` is `in` sorted into the engine's logical output order
/// (descending): out is non-increasing and has in's multiset fingerprint.
[[nodiscard]] bool sort_output_ok(std::span<const scn::Count> in,
                                  std::span<const scn::Count> out);

/// True when `out` is the unique step sequence carrying in's token total:
/// out[i] = ceil((total - i) / width) for every logical position i.
[[nodiscard]] bool count_output_ok(std::span<const scn::Count> in,
                                   std::span<const scn::Count> out);

/// A per-thread record of counter values handed out: a bitmap grown on
/// demand, plus the duplicates seen inside this thread.
class ValueLog {
 public:
  /// Values at or above this are counted as failures without being
  /// stored, so a corrupt value cannot blow up the bitmap.
  static constexpr std::uint64_t kMaxValue = std::uint64_t{1} << 30;

  void add(std::uint64_t value) {
    if (value >= kMaxValue) {
      ++duplicates_;
      return;
    }
    const std::uint64_t word = value >> 6;
    if (word >= bits_.size()) grow(word);
    const std::uint64_t bit = std::uint64_t{1} << (value & 63);
    duplicates_ += (bits_[word] & bit) != 0;
    bits_[word] |= bit;
  }
  [[nodiscard]] const std::vector<std::uint64_t>& bits() const { return bits_; }
  /// Values this log rejected on its own: repeats and values >= kMaxValue.
  [[nodiscard]] std::uint64_t duplicates() const { return duplicates_; }

 private:
  void grow(std::uint64_t word);
  std::vector<std::uint64_t> bits_;
  std::uint64_t duplicates_ = 0;
};

/// Values that break "every value unique and the values are exactly
/// [0, n)": duplicates (within or across logs) + values >= n + values in
/// [0, n) nobody received. 0 means the check passed.
[[nodiscard]] std::uint64_t counter_value_failures(
    std::span<const ValueLog> logs, std::uint64_t n);

/// Feeds every checker a good output and known-bad ones (a swapped pair,
/// a changed key, an off-by-one step, a duplicated and a missing counter
/// value); true when each good case passes and each bad case fails.
[[nodiscard]] bool self_test();

}  // namespace perfbench
