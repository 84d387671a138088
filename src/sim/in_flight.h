// A striped count of operations in progress: the quiescence guard shared by
// ConcurrentNetwork and the sharded counting service.
//
// A single in-flight word would be bumped twice per token by every thread,
// one more hot cache line next to the balancers the guard protects. Here
// each thread brackets its operations on its own padded stripe, and count()
// sums the stripes. A begin() and its end() may run on different threads:
// stripes are unsigned and wrap, so the sum is still exact whenever no
// operation is in progress, which is the only state the guard decides on.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

namespace scn {

class InFlight {
 public:
  static constexpr std::size_t kStripes = 16;

  void begin() { stripe().fetch_add(1, std::memory_order_acq_rel); }
  void end() { stripe().fetch_sub(1, std::memory_order_release); }

  /// Operations begun and not yet ended. Exact in quiescent states; while
  /// operations run it is a snapshot that may miss the newest ones.
  [[nodiscard]] std::uint64_t count() const {
    std::uint64_t sum = 0;
    for (const Stripe& s : stripes_) {
      sum += s.value.load(std::memory_order_acquire);
    }
    return sum;
  }

 private:
  struct alignas(64) Stripe {
    std::atomic<std::uint64_t> value{0};
  };

  /// The calling thread's stripe. Threads take stripes round-robin in the
  /// order they first bracket an operation, so up to kStripes threads never
  /// share one.
  std::atomic<std::uint64_t>& stripe() {
    static std::atomic<std::size_t> next_thread{0};
    thread_local const std::size_t index =
        next_thread.fetch_add(1, std::memory_order_relaxed) % kStripes;
    return stripes_[index].value;
  }

  std::array<Stripe, kStripes> stripes_{};
};

}  // namespace scn
