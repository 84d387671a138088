// The fixed-width gate kernels (engine/kernels.h): each width's sorting
// network sorts every 0-1 input, each kernel agrees lane by lane with the
// variable-width kernels and the count simulator, and a plan mixing
// fixed-width gates with wider fallback gates runs bit-identically on every
// backend.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <numeric>
#include <random>
#include <span>
#include <vector>

#include "engine/backend.h"
#include "engine/batch.h"
#include "engine/execution_plan.h"
#include "engine/kernels.h"
#include "opt/optimal_lib.h"
#include "runtime/runtime.h"
#include "seq/generators.h"
#include "sim/comparator_sim.h"
#include "sim/count_sim.h"

namespace scn {
namespace {

constexpr Count kMin = std::numeric_limits<Count>::min();
constexpr Count kMax = std::numeric_limits<Count>::max();

// Calls f(integral_constant<P>) for every fixed width.
template <typename F>
void for_each_fixed_width(F f) {
  for (std::uint32_t p = 3; p <= engine::kMaxFixedWidth; ++p) {
    ASSERT_TRUE(engine::with_fixed_width(p, f)) << "p=" << p;
  }
}

TEST(FixedSortNetworks, SizesAndDescendingOrientation) {
  const std::size_t sizes[] = {3, 5, 9, 12, 16, 19};
  for_each_fixed_width([&](auto p) {
    constexpr std::size_t P = decltype(p)::value;
    EXPECT_EQ(engine::kFixedSort<P>.size(), sizes[P - 3]) << "P=" << P;
    for (const auto& [a, b] : engine::kFixedSort<P>) {
      EXPECT_LT(a, b) << "P=" << P;
      EXPECT_LT(b, P) << "P=" << P;
    }
  });
  EXPECT_FALSE(engine::with_fixed_width(2, [](auto) {}));
  EXPECT_FALSE(engine::with_fixed_width(9, [](auto) {}));
}

TEST(FixedSortNetworks, SameComparatorsAsTheOptimalLibrary) {
  // opt/optimal_lib writes each ascending comparator (i, j) as the gate
  // {j, i}; the kernel table keeps (i, j) and sends the larger value to i.
  for_each_fixed_width([](auto p) {
    constexpr std::size_t P = decltype(p)::value;
    const Network lib = make_optimal_network(P);
    ASSERT_EQ(lib.gate_count(), engine::kFixedSort<P>.size()) << "P=" << P;
    for (std::size_t k = 0; k < lib.gate_count(); ++k) {
      const auto ws = lib.gate_wires(k);
      ASSERT_EQ(ws.size(), 2u);
      EXPECT_EQ(engine::kFixedSort<P>[k].first, ws[1]) << "P=" << P;
      EXPECT_EQ(engine::kFixedSort<P>[k].second, ws[0]) << "P=" << P;
    }
  });
}

TEST(FixedSortNetworks, SortEveryZeroOneInput) {
  // The 0-1 principle: a comparator network sorts every input iff it sorts
  // all 2^P inputs of zeros and ones.
  for_each_fixed_width([](auto p) {
    constexpr std::size_t P = decltype(p)::value;
    for (std::uint32_t bits = 0; bits < (1u << P); ++bits) {
      std::vector<Count> v(P);
      for (std::size_t i = 0; i < P; ++i) v[i] = (bits >> i) & 1u;
      engine::GateRows<P> rows;
      for (std::size_t i = 0; i < P; ++i) rows[i] = &v[i];
      engine::sort_gate_rows(rows, 1);
      ASSERT_TRUE(std::is_sorted(v.rbegin(), v.rend()))
          << "P=" << P << " input bits " << bits;
      ASSERT_EQ(std::count(v.begin(), v.end(), 1), std::popcount(bits))
          << "P=" << P << " input bits " << bits;
    }
  });
}

// A batch with P + 3 rows whose gate rows are a shuffled subset, so a
// kernel must follow the listed order and leave the other rows alone.
struct GateBatch {
  engine::Batch<Count> batch;
  std::vector<Wire> wires;
  std::size_t begin = 0;
  std::size_t n = 0;

  GateBatch(std::size_t p, std::size_t lanes, std::mt19937_64& rng)
      : batch(p + 3, lanes + 7), begin(5), n(lanes) {
    std::vector<Wire> all(p + 3);
    std::iota(all.begin(), all.end(), Wire{0});
    std::shuffle(all.begin(), all.end(), rng);
    wires.assign(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(p));
    for (std::size_t w = 0; w < batch.width(); ++w) {
      for (std::size_t j = 0; j < batch.batch_size(); ++j) {
        batch.at(w, j) = -7;  // sentinel
      }
    }
  }

  void set_lane(std::size_t j, const std::vector<Count>& vals) {
    for (std::size_t i = 0; i < wires.size(); ++i) {
      batch.at(static_cast<std::size_t>(wires[i]), begin + j) = vals[i];
    }
  }

  std::vector<Count> lane(std::size_t j) const {
    std::vector<Count> out;
    for (const Wire w : wires) {
      out.push_back(batch.at(static_cast<std::size_t>(w), begin + j));
    }
    return out;
  }

  template <std::size_t P>
  engine::GateRows<P> rows() {
    engine::GateRows<P> r;
    for (std::size_t i = 0; i < P; ++i) {
      r[i] = batch.row(static_cast<std::size_t>(wires[i])).data() + begin;
    }
    return r;
  }

  void expect_rest_untouched() const {
    for (std::size_t w = 0; w < batch.width(); ++w) {
      const bool listed = std::find(wires.begin(), wires.end(),
                                    static_cast<Wire>(w)) != wires.end();
      for (std::size_t j = 0; j < batch.batch_size(); ++j) {
        if (listed && j >= begin && j < begin + n) continue;
        EXPECT_EQ(batch.at(w, j), -7) << "row " << w << " lane " << j;
      }
    }
  }
};

TEST(FixedKernels, SortMatchesInsertionSortWithTiesAndExtremes) {
  std::mt19937_64 rng(11);
  const Count pool[] = {kMin, kMin + 1, -3, -1, 0, 0, 1, 5, kMax - 1, kMax};
  for_each_fixed_width([&](auto p) {
    constexpr std::size_t P = decltype(p)::value;
    for (const std::size_t lanes : {1u, 7u, 255u, 257u}) {
      GateBatch gb(P, lanes, rng);
      std::vector<std::vector<Count>> inputs(lanes, std::vector<Count>(P));
      for (std::size_t j = 0; j < lanes; ++j) {
        for (Count& v : inputs[j]) {
          // Half the lanes draw from a small pool (ties and extremes), the
          // rest from the full range.
          v = j % 2 == 0 ? pool[rng() % std::size(pool)]
                         : static_cast<Count>(rng());
        }
        gb.set_lane(j, inputs[j]);
      }
      engine::sort_gate_rows(gb.rows<P>(), lanes);
      for (std::size_t j = 0; j < lanes; ++j) {
        std::vector<Count> expect = inputs[j];
        engine::small_sort_descending(std::span<Count>(expect));
        ASSERT_EQ(gb.lane(j), expect) << "P=" << P << " lane " << j;
      }
      gb.expect_rest_untouched();
    }
  });
}

TEST(FixedKernels, CountMatchesWideCountKernelAndCountSim) {
  std::mt19937_64 rng(12);
  for_each_fixed_width([&](auto p) {
    constexpr std::size_t P = decltype(p)::value;
    for (const std::size_t lanes : {1u, 7u, 255u, 257u}) {
      GateBatch gb(P, lanes, rng);
      std::vector<std::vector<Count>> inputs(lanes, std::vector<Count>(P, 0));
      for (std::size_t j = 0; j < lanes; ++j) {
        std::vector<Count>& in = inputs[j];
        switch (j % 5) {
          case 0:  // token counts, as the count simulator takes them
          case 1:
            for (Count& v : in) v = static_cast<Count>(rng() % 1000);
            break;
          case 2:  // negative totals: signed Count semantics
            for (Count& v : in) v = -static_cast<Count>(rng() % 1000);
            break;
          case 3:  // mixed signs
            for (Count& v : in) {
              v = static_cast<Count>(rng() % 2001) - 1000;
            }
            break;
          default:  // one extreme value, the rest zero: no overflow
            in[rng() % P] = rng() % 2 == 0 ? kMax : kMin;
            break;
        }
        gb.set_lane(j, in);
      }
      engine::count_gate_rows(gb.rows<P>(), lanes);
      for (std::size_t j = 0; j < lanes; ++j) {
        std::vector<Count> expect = inputs[j];
        engine::wide_count_kernel(expect);
        ASSERT_EQ(gb.lane(j), expect) << "P=" << P << " lane " << j;
        // The simulator takes token counts only (INT64_MAX included).
        if (std::all_of(inputs[j].begin(), inputs[j].end(),
                        [](Count v) { return v >= 0; })) {
          ASSERT_EQ(gb.lane(j), balancer_outputs(inputs[j]))
              << "P=" << P << " lane " << j;
        }
      }
      gb.expect_rest_untouched();
    }
  });
}

// Three layers over 48 wires: every gate width in {3, 5, 7, 8, 9, 16} twice,
// on shuffled wires, then width-2 gates and one more width-9 gate. The
// width-9 and width-16 gates run the fallback paths.
Network mixed_width_network(std::mt19937_64& rng) {
  const std::size_t widths[] = {3, 5, 7, 8, 9, 16};
  constexpr std::size_t kWidth = 48;
  NetworkBuilder builder(kWidth);
  std::vector<Wire> wires(kWidth);
  std::iota(wires.begin(), wires.end(), Wire{0});
  for (int layer = 0; layer < 2; ++layer) {
    std::shuffle(wires.begin(), wires.end(), rng);
    std::size_t at = 0;
    for (const std::size_t p : widths) {
      builder.add_balancer(std::span<const Wire>(wires.data() + at, p));
      at += p;
    }
  }
  std::shuffle(wires.begin(), wires.end(), rng);
  for (std::size_t i = 0; i + 1 < 30; i += 2) {
    builder.add_balancer({wires[i], wires[i + 1]});
  }
  builder.add_balancer(std::span<const Wire>(wires.data() + 30, 9));
  std::shuffle(wires.begin(), wires.end(), rng);
  return std::move(builder).finish(wires);
}

TEST(FixedKernels, MixedWidthPlanBitIdenticalOnEveryBackend) {
  std::mt19937_64 rng(13);
  const Network net = mixed_width_network(rng);
  const ExecutionPlan plan = compile_plan(net);
  ASSERT_EQ(plan.max_wide_width(), 16u);
  Runtime rt;
  for (const std::size_t lanes : {1u, 7u, 255u, 257u, 1000u}) {
    std::vector<std::vector<Count>> inputs;
    for (std::size_t j = 0; j < lanes; ++j) {
      inputs.push_back(random_count_vector(
          rng, net.width(), 1 + static_cast<Count>(rng() % 5000)));
    }
    for (const EngineBackend b : engine::registered_backends()) {
      const auto sorted =
          engine::run(plan, Semantics::kComparator, inputs, rt, b);
      const auto counts =
          engine::run(plan, Semantics::kBalancer, inputs, rt, b);
      for (std::size_t j = 0; j < lanes; ++j) {
        ASSERT_EQ(sorted[j], comparator_output_counts(net, inputs[j]))
            << to_string(b) << " sort, " << lanes << " lanes, lane " << j;
        ASSERT_EQ(counts[j], output_counts(net, inputs[j]))
            << to_string(b) << " counts, " << lanes << " lanes, lane " << j;
      }
    }
  }
}

}  // namespace
}  // namespace scn
