// Gate kernels for the compiled engine.
//
// Three shapes cover every gate a plan can contain:
//   * width-2 comparator: branchless min/max. In the batch runtime this is
//     the inner loop over the batch dimension; with SoA layout it compiles
//     to straight-line select/blend code the vectorizer handles across the
//     whole batch.
//   * width-p gate, 3 <= p <= kMaxFixedWidth: one in-register kernel per
//     width. For each lane it loads the gate's p rows into locals, runs the
//     gate and stores them back once. A comparator runs a fixed sorting
//     network (kFixedSort<P>, 3/5/9/12/16/19 compare-exchanges); a balancer
//     computes q + (i < r) with a division by the compile-time constant P.
//     Every tier runs these: the lane runner over a block of lanes, the
//     scalar tier over one lane.
//   * wider gates: the comparator runs its Batcher compare-exchange rows
//     (ExecutionPlan::ce_wires) in the lane runner and an insertion sort on
//     the scalar tier; the balancer runs wide_count_rows (a block of lanes)
//     or wide_count_kernel (one vector).
//
// Count kernels mirror the comparator kernels under the Figure 2
// isomorphism: a balancer's quiescent transfer function is
// out[i] = ceil((total - i) / p). Writing total = q*p + r (0 <= r < p),
// that is q + (i < r): one division per gate evaluation, not one per
// output slot. For p == 2 it reduces to the branchless pair
// (ceil(total/2), floor(total/2)). sim/count_sim, the reference the engine
// is tested against, splits each gate the same way over the network's gate
// list.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <utility>

#include "engine/batch.h"
#include "seq/sequence_props.h"

// The lane loops of the fixed-width kernels read and write P distinct rows
// of one Batch, which never overlap. Saying so lets the vectorizer skip the
// pairwise runtime alias checks it would otherwise need (and give up on
// for the wider gates).
#if defined(__clang__)
#define SCNET_ROWS_DO_NOT_ALIAS _Pragma("clang loop vectorize(assume_safety)")
#elif defined(__GNUC__)
#define SCNET_ROWS_DO_NOT_ALIAS _Pragma("GCC ivdep")
#else
#define SCNET_ROWS_DO_NOT_ALIAS
#endif

namespace scn::engine {

/// Width-2 comparator: writes max to `hi`, min to `lo` (descending gate
/// convention). Branchless for arithmetic T.
template <typename T>
inline void pair_sort_kernel(T& hi, T& lo) {
  const T a = hi;
  const T b = lo;
  hi = a > b ? a : b;
  lo = a > b ? b : a;
}

/// Width-2 balancer on quiescent counts: hi gets ceil(total/2), lo gets
/// floor(total/2). Counts are non-negative, so shifts are exact.
inline void pair_count_kernel(Count& hi, Count& lo) {
  const Count total = hi + lo;
  hi = (total + 1) >> 1;
  lo = total >> 1;
}

/// Sorts `vals` descending in place (insertion sort; vals.size() is a gate
/// width, i.e. small and bounded).
template <typename T>
inline void small_sort_descending(std::span<T> vals) {
  for (std::size_t i = 1; i < vals.size(); ++i) {
    T v = vals[i];
    std::size_t j = i;
    while (j > 0 && vals[j - 1] < v) {
      vals[j] = vals[j - 1];
      --j;
    }
    vals[j] = v;
  }
}

/// Width-p balancer on quiescent counts: given the gate's input counts in
/// `vals`, overwrites slot i with ceil((total - i) / p).
inline void wide_count_kernel(std::span<Count> vals) {
  Count total = 0;
  for (const Count c : vals) total += c;
  const auto p = static_cast<Count>(vals.size());
  const Count q = total / p;
  const Count r = total - q * p;
  for (std::size_t i = 0; i < vals.size(); ++i) {
    vals[i] = q + static_cast<Count>(static_cast<Count>(i) < r);
  }
}

/// Width-p balancer across lanes [begin, begin + n) of `batch`: listed wire
/// i of the gate is row `wires[i]`, p = wires.size() >= 2. `scratch` holds
/// at least 2n counts (per-lane quotient, then remainder). The division
/// pass is one scalar division per lane; the sum and write-back passes are
/// row-wise and vectorize across lanes.
inline void wide_count_rows(Batch<Count>& batch, std::span<const Wire> wires,
                            std::size_t begin, std::size_t n,
                            std::span<Count> scratch) {
  Count* quot = scratch.data();
  Count* rem = scratch.data() + n;
  const Count* first = batch.row(static_cast<std::size_t>(wires[0])).data();
  for (std::size_t j = 0; j < n; ++j) quot[j] = first[begin + j];
  for (std::size_t i = 1; i < wires.size(); ++i) {
    const Count* row =
        batch.row(static_cast<std::size_t>(wires[i])).data() + begin;
    for (std::size_t j = 0; j < n; ++j) quot[j] += row[j];
  }
  const auto p = static_cast<Count>(wires.size());
  for (std::size_t j = 0; j < n; ++j) {
    const Count q = quot[j] / p;
    rem[j] = quot[j] - q * p;
    quot[j] = q;
  }
  for (std::size_t i = 0; i < wires.size(); ++i) {
    Count* row = batch.row(static_cast<std::size_t>(wires[i])).data() + begin;
    const auto slot = static_cast<Count>(i);
    for (std::size_t j = 0; j < n; ++j) {
      row[j] = quot[j] + static_cast<Count>(slot < rem[j]);
    }
  }
}

/// Widest gate with an in-register kernel.
inline constexpr std::uint32_t kMaxFixedWidth = 8;

/// Size-optimal sorting networks for 3 <= P <= 8 (the sizes of Batcher's
/// odd-even merge sort, which is size-optimal up to 8 channels). They are
/// the comparator sequences of opt/optimal_lib's depth-optimal networks,
/// kept here as constants so every index is known at compile time. Each
/// (a, b) has a < b and leaves the larger value on a, so position i ends
/// up holding the i-th largest value: the gate's descending convention.
template <std::size_t P>
inline constexpr auto kFixedSort = [] {
  using Ce = std::pair<std::uint8_t, std::uint8_t>;
  if constexpr (P == 3) {
    return std::array<Ce, 3>{{{0, 2}, {0, 1}, {1, 2}}};
  } else if constexpr (P == 4) {
    return std::array<Ce, 5>{{{0, 1}, {2, 3}, {0, 2}, {1, 3}, {1, 2}}};
  } else if constexpr (P == 5) {
    return std::array<Ce, 9>{{{0, 3}, {1, 4}, {0, 2}, {1, 3}, {0, 1},
                              {2, 4}, {1, 2}, {3, 4}, {2, 3}}};
  } else if constexpr (P == 6) {
    return std::array<Ce, 12>{{{0, 5}, {1, 3}, {2, 4}, {1, 2}, {3, 4},
                               {0, 3}, {2, 5}, {0, 1}, {2, 3}, {4, 5},
                               {1, 2}, {3, 4}}};
  } else if constexpr (P == 7) {
    return std::array<Ce, 16>{{{0, 6}, {2, 3}, {4, 5}, {0, 2}, {1, 4},
                               {3, 6}, {0, 1}, {2, 5}, {3, 4}, {1, 2},
                               {4, 6}, {2, 3}, {4, 5}, {1, 2}, {3, 4},
                               {5, 6}}};
  } else {
    static_assert(P == 8, "fixed sorting networks cover widths 3..8");
    return std::array<Ce, 19>{{{0, 2}, {1, 3}, {4, 6}, {5, 7}, {0, 4},
                               {1, 5}, {2, 6}, {3, 7}, {0, 1}, {2, 3},
                               {4, 5}, {6, 7}, {2, 4}, {3, 5}, {1, 4},
                               {3, 6}, {1, 2}, {3, 4}, {5, 6}}};
  }
}();

/// The rows of one gate, in listed order, each already offset to the first
/// lane of the block.
template <std::size_t P>
using GateRows = std::array<Count*, P>;

namespace detail {

template <std::size_t P, std::size_t... K>
inline void fixed_sort(Count (&v)[P], std::index_sequence<K...>) {
  (pair_sort_kernel(v[kFixedSort<P>[K].first], v[kFixedSort<P>[K].second]),
   ...);
}

template <std::size_t P, std::size_t... I>
inline void sort_gate_rows(const GateRows<P>& rows, std::size_t n,
                           std::index_sequence<I...>) {
  SCNET_ROWS_DO_NOT_ALIAS
  for (std::size_t j = 0; j < n; ++j) {
    Count v[P] = {rows[I][j]...};
    fixed_sort(v, std::make_index_sequence<kFixedSort<P>.size()>{});
    ((rows[I][j] = v[I]), ...);
  }
}

template <std::size_t P, std::size_t... I>
inline void count_gate_rows(const GateRows<P>& rows, std::size_t n,
                            std::index_sequence<I...>) {
  constexpr auto p = static_cast<Count>(P);
  SCNET_ROWS_DO_NOT_ALIAS
  for (std::size_t j = 0; j < n; ++j) {
    const Count total = (rows[I][j] + ...);
    const Count q = total / p;
    const Count r = total - q * p;
    ((rows[I][j] = q + static_cast<Count>(static_cast<Count>(I) < r)), ...);
  }
}

}  // namespace detail

/// Width-P comparator over n lanes: lane j of rows[i] ends up holding the
/// i-th largest of the lane's P values.
template <std::size_t P>
inline void sort_gate_rows(const GateRows<P>& rows, std::size_t n) {
  detail::sort_gate_rows(rows, n, std::make_index_sequence<P>{});
}

/// Width-P balancer over n lanes: lane j of rows[i] becomes
/// ceil((total_j - i) / P), as q + (i < r) with signed Count division —
/// bit-identical to wide_count_kernel.
template <std::size_t P>
inline void count_gate_rows(const GateRows<P>& rows, std::size_t n) {
  detail::count_gate_rows(rows, n, std::make_index_sequence<P>{});
}

/// Calls f(std::integral_constant<std::size_t, P>{}) when 3 <= p <=
/// kMaxFixedWidth and returns true; returns false (f not called) for any
/// other width. One switch per gate picks the kernel instance.
template <typename F>
inline bool with_fixed_width(std::uint32_t p, F&& f) {
  switch (p) {
    case 3: f(std::integral_constant<std::size_t, 3>{}); return true;
    case 4: f(std::integral_constant<std::size_t, 4>{}); return true;
    case 5: f(std::integral_constant<std::size_t, 5>{}); return true;
    case 6: f(std::integral_constant<std::size_t, 6>{}); return true;
    case 7: f(std::integral_constant<std::size_t, 7>{}); return true;
    case 8: f(std::integral_constant<std::size_t, 8>{}); return true;
    default: return false;
  }
}

}  // namespace scn::engine

#undef SCNET_ROWS_DO_NOT_ALIAS
