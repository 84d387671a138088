// Gate kernels for the compiled engine.
//
// Two shapes cover every gate a plan can contain:
//   * width-2 comparator: branchless min/max. In the batch runtime this is
//     the inner loop over the batch dimension; with SoA layout it compiles
//     to straight-line select/blend code the vectorizer handles across the
//     whole batch.
//   * width-p comparator (p > 2): insertion sort, descending, over a
//     caller-provided scratch span. Gate widths are bounded by the
//     construction (the paper's balancer size), so insertion sort beats
//     std::sort here and never allocates.
//
// Count kernels mirror the comparator kernels under the Figure 2
// isomorphism: a balancer's quiescent transfer function is
// out[i] = ceil((total - i) / p). Writing total = q*p + r (0 <= r < p),
// that is q + (i < r): one division per gate evaluation, not one per
// output slot. For p == 2 it reduces to the branchless pair
// (ceil(total/2), floor(total/2)). Every tier — scalar, batch, threaded,
// simd — runs a wide balancer through wide_count_kernel (one vector) or
// wide_count_rows (a block of lanes); sim/count_sim keeps the per-slot
// formula as the independent reference.
#pragma once

#include <cstddef>
#include <span>

#include "engine/batch.h"
#include "seq/sequence_props.h"

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

}  // namespace scn::engine
