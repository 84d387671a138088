#include "sim/count_sim.h"

#include <cassert>

namespace scn {
namespace {

// Slot i of a width-p balancer holding `total` tokens gets
// ceil((total - i) / p) = q + (i < r), where total = q*p + r. No
// intermediate exceeds `total`, so a total near INT64_MAX cannot overflow.
template <typename Set>
void balance(Count total, std::size_t p, Set set) {
  const auto width = static_cast<Count>(p);
  const Count q = total / width;
  const Count r = total % width;
  for (std::size_t i = 0; i < p; ++i) {
    set(i, q + static_cast<Count>(static_cast<Count>(i) < r));
  }
}

}  // namespace

std::vector<Count> balancer_outputs(std::span<const Count> in) {
  Count total = 0;
  for (const Count c : in) {
    assert(c >= 0);
    total += c;
  }
  std::vector<Count> out(in.size());
  balance(total, in.size(), [&](std::size_t i, Count v) { out[i] = v; });
  return out;
}

std::vector<Count> propagate_counts(const Network& net,
                                    std::span<const Count> input) {
  assert(input.size() == net.width());
  std::vector<Count> counts(input.begin(), input.end());
  for (const Gate& g : net.gates()) {
    const auto ws = net.gate_wires(g);
    Count total = 0;
    for (const Wire w : ws) total += counts[static_cast<std::size_t>(w)];
    balance(total, ws.size(), [&](std::size_t i, Count v) {
      counts[static_cast<std::size_t>(ws[i])] = v;
    });
  }
  return counts;
}

std::vector<Count> output_counts(const Network& net,
                                 std::span<const Count> input) {
  const std::vector<Count> phys = propagate_counts(net, input);
  std::vector<Count> out(net.width());
  const auto order = net.output_order();
  for (std::size_t i = 0; i < net.width(); ++i) {
    out[i] = phys[static_cast<std::size_t>(order[i])];
  }
  return out;
}

bool counts_to_step(const Network& net, std::span<const Count> input) {
  return has_step_property(output_counts(net, input));
}

}  // namespace scn
