#include "opt/passes.h"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>

#include "opt/expand.h"
#include "verify/fast_zero_one.h"

namespace scn {
namespace {

/// Rebuilds `net` keeping only gates with keep[gi] != 0, in the original
/// relative order. The builder recomputes ASAP layers, so removal compacts
/// the survivors; depth can only shrink.
Network rebuild_filtered(const Network& net, const std::vector<char>& keep) {
  NetworkBuilder b(net.width());
  for (std::size_t gi = 0; gi < net.gate_count(); ++gi) {
    if (keep[gi]) b.add_balancer(net.gate_wires(gi));
  }
  return std::move(b).finish(
      {net.output_order().begin(), net.output_order().end()});
}

/// Stable counting sort of `items` by key(item) in [0, buckets).
template <class Key>
std::vector<std::uint32_t> counting_sort(std::span<const std::uint32_t> items,
                                         std::size_t buckets, Key key) {
  std::vector<std::uint32_t> start(buckets + 1, 0);
  for (const std::uint32_t x : items) start[key(x) + 1] += 1;
  for (std::size_t b = 0; b < buckets; ++b) start[b + 1] += start[b];
  std::vector<std::uint32_t> out(items.size());
  for (const std::uint32_t x : items) out[start[key(x)]++] = x;
  return out;
}

class RelayerPass final : public Pass {
 public:
  [[nodiscard]] std::string_view name() const override { return "relayer"; }

  [[nodiscard]] bool applicable(const Network&,
                                const PassOptions&) const override {
    return true;
  }

  [[nodiscard]] std::optional<Network> rewrite(
      const Network& net, const PassOptions&, PassStats&) const override {
    // Canonical order is (layer, minimum wire). Within one ASAP layer gates
    // touch disjoint wires, so their minimum wires are distinct and the
    // order is total; layer-major order keeps every cross-layer wire
    // dependency, so the layers themselves never change.
    const auto gates = net.gates();
    std::vector<std::uint32_t> min_wire(gates.size());
    bool canonical = true;
    for (std::size_t gi = 0; gi < gates.size(); ++gi) {
      const auto ws = net.gate_wires(gates[gi]);
      min_wire[gi] = static_cast<std::uint32_t>(
          *std::min_element(ws.begin(), ws.end()));
      canonical = canonical &&
                  (gi == 0 || gates[gi].layer > gates[gi - 1].layer ||
                   (gates[gi].layer == gates[gi - 1].layer &&
                    min_wire[gi] > min_wire[gi - 1]));
    }
    if (canonical) return std::nullopt;
    // Radix sort on (layer, minimum wire): bucket by minimum wire, then
    // stably by layer.
    std::vector<std::uint32_t> order(gates.size());
    std::iota(order.begin(), order.end(), std::uint32_t{0});
    order = counting_sort(order, net.width(),
                          [&](std::uint32_t gi) { return min_wire[gi]; });
    order = counting_sort(order, net.depth(), [&](std::uint32_t gi) {
      return gates[gi].layer - 1;
    });
    return net.permuted(order);
  }
};

class DedupAdjacentPass final : public Pass {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "dedup-adjacent";
  }

  [[nodiscard]] bool applicable(const Network& net,
                                const PassOptions&) const override {
    return net.gate_count() >= 2;
  }

  [[nodiscard]] std::optional<Network> rewrite(
      const Network& net, const PassOptions&, PassStats&) const override {
    constexpr std::int64_t kNone = -1;
    std::vector<std::int64_t> last_toucher(net.width(), kNone);
    std::vector<char> keep(net.gate_count(), 1);
    bool dropped = false;
    for (std::size_t gi = 0; gi < net.gate_count(); ++gi) {
      const auto ws = net.gate_wires(gi);
      const std::int64_t prev =
          last_toucher[static_cast<std::size_t>(ws.front())];
      bool duplicate = prev != kNone;
      for (const Wire w : ws) {
        duplicate =
            duplicate && last_toucher[static_cast<std::size_t>(w)] == prev;
      }
      if (duplicate) {
        const auto prev_ws = net.gate_wires(static_cast<std::size_t>(prev));
        duplicate = std::equal(ws.begin(), ws.end(), prev_ws.begin(),
                               prev_ws.end());
      }
      if (duplicate) {
        // Sorting twice is sorting once, and the quiescent balancer output
        // depends only on the gate total, which the first copy preserved.
        // Dropped gates do not update last_toucher, so runs of three or
        // more identical gates collapse to one.
        keep[gi] = 0;
        dropped = true;
        continue;
      }
      for (const Wire w : ws) {
        last_toucher[static_cast<std::size_t>(w)] =
            static_cast<std::int64_t>(gi);
      }
    }
    if (!dropped) return std::nullopt;
    return rebuild_filtered(net, keep);
  }
};

class ZeroOneElimPass final : public Pass {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "zero-one-elim";
  }

  [[nodiscard]] bool applicable(const Network& net,
                                const PassOptions& opts) const override {
    return opts.semantics == Semantics::kComparator &&
           net.gate_count() > 0 &&
           net.width() <= std::min<std::size_t>(opts.zero_one_width_cap, 26);
  }

  [[nodiscard]] std::optional<Network> rewrite(
      const Network& net, const PassOptions&, PassStats&) const override {
    // A gate that is the identity on every 0-1 input changes no wire on any
    // input, so all such gates are simultaneously removable: deleting one
    // leaves every evaluation trace bit-identical, keeping the rest noops.
    const std::vector<bool> noop = zero_one_noop_gates(net);
    if (std::find(noop.begin(), noop.end(), true) == noop.end()) {
      return std::nullopt;
    }
    std::vector<char> keep(net.gate_count(), 1);
    for (std::size_t gi = 0; gi < noop.size(); ++gi) {
      if (noop[gi]) keep[gi] = 0;
    }
    return rebuild_filtered(net, keep);
  }
};

class ExpandWideGatesPass final : public Pass {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "expand-wide-gates";
  }

  [[nodiscard]] bool applicable(const Network& net,
                                const PassOptions& opts) const override {
    return opts.semantics == Semantics::kComparator &&
           net.max_gate_width() > 2;
  }

  [[nodiscard]] bool never_increases_depth() const override { return false; }

  [[nodiscard]] std::optional<Network> rewrite(
      const Network& net, const PassOptions&, PassStats&) const override {
    // applicable() admits only networks with a gate wider than 2, so the
    // expansion always rewrites.
    NetworkBuilder b(net.width());
    std::vector<Wire> ce;
    for (std::size_t gi = 0; gi < net.gate_count(); ++gi) {
      const auto ws = net.gate_wires(gi);
      if (ws.size() == 2) {
        b.add_balancer(ws);
        continue;
      }
      ce.clear();
      append_wide_gate_ce(ws, ce);
      for (std::size_t k = 0; k + 1 < ce.size(); k += 2) {
        b.add_balancer({ce[k], ce[k + 1]});
      }
    }
    return std::move(b).finish(
        {net.output_order().begin(), net.output_order().end()});
  }
};

}  // namespace

std::unique_ptr<Pass> make_relayer_pass() {
  return std::make_unique<RelayerPass>();
}

std::unique_ptr<Pass> make_dedup_adjacent_pass() {
  return std::make_unique<DedupAdjacentPass>();
}

std::unique_ptr<Pass> make_zero_one_elim_pass() {
  return std::make_unique<ZeroOneElimPass>();
}

std::unique_ptr<Pass> make_expand_wide_gates_pass() {
  return std::make_unique<ExpandWideGatesPass>();
}

}  // namespace scn
