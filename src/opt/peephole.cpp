// "peephole-optimal": rewrite small sorting sub-blocks to the depth-optimal
// templates of opt/optimal_lib.h.
//
// Detection is structural, by wire-cone analysis. Gates are scanned in
// topological order while a union-find over wires grows components; a
// component is, at every moment, exactly the set of gates that have touched
// its wire set so far — a PREFIX CONE: no earlier gate outside the
// component touches any of its wires. Two snapshots yield rewrite
// candidates:
//
//   * OPEN — the instant a gate is about to merge several components, each
//     pre-merge component is snapshotted (the merging gate is its first
//     downstream consumer);
//   * CLOSED — components still alive after the last gate (no gate outside
//     the block touches its wires at all).
//
// Components wider than the largest table width stop tracking gates
// (poisoned) — certification below is exhaustive in 2^width.
//
// A candidate block is REWRITTEN only when all of the following hold:
//
//   1. the table has an entry for its width and the template is strictly
//      shallower than the block (block depth = its gates' ASAP layers,
//      which for a prefix cone equal the whole network's);
//   2. the block provably SORTS: a bit-sliced sweep of all 2^width 0-1
//      inputs certifies it and derives the output permutation pi (pi[i] =
//      the wire carrying the i-th largest element), exactly the 0-1
//      machinery of verify/fast_zero_one, localized to the block's wires;
//   3. the rewrite cannot deepen the network: closed blocks have no
//      downstream consumers, so a shallower block suffices; open blocks
//      additionally require the template's per-wire completion layers not
//      to exceed the block's (downstream ASAP layers depend only on
//      per-wire completion times, monotonically).
//
// The replacement stamps the interned template with wire c mapped to
// pi[template.output_position(c)], which lands template logical output i on
// pi[i]: the rewritten block computes the SAME input-output function on the
// same physical wires, so downstream gates (and the network's logical
// output order) are untouched. This preserves the comparator FUNCTION, not
// the token-routing topology — the pass is comparator-only, like
// zero-one-elim.
#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <sstream>
#include <vector>

#include "core/module.h"
#include "obs/metrics.h"
#include "opt/optimal_lib.h"
#include "opt/passes.h"

namespace scn {
namespace {

/// Certification is exhaustive in 2^width; the table's peephole-usable
/// widths all fit (larger table entries serve direct construction only).
constexpr std::size_t kMaxBlockWidth = 16;

struct Component {
  std::vector<Wire> wires;
  std::vector<std::size_t> gates;  ///< ascending gate indices
  bool poisoned = false;           ///< too wide — gates no longer tracked
};

struct Candidate {
  std::vector<Wire> wires;  ///< sorted ascending
  std::vector<std::size_t> gates;
  bool closed = false;  ///< no gate outside `gates` touches `wires`
};

struct Rewrite {
  std::shared_ptr<const Network> tmpl;
  std::vector<Wire> stamp_wires;  ///< template wire c -> stamp_wires[c]
  std::vector<Wire> support;
  std::size_t first_gate = 0;
  std::size_t gate_count = 0;
  std::uint32_t depth_before = 0;
  std::uint32_t depth_after = 0;
};

class Dsu {
 public:
  explicit Dsu(std::size_t n) : parent_(n) {
    for (std::size_t i = 0; i < n; ++i) parent_[i] = static_cast<Wire>(i);
  }

  Wire find(Wire w) {
    while (parent_[static_cast<std::size_t>(w)] != w) {
      auto& p = parent_[static_cast<std::size_t>(w)];
      p = parent_[static_cast<std::size_t>(p)];
      w = p;
    }
    return w;
  }

  void attach(Wire child_root, Wire new_root) {
    parent_[static_cast<std::size_t>(child_root)] = new_root;
  }

 private:
  std::vector<Wire> parent_;
};

/// All rewrite candidates of `net`, via the prefix-cone scan described in
/// the file comment. Candidates may overlap (an open snapshot is nested in
/// the merged component that later engulfs it); selection resolves overlap
/// by claiming gates.
std::vector<Candidate> collect_candidates(const Network& net) {
  std::vector<Candidate> out;
  Dsu dsu(net.width());
  std::vector<Component> comp(net.width());
  for (std::size_t w = 0; w < net.width(); ++w) {
    comp[w].wires = {static_cast<Wire>(w)};
  }
  const auto worth_snapshot = [](const Component& c) {
    return !c.poisoned && c.gates.size() >= 2 &&
           c.wires.size() <= kMaxBlockWidth &&
           has_optimal_sorter(c.wires.size());
  };
  const auto snapshot = [&out](const Component& c, bool closed) {
    Candidate cand;
    cand.wires = c.wires;
    std::sort(cand.wires.begin(), cand.wires.end());
    cand.gates = c.gates;
    cand.closed = closed;
    out.push_back(std::move(cand));
  };
  std::vector<Wire> roots;
  for (std::size_t gi = 0; gi < net.gate_count(); ++gi) {
    const auto ws = net.gate_wires(gi);
    roots.clear();
    for (const Wire w : ws) {
      const Wire r = dsu.find(w);
      if (std::find(roots.begin(), roots.end(), r) == roots.end()) {
        roots.push_back(r);
      }
    }
    if (roots.size() > 1) {
      // The merge point: each pre-merge component is maximal for its wire
      // set right now — snapshot the rewritable ones as open candidates.
      for (const Wire r : roots) {
        const Component& c = comp[static_cast<std::size_t>(r)];
        if (worth_snapshot(c)) snapshot(c, /*closed=*/false);
      }
      Component& target = comp[static_cast<std::size_t>(roots.front())];
      for (std::size_t k = 1; k < roots.size(); ++k) {
        Component& src = comp[static_cast<std::size_t>(roots[k])];
        target.wires.insert(target.wires.end(), src.wires.begin(),
                            src.wires.end());
        const std::size_t mid = target.gates.size();
        target.gates.insert(target.gates.end(), src.gates.begin(),
                            src.gates.end());
        std::inplace_merge(target.gates.begin(),
                           target.gates.begin() + static_cast<std::ptrdiff_t>(mid),
                           target.gates.end());
        target.poisoned = target.poisoned || src.poisoned;
        src = Component{};
        dsu.attach(roots[k], roots.front());
      }
      if (target.wires.size() > kMaxBlockWidth) target.poisoned = true;
      if (target.poisoned) target.gates = {};
    }
    Component& c = comp[static_cast<std::size_t>(dsu.find(ws.front()))];
    if (!c.poisoned) c.gates.push_back(gi);
  }
  for (std::size_t w = 0; w < net.width(); ++w) {
    if (dsu.find(static_cast<Wire>(w)) != static_cast<Wire>(w)) continue;
    const Component& c = comp[w];
    if (worth_snapshot(c)) snapshot(c, /*closed=*/true);
  }
  return out;
}

/// 0-1-certifies that the candidate block sorts its wire set, and derives
/// the output permutation: perm[i] = the block wire carrying the i-th
/// largest input. Bit-sliced, 64 test vectors per wave, exhaustive over
/// 2^width. Returns false (perm untouched) when the block is not a sorter.
bool certify_block(const Network& net, const Candidate& cand,
                   std::vector<Wire>& perm) {
  const std::size_t n = cand.wires.size();
  assert(n >= 2 && n <= kMaxBlockWidth);
  std::vector<int> lidx(net.width(), -1);
  for (std::size_t i = 0; i < n; ++i) {
    lidx[static_cast<std::size_t>(cand.wires[i])] = static_cast<int>(i);
  }
  static constexpr std::uint64_t kPat[6] = {
      0xAAAAAAAAAAAAAAAAull, 0xCCCCCCCCCCCCCCCCull, 0xF0F0F0F0F0F0F0F0ull,
      0xFF00FF00FF00FF00ull, 0xFFFF0000FFFF0000ull, 0xFFFFFFFF00000000ull,
  };
  const std::uint64_t waves = n > 6 ? (1ull << (n - 6)) : 1;
  std::array<std::uint64_t, kMaxBlockWidth> m{};
  std::array<int, kMaxBlockWidth> idx{};
  const auto load_wave = [&](std::uint64_t wave) {
    for (std::size_t l = 0; l < n; ++l) {
      m[l] = l < 6 ? kPat[l]
                   : (((wave >> (l - 6)) & 1) != 0 ? ~0ull : 0ull);
    }
  };
  const auto run_gates = [&] {
    for (const std::size_t gi : cand.gates) {
      const auto ws = net.gate_wires(gi);
      if (ws.size() == 2) {
        const int a = lidx[static_cast<std::size_t>(ws[0])];
        const int b = lidx[static_cast<std::size_t>(ws[1])];
        const std::uint64_t hi = m[static_cast<std::size_t>(a)] |
                                 m[static_cast<std::size_t>(b)];
        const std::uint64_t lo = m[static_cast<std::size_t>(a)] &
                                 m[static_cast<std::size_t>(b)];
        m[static_cast<std::size_t>(a)] = hi;  // listed first carries the max
        m[static_cast<std::size_t>(b)] = lo;
        continue;
      }
      // Wide comparator: the i-th listed wire receives the i-th largest.
      // Odd-even transposition over the masks (p rounds sort p values)
      // realizes exactly that, bit-sliced.
      const std::size_t p = ws.size();
      for (std::size_t i = 0; i < p; ++i) {
        idx[i] = lidx[static_cast<std::size_t>(ws[i])];
      }
      for (std::size_t round = 0; round < p; ++round) {
        for (std::size_t k = round % 2; k + 1 < p; k += 2) {
          auto& top = m[static_cast<std::size_t>(idx[k])];
          auto& bot = m[static_cast<std::size_t>(idx[k + 1])];
          const std::uint64_t hi = top | bot;
          const std::uint64_t lo = top & bot;
          top = hi;
          bot = lo;
        }
      }
    }
  };
  // Sweep 1: output ones-counts. A sorter puts the i-th largest on a fixed
  // wire, whose count over all inputs is strictly decreasing in i — any
  // tie already disproves sortingness.
  std::array<std::uint64_t, kMaxBlockWidth> ones{};
  for (std::uint64_t wave = 0; wave < waves; ++wave) {
    load_wave(wave);
    run_gates();
    for (std::size_t l = 0; l < n; ++l) {
      ones[l] += static_cast<std::uint64_t>(std::popcount(m[l]));
    }
  }
  std::array<std::size_t, kMaxBlockWidth> order{};
  for (std::size_t l = 0; l < n; ++l) order[l] = l;
  std::sort(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(n),
            [&](std::size_t a, std::size_t b) { return ones[a] > ones[b]; });
  for (std::size_t i = 0; i + 1 < n; ++i) {
    if (ones[order[i]] <= ones[order[i + 1]]) return false;
  }
  // Sweep 2: every input's output must be monotone along that order.
  for (std::uint64_t wave = 0; wave < waves; ++wave) {
    load_wave(wave);
    run_gates();
    for (std::size_t i = 0; i + 1 < n; ++i) {
      if ((~m[order[i]] & m[order[i + 1]]) != 0) return false;
    }
  }
  perm.resize(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = cand.wires[order[i]];
  return true;
}

class PeepholeOptimalPass final : public Pass {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "peephole-optimal";
  }

  [[nodiscard]] bool applicable(const Network& net,
                                const PassOptions& opts) const override {
    return opts.semantics == Semantics::kComparator && net.gate_count() >= 2;
  }

  [[nodiscard]] std::optional<Network> rewrite(
      const Network& net, const PassOptions&,
      PassStats& stats) const override {
    std::vector<Candidate> cands = collect_candidates(net);
    // Prefer the widest blocks (a whole-network rewrite subsumes its
    // sub-blocks), closed over open, earliest first; claims keep the
    // accepted set gate- and wire-disjoint.
    std::sort(cands.begin(), cands.end(),
              [](const Candidate& a, const Candidate& b) {
                if (a.wires.size() != b.wires.size()) {
                  return a.wires.size() > b.wires.size();
                }
                if (a.closed != b.closed) return a.closed;
                if (a.gates.size() != b.gates.size()) {
                  return a.gates.size() > b.gates.size();
                }
                return a.gates.front() < b.gates.front();
              });
    std::vector<char> claimed(net.gate_count(), 0);
    std::vector<Rewrite> rewrites;
    std::vector<Wire> perm;
    std::vector<std::uint32_t> orig_last(net.width());
    for (const Candidate& cand : cands) {
      if (std::any_of(cand.gates.begin(), cand.gates.end(),
                      [&](std::size_t gi) { return claimed[gi] != 0; })) {
        continue;
      }
      const std::size_t n = cand.wires.size();
      // Block depth: a prefix cone's gates have the global ASAP layers.
      std::uint32_t block_depth = 0;
      for (const Wire w : cand.wires) {
        orig_last[static_cast<std::size_t>(w)] = 0;
      }
      for (const std::size_t gi : cand.gates) {
        const std::uint32_t layer = net.gates()[gi].layer;
        block_depth = std::max(block_depth, layer);
        for (const Wire w : net.gate_wires(gi)) {
          auto& last = orig_last[static_cast<std::size_t>(w)];
          last = std::max(last, layer);
        }
      }
      // The pass's template store is a process-local cache of its own:
      // NOT ModuleCache::shared(), so a pipeline run on a private Runtime
      // never touches the shared cache's entries or registry metrics
      // (tests/runtime_test.cpp asserts that isolation). Plain instances
      // keep purely local counters and default to enabled, independent of
      // SCNET_MODULE_CACHE.
      static ModuleCache pass_templates;
      const auto tmpl = optimal_sorter_template(n, pass_templates);
      if (tmpl->depth() >= block_depth) continue;
      if (!certify_block(net, cand, perm)) continue;
      Rewrite rw;
      rw.tmpl = tmpl;
      rw.stamp_wires.resize(n);
      for (std::size_t c = 0; c < n; ++c) {
        rw.stamp_wires[c] =
            perm[tmpl->output_position(static_cast<Wire>(c))];
      }
      if (!cand.closed) {
        // Downstream consumers exist: the rewrite must not delay any wire.
        // Template last-touch layers, relocated, must stay within the
        // block's per-wire completion layers.
        bool safe = true;
        std::array<std::uint32_t, kMaxBlockWidth> tmpl_last{};
        for (std::size_t g = 0; g < tmpl->gate_count(); ++g) {
          const std::uint32_t layer = tmpl->gates()[g].layer;
          for (const Wire c : tmpl->gate_wires(g)) {
            auto& last = tmpl_last[static_cast<std::size_t>(c)];
            last = std::max(last, layer);
          }
        }
        for (std::size_t c = 0; c < n && safe; ++c) {
          safe = tmpl_last[c] <=
                 orig_last[static_cast<std::size_t>(rw.stamp_wires[c])];
        }
        if (!safe) continue;
      }
      rw.support = cand.wires;
      rw.first_gate = cand.gates.front();
      rw.gate_count = cand.gates.size();
      rw.depth_before = block_depth;
      rw.depth_after = tmpl->depth();
      for (const std::size_t gi : cand.gates) claimed[gi] = 1;
      rewrites.push_back(std::move(rw));
    }
    if (rewrites.empty()) return std::nullopt;

    NetworkBuilder b(net.width());
    std::vector<std::ptrdiff_t> starts_at(net.gate_count(), -1);
    for (std::size_t k = 0; k < rewrites.size(); ++k) {
      starts_at[rewrites[k].first_gate] = static_cast<std::ptrdiff_t>(k);
    }
    for (std::size_t gi = 0; gi < net.gate_count(); ++gi) {
      if (starts_at[gi] >= 0) {
        const Rewrite& rw = rewrites[static_cast<std::size_t>(starts_at[gi])];
        (void)b.stamp(*rw.tmpl, rw.stamp_wires);
        continue;
      }
      if (claimed[gi]) continue;
      b.add_balancer(net.gate_wires(gi));
    }
    Network rewritten = std::move(b).finish(
        {net.output_order().begin(), net.output_order().end()});
    // Belt and braces for the depth contract: the per-candidate gating
    // above proves this cannot trigger.
    if (rewritten.depth() > net.depth()) return std::nullopt;

    stats.rewrites = rewrites.size();
    std::ostringstream detail;
    for (const Rewrite& rw : rewrites) {
      detail << "  block {";
      for (std::size_t i = 0; i < rw.support.size(); ++i) {
        detail << (i > 0 ? "," : "") << rw.support[i];
      }
      detail << "}: Opt(" << rw.support.size() << ") depth "
             << rw.depth_before << "->" << rw.depth_after << ", gates "
             << rw.gate_count << "->" << rw.tmpl->gate_count() << "\n";
    }
    stats.detail = detail.str();
    SCNET_COUNTER_ADD("opt.peephole.rewrites", rewrites.size());
    return rewritten;
  }
};

}  // namespace

std::unique_ptr<Pass> make_peephole_optimal_pass() {
  return std::make_unique<PeepholeOptimalPass>();
}

}  // namespace scn
