// The concrete passes shipped with the pipeline. Each factory returns a
// stateless Pass; soundness arguments live in docs/passes.md.
#pragma once

#include <memory>

#include "opt/pass.h"

namespace scn {

/// "relayer" — permutes the gate stream into canonical (layer-major,
/// min-wire within layer) order (Network::permuted). Semantics-free:
/// gates within a layer touch disjoint wires and commute; cross-layer
/// dependency order is preserved, so every gate keeps its ASAP layer and
/// depth is unchanged. Reports a network already in canonical order as
/// unchanged. Idempotent; gives structurally identical networks identical
/// gate streams.
[[nodiscard]] std::unique_ptr<Pass> make_relayer_pass();

/// "dedup-adjacent" — removes a gate whose listed wire sequence is
/// identical to the previous gate that touched its wires, with no other
/// gate intervening on any of them. Sound for BOTH semantics: sorting is
/// idempotent, and quiescent balancer redistribution out[i] =
/// ceil((N - i)/p) depends only on the (unchanged) gate total N.
[[nodiscard]] std::unique_ptr<Pass> make_dedup_adjacent_pass();

/// "zero-one-elim" — removes every gate that is the identity on all 2^w
/// 0-1 inputs, established by the bit-sliced sweep in verify/fast_zero_one
/// (zero_one_noop_gates). By the 0-1 principle a comparator that never
/// fires on binary inputs never fires at all, so removal is sound for
/// comparator semantics; it is UNSOUND for balancers (an already-"sorted"
/// wire pair still exchanges tokens) and is skipped for them, as it is for
/// networks wider than PassOptions::zero_one_width_cap.
[[nodiscard]] std::unique_ptr<Pass> make_zero_one_elim_pass();

/// "expand-wide-gates" — replaces every gate wider than 2 with its Batcher
/// odd-even compare-exchange expansion (opt/expand.h), relabeled onto the
/// gate's physical wires so no output permutation remains. Comparator-only
/// (a wide balancer is NOT a network of 2-balancers — paper Figure 3) and
/// the one shipped pass that may increase depth: it trades layers for a
/// pure width-2 gate stream that downstream kernels run branchlessly.
[[nodiscard]] std::unique_ptr<Pass> make_expand_wide_gates_pass();

/// "peephole-optimal" — finds small sorting sub-blocks (wire-cone analysis
/// over the gate stream: union-find components of wires, closed under
/// every gate that touched them so far) whose sortingness is certified
/// exhaustively by the 0-1 principle, and rewrites each to the
/// depth-optimal template of opt/optimal_lib.h when that template is
/// strictly shallower. Comparator-only (the rewrite preserves the
/// input-output FUNCTION, not the token-routing topology) and never
/// increases depth: open blocks (with downstream consumers) additionally
/// require per-wire completion times not to regress. Implementation in
/// opt/peephole.cpp; rewrite provenance lands in PassStats::rewrites /
/// detail.
[[nodiscard]] std::unique_ptr<Pass> make_peephole_optimal_pass();

}  // namespace scn
