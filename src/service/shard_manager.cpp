#include "service/shard_manager.h"

#include <algorithm>
#include <random>
#include <stdexcept>
#include <thread>
#include <unordered_set>

#include "core/k_network.h"
#include "engine/backend.h"
#include "obs/metrics.h"
#include "opt/plan_cache.h"
#include "perf/contention_model.h"
#include "topo/placement.h"
#include "topo/topology.h"
#include "verify/checkers.h"

namespace scn {
namespace {

/// Per-thread entry-wire cursor, same spreading scheme as NetworkCounter:
/// threads start on distinct wires and walk round-robin.
struct WireCursor {
  std::uint32_t value = 0;
  bool initialized = false;
};

thread_local WireCursor tls_cursor;

std::uint64_t ceil_share(std::uint64_t total, std::size_t index,
                         std::size_t active) {
  // Tokens shard `index` receives out of `total` round-robin dispatches
  // over `active` shards: ceil((total - index) / active).
  if (total <= index) return 0;
  return (total - index + active - 1) / active;
}

}  // namespace

struct ShardManager::Shard {
  Shard(const std::vector<std::size_t>& factors,
        const Runtime::Options& rt_options)
      : runtime(rt_options),
        network(make_k_network(factors, runtime)),
        cnet(network) {}

  Runtime runtime;          // private tenant: own caches, metrics, pool
  Network network;          // owned storage — cnet references it
  ConcurrentNetwork cnet;
};

// The dispatch state. No token count is kept per shard: round-robin
// dispatch fixes how many of the epoch's D tickets each shard routed, so
// the token gauges derive every count from `dispatch`. Every token writes
// `dispatch` and reads `active`, `base` and `offset`, which change only
// in rebalance().
struct ShardManager::Ledger {
  Ledger(std::size_t shards, std::uint64_t dispatch_offset)
      : offset(dispatch_offset), closed(shards) {}

  /// Tokens shard `j` routed in the current epoch. Shard j serves the
  /// residue class r with (r + offset) % active == j, so its round-robin
  /// share is the r-th, not the j-th.
  [[nodiscard]] std::uint64_t epoch_tokens(std::size_t j) const {
    const std::size_t a = active.load(std::memory_order_acquire);
    if (j >= a) return 0;
    const std::size_t residue =
        (j + a - static_cast<std::size_t>(offset % a)) % a;
    return ceil_share(dispatch.load(std::memory_order_acquire), residue, a);
  }

  /// Tokens shard `j` routed since construction.
  [[nodiscard]] std::uint64_t shard_tokens(std::size_t j) const {
    return closed[j].load(std::memory_order_relaxed) + epoch_tokens(j);
  }

  std::atomic<std::uint64_t> dispatch{0};  // epoch-local ticket
  std::atomic<std::size_t> active{0};
  std::atomic<std::uint64_t> base{0};  // values handed out pre-epoch
  const std::uint64_t offset;          // resolved dispatch offset
  std::vector<std::atomic<std::uint64_t>> closed;  // per shard, past epochs
};

ShardManager::ShardManager(const Options& options, Runtime& rt)
    : options_(options),
      rebalance_counter_(&rt.metrics().counter("service.rebalances")) {
  if (options_.shards == 0) {
    throw std::invalid_argument("ShardManager needs at least one shard");
  }
  for (const std::size_t f : options_.factors) {
    if (f < 2) {
      throw std::invalid_argument("shard network factors must be >= 2");
    }
  }
  // Resolve the dispatch start shard once: explicit option, else one
  // random draw per manager (NOT per call — the offset must be stable
  // within an epoch for the residue accounting to hold).
  ledger_ = std::make_shared<Ledger>(
      options_.shards,
      options_.dispatch_offset.has_value()
          ? *options_.dispatch_offset
          : static_cast<std::uint64_t>(std::random_device{}()));
  // Shard -> node placement on the home runtime's topology; prefix-
  // balanced so every active set spreads across nodes.
  const topo::HardwareTopology& topology = rt.topology();
  const bool affine = options_.node_affine && topology.node_count() > 1;
  shard_nodes_ = affine
                     ? topo::place_shards(options_.shards, topology)
                     : std::vector<std::size_t>(options_.shards, 0);
  shards_.reserve(options_.shards);
  for (std::size_t j = 0; j < options_.shards; ++j) {
    Runtime::Options shard_rt;
    if (affine) {
      // The shard's private pool spawns inside its node's slice, so its
      // threaded traversals never cross the interconnect.
      shard_rt.topology = std::make_shared<const topo::HardwareTopology>(
          topology.node_view(shard_nodes_[j]));
    }
    auto shard = std::make_unique<Shard>(options_.factors, shard_rt);
    // The gauges capture the ledger, never `this`: the home registry may
    // be sampled after the manager is gone.
    const auto tokens = [ledger = ledger_, j] {
      return ledger->shard_tokens(j);
    };
    rt.metrics().register_gauge(
        "service.shard" + std::to_string(j) + ".tokens", tokens);
    shard->runtime.metrics().register_gauge("service.shard.tokens", tokens);
    if (options_.visit_probe) shard->cnet.enable_visit_probe();
    shards_.push_back(std::move(shard));
  }
  rt.metrics().register_gauge("service.tokens", [ledger = ledger_] {
    return ledger->base.load(std::memory_order_relaxed) +
           ledger->dispatch.load(std::memory_order_relaxed);
  });
  const std::size_t initial =
      options_.initial_active == 0
          ? options_.shards
          : std::min(options_.initial_active, options_.shards);
  ledger_->active.store(initial, std::memory_order_release);
}

ShardManager::~ShardManager() = default;

std::uint64_t ShardManager::next() {
  if (!tls_cursor.initialized) {
    tls_cursor.value = thread_seq_.fetch_add(1, std::memory_order_relaxed);
    tls_cursor.initialized = true;
  }
  return next_on(static_cast<Wire>(tls_cursor.value++));
}

std::uint64_t ShardManager::next_on(Wire wire) {
  in_flight_.begin();
  // active and base only move inside rebalance(), which requires
  // quiescence — both are stable for the duration of this call.
  Ledger& ledger = *ledger_;
  const std::size_t active = ledger.active.load(std::memory_order_acquire);
  const std::uint64_t d =
      ledger.dispatch.fetch_add(1, std::memory_order_acq_rel);
  // The offset rotates which SHARD serves ticket d; the value residue
  // stays d % active so the composed values still cover exactly
  // {base .. base + D - 1} (see the header's composition argument).
  const auto idx = static_cast<std::size_t>((d + ledger.offset) % active);
  Shard& shard = *shards_[idx];
  const auto width = static_cast<std::uint32_t>(shard.network.width());
  // |wire| in unsigned arithmetic: negating the minimum Wire overflows.
  const auto bits = static_cast<std::uint32_t>(wire);
  const std::uint32_t magnitude = wire < 0 ? 0u - bits : bits;
  const ConcurrentNetwork::ExitEvent exit =
      shard.cnet.traverse(static_cast<Wire>(magnitude % width));
  const std::uint64_t local =
      static_cast<std::uint64_t>(exit.position) + width * exit.ticket;
  const std::uint64_t value = ledger.base.load(std::memory_order_relaxed) +
                              local * active + (d % active);
  in_flight_.end();
  return value;
}

void ShardManager::route(std::uint64_t n) {
  if (n == 0) return;
  if (!tls_cursor.initialized) {
    tls_cursor.value = thread_seq_.fetch_add(1, std::memory_order_relaxed);
    tls_cursor.initialized = true;
  }
  in_flight_.begin();
  Ledger& ledger = *ledger_;
  const std::size_t active = ledger.active.load(std::memory_order_acquire);
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t d =
        ledger.dispatch.fetch_add(1, std::memory_order_acq_rel);
    const auto idx = static_cast<std::size_t>((d + ledger.offset) % active);
    Shard& shard = *shards_[idx];
    const auto width = static_cast<std::uint32_t>(shard.network.width());
    (void)shard.cnet.traverse(
        static_cast<Wire>(tls_cursor.value++ % width));
  }
  in_flight_.end();
}

std::size_t ShardManager::shard_count() const { return shards_.size(); }

std::size_t ShardManager::active_shards() const {
  return ledger_->active.load(std::memory_order_acquire);
}

std::size_t ShardManager::shard_width() const {
  return shards_.front()->network.width();
}

std::uint64_t ShardManager::dispatched() const {
  return ledger_->dispatch.load(std::memory_order_acquire);
}

std::uint64_t ShardManager::epoch_base() const {
  return ledger_->base.load(std::memory_order_acquire);
}

std::uint64_t ShardManager::dispatch_offset() const {
  return ledger_->offset;
}

std::uint64_t ShardManager::total() const {
  return epoch_base() + dispatched();
}

std::uint64_t ShardManager::in_flight() const { return in_flight_.count(); }

void ShardManager::quiesce() const {
  while (in_flight() != 0) std::this_thread::yield();
}

Runtime& ShardManager::shard_runtime(std::size_t shard) {
  return shards_.at(shard)->runtime;
}

std::size_t ShardManager::shard_node(std::size_t shard) const {
  return shard_nodes_.at(shard);
}

std::vector<Count> ShardManager::shard_output_counts(
    std::size_t shard) const {
  return shards_.at(shard)->cnet.output_counts();
}

std::vector<std::uint64_t> ShardManager::shard_gate_visits(
    std::size_t shard) const {
  return shards_.at(shard)->cnet.gate_visits();
}

ShardManager::LinearityReport ShardManager::verify_linearity() const {
  LinearityReport report;
  const std::size_t active = active_shards();
  for (std::size_t j = 0; j < shards_.size(); ++j) {
    const std::vector<Count> counts = shard_output_counts(j);
    std::uint64_t routed = 0;
    for (const Count c : counts) routed += static_cast<std::uint64_t>(c);
    const std::uint64_t expected = ledger_->epoch_tokens(j);
    if (routed != expected) {
      report.detail = "shard " + std::to_string(j) + " routed " +
                      std::to_string(routed) + " tokens, expected " +
                      std::to_string(expected);
      return report;
    }
    if (j < active && !is_exact_step_output(counts)) {
      report.detail = "shard " + std::to_string(j) +
                      " outputs are not the exact step sequence: " +
                      format_sequence(counts);
      return report;
    }
    if (j < active && routed > 0) {
      // Engine cross-check: propagate the shard's routed total through its
      // compiled plan (balancer semantics) from the shard's own runtime. A
      // counting network's quiescent output depends only on the total, so
      // the count engine must reproduce the concurrent traversal's counts
      // exactly.
      Shard& shard = *shards_[j];
      const CachedPlan cached = shard.runtime.compiled(
          shard.network, PassOptions{.semantics = Semantics::kBalancer});
      std::vector<Count> in(shard.network.width());
      for (std::size_t w = 0; w < in.size(); ++w) {
        in[w] = static_cast<Count>(ceil_share(routed, w, in.size()));
      }
      const std::vector<Count> engine_counts =
          engine::run(*cached.plan, Semantics::kBalancer, in);
      if (engine_counts != counts) {
        report.detail = "shard " + std::to_string(j) +
                        " engine cross-check mismatch: concurrent " +
                        format_sequence(counts) + " vs engine " +
                        format_sequence(engine_counts);
        return report;
      }
    }
  }
  // Every active shard holds THE step sequence of its round-robin share,
  // so the interleaved values are exactly {base .. base + total - 1}.
  report.ok = true;
  return report;
}

ShardManager::RebalanceDecision ShardManager::rebalance() {
#ifdef SCNET_CHECKED
  if (in_flight() != 0) {
    throw std::logic_error("rebalance() requires quiescence: " +
                           std::to_string(in_flight()) +
                           " call(s) in flight");
  }
#endif
  const auto distinct_nodes = [this](std::size_t active) {
    std::unordered_set<std::size_t> nodes(shard_nodes_.begin(),
                                          shard_nodes_.begin() +
                                              static_cast<std::ptrdiff_t>(
                                                  active));
    return nodes.size();
  };

  RebalanceDecision decision;
  decision.active_before = active_shards();
  decision.epoch_tokens = dispatched();
  decision.nodes_before = distinct_nodes(decision.active_before);

  // Score each active shard: (hottest-gate traffic fraction) x (tokens it
  // routed this epoch) estimates the serialized fetch-adds on its hottest
  // word. The probe feeds measured fractions when enabled; the analytical
  // model covers probe-less deployments.
  for (std::size_t j = 0; j < decision.active_before; ++j) {
    Shard& shard = *shards_[j];
    const std::uint64_t tokens = ledger_->epoch_tokens(j);
    double hottest = 0.0;
    const std::vector<std::uint64_t> visits = shard.cnet.gate_visits();
    if (!visits.empty() && tokens > 0) {
      hottest = compare_contention(shard.network, visits, tokens)
                    .measured_hottest;
    } else {
      hottest = estimate_contention(shard.network).hottest_gate_fraction;
    }
    decision.max_score = std::max(
        decision.max_score, hottest * static_cast<double>(tokens));
  }

  std::size_t next_active = decision.active_before;
  if (decision.max_score > options_.grow_score &&
      next_active < shards_.size()) {
    ++next_active;
  } else if (decision.max_score < options_.shrink_score && next_active > 1) {
    --next_active;
  }
  decision.active_after = next_active;
  decision.nodes_after = distinct_nodes(next_active);

  // Close the epoch: each shard's share joins its closed total, everything
  // dispatched so far is handed out, the next epoch's values start past
  // it, and the shards restart from zero so shard-local step properties
  // become epoch-local.
  for (std::size_t j = 0; j < shards_.size(); ++j) {
    ledger_->closed[j].fetch_add(ledger_->epoch_tokens(j),
                                 std::memory_order_relaxed);
    shards_[j]->cnet.reset();
  }
  ledger_->base.fetch_add(
      ledger_->dispatch.exchange(0, std::memory_order_acq_rel),
      std::memory_order_acq_rel);
  ledger_->active.store(next_active, std::memory_order_release);
  if (next_active != decision.active_before) rebalance_counter_->add(1);
  return decision;
}

}  // namespace scn
