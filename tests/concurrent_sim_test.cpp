// Real multithreaded traversal: quiescent outputs match count propagation,
// the step property holds, resets work, the compiled traversal table walks
// exactly like the linked view it replaces, the striped quiescence guard
// is exact, and the arrival-schedule generators (sim/schedule.h) are
// deterministic and step-preserving.
#include <gtest/gtest.h>

#include <algorithm>
#include <latch>
#include <numeric>
#include <random>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/k_network.h"
#include "core/l_network.h"
#include "net/linked_network.h"
#include "sim/concurrent_sim.h"
#include "sim/count_sim.h"
#include "sim/schedule.h"
#include "verify/checkers.h"

namespace scn {
namespace {

TEST(ConcurrentSim, SingleThreadMatchesCountPropagation) {
  const Network net = make_k_network({3, 2});
  ConcurrentNetwork cn(net);
  std::vector<Count> in(net.width(), 0);
  for (std::size_t i = 0; i < 25; ++i) {
    const Wire w = static_cast<Wire>(i % net.width());
    cn.traverse(w);
    in[static_cast<std::size_t>(w)] += 1;
  }
  EXPECT_EQ(cn.output_counts(), output_counts(net, in));
}

TEST(ConcurrentSim, MultithreadedOutputsHaveStepProperty) {
  const Network net = make_k_network({2, 2, 2, 2});
  ConcurrentNetwork cn(net);
  const ConcurrentRunResult res = run_concurrent(cn, 8, 2000, 123);
  EXPECT_EQ(res.tokens, 16000u);
  EXPECT_EQ(std::accumulate(res.outputs.begin(), res.outputs.end(), Count{0}),
            16000);
  EXPECT_TRUE(has_step_property(res.outputs))
      << format_sequence(res.outputs);
  EXPECT_TRUE(is_exact_step_output(res.outputs));
}

TEST(ConcurrentSim, MultithreadedLNetworkCounts) {
  const Network net = make_l_network({3, 2, 2});
  ConcurrentNetwork cn(net);
  const ConcurrentRunResult res = run_concurrent(cn, 6, 3000, 7);
  EXPECT_TRUE(is_exact_step_output(res.outputs))
      << format_sequence(res.outputs);
}

TEST(ConcurrentSim, ExitTicketsArePerPositionSequential) {
  const Network net = make_k_network({2, 2});
  ConcurrentNetwork cn(net);
  std::vector<std::uint64_t> seen_tickets;
  for (int i = 0; i < 12; ++i) {
    const auto ev = cn.traverse(static_cast<Wire>(i % 4));
    if (ev.position == 0) seen_tickets.push_back(ev.ticket);
  }
  for (std::size_t i = 0; i < seen_tickets.size(); ++i) {
    EXPECT_EQ(seen_tickets[i], i);
  }
}

TEST(ConcurrentSim, ResetRestoresInitialState) {
  const Network net = make_k_network({2, 3});
  ConcurrentNetwork cn(net);
  (void)run_concurrent(cn, 4, 500, 1);
  cn.reset();
  for (std::size_t i = 0; i < net.width(); ++i) {
    EXPECT_EQ(cn.exits(i), 0);
  }
  const ConcurrentRunResult res = run_concurrent(cn, 4, 500, 2);
  EXPECT_TRUE(is_exact_step_output(res.outputs));
}

TEST(ConcurrentSim, ManyThreadsSmallNetwork) {
  // Oversubscription stress: more threads than cores on a tiny network.
  const Network net = make_k_network({2, 2});
  ConcurrentNetwork cn(net);
  const std::size_t threads =
      std::max(8u, 2 * std::thread::hardware_concurrency());
  const ConcurrentRunResult res = run_concurrent(cn, threads, 1000, 3);
  EXPECT_TRUE(is_exact_step_output(res.outputs));
}

// The uncompiled traversal: follows LinkedNetwork hop by hop with a plain
// `ticket % width` at every gate. ConcurrentNetwork's flat table must
// reproduce it exactly.
class ReferenceWalker {
 public:
  explicit ReferenceWalker(const Network& net)
      : linked_(net),
        tickets_(net.gate_count(), 0),
        exits_(net.width(), 0),
        visits_(net.gate_count(), 0) {}

  std::pair<std::size_t, std::uint64_t> traverse(Wire in) {
    const Network& net = linked_.network();
    std::int32_t gate = linked_.entry_gate(in);
    Wire wire = in;
    while (gate != LinkedNetwork::kExit) {
      const auto g = static_cast<std::size_t>(gate);
      ++visits_[g];
      const std::size_t slot = tickets_[g]++ % net.gates()[g].width;
      wire = linked_.slot_wire(g, slot);
      gate = linked_.next_gate(g, slot);
    }
    const std::size_t pos = net.output_position(wire);
    return {pos, exits_[pos]++};
  }

  [[nodiscard]] const std::vector<std::uint64_t>& visits() const {
    return visits_;
  }

 private:
  LinkedNetwork linked_;
  std::vector<std::uint64_t> tickets_;
  std::vector<std::uint64_t> exits_;
  std::vector<std::uint64_t> visits_;
};

// Wires 1, 3 and 6 are touched by no gate; the others cross gates of
// widths 3, 2 and 4 under a non-identity output order.
Network network_with_untouched_wires() {
  NetworkBuilder b(7);
  b.add_balancer({0, 2, 4});
  b.add_balancer({2, 4});
  b.add_balancer({5, 0, 4, 2});
  return std::move(b).finish({6, 5, 4, 3, 2, 1, 0});
}

TEST(ConcurrentSim, CompiledTraversalMatchesLinkedWalk) {
  const std::vector<Network> sweep = {
      make_k_network({2, 2, 2, 2}), make_k_network({3, 5}),
      make_k_network({2, 3, 2}),    make_l_network({3, 2, 2}),
      make_k_network({4, 4}),       network_with_untouched_wires()};
  bool saw_pow2 = false;
  bool saw_other = false;
  for (const Network& net : sweep) {
    for (const Gate& g : net.gates()) {
      ((g.width & (g.width - 1)) == 0 ? saw_pow2 : saw_other) = true;
    }
    ConcurrentNetwork cn(net);
    cn.enable_visit_probe();
    ReferenceWalker ref(net);
    std::mt19937 rng(17);
    std::uniform_int_distribution<Wire> wire(
        0, static_cast<Wire>(net.width() - 1));
    for (int i = 0; i < 40 * static_cast<int>(net.width()); ++i) {
      const Wire in = wire(rng);
      const ConcurrentNetwork::ExitEvent got = cn.traverse(in);
      const auto want = ref.traverse(in);
      ASSERT_EQ(got.position, want.first)
          << "width " << net.width() << " token " << i << " wire " << in;
      ASSERT_EQ(got.ticket, want.second)
          << "width " << net.width() << " token " << i << " wire " << in;
    }
    EXPECT_EQ(cn.gate_visits(), ref.visits()) << "width " << net.width();
  }
  // Both slot reductions ran: `& mask` and `% width`.
  EXPECT_TRUE(saw_pow2);
  EXPECT_TRUE(saw_other);
}

TEST(ConcurrentSim, StripedGuardIsExactAtQuiescence) {
  if (!builder_checks_enabled()) {
    GTEST_SKIP() << "library built without SCNET_CHECKED";
  }
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kTokens = 500;
  const Network net = make_k_network({2, 2, 2});
  ConcurrentNetwork cn(net);
  std::latch begun(kThreads + 1);
  std::latch release(1);
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kTokens; ++i) {
        cn.begin_token();
        (void)cn.traverse(static_cast<Wire>((t + i) % net.width()));
      }
      begun.count_down();
      release.wait();
      for (std::uint64_t i = 0; i < kTokens; ++i) cn.end_token();
    });
  }
  begun.arrive_and_wait();
  EXPECT_EQ(cn.in_flight(), kThreads * kTokens);
  EXPECT_THROW((void)cn.output_counts(), std::logic_error);
  release.count_down();
  for (auto& th : pool) th.join();
  EXPECT_EQ(cn.in_flight(), 0u);
  const std::vector<Count> outputs = cn.output_counts();
  EXPECT_EQ(std::accumulate(outputs.begin(), outputs.end(), Count{0}),
            static_cast<Count>(kThreads * kTokens));
  EXPECT_TRUE(is_exact_step_output(outputs));

  // A token may begin on one thread and end on another: the stripes wrap,
  // and their sum is still exact once every token has ended.
  std::vector<std::thread> starters;
  for (std::size_t t = 0; t < kThreads; ++t) {
    starters.emplace_back([&] {
      for (std::uint64_t i = 0; i < kTokens; ++i) cn.begin_token();
    });
  }
  for (auto& th : starters) th.join();
  EXPECT_EQ(cn.in_flight(), kThreads * kTokens);
  for (std::uint64_t i = 0; i < kThreads * kTokens; ++i) cn.end_token();
  EXPECT_EQ(cn.in_flight(), 0u);
  cn.reset();
}

TEST(Schedule, ParseAndPrintRoundTrip) {
  for (const ScheduleKind kind :
       {ScheduleKind::kUniform, ScheduleKind::kBursty, ScheduleKind::kSkewed,
        ScheduleKind::kAdversarial}) {
    const auto parsed = parse_schedule(to_string(kind));
    ASSERT_TRUE(parsed.has_value()) << to_string(kind);
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(parse_schedule("zipf").has_value());
}

TEST(Schedule, DeterministicUnderFixedSeed) {
  // The contract the saturation harness and benches rely on: a schedule is
  // a pure function of (width, params, thread).
  for (const ScheduleKind kind :
       {ScheduleKind::kUniform, ScheduleKind::kBursty, ScheduleKind::kSkewed,
        ScheduleKind::kAdversarial}) {
    ScheduleParams params;
    params.kind = kind;
    params.seed = 42;
    const auto a = schedule_prefix(16, params, 0, 500);
    const auto b = schedule_prefix(16, params, 0, 500);
    EXPECT_EQ(a, b) << to_string(kind);
    // Distinct threads get distinct streams (except adversarial, which
    // funnels every thread into one wire by design).
    const auto other = schedule_prefix(16, params, 1, 500);
    if (kind == ScheduleKind::kAdversarial) {
      EXPECT_EQ(a, other);
    } else {
      EXPECT_NE(a, other) << to_string(kind);
    }
    // A different seed moves the stream.
    params.seed = 43;
    EXPECT_NE(schedule_prefix(16, params, 0, 500), a) << to_string(kind);
  }
}

TEST(Schedule, WiresStayInRange) {
  for (const ScheduleKind kind :
       {ScheduleKind::kUniform, ScheduleKind::kBursty, ScheduleKind::kSkewed,
        ScheduleKind::kAdversarial}) {
    ScheduleParams params;
    params.kind = kind;
    for (const Wire w : schedule_prefix(6, params, 2, 1000)) {
      EXPECT_GE(w, 0);
      EXPECT_LT(w, 6);
    }
  }
}

TEST(Schedule, BurstyRunsHaveConfiguredLength) {
  ScheduleParams params;
  params.kind = ScheduleKind::kBursty;
  params.burst_len = 32;
  const auto wires = schedule_prefix(16, params, 0, 320);
  for (std::size_t i = 0; i < wires.size(); i += params.burst_len) {
    for (std::size_t j = 1; j < params.burst_len; ++j) {
      EXPECT_EQ(wires[i + j], wires[i]) << "burst broken at " << i + j;
    }
  }
}

TEST(Schedule, AdversarialFunnelsEveryThreadIntoOneWire) {
  ScheduleParams params;
  params.kind = ScheduleKind::kAdversarial;
  params.seed = 9;
  const Wire hot = schedule_prefix(8, params, 0, 1).front();
  for (std::size_t t = 0; t < 4; ++t) {
    for (const Wire w : schedule_prefix(8, params, t, 100)) {
      EXPECT_EQ(w, hot);
    }
  }
}

TEST(Schedule, SkewedConcentratesLoad) {
  ScheduleParams params;
  params.kind = ScheduleKind::kSkewed;
  params.skew = 1.5;
  std::vector<std::size_t> hist(16, 0);
  // Aggregate over several threads: the hot wires are shared (the rank
  // permutation comes from the shared seed), so skew shows in the sum.
  for (std::size_t t = 0; t < 4; ++t) {
    for (const Wire w : schedule_prefix(16, params, t, 2500)) {
      ++hist[static_cast<std::size_t>(w)];
    }
  }
  const std::size_t hottest = *std::max_element(hist.begin(), hist.end());
  const std::size_t coldest = *std::min_element(hist.begin(), hist.end());
  EXPECT_GT(hottest, 4 * std::max<std::size_t>(coldest, 1));
}

class ScheduleStepTest
    : public ::testing::TestWithParam<std::tuple<ScheduleKind, std::size_t>> {
};

TEST_P(ScheduleStepTest, ConcurrentRunsKeepStepProperty) {
  // Whatever the arrival pattern, a counting network's quiescent outputs
  // must be THE step sequence — including the adversarial single-wire
  // funnel, which stresses one entry path hardest.
  const auto [kind, threads] = GetParam();
  const Network net = make_k_network({2, 2, 2});
  ConcurrentNetwork cn(net);
  ScheduleParams params;
  params.kind = kind;
  const ConcurrentRunResult res = run_concurrent(cn, threads, 2000, params);
  EXPECT_EQ(res.tokens, threads * 2000u);
  EXPECT_TRUE(is_exact_step_output(res.outputs))
      << to_string(kind) << " x" << threads << ": "
      << format_sequence(res.outputs);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedules, ScheduleStepTest,
    ::testing::Combine(::testing::Values(ScheduleKind::kUniform,
                                         ScheduleKind::kBursty,
                                         ScheduleKind::kSkewed,
                                         ScheduleKind::kAdversarial),
                       ::testing::Values(std::size_t{2}, std::size_t{4},
                                         std::size_t{8})),
    [](const auto& param_info) {
      return std::string(to_string(std::get<0>(param_info.param))) + "_x" +
             std::to_string(std::get<1>(param_info.param));
    });

}  // namespace
}  // namespace scn
