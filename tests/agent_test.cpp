#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <vector>

#include "agent/agent.hpp"
#include "agent/flow_table.hpp"
#include "capacity/capacity.hpp"
#include "core/oracles.hpp"
#include "metrics/metrics.hpp"
#include "test_topologies.hpp"
#include "topology/generator.hpp"

namespace nexit::agent {
namespace {

using testing::figure1_pair;
using testing::make_flow;
using traffic::Direction;

core::NegotiationConfig wire_config() {
  core::NegotiationConfig cfg;
  cfg.tie_break = core::TieBreak::kDeterministic;
  return cfg;
}

// --- Channels ---------------------------------------------------------------

TEST(Channel, InMemoryDelivery) {
  auto [a, b] = make_in_memory_channel_pair();
  a->send({1, 2, 3});
  EXPECT_EQ(b->receive(), (proto::Bytes{1, 2, 3}));
  EXPECT_TRUE(b->receive().empty());
  b->send({9});
  EXPECT_EQ(a->receive(), (proto::Bytes{9}));
}

TEST(Channel, InMemoryClose) {
  auto [a, b] = make_in_memory_channel_pair();
  a->close();
  EXPECT_TRUE(b->closed());
  EXPECT_THROW(a->send({1}), std::runtime_error);
}

TEST(Channel, SocketPairDelivery) {
  auto [a, b] = make_socket_channel_pair();
  a->send({5, 6, 7});
  proto::Bytes got;
  for (int i = 0; i < 100 && got.empty(); ++i) got = b->receive();
  EXPECT_EQ(got, (proto::Bytes{5, 6, 7}));
}

TEST(Channel, SocketDeliversPayloadsLargerThanTheKernelBuffer) {
  // A send exceeding SO_SNDBUF must queue the overflow and drain it via
  // later send()/receive() calls — not busy-spin on EAGAIN, which deadlocks
  // when both endpoints are pumped by the same thread (runtime sessions).
  auto [a, b] = make_socket_channel_pair();
  proto::Bytes big(1u << 20);
  for (std::size_t i = 0; i < big.size(); ++i)
    big[i] = static_cast<std::uint8_t>(i * 31 + 7);
  a->send(big);  // far beyond a default AF_UNIX buffer; must not hang
  proto::Bytes got;
  for (int i = 0; i < 1000 && got.size() < big.size(); ++i) {
    (void)a->receive();  // flushes a's queued overflow
    const proto::Bytes chunk = b->receive();
    got.insert(got.end(), chunk.begin(), chunk.end());
  }
  EXPECT_EQ(got, big);
}

TEST(Channel, FaultyDropsEverythingAtP1) {
  auto [a, b] = make_in_memory_channel_pair();
  FaultyChannel lossy(std::move(a), /*drop=*/1.0, /*corrupt=*/0.0, 1);
  lossy.send({1, 2, 3});
  EXPECT_TRUE(b->receive().empty());
}

TEST(Channel, FaultyCorruptsPayload) {
  auto [a, b] = make_in_memory_channel_pair();
  FaultyChannel bad(std::move(a), /*drop=*/0.0, /*corrupt=*/1.0, 1);
  bad.send({1, 2, 3});
  auto got = b->receive();
  ASSERT_EQ(got.size(), 3u);
  EXPECT_NE(got, (proto::Bytes{1, 2, 3}));
}

// --- FlowTable (§6) ----------------------------------------------------------

FlowSignature sig(std::uint32_t ingress) {
  return FlowSignature{*bgp::Prefix::parse("10.0.0.0/8"),
                       *bgp::Prefix::parse("20.0.0.0/8"), ingress};
}

TEST(FlowTable, ThresholdElevationNeedsHold) {
  FlowTableConfig cfg;
  cfg.rate_threshold_bps = 100.0;
  cfg.hold_windows = 2;
  cfg.window_ms = 1000;
  FlowTable table(cfg);
  // 200 B/s for 1 window only: not yet negotiable.
  table.record(sig(1), 200, 0);
  table.record(sig(1), 200, 1000);  // closes window 0
  EXPECT_TRUE(table.negotiable(1500).empty());
  table.record(sig(1), 200, 2000);  // closes window 1
  auto neg = table.negotiable(2500);
  ASSERT_EQ(neg.size(), 1u);
  EXPECT_EQ(neg[0], sig(1));
}

TEST(FlowTable, LowRateFlowNeverNegotiable) {
  FlowTableConfig cfg;
  cfg.rate_threshold_bps = 1000.0;
  cfg.hold_windows = 1;
  FlowTable table(cfg);
  for (int i = 0; i < 10; ++i) table.record(sig(2), 10, 1000ull * i);
  EXPECT_TRUE(table.negotiable(11000).empty());
}

TEST(FlowTable, ZeroThresholdMakesAllNegotiable) {
  FlowTable table(FlowTableConfig{});
  table.record(sig(1), 1, 0);
  table.record(sig(2), 1, 0);
  EXPECT_EQ(table.negotiable(0).size(), 2u);
}

TEST(FlowTable, InactiveFlowsExpire) {
  FlowTableConfig cfg;
  cfg.inactivity_timeout_ms = 5000;
  FlowTable table(cfg);
  table.record(sig(1), 100, 0);
  table.record(sig(2), 100, 4000);
  EXPECT_EQ(table.expire(6000), 1u);  // sig(1) idle > 5s
  EXPECT_EQ(table.size(), 1u);
}

TEST(FlowTable, GapInTrafficResetsStreak) {
  FlowTableConfig cfg;
  cfg.rate_threshold_bps = 100.0;
  cfg.hold_windows = 2;
  cfg.window_ms = 1000;
  FlowTable table(cfg);
  table.record(sig(1), 200, 0);
  table.record(sig(1), 200, 1000);
  // Silence for 3 windows, then one burst: streak restarted.
  table.record(sig(1), 200, 5000);
  EXPECT_TRUE(table.negotiable(5500).empty());
}

TEST(FlowTable, RateEstimate) {
  FlowTableConfig cfg;
  cfg.window_ms = 1000;
  FlowTable table(cfg);
  table.record(sig(1), 500, 0);
  table.record(sig(1), 0, 1000);
  EXPECT_DOUBLE_EQ(table.rate_of(sig(1)), 500.0);
  EXPECT_DOUBLE_EQ(table.rate_of(sig(9)), 0.0);
}

// --- Agent sessions ----------------------------------------------------------

struct SessionFixture {
  topology::IspPair pair = figure1_pair();
  routing::PairRouting routing{pair};
  std::vector<traffic::Flow> flows{
      make_flow(0, Direction::kAtoB, 1, 2), make_flow(1, Direction::kBtoA, 1, 0),
      make_flow(2, Direction::kAtoB, 0, 2), make_flow(3, Direction::kBtoA, 2, 0)};
  core::NegotiationProblem problem =
      core::make_distance_problem(routing, flows, {0, 1, 2});
};

/// One wire-legal policy combination: every turn, proposal, acceptance and
/// termination policy the wire supports (no coin toss, no kFull), with and
/// without settlement rollback.
struct WirePolicy {
  core::TurnPolicy turn;
  core::ProposalPolicy proposal;
  core::AcceptancePolicy acceptance;
  core::TerminationPolicy termination;
  bool rollback;

  [[nodiscard]] core::NegotiationConfig config() const {
    core::NegotiationConfig cfg = wire_config();
    cfg.turn = turn;
    cfg.proposal = proposal;
    cfg.acceptance = acceptance;
    cfg.termination = termination;
    cfg.settlement_rollback = rollback;
    return cfg;
  }
};

std::vector<WirePolicy> wire_legal_policies() {
  std::vector<WirePolicy> out;
  for (auto turn : {core::TurnPolicy::kAlternate, core::TurnPolicy::kLowerGain})
    for (auto proposal : {core::ProposalPolicy::kMaxCombinedGain,
                          core::ProposalPolicy::kBestLocalMinImpact})
      for (auto acceptance : {core::AcceptancePolicy::kProtective,
                              core::AcceptancePolicy::kAlwaysAccept,
                              core::AcceptancePolicy::kVetoOwnLoss})
        for (auto termination : {core::TerminationPolicy::kEarly,
                                 core::TerminationPolicy::kNegotiateAll})
          for (bool rollback : {true, false})
            out.push_back({turn, proposal, acceptance, termination, rollback});
  return out;
}

/// Names each instance in test listings (e.g.
/// ".../alternate_combined_protective_early_rollback").
void PrintTo(const WirePolicy& w, std::ostream* os) {
  const char* turn[] = {"alternate", "lowergain", "cointoss"};
  const char* proposal[] = {"combined", "bestlocal"};
  const char* acceptance[] = {"protective", "always", "vetoloss"};
  const char* termination[] = {"early", "full", "all"};
  *os << turn[static_cast<int>(w.turn)] << '_'
      << proposal[static_cast<int>(w.proposal)] << '_'
      << acceptance[static_cast<int>(w.acceptance)] << '_'
      << termination[static_cast<int>(w.termination)]
      << (w.rollback ? "_rollback" : "_norollback");
}

/// Runs the in-process engine and a wire session on `problem` with oracles
/// from `make_oracle(side)`, and expects every outcome field both drivers
/// know to agree. Each agent counts both sides' rollbacks, so each must
/// equal the engine's total.
template <class MakeOracle>
void expect_wire_matches_engine(const core::NegotiationProblem& problem,
                                const core::NegotiationConfig& cfg,
                                MakeOracle make_oracle) {
  auto ea = make_oracle(0);
  auto eb = make_oracle(1);
  const core::NegotiationOutcome expected =
      core::NegotiationEngine(problem, *ea, *eb, cfg).run();

  auto oa = make_oracle(0);
  auto ob = make_oracle(1);
  auto [ca, cb] = make_in_memory_channel_pair();
  NegotiationAgent agent_a(problem, *oa, *ca, AgentConfig{0, 1, cfg});
  NegotiationAgent agent_b(problem, *ob, *cb, AgentConfig{1, 2, cfg});
  run_session(agent_a, agent_b);
  ASSERT_TRUE(agent_a.done()) << agent_a.error();
  ASSERT_TRUE(agent_b.done()) << agent_b.error();

  for (const NegotiationAgent* agent : {&agent_a, &agent_b}) {
    const core::NegotiationOutcome& got = agent->outcome();
    EXPECT_EQ(got.assignment.ix_of_flow, expected.assignment.ix_of_flow);
    EXPECT_EQ(got.rounds, expected.rounds);
    EXPECT_EQ(got.stop_reason, expected.stop_reason);
    EXPECT_EQ(got.reassignments, expected.reassignments);
    EXPECT_EQ(got.flows_negotiated, expected.flows_negotiated);
    EXPECT_EQ(got.flows_rolled_back, expected.flows_rolled_back);
  }
  EXPECT_EQ(agent_a.outcome().true_gain_a, expected.true_gain_a);
  EXPECT_EQ(agent_b.outcome().true_gain_b, expected.true_gain_b);
}

topology::IspPair first_pair_with_three_links(util::Rng& rng) {
  topology::TopologyGenerator gen(geo::CityDb::builtin(),
                                  topology::GeneratorConfig{});
  auto isps = gen.generate_universe(16, rng);
  for (std::size_t i = 0; i < isps.size(); ++i)
    for (std::size_t j = i + 1; j < isps.size(); ++j)
      if (auto p = topology::make_pair_if_peers(isps[i], isps[j], 3)) return *p;
  throw std::logic_error("no pair with 3 interconnections");
}

routing::LoadMap pre_failure_capacities(const routing::PairRouting& routing,
                                        const std::vector<traffic::Flow>& flows) {
  std::vector<std::size_t> all_ix(routing.pair().interconnection_count());
  for (std::size_t i = 0; i < all_ix.size(); ++i) all_ix[i] = i;
  auto pre_failure = routing::assign_early_exit(routing, flows, all_ix);
  auto baseline = routing::compute_loads(routing, flows, pre_failure);
  return capacity::assign_capacities(baseline, capacity::CapacityConfig{});
}

/// Failure scenario with bandwidth oracles, built once: reassignment
/// adverts must flow and the result must still match the engine.
struct BandwidthFixture {
  util::Rng rng{2024};
  topology::IspPair pair = first_pair_with_three_links(rng);
  routing::PairRouting routing{pair};
  std::vector<traffic::Flow> flows =
      traffic::TrafficMatrix::build(pair, Direction::kAtoB,
                                    traffic::TrafficConfig{}, rng)
          .flows();
  core::NegotiationProblem problem =
      core::make_failure_problem(routing, flows, 0);
  routing::LoadMap caps = pre_failure_capacities(routing, flows);

  static const BandwidthFixture& get() {
    static const BandwidthFixture fx;
    return fx;
  }
};

class AgentMatchesEngine : public ::testing::TestWithParam<WirePolicy> {};

TEST_P(AgentMatchesEngine, OnDistanceProblem) {
  SessionFixture fx;
  const core::NegotiationConfig cfg = GetParam().config();
  expect_wire_matches_engine(fx.problem, cfg, [&](int side) {
    return std::make_unique<core::DistanceOracle>(side, cfg.preferences);
  });
}

TEST_P(AgentMatchesEngine, WithBandwidthOraclesAndReassignment) {
  const BandwidthFixture& fx = BandwidthFixture::get();
  ASSERT_FALSE(fx.problem.negotiable.empty());
  core::NegotiationConfig cfg = GetParam().config();
  cfg.reassign_traffic_fraction = 0.05;
  expect_wire_matches_engine(fx.problem, cfg, [&](int side) {
    return std::make_unique<core::BandwidthOracle>(side, cfg.preferences,
                                                   fx.caps);
  });
}

INSTANTIATE_TEST_SUITE_P(WireLegalPolicies, AgentMatchesEngine,
                         ::testing::ValuesIn(wire_legal_policies()));

TEST(AgentSession, MatchesEngineOverRealSockets) {
  SessionFixture fx;
  auto cfg = wire_config();
  core::DistanceOracle ea(0, cfg.preferences), eb(1, cfg.preferences);
  core::NegotiationEngine engine(fx.problem, ea, eb, cfg);
  auto expected = engine.run();

  core::DistanceOracle oa(0, cfg.preferences), ob(1, cfg.preferences);
  auto [ca, cb] = make_socket_channel_pair();
  NegotiationAgent agent_a(fx.problem, oa, *ca, AgentConfig{0, 1, cfg});
  NegotiationAgent agent_b(fx.problem, ob, *cb, AgentConfig{1, 2, cfg});
  run_session(agent_a, agent_b);
  ASSERT_TRUE(agent_a.done()) << agent_a.error();
  ASSERT_TRUE(agent_b.done()) << agent_b.error();
  EXPECT_EQ(agent_a.outcome().assignment.ix_of_flow,
            expected.assignment.ix_of_flow);
}

TEST(AgentSession, CorruptionFailsCleanlyWithoutHanging) {
  SessionFixture fx;
  auto cfg = wire_config();
  core::DistanceOracle oa(0, cfg.preferences), ob(1, cfg.preferences);
  auto [ca, cb] = make_in_memory_channel_pair();
  // Corrupt every frame A sends.
  FaultyChannel bad_a(std::move(ca), 0.0, 1.0, 7);
  NegotiationAgent agent_a(fx.problem, oa, bad_a, AgentConfig{0, 1, cfg});
  NegotiationAgent agent_b(fx.problem, ob, *cb, AgentConfig{1, 2, cfg});
  const std::size_t steps = run_session(agent_a, agent_b, 1000);
  EXPECT_LT(steps, 1000u);  // no hang
  EXPECT_TRUE(agent_b.failed());
  EXPECT_NE(agent_b.error().find("stream error"), std::string::npos);
}

TEST(AgentSession, DropsStallDetected) {
  SessionFixture fx;
  auto cfg = wire_config();
  core::DistanceOracle oa(0, cfg.preferences), ob(1, cfg.preferences);
  auto [ca, cb] = make_in_memory_channel_pair();
  FaultyChannel lossy(std::move(ca), /*drop=*/1.0, 0.0, 7);
  NegotiationAgent agent_a(fx.problem, oa, lossy, AgentConfig{0, 1, cfg});
  NegotiationAgent agent_b(fx.problem, ob, *cb, AgentConfig{1, 2, cfg});
  const std::size_t steps = run_session(agent_a, agent_b, 1000);
  EXPECT_LT(steps, 1000u);  // stall detection kicks in
  EXPECT_FALSE(agent_b.done());
}

TEST(AgentSession, ContractMismatchFails) {
  SessionFixture fx;
  auto cfg_a = wire_config();
  auto cfg_b = wire_config();
  cfg_b.preferences.range = 5;  // different P: contract violation
  core::DistanceOracle oa(0, cfg_a.preferences), ob(1, cfg_b.preferences);
  auto [ca, cb] = make_in_memory_channel_pair();
  NegotiationAgent agent_a(fx.problem, oa, *ca, AgentConfig{0, 1, cfg_a});
  NegotiationAgent agent_b(fx.problem, ob, *cb, AgentConfig{1, 2, cfg_b});
  run_session(agent_a, agent_b, 1000);
  EXPECT_TRUE(agent_a.failed() || agent_b.failed());
}

TEST(AgentSession, RejectsUnsupportedConfig) {
  SessionFixture fx;
  core::DistanceOracle oa(0, core::PreferenceConfig{});
  auto [ca, cb] = make_in_memory_channel_pair();
  auto cfg = wire_config();
  cfg.tie_break = core::TieBreak::kRandom;
  EXPECT_THROW(NegotiationAgent(fx.problem, oa, *ca, AgentConfig{0, 1, cfg}),
               std::invalid_argument);
  cfg = wire_config();
  cfg.termination = core::TerminationPolicy::kFull;
  EXPECT_THROW(NegotiationAgent(fx.problem, oa, *ca, AgentConfig{0, 1, cfg}),
               std::invalid_argument);
  cfg = wire_config();
  cfg.turn = core::TurnPolicy::kCoinToss;
  EXPECT_THROW(NegotiationAgent(fx.problem, oa, *ca, AgentConfig{0, 1, cfg}),
               std::invalid_argument);
}

}  // namespace
}  // namespace nexit::agent
