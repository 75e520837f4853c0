#include <gtest/gtest.h>

#include "capacity/capacity.hpp"
#include "core/engine.hpp"
#include "core/oracles.hpp"
#include "runtime/clock.hpp"
#include "runtime/manager.hpp"
#include "runtime/reactor.hpp"
#include "runtime/scenario.hpp"
#include "runtime/session.hpp"
#include "test_digest.hpp"
#include "test_topologies.hpp"

namespace nexit::runtime {
namespace {

using testing::figure1_pair;
using testing::make_flow;
using traffic::Direction;

// --- TimerQueue --------------------------------------------------------------

TEST(TimerQueue, FiresInDeadlineThenInsertionOrder) {
  TimerQueue q;
  q.schedule(TimerItem{5, TimerKind::kSessionDeadline, 1, {}});
  q.schedule(TimerItem{3, TimerKind::kSessionDeadline, 2, {}});
  q.schedule(TimerItem{5, TimerKind::kSessionDeadline, 3, {}});
  q.schedule(TimerItem{4, TimerKind::kSessionDeadline, 4, {}});
  EXPECT_EQ(q.next_deadline(), 3u);

  const auto early = q.expire_until(4);
  ASSERT_EQ(early.size(), 2u);
  EXPECT_EQ(early[0].session, 2u);
  EXPECT_EQ(early[1].session, 4u);

  // Equal deadlines pop in insertion order: 1 before 3.
  const auto late = q.expire_until(5);
  ASSERT_EQ(late.size(), 2u);
  EXPECT_EQ(late[0].session, 1u);
  EXPECT_EQ(late[1].session, 3u);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.next_deadline(), kNoDeadline);
}

TEST(TimerQueue, ExpireUntilLeavesFutureItems) {
  TimerQueue q;
  q.schedule(TimerItem{10, TimerKind::kSessionStart, 7, {}});
  EXPECT_TRUE(q.expire_until(9).empty());
  EXPECT_EQ(q.size(), 1u);
}

// --- Reactor -----------------------------------------------------------------

TEST(Reactor, InMemoryReadinessTracksBufferedBytes) {
  Reactor r;
  auto [a, b] = agent::make_in_memory_channel_pair();
  r.watch(3, {a.get(), b.get()});
  EXPECT_TRUE(r.ready_now().empty());

  a->send({1, 2, 3});  // b now has bytes buffered
  const auto ready = r.ready_now();
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0], 3u);

  (void)b->receive();
  EXPECT_TRUE(r.ready_now().empty());
  r.unwatch(3);
  EXPECT_EQ(r.watched(), 0u);
}

TEST(Reactor, SocketReadinessComesFromPoll) {
  Reactor r;
  auto [a, b] = agent::make_socket_channel_pair();
  r.watch(9, {a.get(), b.get()});
  EXPECT_TRUE(r.ready_now().empty());

  a->send({42});
  const auto ready = r.ready_now();
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0], 9u);
  (void)b->receive();
}

// --- Session -----------------------------------------------------------------

struct Fixture {
  topology::IspPair pair = figure1_pair();
  routing::PairRouting routing{pair};
  std::vector<traffic::Flow> flows{
      make_flow(0, Direction::kAtoB, 1, 2), make_flow(1, Direction::kBtoA, 1, 0),
      make_flow(2, Direction::kAtoB, 0, 2), make_flow(3, Direction::kBtoA, 2, 0)};
  core::NegotiationProblem problem =
      core::make_distance_problem(routing, flows, {0, 1, 2});
  core::NegotiationConfig config = [] {
    core::NegotiationConfig c;
    c.tie_break = core::TieBreak::kDeterministic;
    return c;
  }();
};

ChannelFactory in_memory_factory() {
  return [](int) { return agent::make_in_memory_channel_pair(); };
}

TEST(Session, RunsToDoneAndMatchesEngine) {
  Fixture fx;
  core::DistanceOracle ea(0, fx.config.preferences), eb(1, fx.config.preferences);
  core::NegotiationEngine engine(fx.problem, ea, eb, fx.config);
  const auto expected = engine.run();

  core::DistanceOracle oa(0, fx.config.preferences), ob(1, fx.config.preferences);
  Session s(0, fx.problem, oa, ob, fx.config, in_memory_factory());
  EXPECT_EQ(s.status(), SessionStatus::kPending);
  s.start(0);
  EXPECT_EQ(s.status(), SessionStatus::kRunning);
  EXPECT_TRUE(s.needs_kick());
  s.pump(0);
  ASSERT_EQ(s.status(), SessionStatus::kDone) << s.error();
  EXPECT_EQ(s.outcome().assignment.ix_of_flow, expected.assignment.ix_of_flow);
  EXPECT_EQ(s.attempts(), 1);
  EXPECT_GT(s.messages_sent(), 0u);
}

TEST(Session, TotalLossFailsViaTimeoutNotHang) {
  // The FaultyChannel satellite: nonzero drop probability must end in
  // kFailed through the round timeout, never an eternal stall.
  Fixture fx;
  core::DistanceOracle oa(0, fx.config.preferences), ob(1, fx.config.preferences);
  SessionLimits limits;
  limits.handshake_deadline = 8;
  limits.round_timeout = 4;
  limits.max_attempts = 2;
  auto lossy_factory = [](int attempt)
      -> std::pair<std::unique_ptr<agent::Channel>,
                   std::unique_ptr<agent::Channel>> {
    auto [a, b] = agent::make_in_memory_channel_pair();
    return {std::make_unique<agent::FaultyChannel>(
                std::move(a), /*drop=*/1.0, 0.0, 100 + attempt),
            std::make_unique<agent::FaultyChannel>(
                std::move(b), /*drop=*/1.0, 0.0, 200 + attempt)};
  };
  Session s(0, fx.problem, oa, ob, fx.config, lossy_factory, limits);
  s.start(0);
  s.pump(0);  // handshakes sent into the void
  EXPECT_EQ(s.status(), SessionStatus::kRunning);

  // Before the deadline nothing changes; at the deadline attempt 2 begins;
  // at its deadline the session fails for good.
  s.check_deadline(7);
  EXPECT_EQ(s.status(), SessionStatus::kRunning);
  EXPECT_EQ(s.attempts(), 1);
  s.check_deadline(8);
  EXPECT_EQ(s.attempts(), 2);
  EXPECT_TRUE(s.needs_kick());
  s.pump(8);
  s.check_deadline(16);
  ASSERT_EQ(s.status(), SessionStatus::kFailed);
  EXPECT_NE(s.error().find("handshake deadline"), std::string::npos);
}

TEST(Session, RetryWithFreshChannelsRecovers) {
  // Attempt 0 gets a black-hole transport, attempt 1 a clean one: the
  // bounded-retry path must recover and still match the engine.
  Fixture fx;
  core::DistanceOracle ea(0, fx.config.preferences), eb(1, fx.config.preferences);
  core::NegotiationEngine engine(fx.problem, ea, eb, fx.config);
  const auto expected = engine.run();

  core::DistanceOracle oa(0, fx.config.preferences), ob(1, fx.config.preferences);
  SessionLimits limits;
  limits.handshake_deadline = 8;
  limits.max_attempts = 2;
  auto flaky_factory = [](int attempt)
      -> std::pair<std::unique_ptr<agent::Channel>,
                   std::unique_ptr<agent::Channel>> {
    auto [a, b] = agent::make_in_memory_channel_pair();
    if (attempt == 0) {
      return {std::make_unique<agent::FaultyChannel>(std::move(a), 1.0, 0.0, 1),
              std::make_unique<agent::FaultyChannel>(std::move(b), 1.0, 0.0, 2)};
    }
    return {std::move(a), std::move(b)};
  };
  Session s(0, fx.problem, oa, ob, fx.config, flaky_factory, limits);
  s.start(0);
  s.pump(0);
  s.check_deadline(8);  // attempt 0 times out, attempt 1 begins
  EXPECT_EQ(s.attempts(), 2);
  s.pump(8);
  ASSERT_EQ(s.status(), SessionStatus::kDone) << s.error();
  EXPECT_EQ(s.outcome().assignment.ix_of_flow, expected.assignment.ix_of_flow);
}

TEST(Session, CorruptionConsumesRetriesThenFails) {
  Fixture fx;
  core::DistanceOracle oa(0, fx.config.preferences), ob(1, fx.config.preferences);
  SessionLimits limits;
  limits.max_attempts = 3;
  auto corrupt_factory = [](int attempt)
      -> std::pair<std::unique_ptr<agent::Channel>,
                   std::unique_ptr<agent::Channel>> {
    auto [a, b] = agent::make_in_memory_channel_pair();
    return {std::make_unique<agent::FaultyChannel>(
                std::move(a), 0.0, /*corrupt=*/1.0, 10 + attempt),
            std::move(b)};
  };
  Session s(0, fx.problem, oa, ob, fx.config, corrupt_factory, limits);
  s.start(0);
  // Every attempt dies on a stream error as soon as B decodes; retries are
  // consumed synchronously inside pump (the failure is detected, not timed
  // out), so pumping drains all attempts.
  for (int i = 0; i < 10 && !s.terminal(); ++i) s.pump(static_cast<Tick>(i));
  ASSERT_EQ(s.status(), SessionStatus::kFailed);
  EXPECT_EQ(s.attempts(), 3);
  EXPECT_NE(s.error().find("stream error"), std::string::npos);
}

TEST(Session, StepBudgetExhaustionFailsWithoutRetrying) {
  // The max_steps budget is global across attempts; burning it must not
  // spawn doomed fresh attempts.
  Fixture fx;
  core::DistanceOracle oa(0, fx.config.preferences), ob(1, fx.config.preferences);
  SessionLimits limits;
  limits.max_steps = 2;  // far below what any negotiation needs
  Session s(0, fx.problem, oa, ob, fx.config, in_memory_factory(), limits);
  s.start(0);
  s.pump(0);
  while (!s.terminal()) s.pump(1);
  EXPECT_EQ(s.status(), SessionStatus::kFailed);
  EXPECT_EQ(s.attempts(), 1);
  EXPECT_NE(s.error().find("step budget"), std::string::npos);
}

TEST(Session, CancelAndRestartLifecycle) {
  Fixture fx;
  core::DistanceOracle oa(0, fx.config.preferences), ob(1, fx.config.preferences);
  Session s(1, fx.problem, oa, ob, fx.config, in_memory_factory());
  s.start(0);
  s.restart(3);  // planned restart does not consume a retry
  EXPECT_EQ(s.attempts(), 2);
  EXPECT_EQ(s.status(), SessionStatus::kRunning);
  s.cancel(4, "scenario says so");
  EXPECT_EQ(s.status(), SessionStatus::kCancelled);
  EXPECT_EQ(s.error(), "scenario says so");
  s.restart(5);  // no-op once terminal
  EXPECT_EQ(s.status(), SessionStatus::kCancelled);
}

// --- SessionManager ----------------------------------------------------------

TEST(SessionManager, DrivesManySessionsOverBothTransports) {
  Fixture fx;
  core::DistanceOracle ea(0, fx.config.preferences), eb(1, fx.config.preferences);
  core::NegotiationEngine engine(fx.problem, ea, eb, fx.config);
  const auto expected = engine.run();

  constexpr std::size_t kSessions = 16;
  std::vector<std::unique_ptr<core::DistanceOracle>> oracles;
  SessionManager mgr(RuntimeConfig{});
  for (std::size_t i = 0; i < kSessions; ++i) {
    auto& oa = *oracles.emplace_back(
        std::make_unique<core::DistanceOracle>(0, fx.config.preferences));
    auto& ob = *oracles.emplace_back(
        std::make_unique<core::DistanceOracle>(1, fx.config.preferences));
    ChannelFactory factory =
        i % 2 == 0 ? in_memory_factory()
                   : ChannelFactory([](int) {
                       return agent::make_socket_channel_pair();
                     });
    mgr.add(std::make_unique<Session>(static_cast<std::uint32_t>(i), fx.problem,
                                      oa, ob, fx.config, std::move(factory)),
            /*start_at=*/i);  // staggered
  }
  const RuntimeStats stats = mgr.run();
  EXPECT_EQ(stats.sessions, kSessions);
  EXPECT_EQ(stats.done, kSessions);
  EXPECT_EQ(stats.failed, 0u);
  for (std::size_t i = 0; i < kSessions; ++i) {
    const Session& s = mgr.session(static_cast<std::uint32_t>(i));
    ASSERT_EQ(s.status(), SessionStatus::kDone) << i << ": " << s.error();
    EXPECT_EQ(s.outcome().assignment.ix_of_flow, expected.assignment.ix_of_flow);
    EXPECT_GE(s.started_at(), static_cast<Tick>(i));  // stagger respected
  }
}

TEST(SessionManager, TimedCallbackFiresOnSchedule) {
  SessionManager mgr(RuntimeConfig{});
  Fixture fx;
  core::DistanceOracle oa(0, fx.config.preferences), ob(1, fx.config.preferences);
  mgr.add(std::make_unique<Session>(0, fx.problem, oa, ob, fx.config,
                                    in_memory_factory()),
          /*start_at=*/0);
  Tick fired_at = 0;
  mgr.at(5, [&](Tick now) { fired_at = now; });
  mgr.run();
  EXPECT_GE(fired_at, 5u);
}

// --- Scenario ----------------------------------------------------------------

ScenarioConfig small_scenario() {
  ScenarioConfig cfg;
  cfg.universe.isp_count = 20;
  cfg.universe.seed = 5;
  cfg.universe.max_pairs = 8;
  cfg.min_links = 2;
  cfg.seed = 11;
  return cfg;
}

TEST(Scenario, OutcomesBitIdenticalAcrossThreadCounts) {
  ScenarioConfig cfg = small_scenario();
  cfg.session_count = 24;  // cycles the 8 pairs with per-session traffic
  cfg.runtime.threads = 1;
  const ScenarioReport serial = run_scenario(cfg);
  cfg.runtime.threads = 4;
  const ScenarioReport parallel = run_scenario(cfg);

  ASSERT_EQ(serial.sessions.size(), 24u);
  for (const auto& s : serial.sessions)
    ASSERT_EQ(s.status, SessionStatus::kDone) << s.error;
  testing::expect_reports_equal(serial, parallel);
}

TEST(Scenario, SessionsOnSamePairDifferByTraffic) {
  // Synthetic scale-up must not clone negotiations: sessions cycling the
  // same pair get distinct pre-forked traffic streams.
  ScenarioConfig cfg = small_scenario();
  cfg.universe.max_pairs = 2;
  cfg.session_count = 4;
  cfg.traffic = ScenarioTraffic::kBidirectionalUniformRandom;
  Scenario scenario(cfg);
  const ScenarioReport report = scenario.run();
  ASSERT_EQ(report.sessions.size(), 4u);
  EXPECT_EQ(report.sessions[0].pair_label, report.sessions[2].pair_label);
  const auto& f0 = scenario.world_of(0).traffic.flows();
  const auto& f2 = scenario.world_of(2).traffic.flows();
  ASSERT_EQ(f0.size(), f2.size());
  bool any_size_differs = false;
  for (std::size_t i = 0; i < f0.size(); ++i)
    any_size_differs = any_size_differs || f0[i].size != f2[i].size;
  EXPECT_TRUE(any_size_differs);
}

TEST(Scenario, PeerRestartStillConvergesToSameOutcome) {
  ScenarioConfig cfg = small_scenario();
  cfg.universe.max_pairs = 1;
  cfg.start_stagger = 0;
  const ScenarioReport plain = run_scenario(cfg);
  ASSERT_EQ(plain.sessions.size(), 1u);
  ASSERT_EQ(plain.sessions[0].status, SessionStatus::kDone);

  cfg.events.push_back(ScenarioEvent{0, EventKind::kPeerRestart, 0, 0});
  const ScenarioReport restarted = run_scenario(cfg);
  ASSERT_EQ(restarted.sessions[0].status, SessionStatus::kDone)
      << restarted.sessions[0].error;
  EXPECT_EQ(restarted.sessions[0].outcome.assignment.ix_of_flow,
            plain.sessions[0].outcome.assignment.ix_of_flow);
  EXPECT_GE(restarted.sessions[0].attempts, 1);
}

TEST(Scenario, FlowChurnSpawnsRenegotiation) {
  ScenarioConfig cfg = small_scenario();
  cfg.universe.max_pairs = 2;
  cfg.start_stagger = 50;  // session 1 still pending when churn hits it
  cfg.events.push_back(ScenarioEvent{10, EventKind::kFlowChurn, 1, 999});
  const ScenarioReport report = run_scenario(cfg);
  ASSERT_EQ(report.sessions.size(), 3u);
  EXPECT_EQ(report.sessions[1].status, SessionStatus::kCancelled);
  const auto& reneg = report.sessions[2];
  EXPECT_EQ(reneg.kind, SessionKind::kChurnRenegotiation);
  EXPECT_EQ(reneg.parent, 1);
  ASSERT_EQ(reneg.status, SessionStatus::kDone) << reneg.error;
  EXPECT_GT(reneg.outcome.flows_negotiated, 0u);
}

TEST(Scenario, LinkFailureReproducesFailureNegotiationExample) {
  // The acceptance scenario: a link fails mid-session, the affected flows
  // renegotiate over the survivors with bandwidth oracles — and the result
  // must equal an in-process engine run on the identical problem, built
  // below by the scenario's own recipe: early-exit pre-failure routing,
  // capacities from pre-failure loads, busiest interconnection failed.
  ScenarioConfig cfg;
  cfg.universe.isp_count = 30;
  cfg.universe.seed = 11;
  cfg.universe.max_pairs = 1;
  cfg.min_links = 3;
  cfg.traffic = ScenarioTraffic::kGravityAtoB;
  cfg.negotiation.reassign_traffic_fraction = 0.05;
  cfg.limits.max_steps_per_pump = 2;  // yield every two pump steps...
  cfg.events.push_back(
      ScenarioEvent{1, EventKind::kLinkFailure, 0, kBusiestIx});
  // ...so the tick-1 failure lands while session 0 is genuinely
  // mid-negotiation (asserted below via kCancelled).

  Scenario scenario(cfg);
  const ScenarioReport report = scenario.run();
  ASSERT_EQ(report.sessions.size(), 2u);
  EXPECT_EQ(report.sessions[0].status, SessionStatus::kCancelled);
  const auto& reneg = report.sessions[1];
  ASSERT_EQ(reneg.kind, SessionKind::kFailureRenegotiation);
  ASSERT_EQ(reneg.status, SessionStatus::kDone) << reneg.error;

  // Reference: NegotiationEngine in-process on the same
  // failure problem with bandwidth oracles and deterministic tie-breaks.
  const SessionWorld& world = scenario.world_of(1);
  core::NegotiationConfig ncfg;
  ncfg.tie_break = core::TieBreak::kDeterministic;
  ncfg.reassign_traffic_fraction = 0.05;
  core::BandwidthOracle ea(0, ncfg.preferences, world.capacities);
  core::BandwidthOracle eb(1, ncfg.preferences, world.capacities);
  core::NegotiationEngine engine(world.problem, ea, eb, ncfg);
  const auto expected = engine.run();

  EXPECT_EQ(reneg.outcome.assignment.ix_of_flow,
            expected.assignment.ix_of_flow);
  EXPECT_EQ(reneg.outcome.flows_moved, expected.flows_moved);
  EXPECT_EQ(reneg.outcome.reassignments, expected.reassignments);
  // No renegotiated flow still uses the failed interconnection.
  for (std::size_t idx : world.problem.negotiable)
    EXPECT_NE(reneg.outcome.assignment.ix_of_flow[idx], world.failed_ix);
}

TEST(Scenario, FaultySessionsFailCleanlyAmongHealthyOnes) {
  // Mixed population: healthy sessions complete, a black-hole session fails
  // by timeout, and the whole run terminates (nothing spins forever).
  ScenarioConfig cfg = small_scenario();
  cfg.universe.max_pairs = 3;
  cfg.session_count = 3;
  cfg.faults.drop = 1.0;  // applied to every initial session
  cfg.limits.handshake_deadline = 8;
  cfg.limits.max_attempts = 2;
  const ScenarioReport all_lossy = run_scenario(cfg);
  for (const auto& s : all_lossy.sessions) {
    EXPECT_EQ(s.status, SessionStatus::kFailed);
    EXPECT_EQ(s.attempts, 2);
  }
  EXPECT_LE(all_lossy.stats.final_tick, 64u);

  // Targeted faults: only session 1's transport is lossy; its neighbours
  // must be untouched.
  cfg.fault_targets = {1};
  const ScenarioReport targeted = run_scenario(cfg);
  EXPECT_EQ(targeted.sessions[0].status, SessionStatus::kDone);
  EXPECT_EQ(targeted.sessions[1].status, SessionStatus::kFailed);
  EXPECT_EQ(targeted.sessions[2].status, SessionStatus::kDone);
  EXPECT_EQ(targeted.stats.failed, 1u);

  // A fault target that can never exist is a config bug, not a silent
  // no-fault run.
  cfg.fault_targets = {99};
  EXPECT_THROW(run_scenario(cfg), std::invalid_argument);
}

}  // namespace
}  // namespace nexit::runtime
