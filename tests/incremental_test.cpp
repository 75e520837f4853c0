// Bit-identity guarantees of the incremental evaluation layer:
//  - IncrementalLoads equals a full compute_loads() rebuild after any
//    randomized sequence of moves / newly-counted flows,
//  - every oracle's evaluate_incremental() equals a fresh full evaluate()
//    after randomized accepted-move + settle sequences,
//  - NegotiationEngine outcomes are identical with incremental evaluation
//    on and off (and pass the always-on cross-check),
//  - the engine cross-check actually catches a lying oracle,
//  - the bandwidth experiment is bit-identical across --threads values and
//    across the incremental knob.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "agent/agent.hpp"
#include "capacity/capacity.hpp"
#include "core/engine.hpp"
#include "core/oracles.hpp"
#include "routing/incremental_loads.hpp"
#include "sim/bandwidth_experiment.hpp"
#include "sim/pair_universe.hpp"
#include "util/rng.hpp"

namespace nexit {
namespace {

topology::IspPair generated_pair(std::uint64_t seed, std::size_t pops) {
  sim::UniverseConfig u;
  u.isp_count = 24;
  u.seed = seed;
  u.generator.min_pops = pops;
  u.generator.max_pops = pops;
  u.max_pairs = 4;
  auto pairs = sim::build_pair_universe(u, 3);
  if (pairs.empty()) throw std::runtime_error("no pair generated");
  return pairs.front();
}

bool same_loads_bits(const routing::LoadMap& a, const routing::LoadMap& b) {
  for (int s = 0; s < 2; ++s) {
    const auto& x = a.per_side[static_cast<std::size_t>(s)];
    const auto& y = b.per_side[static_cast<std::size_t>(s)];
    if (x.size() != y.size()) return false;
    if (!x.empty() &&
        std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) != 0)
      return false;
  }
  return true;
}

bool same_evaluation_bits(const core::Evaluation& a, const core::Evaluation& b) {
  if (a.true_value.size() != b.true_value.size()) return false;
  for (std::size_t i = 0; i < a.true_value.size(); ++i) {
    if (a.true_value[i].size() != b.true_value[i].size()) return false;
    if (!a.true_value[i].empty() &&
        std::memcmp(a.true_value[i].data(), b.true_value[i].data(),
                    a.true_value[i].size() * sizeof(double)) != 0)
      return false;
  }
  if (a.classes.flows.size() != b.classes.flows.size()) return false;
  for (std::size_t i = 0; i < a.classes.flows.size(); ++i) {
    if (a.classes.flows[i].flow != b.classes.flows[i].flow ||
        a.classes.flows[i].pref_of_candidate !=
            b.classes.flows[i].pref_of_candidate)
      return false;
  }
  return true;
}

/// Scenario shared by the oracle properties: a generated pair, one-direction
/// traffic, capacities derived from the pre-failure loads, and the failure
/// negotiation problem for failed interconnection 0.
struct Scenario {
  topology::IspPair pair;
  routing::PairRouting routing{pair};
  traffic::TrafficMatrix tm;
  routing::LoadMap caps;
  core::NegotiationProblem problem;

  explicit Scenario(std::uint64_t seed, std::size_t pops = 10)
      : pair(generated_pair(seed, pops)),
        tm(make_traffic(pair, seed)),
        caps(make_caps(routing, tm)),
        problem(make_problem(routing, tm)) {}

  /// First failure with a non-empty negotiable set (some links carry none).
  static core::NegotiationProblem make_problem(
      const routing::PairRouting& r, const traffic::TrafficMatrix& tm) {
    for (std::size_t failed = 0; failed < r.pair().interconnection_count();
         ++failed) {
      core::NegotiationProblem p =
          core::make_failure_problem(r, tm.flows(), failed);
      if (!p.negotiable.empty()) return p;
    }
    throw std::runtime_error("no usable failure scenario");
  }

  static traffic::TrafficMatrix make_traffic(const topology::IspPair& p,
                                             std::uint64_t seed) {
    util::Rng rng(seed ^ 0x7e57u);
    return traffic::TrafficMatrix::build(p, traffic::Direction::kAtoB,
                                         traffic::TrafficConfig{}, rng);
  }
  static routing::LoadMap make_caps(const routing::PairRouting& r,
                                    const traffic::TrafficMatrix& tm) {
    std::vector<std::size_t> all_ix(r.pair().interconnection_count());
    for (std::size_t i = 0; i < all_ix.size(); ++i) all_ix[i] = i;
    const routing::LoadMap baseline = routing::compute_loads(
        r, tm.flows(), routing::assign_early_exit(r, tm.flows(), all_ix));
    return capacity::assign_capacities(baseline, capacity::CapacityConfig{});
  }
};

TEST(IncrementalLoads, RandomMovesStayBitIdenticalToFullRebuild) {
  Scenario sc(17);
  const auto& flows = sc.tm.flows();
  routing::Assignment assignment = sc.problem.default_assignment;
  routing::IncrementalLoads inc(sc.routing, flows);
  inc.rebuild(assignment, nullptr);

  util::Rng rng(99);
  const std::size_t n_ix = sc.pair.interconnection_count();
  for (int step = 0; step < 300; ++step) {
    const std::size_t f =
        static_cast<std::size_t>(rng.next_u64()) % flows.size();
    const std::size_t to = static_cast<std::size_t>(rng.next_u64()) % n_ix;
    assignment.ix_of_flow[f] = to;
    inc.move_flow(f, to);
    ASSERT_TRUE(same_loads_bits(
        inc.loads(), routing::compute_loads(sc.routing, flows, assignment)))
        << "diverged at step " << step;
  }
}

TEST(IncrementalLoads, CountedMaskAndCountFlow) {
  Scenario sc(23);
  const auto& flows = sc.tm.flows();
  routing::Assignment assignment = sc.problem.default_assignment;

  // Start with only even-indexed flows counted.
  std::vector<char> counted(flows.size(), 0);
  for (std::size_t i = 0; i < flows.size(); i += 2) counted[i] = 1;
  routing::IncrementalLoads inc(sc.routing, flows);
  inc.rebuild(assignment, &counted);

  const auto reference = [&]() {
    routing::LoadMap m = routing::LoadMap::zeros(sc.pair);
    for (std::size_t i = 0; i < flows.size(); ++i)
      if (counted[i])
        routing::add_flow_load(m, sc.routing, flows[i],
                               assignment.ix_of_flow[i], 1.0);
    return m;
  };
  ASSERT_TRUE(same_loads_bits(inc.loads(), reference()));

  // Uncounted flows move silently, then start counting at their position.
  util::Rng rng(5);
  const std::size_t n_ix = sc.pair.interconnection_count();
  for (int step = 0; step < 100; ++step) {
    const std::size_t f =
        static_cast<std::size_t>(rng.next_u64()) % flows.size();
    if (rng.next_bool()) {
      const std::size_t to = static_cast<std::size_t>(rng.next_u64()) % n_ix;
      assignment.ix_of_flow[f] = to;
      inc.move_flow(f, to);
    } else if (!counted[f]) {
      counted[f] = 1;
      inc.count_flow(f);
    }
    ASSERT_TRUE(same_loads_bits(inc.loads(), reference()))
        << "diverged at step " << step;
  }
}

TEST(IncrementalLoads, TouchedLinksCoverEveryChange) {
  Scenario sc(31);
  const auto& flows = sc.tm.flows();
  routing::IncrementalLoads inc(sc.routing, flows);
  inc.rebuild(sc.problem.default_assignment, nullptr);
  (void)inc.loads();
  routing::LoadMap before = inc.loads();
  ASSERT_TRUE(inc.take_touched()[0].empty());

  inc.move_flow(0, sc.problem.candidates[1]);
  inc.move_flow(1, sc.problem.candidates[0]);
  const routing::LoadMap after = inc.loads();
  const auto touched = inc.take_touched();
  for (int s = 0; s < 2; ++s) {
    std::vector<char> is_touched(before.per_side[s].size(), 0);
    for (graph::EdgeIndex e : touched[static_cast<std::size_t>(s)])
      is_touched[static_cast<std::size_t>(e)] = 1;
    for (std::size_t e = 0; e < before.per_side[s].size(); ++e) {
      if (before.per_side[s][e] != after.per_side[s][e]) {
        EXPECT_TRUE(is_touched[e]) << "side " << s << " edge " << e;
      }
    }
  }
}

enum class OracleKind { kBandwidthTentative, kBandwidthExcluded, kPiecewise,
                        kDistance };

std::unique_ptr<core::PreferenceOracle> make_oracle(OracleKind kind, int side,
                                                    const routing::LoadMap& caps) {
  const core::PreferenceConfig pc;
  switch (kind) {
    case OracleKind::kBandwidthTentative:
      return std::make_unique<core::BandwidthOracle>(
          side, pc, caps, core::OpenFlowModel::kAtTentative);
    case OracleKind::kBandwidthExcluded:
      return std::make_unique<core::BandwidthOracle>(
          side, pc, caps, core::OpenFlowModel::kExcluded);
    case OracleKind::kPiecewise:
      return std::make_unique<core::PiecewiseCostOracle>(side, pc, caps);
    case OracleKind::kDistance:
      return std::make_unique<core::DistanceOracle>(side, pc);
  }
  throw std::logic_error("bad kind");
}

class OracleIncrementalEquivalence
    : public ::testing::TestWithParam<OracleKind> {};

TEST_P(OracleIncrementalEquivalence, RandomAcceptSequencesStayBitIdentical) {
  for (std::uint64_t seed : {3u, 11u}) {
    Scenario sc(seed);
    const core::NegotiationProblem& p = sc.problem;
    ASSERT_FALSE(p.negotiable.empty());

    routing::Assignment tentative = p.default_assignment;
    std::vector<char> remaining(p.negotiable.size(), 1);
    const core::OracleContext ctx{&p, &tentative, &remaining};

    for (int side = 0; side < 2; ++side) {
      auto inc_oracle = make_oracle(GetParam(), side, sc.caps);
      core::Evaluation latest = inc_oracle->evaluate(ctx);

      util::Rng rng(seed * 7919 + static_cast<std::uint64_t>(side));
      core::EvaluationDelta delta;
      std::vector<std::size_t> open_positions(p.negotiable.size());
      for (std::size_t i = 0; i < open_positions.size(); ++i)
        open_positions[i] = i;

      while (!open_positions.empty()) {
        // Accept a random open position at a random candidate.
        const std::size_t pick =
            static_cast<std::size_t>(rng.next_u64()) % open_positions.size();
        const std::size_t pos = open_positions[pick];
        open_positions.erase(open_positions.begin() +
                             static_cast<std::ptrdiff_t>(pick));
        const std::size_t ci =
            static_cast<std::size_t>(rng.next_u64()) % p.candidates.size();
        const std::size_t ix = p.candidates[ci];
        for (std::size_t m : p.members_of(pos)) {
          if (tentative.ix_of_flow[m] != ix)
            delta.moves.push_back(
                core::EvaluationDelta::Move{m, tentative.ix_of_flow[m], ix});
          tentative.ix_of_flow[m] = ix;
        }
        remaining[pos] = 0;
        delta.settled_positions.push_back(pos);

        // Re-evaluate after a batch of 1-3 accepts (reassignment quantum).
        if (rng.next_bool() || open_positions.empty()) {
          latest = inc_oracle->evaluate_incremental(ctx, delta);
          delta.clear();
          auto fresh = make_oracle(GetParam(), side, sc.caps);
          const core::Evaluation full = fresh->evaluate(ctx);
          ASSERT_TRUE(same_evaluation_bits(full, latest))
              << "side " << side << ", " << open_positions.size()
              << " positions left";
          EXPECT_LE(latest.rows_recomputed, p.negotiable.size());
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllOracles, OracleIncrementalEquivalence,
                         ::testing::Values(OracleKind::kBandwidthTentative,
                                           OracleKind::kBandwidthExcluded,
                                           OracleKind::kPiecewise,
                                           OracleKind::kDistance));

void expect_same_outcome(const core::NegotiationOutcome& a,
                         const core::NegotiationOutcome& b) {
  EXPECT_EQ(a.assignment.ix_of_flow, b.assignment.ix_of_flow);
  EXPECT_EQ(a.true_gain_a, b.true_gain_a);  // exact, not near
  EXPECT_EQ(a.true_gain_b, b.true_gain_b);
  EXPECT_EQ(a.disclosed_gain_a, b.disclosed_gain_a);
  EXPECT_EQ(a.disclosed_gain_b, b.disclosed_gain_b);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.flows_moved, b.flows_moved);
  EXPECT_EQ(a.flows_rolled_back, b.flows_rolled_back);
  EXPECT_EQ(a.reassignments, b.reassignments);
  EXPECT_EQ(a.stop_reason, b.stop_reason);
}

class EngineIncrementalEquivalence
    : public ::testing::TestWithParam<OracleKind> {};

TEST_P(EngineIncrementalEquivalence, OutcomeMatchesFullRecompute) {
  for (std::uint64_t seed : {7u, 29u}) {
    Scenario sc(seed);
    const auto run = [&](bool incremental, int verify_every) {
      auto a = make_oracle(GetParam(), 0, sc.caps);
      auto b = make_oracle(GetParam(), 1, sc.caps);
      core::NegotiationConfig cfg;
      cfg.acceptance = core::AcceptancePolicy::kProtective;
      cfg.reassign_traffic_fraction = 0.05;
      cfg.incremental_evaluation = incremental;
      cfg.verify_incremental_every = verify_every;
      cfg.seed = seed * 31 + 1;
      core::NegotiationEngine engine(sc.problem, *a, *b, cfg);
      return engine.run();
    };
    const core::NegotiationOutcome full = run(false, 0);
    // verify_every=1 also exercises the cross-check on every refresh (it
    // throws on divergence, so merely completing is part of the assertion).
    const core::NegotiationOutcome inc = run(true, 1);
    expect_same_outcome(full, inc);
    EXPECT_EQ(inc.evaluate_calls_full, 2u);  // only the initial refresh
    if (full.reassignments > 0) {
      EXPECT_GT(inc.evaluate_calls_incremental, 0u);
    }
    // The headline property: incremental refreshes never recompute more
    // rows than the equivalent full recomputes (both modes make identical
    // decisions, so the refresh counts match).
    EXPECT_LE(inc.evaluate_rows_computed, full.evaluate_rows_computed);
  }
}

INSTANTIATE_TEST_SUITE_P(AllOracles, EngineIncrementalEquivalence,
                         ::testing::Values(OracleKind::kBandwidthTentative,
                                           OracleKind::kBandwidthExcluded,
                                           OracleKind::kPiecewise,
                                           OracleKind::kDistance));

/// An oracle whose incremental path corrupts one value: the engine's
/// cross-check must refuse to continue.
class LyingOracle : public core::PreferenceOracle {
 public:
  LyingOracle(int side, const routing::LoadMap& caps)
      : inner_(side, core::PreferenceConfig{}, caps) {}

  core::Evaluation evaluate(const core::OracleContext& ctx) override {
    return inner_.evaluate(ctx);
  }
  core::Evaluation evaluate_incremental(
      const core::OracleContext& ctx,
      const core::EvaluationDelta& delta) override {
    core::Evaluation e = inner_.evaluate_incremental(ctx, delta);
    if (!e.true_value.empty() && !e.true_value[0].empty())
      e.true_value[0][0] += 1.0;
    return e;
  }
  [[nodiscard]] bool wants_reassignment() const override { return true; }

 private:
  core::BandwidthOracle inner_;
};

TEST(EngineCrossCheck, CatchesLyingIncrementalOracle) {
  Scenario sc(7);
  LyingOracle a(0, sc.caps);
  core::BandwidthOracle b(1, core::PreferenceConfig{}, sc.caps);
  core::NegotiationConfig cfg;
  cfg.acceptance = core::AcceptancePolicy::kProtective;
  cfg.reassign_traffic_fraction = 0.01;  // refresh often
  cfg.incremental_evaluation = true;
  cfg.verify_incremental_every = 1;
  core::NegotiationEngine engine(sc.problem, a, b, cfg);
  EXPECT_THROW((void)engine.run(), std::logic_error);

  // The same audit runs on the wire: each agent checks its own oracle.
  cfg.tie_break = core::TieBreak::kDeterministic;
  LyingOracle wire_a(0, sc.caps);
  core::BandwidthOracle wire_b(1, core::PreferenceConfig{}, sc.caps);
  auto [ca, cb] = agent::make_in_memory_channel_pair();
  agent::NegotiationAgent agent_a(sc.problem, wire_a, *ca,
                                  agent::AgentConfig{0, 1, cfg});
  agent::NegotiationAgent agent_b(sc.problem, wire_b, *cb,
                                  agent::AgentConfig{1, 2, cfg});
  EXPECT_THROW((void)agent::run_session(agent_a, agent_b), std::logic_error);
}

bool same_sample_bits(const sim::BandwidthSample& a,
                      const sim::BandwidthSample& b) {
  if (a.pair_label != b.pair_label || a.failed_ix != b.failed_ix ||
      a.flows_moved != b.flows_moved)
    return false;
  for (int side = 0; side < 2; ++side) {
    if (std::memcmp(&a.mel_default[side], &b.mel_default[side],
                    sizeof(double)) != 0 ||
        std::memcmp(&a.mel_negotiated[side], &b.mel_negotiated[side],
                    sizeof(double)) != 0 ||
        std::memcmp(&a.mel_optimal[side], &b.mel_optimal[side],
                    sizeof(double)) != 0)
      return false;
  }
  return true;
}

TEST(BandwidthExperiment, BitIdenticalAcrossThreadsAndIncrementalKnob) {
  sim::BandwidthExperimentConfig cfg;
  cfg.universe.isp_count = 18;
  cfg.universe.seed = 12;
  cfg.universe.max_pairs = 4;
  cfg.negotiation.reassign_traffic_fraction = 0.05;
  cfg.include_unilateral = false;

  cfg.threads = 1;
  const auto serial = run_bandwidth_experiment(cfg);
  ASSERT_FALSE(serial.empty());
  cfg.threads = 2;
  const auto threaded = run_bandwidth_experiment(cfg);

  sim::BandwidthExperimentConfig full_cfg = cfg;
  full_cfg.threads = 2;
  full_cfg.negotiation.incremental_evaluation = false;
  const auto full = run_bandwidth_experiment(full_cfg);

  ASSERT_EQ(serial.size(), threaded.size());
  ASSERT_EQ(serial.size(), full.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(same_sample_bits(serial[i], threaded[i])) << "sample " << i;
    EXPECT_TRUE(same_sample_bits(serial[i], full[i])) << "sample " << i;
  }
}

}  // namespace
}  // namespace nexit
