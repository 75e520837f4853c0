#pragma once

#include <cstddef>
#include <vector>

#include "core/preference.hpp"
#include "util/rng.hpp"

namespace nexit::core {

enum class ProposalPolicy;  // defined in side.hpp

/// View of the negotiation state from ONE side's perspective, built by
/// NegotiationSide::view(); the proposal, stop and acceptance decisions of
/// both drivers (engine and wire agent) run through these functions.
struct StrategyView {
  /// Aligned with the negotiable flow list.
  const std::vector<char>* remaining = nullptr;
  /// Vetoed alternatives: a row-major positions x candidates matrix with
  /// `banned_stride` (the candidate count) cells per position.
  const char* banned = nullptr;
  std::size_t banned_stride = 0;
  /// Default candidate index per negotiable flow (class 0 by definition).
  const std::vector<std::size_t>* default_ci = nullptr;
  const PreferenceList* my_disclosed = nullptr;
  const PreferenceList* remote_disclosed = nullptr;
  /// My exact private valuation (metric units, full precision) — projections
  /// and protective decisions never depend on my own quantisation.
  const std::vector<std::vector<double>>* my_true_value = nullptr;

  [[nodiscard]] bool is_banned(std::size_t pos, std::size_t ci) const {
    return banned[pos * banned_stride + ci] != 0;
  }
};

struct ProposalChoice {
  std::size_t pos = 0;  // negotiable flow position
  std::size_t ci = 0;   // candidate index
};

/// Picks the proposal for the side owning the view. Ranking: the policy's
/// primary/secondary keys, then status-quo bias (the flow's default
/// alternative wins residual ties — ISPs do not reroute without perceived
/// benefit, which also keeps coarse class-0 ties from drifting traffic).
/// With `rng == nullptr` any leftover tie breaks deterministically toward
/// the lowest (pos, ci); with an rng it breaks uniformly at random (the
/// paper's worked example). Returns false if nothing is proposable.
bool select_proposal(const StrategyView& view, ProposalPolicy policy,
                     util::Rng* rng, ProposalChoice& out);

struct Projection {
  double peak = 0.0;  // best reachable cumulative own-gain increase
  double end = 0.0;   // own-gain increase if everything remaining is settled
};

/// Greedy projection of the remaining negotiation as perceived by the view's
/// owner (see TerminationPolicy::kEarly): flows settle in decreasing
/// combined-sum order with proposers alternating, so tie resolution
/// alternates between my tie-break and the remote's (pessimistic on residual
/// ties). With `floor_remote_at_zero`, losses on remote-proposed flows are
/// floored at the default's value (0): under protective acceptance such
/// proposals are either vetoed or paid for out of earlier gains, so they
/// cannot push the owner below its default — used by the stop decision so an
/// ISP does not abort a negotiation the veto already makes safe.
Projection project_future(const StrategyView& view, bool my_turn_first = true,
                          bool floor_remote_at_zero = false);

/// select_proposal's key for one cell; the lexicographically largest wins.
struct ProposalRank {
  int primary = 0;
  int secondary = 0;
  bool is_default = false;
};

[[nodiscard]] inline bool outranks(const ProposalRank& a,
                                   const ProposalRank& b) {
  return a.primary > b.primary ||
         (a.primary == b.primary &&
          (a.secondary > b.secondary ||
           (a.secondary == b.secondary && a.is_default && !b.is_default)));
}

/// One open flow's share of project_future: its best combined class (which
/// orders the settlement) and my true value of the alternative selected when
/// I or the remote propose it. `have` is false when every alternative of the
/// flow is vetoed; the flow then drops out of the projection.
struct FlowOutlook {
  std::size_t pos = 0;
  bool have = false;
  int combined = 0;
  double own_if_mine = 0.0;
  double own_if_remote = 0.0;
};

/// The cell of one flow that select_proposal ranks highest, ties toward the
/// lowest ci — so the deterministic proposal is the highest-ranked of the
/// flows' bests, ties toward the lowest pos. `have` as in FlowOutlook.
struct FlowBest {
  bool have = false;
  ProposalRank rank;
  std::size_t ci = 0;
};

/// Both per-flow answers for position `pos`, from one pass over its
/// candidates (NegotiationSide's strategy cache; the full scans above keep
/// their own per-flow code, so each checks the other).
void flow_strategy(const StrategyView& view, ProposalPolicy policy,
                   std::size_t pos, FlowOutlook& outlook, FlowBest& best);

/// The alternating prefix sum behind project_future over `settling`, the
/// flows' outlooks in settlement order (combined desc, pos asc), leaving out
/// the flow at position `skip` (none if no flow has it); writes the
/// Projection's two fields. Two separate outputs, not a Projection: with the
/// two sums bound for one struct, GCC 12 keeps them paired in one vector
/// register and shuffles it on every step of the loop.
void walk_projection(const std::vector<FlowOutlook>& settling, std::size_t skip,
                     bool my_turn_first, bool floor_remote_at_zero,
                     double& peak, double& end);

}  // namespace nexit::core
