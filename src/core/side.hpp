#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/oracle.hpp"
#include "core/preference.hpp"
#include "core/problem.hpp"
#include "core/strategy.hpp"
#include "util/rng.hpp"

namespace nexit::core {

/// Who proposes in the current round (paper §4 step "Decide turn").
enum class TurnPolicy {
  kAlternate,   // the paper's experimental default
  kLowerGain,   // the ISP with lower cumulative gain proposes (max-min-fair)
  kCoinToss,    // seeded coin toss
};

/// How the proposer picks a (flow, alternative) (paper §4 step "Propose").
enum class ProposalPolicy {
  /// Maximise the sum of both ISPs' (disclosed) preferences; ties broken by
  /// the proposer's own preference, then deterministically. Paper default.
  kMaxCombinedGain,
  /// The paper's alternative: the proposer's best local alternative with
  /// minimal negative impact on the other ISP.
  kBestLocalMinImpact,
};

/// Whether the responder can reject (paper §4 step "Accept alternative?").
enum class AcceptancePolicy {
  /// Accept everything except proposals that would leave the responder
  /// unrecoverably below its default (cumulative gain + proposal + best
  /// projected future < 0). This is the §4 veto power used the way the paper
  /// argues ISPs use it — "an ISP can always protect itself by not
  /// negotiating losses" — and is what keeps negotiation no-loss (Fig. 4b).
  kProtective,
  kAlwaysAccept,  // accept unconditionally (trusting counterparty)
  kVetoOwnLoss,   // reject anything strictly worse than default for self
};

/// When negotiation stops (paper §4 step "Stop?").
enum class TerminationPolicy {
  /// "Early termination": an ISP stops when it perceives no additional gain
  /// in continuing — the projected greedy future can no longer raise its
  /// cumulative gain (peak <= 0) and would in fact lower it (end < 0).
  /// A future that is flat (all zeros) is harmless, so the ISP keeps
  /// negotiating, as ISP-A does in the paper's Fig. 3 example.
  kEarly,
  /// "Full termination": continue while both cumulative gains stay >= 0.
  kFull,
  /// Social-welfare mode: negotiate every flow on the table.
  kNegotiateAll,
};

/// How residual proposal ties (same combined sum, same secondary key) break.
enum class TieBreak {
  kRandom,         // uniform, seeded — the paper's worked example
  kDeterministic,  // lowest (flow, candidate) — required by the wire protocol
};

struct NegotiationConfig {
  PreferenceConfig preferences;
  TurnPolicy turn = TurnPolicy::kAlternate;
  ProposalPolicy proposal = ProposalPolicy::kMaxCombinedGain;
  AcceptancePolicy acceptance = AcceptancePolicy::kProtective;
  TerminationPolicy termination = TerminationPolicy::kEarly;
  TieBreak tie_break = TieBreak::kRandom;
  /// Re-invoke the oracles after this fraction of the negotiable traffic
  /// volume has been negotiated (0 disables; the paper uses 0.05 for the
  /// bandwidth experiments). Only honoured if an oracle wants reassignment.
  double reassign_traffic_fraction = 0.0;
  /// §6 settlement: after negotiation stops, an ISP that ended below its
  /// default "rolls back the compromises made in return" — its accepted
  /// losing concessions return to their defaults, worst first, until it is
  /// whole. Sides alternate starting with the one that stopped; each
  /// rollback may trigger the other's. Guarantees the no-loss property of
  /// Fig. 4b even when a counterparty stops mid-trade.
  bool settlement_rollback = true;
  /// Use the oracles' evaluate_incremental() for every refresh after the
  /// first, handing them the accepted moves since the previous evaluation.
  /// Results are contractually bit-identical to full evaluate() — this knob
  /// exists for A/B benchmarking and as an escape hatch, not because the
  /// answers differ.
  bool incremental_evaluation = true;
  /// Cross-check cadence: every Nth incremental refresh, additionally run
  /// the full evaluate() and throw std::logic_error unless both results are
  /// bit-identical. 0 = automatic (every refresh in debug builds, never in
  /// release); N >= 1 forces the check in all build types; -1 disables it
  /// even in debug builds (for honest A/B timing, e.g. the fig7 preset).
  int verify_incremental_every = 0;
  std::uint64_t seed = 1;
  bool record_trace = false;
};

enum class StopReason {
  kExhausted,        // every negotiable flow was negotiated
  kEarlyStopA,       // ISP A saw no additional gain (early termination)
  kEarlyStopB,
  kGainWouldGoNegative,  // full termination guard
  kNoProposal,       // every remaining alternative was vetoed
};

std::string to_string(StopReason r);

struct NegotiationOutcome;  // engine.hpp

/// One ISP's half of the §4 protocol: its copy of the negotiation state and
/// every transition on it. Both drivers step sides — NegotiationEngine runs
/// two in one process, agent::NegotiationAgent runs one per end of a wire —
/// so a round, a refresh and a settlement turn are the same code in both.
///
/// Both sides of a negotiation see the same accepts, vetoes and rollbacks,
/// so their tentative assignment, remaining/banned sets, round and disclosed
/// gains stay equal; truth, true gain and accepted-move values are private.
/// The driver moves disclosed lists between the sides (set_remote_disclosed()).
///
/// A strategy cache serves the stop check, the protective veto and the
/// deterministic proposal (docs/ARCHITECTURE.md, "strategy cache"): per open
/// flow, the answers project_future and select_proposal would compute for
/// it, with the flows kept in settlement order. ban() and apply_accept()
/// update it in place; refresh(), disclose() and set_remote_disclosed()
/// drop it, and the next query rebuilds it. At the cross-check cadence every
/// cached answer is compared with the full scan (std::logic_error on any
/// difference).
class NegotiationSide {
 public:
  /// `side` is 0 for ISP A, 1 for ISP B. Throws std::invalid_argument for a
  /// malformed problem or side.
  NegotiationSide(const NegotiationProblem& problem, PreferenceOracle& oracle,
                  int side, const NegotiationConfig& config);

  /// (Re-)evaluates this ISP's truth through its oracle: a full evaluate()
  /// the first time, evaluate_incremental() over the pending delta after
  /// that (unless the config disables it), audited against a full recompute
  /// at the configured cadence (std::logic_error on divergence). Consumes
  /// the pending delta.
  void refresh();
  /// Advertises this ISP's list: the oracle's disclose() of its truth.
  /// `remote_truth` is the remote's true classes where the driver knows
  /// them (the engine; the cheating oracle reads them), a stand-in where it
  /// cannot (the wire).
  void disclose(const PreferenceList& remote_truth);
  /// Stores the remote ISP's advertised list, as the driver learns it.
  void set_remote_disclosed(const PreferenceList& list);

  /// Who proposes this round (kAlternate / kLowerGain; the coin toss needs
  /// a shared RNG only the engine has).
  [[nodiscard]] int turn_holder() const;
  /// The turn holder's "Stop?" step: kExhausted once every flow is settled,
  /// kEarlyStopA/B once early termination sees no gain in going on.
  [[nodiscard]] std::optional<StopReason> stop_check();
  /// The turn holder's proposal; false when everything left is vetoed.
  /// `tie_rng` breaks residual ties at random (nullptr: lowest pos, ci).
  [[nodiscard]] bool propose(util::Rng* tie_rng, ProposalChoice& out);
  /// The responder's verdict on `p` under the acceptance policy.
  [[nodiscard]] bool accepts(const ProposalChoice& p);
  /// project_future(view()) from the strategy cache — the stop check's
  /// projection — or, given `without`, the same with that open position
  /// left out (the protective veto's projection of the rest).
  [[nodiscard]] Projection projection(
      std::optional<std::size_t> without = std::nullopt);
  /// This side's state as the strategy's full scans read it.
  [[nodiscard]] StrategyView view() const;
  /// Settles p.pos on p.ci and closes the round.
  void apply_accept(const ProposalChoice& p);
  /// Vetoes p.ci for p.pos and closes the round.
  void ban(const ProposalChoice& p);
  /// The reassignment trigger (§5.2): once the traffic accepted since the
  /// previous trigger reaches the quantum while flows remain open, and this
  /// or the remote ISP's oracle is load-dependent, restarts the quantum,
  /// counts a reassignment and returns true. With `reevaluate` it also
  /// refresh()es; without, the pending delta is dropped unconsumed.
  bool take_reassignment(bool remote_stateful, bool reevaluate);

  /// Starts §6 settlement; `first_settler` (0/1) takes the first turn —
  /// each driver has its own rule for who that is.
  void begin_settlement(int first_settler);
  [[nodiscard]] bool settles_next() const { return settles_next_; }
  /// This ISP's settlement turn: while below its default, rolls back the
  /// standing concession that hurts it most (ties toward the earliest) and
  /// lists the rolled-back positions in `rolled_back`. Returns false,
  /// rolling nothing back, once settlement has converged (this turn and the
  /// remote's previous one are both empty).
  bool settle(std::vector<std::size_t>& rolled_back);
  /// The remote's settlement turn. False if a position names no standing
  /// accepted move.
  [[nodiscard]] bool apply_remote_rollback(
      const std::vector<std::size_t>& positions);

  /// Writes what this side knows into `out`: the shared state (rollbacks
  /// count both ISPs'), its own true gain, and its evaluation telemetry,
  /// added to what `out` holds so the engine can sum its two sides.
  void report(NegotiationOutcome& out) const;

  [[nodiscard]] int side() const { return side_; }
  /// True if this ISP's oracle is load-dependent (wants reassignment).
  [[nodiscard]] bool stateful() const { return oracle_->wants_reassignment(); }
  [[nodiscard]] const Evaluation& truth() const { return truth_; }
  [[nodiscard]] double true_value(const ProposalChoice& p) const {
    return truth_.true_value[p.pos][p.ci];
  }
  [[nodiscard]] const PreferenceList& disclosed(int isp) const {
    return disclosed_[isp];
  }
  [[nodiscard]] double true_gain() const { return true_gain_; }
  [[nodiscard]] int disclosed_gain(int isp) const {
    return disclosed_gain_[isp];
  }
  [[nodiscard]] std::size_t round() const { return round_; }
  [[nodiscard]] std::size_t remaining_count() const {
    return remaining_count_;
  }
  [[nodiscard]] bool open(std::size_t pos) const { return remaining_[pos] != 0; }
  [[nodiscard]] bool banned(const ProposalChoice& p) const {
    return banned_[p.pos * problem_.candidates.size() + p.ci] != 0;
  }
  [[nodiscard]] const routing::Assignment& tentative() const {
    return tentative_;
  }
  [[nodiscard]] const EvaluationDelta& pending_delta() const {
    return pending_delta_;
  }

 private:
  /// One accepted non-default move, remembered for settlement rollback.
  struct AcceptedMove {
    std::size_t pos = 0;
    double own_value = 0.0;  // this ISP's true value at acceptance
    bool rolled_back = false;
  };

  [[nodiscard]] bool cross_check_due() const;
  void roll_back(AcceptedMove& m);
  /// Derives every open flow's cache entries and sorts the index.
  void rebuild_strategy_cache();
  /// Re-derives an open flow's cache entries after one of its cells was
  /// vetoed.
  void update_flow(std::size_t pos);
  /// Where `pos` sits (or would sit) in settling_order_ under its outlook.
  std::vector<FlowOutlook>::iterator settling_slot(std::size_t pos);
  /// Takes a flow out of the cache (it settled, or is about to be
  /// re-derived).
  void drop_flow(std::size_t pos);

  const NegotiationProblem& problem_;
  PreferenceOracle* oracle_;
  int side_;
  NegotiationConfig config_;

  routing::Assignment tentative_;
  std::vector<char> remaining_;           // per negotiable position
  std::vector<char> banned_;              // vetoed (pos, ci), row-major
  std::vector<std::size_t> default_ci_;   // default candidate per position
  std::size_t remaining_count_ = 0;
  std::size_t round_ = 0;
  Evaluation truth_;
  PreferenceList disclosed_[2];  // by ISP: this side's and the remote's
  double true_gain_ = 0.0;
  int disclosed_gain_[2] = {0, 0};
  std::vector<AcceptedMove> accepted_moves_;
  /// Accepted moves + settles since the last refresh; consumed by
  /// evaluate_incremental() at the next reassignment quantum.
  EvaluationDelta pending_delta_;
  double reassign_quantum_ = 0.0;
  double volume_since_reassign_ = 0.0;
  bool evaluated_once_ = false;
  std::size_t incremental_refreshes_ = 0;
  bool settles_next_ = false;
  bool remote_turn_was_empty_ = false;

  // Strategy cache; valid only while strategy_cached_.
  bool strategy_cached_ = false;
  // By position; `have` is false for settled flows.
  std::vector<FlowOutlook> outlook_;
  std::vector<FlowBest> best_;
  /// Open flows with an outlook, in (combined desc, pos asc) order: the
  /// order project_future's stable sort settles them in.
  std::vector<FlowOutlook> settling_order_;

  // Counters reported in NegotiationOutcome.
  std::size_t flows_negotiated_ = 0;
  std::size_t flows_moved_ = 0;
  std::size_t flows_rolled_back_ = 0;
  std::size_t reassignments_ = 0;
  std::size_t eval_calls_full_ = 0;
  std::size_t eval_calls_incremental_ = 0;
  std::size_t eval_rows_computed_ = 0;
  std::size_t eval_rows_full_equivalent_ = 0;
};

}  // namespace nexit::core
