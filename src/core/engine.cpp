#include "core/engine.hpp"

#include "obs/registry.hpp"

namespace nexit::core {

NegotiationEngine::NegotiationEngine(const NegotiationProblem& problem,
                                     PreferenceOracle& isp_a,
                                     PreferenceOracle& isp_b,
                                     NegotiationConfig config)
    : problem_(problem), config_(config),
      sides_{{problem, isp_a, 0, config}, {problem, isp_b, 1, config}},
      rng_(config.seed) {}

void NegotiationEngine::disclose_both() {
  sides_[0].disclose(sides_[1].truth().classes);
  sides_[1].disclose(sides_[0].truth().classes);
  sides_[0].set_remote_disclosed(sides_[1].disclosed(1));
  sides_[1].set_remote_disclosed(sides_[0].disclosed(0));
}

NegotiationOutcome NegotiationEngine::run() {
  NegotiationSide& a = sides_[0];
  NegotiationSide& b = sides_[1];
  NegotiationOutcome outcome;
  a.refresh();
  b.refresh();
  disclose_both();

  util::Rng* tie_rng =
      config_.tie_break == TieBreak::kRandom ? &rng_ : nullptr;
  // Both sides see every accept, veto and refresh, so `a` speaks for the
  // state they share (round, remaining flows, disclosed gains).
  while (a.remaining_count() > 0) {
    const std::size_t round = a.round();
    const int proposer = config_.turn == TurnPolicy::kCoinToss
                             ? (rng_.next_bool() ? 0 : 1)
                             : a.turn_holder();
    NegotiationSide& responder = sides_[1 - proposer];

    if (const std::optional<StopReason> stop = sides_[proposer].stop_check()) {
      outcome.stop_reason = *stop;
      break;
    }
    ProposalChoice sel{};
    if (!sides_[proposer].propose(tie_rng, sel)) {
      outcome.stop_reason = StopReason::kNoProposal;
      break;
    }
    if (config_.termination == TerminationPolicy::kFull) {
      // Continue only while both cumulative gains stay non-negative.
      if (a.true_gain() + a.true_value(sel) < 0 ||
          b.true_gain() + b.true_value(sel) < 0) {
        outcome.stop_reason = StopReason::kGainWouldGoNegative;
        break;
      }
    }
    const bool accepted = responder.accepts(sel);

    RoundTrace tr;
    tr.round = round;
    tr.proposer = proposer;
    tr.flow = problem_.negotiable_flow(sel.pos).id;
    tr.interconnection = problem_.candidates[sel.ci];
    tr.pref_a = a.disclosed(0).flows[sel.pos].pref_of_candidate[sel.ci];
    tr.pref_b = a.disclosed(1).flows[sel.pos].pref_of_candidate[sel.ci];
    tr.accepted = accepted;

    if (!accepted) {
      a.ban(sel);
      b.ban(sel);
    } else {
      a.apply_accept(sel);
      b.apply_accept(sel);
      // Both sides reach the quantum on the same accept; each re-evaluates
      // its oracle whether or not that oracle is load-dependent.
      const bool reassigned = a.take_reassignment(b.stateful(), true);
      b.take_reassignment(a.stateful(), true);
      if (reassigned) {
        disclose_both();
        tr.reassigned_after = true;
      }
    }
    if (config_.record_trace) outcome.trace.push_back(tr);
  }

  if (config_.settlement_rollback) {
    // §6 settlement starts with the side that stopped early; otherwise with
    // round parity, which needs no turn holder (a coin toss would draw one).
    int first = static_cast<int>(a.round() % 2);
    if (outcome.stop_reason == StopReason::kEarlyStopA) first = 0;
    if (outcome.stop_reason == StopReason::kEarlyStopB) first = 1;
    a.begin_settlement(first);
    b.begin_settlement(first);
    std::vector<std::size_t> rolled_back;
    for (;;) {
      const int who = a.settles_next() ? 0 : 1;
      if (!sides_[who].settle(rolled_back)) break;
      // Cannot fail: both sides hold the same accepted moves.
      (void)sides_[1 - who].apply_remote_rollback(rolled_back);
    }
  }

  a.report(outcome);
  b.report(outcome);

  // Registry bumps happen on the worker thread that ran the negotiation;
  // uint64 shard sums are commutative, so the merged "obs" section is the
  // same for every --threads=N.
  obs::Registry& reg = obs::Registry::global();
  reg.add("engine.negotiations", 1);
  reg.add("engine.rounds", outcome.rounds);
  reg.add("engine.flows_moved", outcome.flows_moved);
  reg.add("engine.evaluate_calls_full", outcome.evaluate_calls_full);
  reg.add("engine.evaluate_calls_incremental",
          outcome.evaluate_calls_incremental);
  reg.add("engine.evaluate_rows_computed", outcome.evaluate_rows_computed);
  reg.add("engine.evaluate_rows_full_equivalent",
          outcome.evaluate_rows_full_equivalent);
  reg.observe("engine.rounds_per_negotiation", outcome.rounds);

  return outcome;
}

}  // namespace nexit::core
