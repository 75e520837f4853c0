#pragma once

#include <cstddef>
#include <vector>

#include "core/side.hpp"
#include "util/rng.hpp"

namespace nexit::core {

struct RoundTrace {
  std::size_t round = 0;
  int proposer = 0;                 // 0 = A, 1 = B
  traffic::FlowId flow;
  std::size_t interconnection = 0;  // proposed interconnection index
  PrefClass pref_a = 0;             // disclosed preferences of the proposal
  PrefClass pref_b = 0;
  bool accepted = false;
  bool reassigned_after = false;
};

struct NegotiationOutcome {
  /// Final interconnection per flow (all flows; non-negotiated ones on their
  /// default).
  routing::Assignment assignment;
  /// Cumulative *true* gains in each ISP's own exact metric units (km saved,
  /// load-ratio reduction, ... — whatever its oracle measures).
  double true_gain_a = 0.0;
  double true_gain_b = 0.0;
  /// Cumulative gains as visible through disclosed preferences.
  int disclosed_gain_a = 0;
  int disclosed_gain_b = 0;
  std::size_t rounds = 0;
  std::size_t flows_negotiated = 0;  // accepted proposals
  std::size_t flows_moved = 0;       // accepted with a non-default choice
  std::size_t flows_rolled_back = 0; // settlement rollbacks (§6)
  std::size_t reassignments = 0;
  /// Oracle-evaluation telemetry: how the preference work was actually done.
  /// A full call recomputes one row per negotiable position; incremental
  /// calls recompute only the rows the accepted moves' links feed, so
  /// evaluate_rows_computed / (calls x positions) is the fraction of the
  /// naive full-recompute work this negotiation performed.
  std::size_t evaluate_calls_full = 0;
  std::size_t evaluate_calls_incremental = 0;
  std::size_t evaluate_rows_computed = 0;
  /// What the same calls would have cost under full recomputation
  /// (calls x negotiable positions) — the denominator for the fraction of
  /// naive work performed.
  std::size_t evaluate_rows_full_equivalent = 0;
  StopReason stop_reason = StopReason::kExhausted;
  std::vector<RoundTrace> trace;     // filled when config.record_trace
};

/// The Nexit negotiation protocol (paper §4): ISPs exchange preference
/// lists and agree on an interconnection per flow, one proposal per round.
/// All decisions are deterministic given the config seed.
///
/// The engine steps two NegotiationSides in one process. It keeps only what
/// a wire peer cannot do: coin-toss turns and the random tie-break (a shared
/// RNG), full termination (both private gains at once), re-evaluating and
/// re-disclosing both ISPs on every refresh, and handing each oracle the
/// other's true classes.
class NegotiationEngine {
 public:
  NegotiationEngine(const NegotiationProblem& problem, PreferenceOracle& isp_a,
                    PreferenceOracle& isp_b, NegotiationConfig config);

  NegotiationOutcome run();

 private:
  /// Both ISPs disclose — each oracle sees the other's *true* classes, the
  /// §5.4 cheater's perfect knowledge — and each side learns the other's list.
  void disclose_both();

  const NegotiationProblem& problem_;
  NegotiationConfig config_;
  NegotiationSide sides_[2];
  util::Rng rng_;
};

}  // namespace nexit::core
