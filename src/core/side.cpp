#include "core/side.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

#include "core/engine.hpp"
#include "obs/registry.hpp"

namespace nexit::core {

namespace {

/// Bit-level equality of two evaluations (telemetry fields excluded): the
/// contract evaluate_incremental() must honour versus a full recompute.
bool same_evaluation_bits(const Evaluation& a, const Evaluation& b) {
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

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// The settlement order of project_future's stable sort: combined desc,
/// then list position.
bool settles_before(int combined_a, std::size_t pos_a, int combined_b,
                    std::size_t pos_b) {
  return combined_a > combined_b || (combined_a == combined_b && pos_a < pos_b);
}

void check_list_shape(const PreferenceList& list,
                      const NegotiationProblem& problem) {
  if (list.flows.size() != problem.negotiable.size())
    throw std::logic_error("oracle returned wrong number of flows");
  for (const auto& fp : list.flows)
    if (fp.pref_of_candidate.size() != problem.candidates.size())
      throw std::logic_error("oracle returned wrong number of candidates");
}

}  // namespace

std::string to_string(StopReason r) {
  switch (r) {
    case StopReason::kExhausted: return "exhausted";
    case StopReason::kEarlyStopA: return "early-stop-a";
    case StopReason::kEarlyStopB: return "early-stop-b";
    case StopReason::kGainWouldGoNegative: return "gain-would-go-negative";
    case StopReason::kNoProposal: return "no-proposal";
  }
  return "?";
}

NegotiationSide::NegotiationSide(const NegotiationProblem& problem,
                                 PreferenceOracle& oracle, int side,
                                 const NegotiationConfig& config)
    : problem_(problem), oracle_(&oracle), side_(side), config_(config) {
  problem_.validate();
  if (side_ != 0 && side_ != 1)
    throw std::invalid_argument("NegotiationSide: side must be 0 or 1");
  const std::size_t n = problem_.negotiable.size();
  tentative_ = problem_.default_assignment;
  remaining_.assign(n, 1);
  banned_.assign(n * problem_.candidates.size(), 0);
  default_ci_.reserve(n);
  for (std::size_t pos = 0; pos < n; ++pos)
    default_ci_.push_back(problem_.default_candidate(pos));
  remaining_count_ = n;
  reassign_quantum_ =
      config_.reassign_traffic_fraction * problem_.negotiable_volume();
}

bool NegotiationSide::cross_check_due() const {
  if (config_.verify_incremental_every < 0) return false;  // explicitly off
  if (config_.verify_incremental_every > 0)
    return (incremental_refreshes_ %
            static_cast<std::size_t>(config_.verify_incremental_every)) == 0;
#ifndef NDEBUG
  return true;  // debug builds audit every incremental refresh
#else
  return false;
#endif
}

void NegotiationSide::refresh() {
  const OracleContext ctx{&problem_, &tentative_, &remaining_};
  const bool incremental = config_.incremental_evaluation && evaluated_once_;
  if (incremental) {
    {
      const obs::PhaseTimer timer(obs::Phase::kEvaluateIncremental);
      truth_ = oracle_->evaluate_incremental(ctx, pending_delta_);
    }
    ++eval_calls_incremental_;
    ++incremental_refreshes_;
    if (cross_check_due()) {
      // The audit: a full recompute must reproduce the incremental result
      // bit for bit. Running evaluate() also rebuilds the oracle's internal
      // state from the context, so later incremental calls continue from a
      // verified baseline.
      const Evaluation full = oracle_->evaluate(ctx);
      if (!same_evaluation_bits(full, truth_))
        throw std::logic_error(
            "incremental evaluation diverged from full recompute (side " +
            std::to_string(side_) + ")");
    }
  } else {
    {
      const obs::PhaseTimer timer(obs::Phase::kEvaluateFull);
      truth_ = oracle_->evaluate(ctx);
    }
    ++eval_calls_full_;
  }
  eval_rows_computed_ += truth_.rows_recomputed;
  eval_rows_full_equivalent_ += problem_.negotiable.size();
  pending_delta_.clear();
  evaluated_once_ = true;
  strategy_cached_ = false;

  check_list_shape(truth_.classes, problem_);
  if (truth_.true_value.size() != problem_.negotiable.size())
    throw std::logic_error("oracle returned wrong true_value shape");
  for (const auto& row : truth_.true_value)
    if (row.size() != problem_.candidates.size())
      throw std::logic_error("oracle returned wrong true_value shape");
}

void NegotiationSide::disclose(const PreferenceList& remote_truth) {
  const OracleContext ctx{&problem_, &tentative_, &remaining_};
  disclosed_[side_] = oracle_->disclose(ctx, truth_.classes, remote_truth);
  check_list_shape(disclosed_[side_], problem_);
  strategy_cached_ = false;
}

void NegotiationSide::set_remote_disclosed(const PreferenceList& list) {
  disclosed_[1 - side_] = list;
  strategy_cached_ = false;
}

StrategyView NegotiationSide::view() const {
  StrategyView v;
  v.remaining = &remaining_;
  v.banned = banned_.data();
  v.banned_stride = problem_.candidates.size();
  v.default_ci = &default_ci_;
  v.my_disclosed = &disclosed_[side_];
  v.remote_disclosed = &disclosed_[1 - side_];
  v.my_true_value = &truth_.true_value;
  return v;
}

int NegotiationSide::turn_holder() const {
  switch (config_.turn) {
    case TurnPolicy::kAlternate:
      return static_cast<int>(round_ % 2);
    case TurnPolicy::kLowerGain:
      if (disclosed_gain_[0] == disclosed_gain_[1])
        return static_cast<int>(round_ % 2);
      return disclosed_gain_[0] < disclosed_gain_[1] ? 0 : 1;
    case TurnPolicy::kCoinToss:
      break;
  }
  throw std::logic_error("turn_holder: no deterministic turn for this policy");
}

void NegotiationSide::rebuild_strategy_cache() {
  const StrategyView v = view();
  const std::size_t n = remaining_.size();
  outlook_.assign(n, FlowOutlook{});
  best_.assign(n, FlowBest{});
  settling_order_.clear();
  for (std::size_t pos = 0; pos < n; ++pos) {
    if (!remaining_[pos]) continue;
    flow_strategy(v, config_.proposal, pos, outlook_[pos], best_[pos]);
    if (outlook_[pos].have) settling_order_.push_back(outlook_[pos]);
  }
  std::sort(settling_order_.begin(), settling_order_.end(),
            [](const FlowOutlook& a, const FlowOutlook& b) {
              return settles_before(a.combined, a.pos, b.combined, b.pos);
            });
  strategy_cached_ = true;
}

std::vector<FlowOutlook>::iterator NegotiationSide::settling_slot(
    std::size_t pos) {
  const int combined = outlook_[pos].combined;
  return std::lower_bound(
      settling_order_.begin(), settling_order_.end(), pos,
      [combined](const FlowOutlook& e, std::size_t p) {
        return settles_before(e.combined, e.pos, combined, p);
      });
}

void NegotiationSide::drop_flow(std::size_t pos) {
  best_[pos].have = false;
  if (!outlook_[pos].have) return;
  const auto it = settling_slot(pos);
  if (it == settling_order_.end() || it->pos != pos)
    throw std::logic_error("strategy cache: open flow missing from its index");
  settling_order_.erase(it);
  outlook_[pos].have = false;
}

void NegotiationSide::update_flow(std::size_t pos) {
  drop_flow(pos);
  flow_strategy(view(), config_.proposal, pos, outlook_[pos], best_[pos]);
  if (outlook_[pos].have)
    settling_order_.insert(settling_slot(pos), outlook_[pos]);
}

Projection NegotiationSide::projection(std::optional<std::size_t> without) {
  if (!strategy_cached_) rebuild_strategy_cache();
  Projection cached;
  walk_projection(settling_order_, without.value_or(remaining_.size()),
                  /*my_turn_first=*/true, /*floor_remote_at_zero=*/false,
                  cached.peak, cached.end);
  if (cross_check_due()) {
    std::vector<char> rest = remaining_;
    if (without) rest[*without] = 0;
    StrategyView v = view();
    v.remaining = &rest;
    const Projection full = project_future(v);
    if (!same_bits(full.peak, cached.peak) || !same_bits(full.end, cached.end))
      throw std::logic_error(
          "strategy cache: projection diverged from the full scan (side " +
          std::to_string(side_) + ")");
  }
  return cached;
}

std::optional<StopReason> NegotiationSide::stop_check() {
  if (remaining_count_ == 0) return StopReason::kExhausted;
  if (config_.termination == TerminationPolicy::kEarly) {
    // The turn holder stops once it perceives no additional gain in
    // continuing AND continuing would actually hurt it; a flat future is
    // harmless (Fig. 3's ISP-A proposes a zero-gain alternative). Mid-trade
    // compromises already accepted are honoured until one's own next turn,
    // which is what lets trades across flows complete and both ISPs end
    // ahead.
    const Projection f = projection();
    if (f.peak <= 0 && f.end < 0)
      return side_ == 0 ? StopReason::kEarlyStopA : StopReason::kEarlyStopB;
  }
  return std::nullopt;
}

bool NegotiationSide::propose(util::Rng* tie_rng, ProposalChoice& out) {
  const obs::PhaseTimer timer(obs::Phase::kSelectProposal);
  // Random tie-breaks draw from the rng in scan order: only the full scan
  // reproduces those draws.
  if (tie_rng != nullptr)
    return select_proposal(view(), config_.proposal, tie_rng, out);
  if (!strategy_cached_) rebuild_strategy_cache();
  bool found = false;
  ProposalRank best;
  for (std::size_t pos = 0; pos < remaining_.size(); ++pos) {
    if (!best_[pos].have) continue;
    if (!found || outranks(best_[pos].rank, best)) {
      found = true;
      best = best_[pos].rank;
      out = ProposalChoice{pos, best_[pos].ci};
    }
  }
  if (cross_check_due()) {
    ProposalChoice full{};
    const bool full_found =
        select_proposal(view(), config_.proposal, nullptr, full);
    if (full_found != found ||
        (found && (full.pos != out.pos || full.ci != out.ci)))
      throw std::logic_error(
          "strategy cache: proposal diverged from the full scan (side " +
          std::to_string(side_) + ")");
  }
  return found;
}

bool NegotiationSide::accepts(const ProposalChoice& p) {
  const double own = true_value(p);
  switch (config_.acceptance) {
    case AcceptancePolicy::kAlwaysAccept:
      return true;
    case AcceptancePolicy::kVetoOwnLoss:
      return own >= 0;
    case AcceptancePolicy::kProtective: {
      if (!(true_gain_ + own < 0)) return true;
      // Would dip below default: accept only if the projected future
      // (without this flow) can recover the deficit even under pessimistic
      // tie resolution.
      const Projection rest = projection(p.pos);
      return true_gain_ + own + rest.peak >= 0;
    }
  }
  throw std::logic_error("accepts: bad policy");
}

void NegotiationSide::apply_accept(const ProposalChoice& p) {
  const std::size_t ix = problem_.candidates[p.ci];
  const bool moved = ix != problem_.default_ix(p.pos);
  // Delta bookkeeping feeds evaluate_incremental(); skip it entirely when
  // full recomputes were requested (keeps --incremental=0 honest).
  const bool record_delta = config_.incremental_evaluation;
  const std::vector<std::size_t> members = problem_.members_of(p.pos);
  for (std::size_t flow_index : members) {
    const std::size_t from = tentative_.ix_of_flow[flow_index];
    if (record_delta && from != ix)
      pending_delta_.moves.push_back(
          EvaluationDelta::Move{flow_index, from, ix});
    tentative_.ix_of_flow[flow_index] = ix;
  }
  if (record_delta) pending_delta_.settled_positions.push_back(p.pos);
  if (strategy_cached_ && remaining_[p.pos]) drop_flow(p.pos);
  const double own = true_value(p);
  if (moved) accepted_moves_.push_back(AcceptedMove{p.pos, own, false});
  true_gain_ += own;
  for (int isp = 0; isp < 2; ++isp)
    disclosed_gain_[isp] += disclosed_[isp].flows[p.pos].pref_of_candidate[p.ci];
  remaining_[p.pos] = 0;
  --remaining_count_;
  ++flows_negotiated_;
  if (moved) ++flows_moved_;
  for (std::size_t flow_index : members)
    // nexit-lint: allow(float-accumulate): member order, the same on both
    // sides and in every driver, fixes when the quantum is reached
    volume_since_reassign_ += (*problem_.flows)[flow_index].size;
  ++round_;
}

void NegotiationSide::ban(const ProposalChoice& p) {
  banned_[p.pos * problem_.candidates.size() + p.ci] = 1;
  if (strategy_cached_ && remaining_[p.pos]) update_flow(p.pos);
  ++round_;
}

bool NegotiationSide::take_reassignment(bool remote_stateful, bool reevaluate) {
  const bool enabled = config_.reassign_traffic_fraction > 0.0 &&
                       (oracle_->wants_reassignment() || remote_stateful);
  if (!enabled || remaining_count_ == 0 ||
      volume_since_reassign_ < reassign_quantum_)
    return false;
  volume_since_reassign_ = 0.0;
  ++reassignments_;
  if (reevaluate)
    refresh();
  else
    pending_delta_.clear();
  return true;
}

void NegotiationSide::begin_settlement(int first_settler) {
  settles_next_ = first_settler == side_;
  remote_turn_was_empty_ = false;
}

void NegotiationSide::roll_back(AcceptedMove& m) {
  for (std::size_t flow_index : problem_.members_of(m.pos))
    tentative_.ix_of_flow[flow_index] = problem_.default_ix(m.pos);
  true_gain_ -= m.own_value;
  m.rolled_back = true;
  ++flows_rolled_back_;
}

bool NegotiationSide::settle(std::vector<std::size_t>& rolled_back) {
  rolled_back.clear();
  while (true_gain_ < -1e-12) {
    AcceptedMove* worst = nullptr;
    for (AcceptedMove& m : accepted_moves_) {
      if (m.rolled_back || m.own_value >= 0.0) continue;
      if (worst == nullptr || m.own_value < worst->own_value) worst = &m;
    }
    if (worst == nullptr) break;  // nothing left to roll back
    roll_back(*worst);
    rolled_back.push_back(worst->pos);
  }
  settles_next_ = false;
  return !(rolled_back.empty() && remote_turn_was_empty_);
}

bool NegotiationSide::apply_remote_rollback(
    const std::vector<std::size_t>& positions) {
  for (std::size_t pos : positions) {
    AcceptedMove* standing = nullptr;
    for (AcceptedMove& m : accepted_moves_)
      if (m.pos == pos && !m.rolled_back) {
        standing = &m;
        break;
      }
    if (standing == nullptr) return false;
    roll_back(*standing);
  }
  remote_turn_was_empty_ = positions.empty();
  settles_next_ = true;
  return true;
}

void NegotiationSide::report(NegotiationOutcome& out) const {
  out.assignment = tentative_;
  (side_ == 0 ? out.true_gain_a : out.true_gain_b) = true_gain_;
  out.disclosed_gain_a = disclosed_gain_[0];
  out.disclosed_gain_b = disclosed_gain_[1];
  out.rounds = round_;
  out.flows_negotiated = flows_negotiated_;
  out.flows_moved = flows_moved_;
  out.flows_rolled_back = flows_rolled_back_;
  out.reassignments = reassignments_;
  out.evaluate_calls_full += eval_calls_full_;
  out.evaluate_calls_incremental += eval_calls_incremental_;
  out.evaluate_rows_computed += eval_rows_computed_;
  out.evaluate_rows_full_equivalent += eval_rows_full_equivalent_;
}

}  // namespace nexit::core
