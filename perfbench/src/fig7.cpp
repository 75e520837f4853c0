// fig7_failures: the §5.2 failure sweep behind Fig. 7. Each failed
// interconnection is one sample: early-exit default, the fractional
// min-max-load LP, and a negotiation with bandwidth oracles on both sides.
//
// One run covers several universes of the fig7 preset at pairs=250, so that
// its throughput averages over ISP-size draws: a universe's LP sizes, and so
// its cost, depend on which ISPs it drew. The first universe is the --seed
// itself — `nexit_run --scenario=fig7 --pairs=250` for the default seed 42 —
// and the others are drawn from an Rng seeded with it, so different seeds
// share no universes. pairs=250 also keeps every universe's paper checks
// well clear of their thresholds, which a 60-pair universe can miss.

#include <algorithm>
#include <cmath>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "capacity/capacity.hpp"
#include "core/engine.hpp"
#include "core/oracle_registry.hpp"
#include "decorators.hpp"
#include "metrics/metrics.hpp"
#include "obs/registry.hpp"
#include "opt/min_max_load.hpp"
#include "routing/loads.hpp"
#include "sim/scenarios.hpp"
#include "util/digest.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace nx = nexit;

namespace {

/// One worker: at two, the wall time of a run followed how often the host
/// gave both threads a core at once, which changed from run to run.
constexpr std::size_t kThreads = 1;
/// Nominal seconds one universe takes at kThreads on a 4-CPU host; the run
/// covers ceil(--seconds / this) universes, so its work is fixed by its
/// arguments.
constexpr double kSecondsPerUniverse = 2.0;
/// Pairs of the untimed warm-up universe run before the timed ones.
constexpr std::size_t kWarmupPairs = 12;
/// Universes the traced run re-drives: the first ones of the run, enough
/// for the layer shares without doubling the run's length.
constexpr std::size_t kTracedUniverses = 3;
/// Set-ups timed per universe. They are spread over the whole run, so the
/// median is not taken from one moment of a noisy host.
constexpr std::size_t kSetupsPerUniverse = 5;

struct Shape {
  std::size_t pairs = 250;
  std::size_t universes = 1;
};

std::vector<std::uint64_t> universe_seeds(std::uint64_t seed,
                                          std::size_t count) {
  std::vector<std::uint64_t> out{seed};
  nx::util::Rng rng(seed);
  while (out.size() < count) out.push_back(rng.next_u64() & 0x7fffffffu);
  return out;
}

const nx::sim::ScenarioPreset& fig7_preset() {
  const nx::sim::ScenarioPreset* preset = nx::sim::find_scenario("fig7");
  if (preset == nullptr) throw std::runtime_error("fig7 preset missing");
  return *preset;
}

/// The set-up the end-to-end path pays per universe: preset defaults, the
/// workload's overrides, and validation.
nx::sim::ExperimentSpec fig7_spec(std::uint64_t universe_seed,
                                  const Shape& shape) {
  nx::sim::ExperimentSpec spec;
  fig7_preset().tune(spec);
  spec.merge_from_flags(nx::util::Flags(
      {"pairs=" + std::to_string(shape.pairs),
       "threads=" + std::to_string(kThreads),
       "seed=" + std::to_string(universe_seed)}));
  std::string error;
  if (!spec.validate(&error)) throw std::runtime_error("fig7 spec: " + error);
  return spec;
}

/// Swaps std::cout/std::cerr into string buffers for its lifetime.
class CaptureOutput {
 public:
  CaptureOutput()
      : old_out_(std::cout.rdbuf(out_.rdbuf())),
        old_err_(std::cerr.rdbuf(err_.rdbuf())) {}
  ~CaptureOutput() {
    std::cout.rdbuf(old_out_);
    std::cerr.rdbuf(old_err_);
  }
  CaptureOutput(const CaptureOutput&) = delete;
  CaptureOutput& operator=(const CaptureOutput&) = delete;

  [[nodiscard]] std::string out() const { return out_.str(); }
  [[nodiscard]] std::string err() const { return err_.str(); }

 private:
  std::ostringstream out_, err_;
  std::streambuf* old_out_;
  std::streambuf* old_err_;
};

std::size_t count_of(const std::string& text, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + needle.size()))
    ++n;
  return n;
}

struct PointRun {
  std::uint64_t digest = 0;
  std::size_t samples = 0;
  std::size_t lp_failures = 0;  // samples the experiment dropped
  bool paper_check_miss = false;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

/// One universe through the public entry point, sim::run_point.
PointRun run_point_untraced(const nx::sim::ExperimentSpec& spec) {
  nx::util::JsonReport record(std::string(), "fig7");
  PointRun run;
  std::string out, err;
  {
    const CaptureOutput capture;
    const double cpu0 = cpu_seconds();
    const std::int64_t t0 = now_ns();
    const nx::sim::PointOutcome po =
        nx::sim::run_point(fig7_preset(), spec, record, nullptr);
    run.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
    run.cpu_s = cpu_seconds() - cpu0;
    run.digest = po.digest;
    if (po.rc != 0) throw std::runtime_error("fig7 run_point failed");
    out = capture.out();
    err = capture.err();
  }
  const std::string key = "samples: ";
  const std::size_t at = out.find(key);
  if (at == std::string::npos)
    throw std::runtime_error("fig7 printed no sample count");
  run.samples = std::stoul(out.substr(at + key.size()));
  run.lp_failures = count_of(err, "LP failed (");
  run.paper_check_miss = out.find("[MISS]") != std::string::npos;
  return run;
}

/// What the traced replica of one universe measured beyond the spans.
struct TracedPoint {
  std::uint64_t digest = 0;
  std::size_t samples = 0;
  std::size_t lp_failures = 0;
  std::vector<double> lp_vars;
  std::vector<double> sample_ms;
};

/// sim::run_bandwidth_experiment re-driven through its layer functions with
/// a span around each call. Must reproduce run_point's digest.
TracedPoint run_point_traced(const nx::sim::ExperimentSpec& spec,
                             Tracer& tracer, std::int64_t universe_index) {
  const Span point_span(tracer, "experiment.universe", universe_index,
                        SpanKind::kGroup);
  const nx::sim::BandwidthExperimentConfig config = spec.to_bandwidth_config();

  const std::vector<nx::topology::IspPair> pairs = [&] {
    const Span s(tracer, "universe.build");
    return nx::sim::build_pair_universe(config.universe, 3);
  }();

  nx::util::Rng rng(config.universe.seed ^ 0xba5eba11ull);
  std::vector<std::vector<nx::util::Rng>> streams =
      nx::util::fork_streams(rng, pairs.size(), 2);

  struct PairOut {
    std::vector<nx::sim::BandwidthSample> samples;
    std::size_t lp_failures = 0;
    std::vector<double> lp_vars;
    std::vector<double> sample_ms;
  };
  std::vector<PairOut> per_pair(pairs.size());

  const auto run_pair = [&](std::size_t pair_index) {
    const Span pair_span(tracer, "experiment.pair",
                         static_cast<std::int64_t>(pair_index),
                         SpanKind::kGroup);
    const nx::topology::IspPair& pair = pairs[pair_index];
    PairOut& po = per_pair[pair_index];

    const nx::routing::PairRouting routing = [&] {
      const Span s(tracer, "routing.pair_routing");
      return nx::routing::PairRouting(pair);
    }();
    nx::util::Rng traffic_rng = streams[pair_index][0];
    const nx::traffic::TrafficMatrix tm = [&] {
      const Span s(tracer, "traffic.build");
      return nx::traffic::TrafficMatrix::build(
          pair, nx::traffic::Direction::kAtoB, config.traffic, traffic_rng);
    }();

    std::vector<std::size_t> all_ix(pair.interconnection_count());
    for (std::size_t i = 0; i < all_ix.size(); ++i) all_ix[i] = i;
    const nx::routing::Assignment pre_failure = [&] {
      const Span s(tracer, "routing.loads");
      return nx::routing::assign_early_exit(routing, tm.flows(), all_ix);
    }();
    const nx::routing::LoadMap baseline = [&] {
      const Span s(tracer, "routing.loads");
      return nx::routing::compute_loads(routing, tm.flows(), pre_failure);
    }();
    const nx::routing::LoadMap caps = [&] {
      const Span s(tracer, "capacity.assign");
      return nx::capacity::assign_capacities(baseline, config.capacity);
    }();

    const std::size_t failures =
        std::min(config.max_failures_per_pair, pair.interconnection_count());
    for (std::size_t failed = 0; failed < failures; ++failed) {
      const auto item =
          static_cast<std::int64_t>(pair_index * config.max_failures_per_pair +
                                    failed);
      const Span sample_span(tracer, "experiment.sample", item,
                             SpanKind::kGroup);
      const std::int64_t sample_t0 = now_ns();
      nx::core::NegotiationProblem problem;
      try {
        const Span s(tracer, "core.make_failure_problem", item);
        problem = nx::core::make_failure_problem(routing, tm.flows(), failed);
      } catch (const std::invalid_argument&) {
        continue;
      }
      if (problem.negotiable.empty()) continue;

      nx::sim::BandwidthSample s;
      s.pair_label = pair.label();
      s.failed_ix = failed;
      s.affected_flows = problem.negotiable.size();
      s.affected_volume_fraction =
          problem.negotiable_volume() / tm.total_volume();

      std::vector<char> negotiable_mask(tm.size(), 0);
      for (std::size_t idx : problem.negotiable) negotiable_mask[idx] = 1;
      {
        const Span sp(tracer, "routing.loads", item);
        const nx::routing::LoadMap default_loads = nx::routing::compute_loads(
            routing, tm.flows(), problem.default_assignment);
        s.mel_default[0] = nx::metrics::side_mel(default_loads, caps, 0);
        s.mel_default[1] = nx::metrics::side_mel(default_loads, caps, 1);
      }

      po.lp_vars.push_back(static_cast<double>(
          problem.negotiable.size() * problem.candidates.size() + 1));
      const nx::opt::MinMaxLoadResult lp = [&] {
        const Span sp(tracer, "lp.solve", item);
        return nx::opt::solve_min_max_load(routing, tm.flows(),
                                           negotiable_mask, pre_failure,
                                           problem.candidates, caps);
      }();
      if (lp.status != nx::lp::SolveStatus::kOptimal) {
        ++po.lp_failures;
        po.sample_ms.push_back(static_cast<double>(now_ns() - sample_t0) *
                               1e-6);
        continue;
      }
      {
        const Span sp(tracer, "routing.loads", item);
        const nx::routing::LoadMap optimal_loads =
            nx::routing::compute_loads_fractional(routing, tm.flows(),
                                                  lp.assignment);
        s.mel_optimal[0] = nx::metrics::side_mel(optimal_loads, caps, 0);
        s.mel_optimal[1] = nx::metrics::side_mel(optimal_loads, caps, 1);
      }

      const nx::core::PreferenceConfig pc = config.negotiation.preferences;
      const nx::core::OracleRegistry& registry =
          nx::core::OracleRegistry::global();
      std::optional<nx::core::BuiltOracle> built_a, built_b;
      {
        const Span sp(tracer, "oracle.build", item);
        built_a.emplace(registry.build(config.objective[0], {0, pc, &caps}));
        built_b.emplace(registry.build(config.objective[1], {1, pc, &caps}));
      }
      TimedOracle oracle_a(built_a->get(), tracer, item);
      TimedOracle oracle_b(built_b->get(), tracer, item);

      nx::core::NegotiationConfig ncfg = config.negotiation;
      ncfg.seed = streams[pair_index][1].next_u64();
      const nx::core::NegotiationOutcome outcome = [&] {
        const Span sp(tracer, "engine.run", item);
        nx::core::NegotiationEngine engine(problem, oracle_a, oracle_b, ncfg);
        return engine.run();
      }();
      s.flows_moved = outcome.flows_moved;
      {
        const Span sp(tracer, "routing.loads", item);
        const nx::routing::LoadMap negotiated_loads =
            nx::routing::compute_loads(routing, tm.flows(), outcome.assignment);
        s.mel_negotiated[0] = nx::metrics::side_mel(negotiated_loads, caps, 0);
        s.mel_negotiated[1] = nx::metrics::side_mel(negotiated_loads, caps, 1);
      }

      if (config.objective[1].name == "distance") {
        const Span sp(tracer, "routing.km", item);
        double def_km = 0.0, neg_km = 0.0;
        for (std::size_t idx : problem.negotiable) {
          const nx::traffic::Flow& f = tm.flows()[idx];
          def_km += f.size * routing.km_in_side(
                                 f, problem.default_assignment.ix_of_flow[idx], 1);
          neg_km += f.size * routing.km_in_side(
                                 f, outcome.assignment.ix_of_flow[idx], 1);
        }
        s.downstream_distance_gain_pct =
            def_km > 0.0 ? (def_km - neg_km) / def_km * 100.0 : 0.0;
      }

      if (config.include_unilateral) {
        nx::opt::MinMaxConfig up_only;
        up_only.constrain_side_a = true;
        up_only.constrain_side_b = false;
        const nx::opt::MinMaxLoadResult up_lp = [&] {
          const Span sp(tracer, "lp.solve", item);
          return nx::opt::solve_min_max_load(
              routing, tm.flows(), negotiable_mask, pre_failure,
              problem.candidates, caps, up_only);
        }();
        if (up_lp.status == nx::lp::SolveStatus::kOptimal) {
          const Span sp(tracer, "routing.loads", item);
          const nx::routing::Assignment unilateral =
              nx::opt::round_to_integral(up_lp.assignment);
          const nx::routing::LoadMap uni_loads =
              nx::routing::compute_loads(routing, tm.flows(), unilateral);
          s.mel_unilateral[0] = nx::metrics::side_mel(uni_loads, caps, 0);
          s.mel_unilateral[1] = nx::metrics::side_mel(uni_loads, caps, 1);
        }
      }

      po.samples.push_back(std::move(s));
      po.sample_ms.push_back(static_cast<double>(now_ns() - sample_t0) * 1e-6);
    }
  };

  tracer.adopt(point_span.id());
  {
    nx::util::ThreadPool pool(nx::util::workers_for_threads(config.threads));
    nx::util::parallel_for(pool, pairs.size(), run_pair);
  }

  TracedPoint out;
  std::vector<nx::sim::BandwidthSample> samples;
  for (PairOut& po : per_pair) {
    for (nx::sim::BandwidthSample& s : po.samples) samples.push_back(std::move(s));
    out.lp_failures += po.lp_failures;
    out.lp_vars.insert(out.lp_vars.end(), po.lp_vars.begin(), po.lp_vars.end());
    out.sample_ms.insert(out.sample_ms.end(), po.sample_ms.begin(),
                         po.sample_ms.end());
  }
  out.samples = samples.size();
  // run_point folds the experiment's sample digest into a fresh FNV state.
  out.digest = nx::util::fnv1a_mix(nx::util::kFnvOffsetBasis,
                                   nx::sim::digest_samples(samples));
  return out;
}

}  // namespace

Result run_fig7_failures(const Options& opt) {
  Shape shape;
  if (opt.small) shape.pairs = 12;
  shape.universes = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(opt.seconds / kSecondsPerUniverse)));
  const std::vector<std::uint64_t> seeds =
      universe_seeds(opt.seed, shape.universes);

  Result result;

  // An untimed small universe first, so the timed ones start with the code
  // and the allocator warm.
  (void)run_point_untraced(fig7_spec(opt.seed, Shape{kWarmupPairs, 1}));

  // Each universe: its set-up, then the timed call through sim::run_point.
  std::vector<double> setup_s;
  std::vector<PointRun> runs;
  std::uint64_t sweep_digest = nx::util::kFnvOffsetBasis;
  for (std::size_t k = 0; k < seeds.size(); ++k) {
    std::optional<nx::sim::ExperimentSpec> spec;
    for (std::size_t r = 0; r < kSetupsPerUniverse; ++r) {
      const double t0 = cpu_seconds();
      spec.emplace(fig7_spec(seeds[k], shape));
      setup_s.push_back(cpu_seconds() - t0);
    }
    runs.push_back(run_point_untraced(*spec));
    const PointRun& r = runs.back();
    sweep_digest = nx::util::fnv1a_mix(sweep_digest, r.digest);
    std::cout << "universe seed " << seeds[k] << ": " << r.samples
              << " samples, " << r.lp_failures << " LP failures, "
              << r.wall_s << " s wall, " << r.cpu_s << " s cpu, digest "
              << nx::util::digest_hex(r.digest) << "\n";
    result.attempted += r.samples + r.lp_failures;
    result.failed += r.lp_failures;
    if (r.paper_check_miss)
      result.fail("fig7 paper check [MISS] for universe seed " +
                  std::to_string(seeds[k]));
  }
  // The pinned digest is the first universe's: for the default seed that is
  // `nexit_run --scenario=fig7 --pairs=250`.
  result.digest = nx::util::digest_hex(runs.front().digest);
  std::cout << "sweep digest over " << runs.size()
            << " universes: " << nx::util::digest_hex(sweep_digest) << "\n";

  double wall = 0.0, cpu = 0.0, samples = 0.0;
  for (const PointRun& r : runs) {
    wall += r.wall_s;
    cpu += r.cpu_s;
    samples += static_cast<double>(r.samples);
  }
  std::cout << "samples/s: " << (cpu > 0.0 ? samples / cpu : 0.0)
            << " on CPU time, " << (wall > 0.0 ? samples / wall : 0.0)
            << " on wall time\n";
  result.values["setup_s"] = median(setup_s);
  result.values["items_per_s"] = cpu > 0.0 ? samples / cpu : 0.0;
  result.values["cpu_s"] = cpu;

  if (opt.trace && result.correct) {
    nx::obs::Registry& reg = nx::obs::Registry::global();
    reg.reset_counters();
    reg.reset_timing();
    reg.set_timing_enabled(true);
    Tracer tracer;
    const std::int64_t begin = now_ns();
    std::vector<TracedPoint> traced;
    {
      const Span root(tracer, "trace.run", -1, SpanKind::kGroup);
      for (std::size_t k = 0; k < std::min(seeds.size(), kTracedUniverses);
           ++k) {
        tracer.adopt(root.id());
        const nx::sim::ExperimentSpec spec = [&] {
          const Span s(tracer, "sim.spec", static_cast<std::int64_t>(k));
          return fig7_spec(seeds[k], shape);
        }();
        traced.push_back(
            run_point_traced(spec, tracer, static_cast<std::int64_t>(k)));
      }
    }
    const std::int64_t end = now_ns();
    reg.set_timing_enabled(false);
    const nx::obs::Snapshot counters = reg.snapshot();
    const std::vector<nx::obs::PhaseSnapshot> phases = reg.timing_snapshot();

    std::vector<double> lp_vars, sample_ms;
    std::size_t lp_failed = 0;
    double untraced_wall = 0.0;
    for (std::size_t k = 0; k < traced.size(); ++k) {
      const TracedPoint& t = traced[k];
      untraced_wall += runs[k].wall_s;
      if (t.digest != runs[k].digest)
        result.fail("traced run digest " + nx::util::digest_hex(t.digest) +
                    " != untraced " + nx::util::digest_hex(runs[k].digest) +
                    " for universe seed " + std::to_string(seeds[k]));
      lp_vars.insert(lp_vars.end(), t.lp_vars.begin(), t.lp_vars.end());
      sample_ms.insert(sample_ms.end(), t.sample_ms.begin(), t.sample_ms.end());
      lp_failed += t.lp_failures;
    }

    const std::vector<SpanRecord> spans = tracer.collect();
    const SpanTable table = totals_by_name(spans);
    const auto total = [&table](const char* name) -> const SpanTotals& {
      return totals_of(table, name);
    };
    auto& v = result.values;
    v["universe.build_s"] = total("universe.build").seconds;
    v["routing.pair_routing_s"] = total("routing.pair_routing").seconds;
    v["traffic.build_s"] = total("traffic.build").seconds;
    const SpanTotals& lp = total("lp.solve");
    v["lp.solve_s"] = lp.seconds;
    v["lp.solve_ms.p50"] = quantile(lp.ms, 0.5);
    v["lp.solve_ms.p99"] = quantile(lp.ms, 0.99);
    v["lp.solves"] = static_cast<double>(lp.count);
    v["lp.failed"] = static_cast<double>(lp_failed);
    v["lp.vars.p50"] = quantile(lp_vars, 0.5);
    v["lp.vars.max"] = quantile(lp_vars, 1.0);
    const SpanTotals& full = total("oracle.evaluate_full");
    const SpanTotals& incr = total("oracle.evaluate_incremental");
    v["oracle.full_s"] = full.seconds;
    v["oracle.full_calls"] = static_cast<double>(full.count);
    v["oracle.incremental_s"] = incr.seconds;
    v["oracle.incremental_calls"] = static_cast<double>(incr.count);
    const double rows = static_cast<double>(
        counter(counters, "engine.evaluate_rows_computed"));
    const double rows_full = static_cast<double>(
        counter(counters, "engine.evaluate_rows_full_equivalent"));
    v["oracle.row_fraction"] = rows_full > 0.0 ? rows / rows_full : 0.0;
    // Every oracle span in this workload is opened inside engine.run.
    v["engine.self_s"] =
        total("engine.run").seconds - full.seconds - incr.seconds;
    v["engine.rounds"] = static_cast<double>(counter(counters, "engine.rounds"));
    v["engine.flows_moved"] =
        static_cast<double>(counter(counters, "engine.flows_moved"));
    v["experiment.sample_ms.p50"] = quantile(sample_ms, 0.5);
    v["experiment.sample_ms.p99"] = quantile(sample_ms, 0.99);
    std::uint64_t select_calls = 0;
    v["strategy.select_proposal_s"] = phase_seconds(
        phases, nx::obs::Phase::kSelectProposal, &select_calls);
    v["strategy.select_calls"] = static_cast<double>(select_calls);
    v["strategy.quantization_s"] =
        phase_seconds(phases, nx::obs::Phase::kQuantizationScale);

    const double traced_wall = static_cast<double>(end - begin) * 1e-9;
    v["trace.overhead"] =
        untraced_wall > 0.0 ? traced_wall / untraced_wall - 1.0 : 0.0;
    finish_trace(opt, spans, begin, end, result);
  }
  return result;
}

}  // namespace perfbench
