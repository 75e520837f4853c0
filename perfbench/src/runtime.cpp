// The wire workloads: runtime::Scenario sessions negotiating over in-memory
// channels with distance oracles (never the LP).
//
//   runtime_sessions      1000 sessions, stagger 0, burst 0: every session
//                         runs to completion in its first pump, so the whole
//                         population is one scheduling round.
//   runtime_crash_resume  500 sessions, stagger 2, burst 8, journaling on;
//                         session i is killed at its start + 2 and resumed
//                         from its journal at start + 4. Bursts keep
//                         sessions live across rounds, so kills land
//                         mid-negotiation; ~1000 rounds instead of one.
//
// The universe is fixed (65 ISPs, seed 42 — the fig7 preset's) and --seed
// drives the per-session traffic streams: per-session cost follows the ISP
// sizes a universe drew, so varying the universe would measure the draw
// rather than the code.

#include <algorithm>
#include <cmath>
#include <iostream>
#include <stdexcept>

#include "core/oracles.hpp"
#include "decorators.hpp"
#include "obs/registry.hpp"
#include "runtime/scenario.hpp"
#include "sim/scenarios.hpp"
#include "util/digest.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace nx = nexit;
namespace rt = nexit::runtime;

namespace {

/// One worker: at two, the wall time of a repetition followed how often the
/// host gave both threads a core at once, which changed from run to run.
constexpr std::size_t kThreads = 1;
constexpr std::uint64_t kUniverseSeed = 42;
constexpr std::size_t kMinReps = 3;
constexpr std::size_t kSetupsPerRep = 3;

struct Shape {
  std::size_t sessions = 1000;
  std::uint64_t stagger = 0;
  std::size_t burst = 0;
  bool crash = false;  // kill at start + 2, resume at start + 4
  /// Nominal seconds of one repetition at kThreads on a 4-CPU host; a run
  /// makes round(--seconds / this) timed repetitions (at least kMinReps),
  /// so its work is fixed by its arguments.
  double rep_seconds = 4.0;
};

Shape shape_of(bool crash, bool small) {
  Shape s;
  if (crash) {
    s.sessions = small ? 40 : 500;
    s.stagger = 2;
    s.burst = 8;
    s.crash = true;
    s.rep_seconds = 3.5;
  } else if (small) {
    s.sessions = 60;
  }
  if (small) s.rep_seconds = 0.1;
  return s;
}

std::string kill_resume_events(const Shape& shape) {
  std::string events;
  for (std::size_t i = 0; i < shape.sessions; ++i) {
    const std::uint64_t start = i * shape.stagger;
    if (!events.empty()) events += ",";
    events += "kill@" + std::to_string(start + 2) + "/" + std::to_string(i) +
              ",resume@" + std::to_string(start + 4) + "/" + std::to_string(i);
  }
  return events;
}

/// Spec merge + validation + mapping onto the runtime config: the set-up
/// the public entry point pays before any Scenario exists. `with_events`
/// false gives the crash workload's uninterrupted twin (journaling forced
/// on instead).
rt::ScenarioConfig scenario_config(const Shape& shape, std::uint64_t seed,
                                   bool with_events) {
  const nx::sim::ScenarioPreset* preset = nx::sim::find_scenario("runtime");
  if (preset == nullptr) throw std::runtime_error("runtime preset missing");
  nx::sim::ExperimentSpec spec;
  preset->tune(spec);
  std::vector<std::string> flags = {
      "seed=" + std::to_string(kUniverseSeed),
      "threads=" + std::to_string(kThreads),
      "traffic=uniform",
      "runtime.sessions=" + std::to_string(shape.sessions),
      "runtime.stagger=" + std::to_string(shape.stagger),
      "runtime.burst=" + std::to_string(shape.burst),
  };
  if (shape.crash && with_events)
    flags.push_back("runtime.events=" + kill_resume_events(shape));
  spec.merge_from_flags(nx::util::Flags(flags));
  std::string error;
  if (!spec.validate(&error))
    throw std::runtime_error("runtime spec: " + error);
  rt::ScenarioConfig cfg = nx::sim::runtime_config_of(spec);
  cfg.seed = seed;
  if (shape.crash && !with_events) cfg.durability.journal = true;
  return cfg;
}

struct RepRun {
  std::uint64_t digest = 0;
  std::size_t sessions = 0;
  std::size_t done = 0;
  std::uint64_t restore_failures = 0;
  std::size_t kills = 0;
  std::size_t kills_landed = 0;
  std::size_t restores = 0;
  std::vector<double> setup_s;
  double setup_wall_s = 0.0;
  double run_s = 0.0;
  double cpu_s = 0.0;
};

/// One repetition through the public entry point, runtime::Scenario. For
/// the crash workload, callbacks registered after the scenario's own fire
/// right after each kill and resume and count the ones that found a live
/// session; they sit on ticks the timeline already wakes at, so they change
/// no scheduling.
RepRun run_rep(const Shape& shape, std::uint64_t seed, bool with_events) {
  RepRun rep;
  // Extra set-ups give the median more samples, spread over the run.
  for (std::size_t i = 1; i < kSetupsPerRep; ++i) {
    const double t0 = cpu_seconds();
    const rt::Scenario discarded(scenario_config(shape, seed, with_events));
    rep.setup_s.push_back(cpu_seconds() - t0);
  }
  const std::int64_t wall0 = now_ns();
  const double t0 = cpu_seconds();
  rt::ScenarioConfig cfg = scenario_config(shape, seed, with_events);
  rt::Scenario scenario(cfg);
  rep.setup_s.push_back(cpu_seconds() - t0);
  rep.setup_wall_s = static_cast<double>(now_ns() - wall0) * 1e-9;

  rt::SessionManager& manager = scenario.manager();
  for (const rt::ScenarioEvent& ev : cfg.events) {
    const std::uint32_t id = ev.session;
    if (ev.kind == rt::EventKind::kKill) {
      ++rep.kills;
      manager.at(ev.at, [&rep, &manager, id](rt::Tick) {
        if (manager.session(id).status() == rt::SessionStatus::kKilled)
          ++rep.kills_landed;
      });
    } else if (ev.kind == rt::EventKind::kResume) {
      manager.at(ev.at, [&rep, &manager, id](rt::Tick) {
        if (manager.session(id).status() == rt::SessionStatus::kRunning)
          ++rep.restores;
      });
    }
  }

  nx::obs::Registry::global().reset_counters();
  const double cpu0 = cpu_seconds();
  const std::int64_t t1 = now_ns();
  const rt::ScenarioReport report = scenario.run();
  rep.run_s = static_cast<double>(now_ns() - t1) * 1e-9;
  rep.cpu_s = cpu_seconds() - cpu0;

  rep.digest = rt::outcome_digest(report);
  rep.sessions = report.sessions.size();
  for (const rt::ScenarioSessionResult& s : report.sessions)
    if (s.status == rt::SessionStatus::kDone) ++rep.done;
  rep.restore_failures = counter(nx::obs::Registry::global().snapshot(),
                                 "runtime.restore_failures");
  return rep;
}

// --- traced replica ---------------------------------------------------------

struct TracedWorld {
  TracedWorld(nx::traffic::TrafficMatrix tm, nx::core::PreferenceConfig prefs,
              Tracer& tracer, std::int64_t item)
      : traffic(std::move(tm)),
        inner_a(0, prefs),
        inner_b(1, prefs),
        oracle_a(inner_a, tracer, item),
        oracle_b(inner_b, tracer, item) {}

  nx::traffic::TrafficMatrix traffic;
  nx::core::NegotiationProblem problem;
  nx::core::DistanceOracle inner_a, inner_b;
  TimedOracle oracle_a, oracle_b;
};

struct TracedRun {
  std::uint64_t digest = 0;
  rt::RuntimeStats stats;
  double run_span_s = 0.0;
  std::vector<WireStats> wire;
  std::uint64_t retries = 0, timeouts = 0;
  std::uint64_t rows = 0, rows_full = 0;
  std::uint64_t checkpoints = 0, wal_events = 0, journal_bytes = 0;
  std::size_t kills_landed = 0, restores = 0, fallbacks = 0;
  std::vector<double> resume_ms;
  std::vector<double> session_ms;
};

nx::traffic::TrafficMatrix build_traffic(const nx::topology::IspPair& pair,
                                         rt::ScenarioTraffic shape,
                                         nx::util::Rng& rng) {
  if (shape == rt::ScenarioTraffic::kGravityAtoB)
    return nx::traffic::TrafficMatrix::build(pair, nx::traffic::Direction::kAtoB,
                                             nx::traffic::TrafficConfig{}, rng);
  nx::traffic::TrafficConfig tcfg;
  tcfg.model = shape == rt::ScenarioTraffic::kBidirectionalUniformRandom
                   ? nx::traffic::WorkloadModel::kUniformRandom
                   : nx::traffic::WorkloadModel::kIdentical;
  return nx::traffic::TrafficMatrix::build_bidirectional(pair, tcfg, rng);
}

/// runtime::Scenario's construction and run re-driven through the layer
/// functions — universe, routing, traffic, problem, SessionManager::add/run,
/// Session::kill/resume — with the oracle and channel decorators injected
/// through the public interfaces. It mirrors only what this benchmark's
/// configurations use (in-memory transport, no faults, kill/resume events);
/// the digest gate catches any divergence from Scenario.
TracedRun run_traced(rt::ScenarioConfig cfg, Tracer& tracer) {
  cfg.negotiation.tie_break = nx::core::TieBreak::kDeterministic;

  const std::vector<nx::topology::IspPair> pairs = [&] {
    const Span s(tracer, "universe.build");
    return nx::sim::build_pair_universe(cfg.universe, cfg.min_links);
  }();
  std::vector<std::unique_ptr<rt::PairWorld>> pair_worlds;
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    const Span s(tracer, "routing.pair_routing", static_cast<std::int64_t>(p));
    auto pw = std::make_unique<rt::PairWorld>(rt::PairWorld{pairs[p], nullptr});
    pw->routing = std::make_unique<nx::routing::PairRouting>(pw->pair);
    pair_worlds.push_back(std::move(pw));
  }

  const std::size_t count =
      cfg.session_count == 0 ? pairs.size() : cfg.session_count;
  std::unique_ptr<rt::SnapshotStore> store;
  if (!cfg.events.empty() || cfg.durability.journal)
    store = std::make_unique<rt::SnapshotStore>();

  nx::util::Rng rng(cfg.seed);
  std::vector<std::vector<nx::util::Rng>> streams =
      nx::util::fork_streams(rng, count, 2);

  TracedRun out;
  out.wire.resize(count);
  std::vector<std::unique_ptr<TracedWorld>> worlds;
  std::vector<rt::Tick> scheduled_start;
  rt::SessionManager manager(cfg.runtime);  // after worlds: destroyed first

  for (std::size_t i = 0; i < count; ++i) {
    const auto item = static_cast<std::int64_t>(i);
    const rt::PairWorld& base = *pair_worlds[i % pair_worlds.size()];
    nx::util::Rng traffic_rng = streams[i][0];
    std::unique_ptr<TracedWorld> world = [&] {
      const Span s(tracer, "traffic.build", item);
      return std::make_unique<TracedWorld>(
          build_traffic(base.pair, cfg.traffic, traffic_rng),
          cfg.negotiation.preferences, tracer, item);
    }();
    {
      const Span s(tracer, "core.make_distance_problem", item);
      std::vector<std::size_t> all_ix(base.pair.interconnection_count());
      for (std::size_t x = 0; x < all_ix.size(); ++x) all_ix[x] = x;
      world->problem = nx::core::make_distance_problem(
          *base.routing, world->traffic.flows(), std::move(all_ix));
    }
    WireStats* wire = &out.wire[i];
    auto session = std::make_unique<rt::Session>(
        static_cast<std::uint32_t>(i), world->problem, world->oracle_a,
        world->oracle_b, cfg.negotiation,
        [wire](int) {
          auto pair = nx::agent::make_in_memory_channel_pair();
          return std::make_pair<std::unique_ptr<nx::agent::Channel>,
                                std::unique_ptr<nx::agent::Channel>>(
              std::make_unique<MeteredChannel>(std::move(pair.first), wire),
              std::make_unique<MeteredChannel>(std::move(pair.second), wire));
        },
        cfg.limits);
    if (store != nullptr)
      session->attach_journal(&store->journal(static_cast<std::uint32_t>(i)));
    const rt::Tick start_at = static_cast<rt::Tick>(i) * cfg.start_stagger;
    worlds.push_back(std::move(world));
    scheduled_start.push_back(start_at);
    const Span s(tracer, "runtime.add", item);
    manager.add(std::move(session), start_at);
  }

  for (const rt::ScenarioEvent& ev : cfg.events) {
    const std::uint32_t id = ev.session;
    if (ev.kind == rt::EventKind::kKill) {
      manager.at(ev.at, [&, id](rt::Tick now) {
        const Span s(tracer, "runtime.kill", id);
        rt::Session& session = manager.session(id);
        if (session.terminal()) return;
        session.kill(now);
        manager.notice(id);
        ++out.kills_landed;
      });
    } else {
      manager.at(ev.at, [&, id](rt::Tick now) {
        const Span s(tracer, "runtime.resume", id);
        rt::Session& session = manager.session(id);
        if (session.status() != rt::SessionStatus::kKilled) return;
        const std::int64_t t0 = now_ns();
        switch (session.resume(now, scheduled_start[id], nullptr)) {
          case rt::RestoreOutcome::kResumed:
            out.resume_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
            ++out.restores;
            manager.notice(id);
            break;
          case rt::RestoreOutcome::kFreshPending:
            if (now >= scheduled_start[id]) {
              session.start(now);
              manager.notice(id);
            } else {
              manager.schedule_start(id, scheduled_start[id]);
            }
            break;
          case rt::RestoreOutcome::kFellBack:
            ++out.fallbacks;
            manager.schedule_start(id, now);
            break;
        }
      });
    }
  }

  {
    const Span s(tracer, "runtime.run");
    tracer.adopt(s.id());
    const std::int64_t t0 = now_ns();
    out.stats = manager.run();
    out.run_span_s = static_cast<double>(now_ns() - t0) * 1e-9;
  }

  rt::ScenarioReport report;
  report.stats = out.stats;
  for (std::uint32_t id = 0; id < manager.size(); ++id) {
    const rt::Session& s = manager.session(id);
    rt::ScenarioSessionResult r;
    r.id = id;
    r.status = s.status();
    if (s.status() == rt::SessionStatus::kDone) {
      r.outcome = s.outcome();
      out.rows += r.outcome.evaluate_rows_computed;
      out.rows_full += r.outcome.evaluate_rows_full_equivalent;
      const WireStats& w = out.wire[id];
      if (w.first_send_ns >= 0 && w.last_receive_ns >= w.first_send_ns)
        out.session_ms.push_back(
            static_cast<double>(w.last_receive_ns - w.first_send_ns) * 1e-6);
    }
    r.messages = s.messages_sent();
    out.retries += static_cast<std::uint64_t>(s.retries());
    out.timeouts += s.timeouts();
    report.sessions.push_back(std::move(r));
    if (store != nullptr) {
      if (const rt::SessionJournal* j = store->find(id)) {
        out.checkpoints += j->checkpoints();
        out.wal_events += j->wal_events();
        out.journal_bytes += j->snapshot_bytes().size() + j->wal_bytes().size();
      }
    }
  }
  out.digest = rt::outcome_digest(report);
  return out;
}

Result run_runtime(const Options& opt, bool crash) {
  const Shape shape = shape_of(crash, opt.small);
  Result result;

  // An untimed small repetition first, so the timed ones start with the
  // code and the allocator warm.
  (void)run_rep(shape_of(crash, /*small=*/true), opt.seed,
                /*with_events=*/true);

  // Timed phase: identical repetitions, reported as medians.
  const auto rep_count = std::max<std::size_t>(
      kMinReps, static_cast<std::size_t>(
                    std::lround(opt.seconds / shape.rep_seconds)));
  std::vector<RepRun> reps;
  while (reps.size() < rep_count) {
    reps.push_back(run_rep(shape, opt.seed, /*with_events=*/true));
    const RepRun& r = reps.back();
    result.attempted += r.sessions + r.kills_landed;
    result.failed += (r.sessions - r.done) + r.restore_failures;
    if (r.digest != reps.front().digest)
      result.fail("repetition digests differ: " +
                  nx::util::digest_hex(r.digest) + " vs " +
                  nx::util::digest_hex(reps.front().digest));
    if (crash && r.kills_landed * 4 < r.kills)
      result.fail("only " + std::to_string(r.kills_landed) + " of " +
                  std::to_string(r.kills) +
                  " kills found a live session; too few to measure restores");
  }
  const RepRun& first = reps.front();
  result.digest = nx::util::digest_hex(first.digest);
  std::cout << reps.size() << " repetitions of " << first.sessions
            << " sessions: digest " << result.digest;
  if (crash)
    std::cout << ", " << first.kills_landed << " of " << first.kills
              << " kills landed, " << first.restores << " restored";
  std::cout << "\n";

  if (crash) {
    const RepRun twin = run_rep(shape, opt.seed, /*with_events=*/false);
    std::cout << "uninterrupted twin digest " << nx::util::digest_hex(twin.digest)
              << "\n";
    if (twin.digest != first.digest)
      result.fail("crash-resumed digest " + result.digest +
                  " != uninterrupted twin " + nx::util::digest_hex(twin.digest));
  }

  std::vector<double> setup, rate, cpu, rep_wall;
  std::cout << "sessions/s per repetition (CPU time / wall time):";
  for (const RepRun& r : reps) {
    setup.insert(setup.end(), r.setup_s.begin(), r.setup_s.end());
    rate.push_back(r.cpu_s > 0.0 ? static_cast<double>(r.done) / r.cpu_s : 0.0);
    cpu.push_back(r.cpu_s);
    rep_wall.push_back(r.setup_wall_s + r.run_s);
    std::cout << " " << rate.back() << "/"
              << (r.run_s > 0.0 ? static_cast<double>(r.done) / r.run_s : 0.0);
  }
  std::cout << "\n";
  result.values["setup_s"] = median(setup);
  result.values["items_per_s"] = median(rate);
  result.values["cpu_s"] = median(cpu);

  if (opt.trace && result.correct) {
    nx::obs::Registry& reg = nx::obs::Registry::global();
    reg.reset_counters();
    reg.reset_timing();
    reg.set_timing_enabled(true);
    Tracer tracer;
    const std::int64_t begin = now_ns();
    TracedRun t;
    {
      const Span root(tracer, "trace.run", -1, SpanKind::kGroup);
      const rt::ScenarioConfig cfg = [&] {
        const Span s(tracer, "sim.spec");
        return scenario_config(shape, opt.seed, /*with_events=*/true);
      }();
      t = run_traced(cfg, tracer);
    }
    const std::int64_t end = now_ns();
    reg.set_timing_enabled(false);
    const std::vector<nx::obs::PhaseSnapshot> phases = reg.timing_snapshot();

    if (t.digest != first.digest)
      result.fail("traced run digest " + nx::util::digest_hex(t.digest) +
                  " != untraced " + result.digest);

    const std::vector<SpanRecord> spans = tracer.collect();
    const SpanTable table = totals_by_name(spans);
    const auto total = [&table](const char* name) -> const SpanTotals& {
      return totals_of(table, name);
    };
    auto& v = result.values;
    v["universe.build_s"] = total("universe.build").seconds;
    v["routing.pair_routing_s"] = total("routing.pair_routing").seconds;
    v["traffic.build_s"] = total("traffic.build").seconds;
    const SpanTotals& full = total("oracle.evaluate_full");
    const SpanTotals& incr = total("oracle.evaluate_incremental");
    v["oracle.full_s"] = full.seconds;
    v["oracle.full_calls"] = static_cast<double>(full.count);
    v["oracle.incremental_s"] = incr.seconds;
    v["oracle.incremental_calls"] = static_cast<double>(incr.count);
    v["oracle.row_fraction"] =
        t.rows_full > 0 ? static_cast<double>(t.rows) /
                              static_cast<double>(t.rows_full)
                        : 0.0;
    std::uint64_t select_calls = 0;
    const double select_s = phase_seconds(
        phases, nx::obs::Phase::kSelectProposal, &select_calls);
    v["strategy.select_proposal_s"] = select_s;
    v["strategy.select_calls"] = static_cast<double>(select_calls);
    v["strategy.quantization_s"] =
        phase_seconds(phases, nx::obs::Phase::kQuantizationScale);
    const double encode_s = phase_seconds(phases, nx::obs::Phase::kWireEncode);
    const double decode_s = phase_seconds(phases, nx::obs::Phase::kWireDecode);
    double send_s = 0.0, receive_s = 0.0, frames = 0.0, bytes = 0.0;
    for (const WireStats& w : t.wire) {
      send_s += static_cast<double>(w.send_ns) * 1e-9;
      receive_s += static_cast<double>(w.receive_ns) * 1e-9;
      frames += static_cast<double>(w.frames);
      bytes += static_cast<double>(w.bytes);
    }
    v["wire.encode_s"] = encode_s;
    v["wire.decode_s"] = decode_s;
    v["wire.channel_s"] = send_s + receive_s;
    v["wire.frames"] = frames;
    v["wire.bytes"] = bytes;
    const double pump_s = phase_seconds(phases, nx::obs::Phase::kSessionPump);
    v["runtime.pump_s"] = pump_s;
    // Sends run inside the encode timer, so only receives are subtracted
    // on top of it.
    v["runtime.pump_other_s"] = pump_s - select_s - full.seconds -
                                incr.seconds - encode_s - decode_s - receive_s;
    v["runtime.parallelism"] = t.run_span_s > 0.0 ? pump_s / t.run_span_s : 0.0;
    v["runtime.rounds"] = static_cast<double>(t.stats.rounds);
    v["runtime.steps"] = static_cast<double>(t.stats.total_steps);
    v["runtime.session_ms.p50"] = quantile(t.session_ms, 0.5);
    v["runtime.session_ms.p99"] = quantile(t.session_ms, 0.99);
    v["runtime.retries"] = static_cast<double>(t.retries);
    v["runtime.timeouts"] = static_cast<double>(t.timeouts);
    v["journal.checkpoints"] = static_cast<double>(t.checkpoints);
    v["journal.wal_events"] = static_cast<double>(t.wal_events);
    v["journal.bytes"] = static_cast<double>(t.journal_bytes);
    v["journal.kills_landed"] = static_cast<double>(t.kills_landed);
    v["journal.restores"] = static_cast<double>(t.restores);
    v["journal.fallbacks"] = static_cast<double>(t.fallbacks);
    v["journal.resume_ms.p50"] = quantile(t.resume_ms, 0.5);
    v["journal.resume_ms.p99"] = quantile(t.resume_ms, 0.99);

    const double traced_wall = static_cast<double>(end - begin) * 1e-9;
    const double untraced_wall = median(rep_wall);
    v["trace.overhead"] =
        untraced_wall > 0.0 ? traced_wall / untraced_wall - 1.0 : 0.0;
    finish_trace(opt, spans, begin, end, result);
  }
  return result;
}

}  // namespace

Result run_runtime_sessions(const Options& opt) {
  return run_runtime(opt, /*crash=*/false);
}

Result run_runtime_crash_resume(const Options& opt) {
  return run_runtime(opt, /*crash=*/true);
}

}  // namespace perfbench
