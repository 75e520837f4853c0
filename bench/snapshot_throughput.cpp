// Cost of durability: what session journaling (runtime/snapshot.hpp) adds
// to runtime throughput, and how fast crash-resume restores sessions.
//
//   ./build/snapshot_throughput --sessions=96 --threads=2
//
// Three measurements over the same scenario config:
//   1. plain      — journaling off: the baseline
//   2. journaled  — journaling forced on, no crashes: the pure overhead of
//                   checkpointing every attempt boundary and appending a
//                   WAL record per pump/deadline/cancel
//   3. crash      — every session is killed mid-negotiation and resumed two
//                   ticks later, so each one exercises the full snapshot +
//                   WAL replay path
//
// The durability contract makes all three runs land the same outcome
// digest (resume is bit-identical to never having crashed); the bench
// asserts that, so a perf baseline run also witnesses the contract.
//
// Flags (beyond the shared universe ones):
//   --sessions=N   concurrent sessions (default 96)
//   --threads=N    worker threads
//   --json=PATH    machine-readable record of config + results

#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "obs/wall_clock.hpp"
#include "proto/snapshot_messages.hpp"
#include "runtime/scenario.hpp"
#include "sim/report.hpp"

using namespace nexit;

namespace {

struct RunResult {
  double seconds = 0.0;
  std::uint64_t digest = 0;
  runtime::RuntimeStats stats;
};

RunResult timed_run(const runtime::ScenarioConfig& cfg) {
  const auto t0 = obs::WallClock::now();
  const runtime::ScenarioReport report = runtime::run_scenario(cfg);
  const double s = obs::WallClock::ms_since(t0) / 1e3;
  return RunResult{s, runtime::outcome_digest(report), report.stats};
}

/// Encode+decode round-trips per second on a representative WAL record —
/// the proto-layer ceiling on journaling throughput, independent of the
/// negotiation machinery.
double wal_codec_events_per_second() {
  proto::SnapshotWalEvent ev;
  ev.kind = static_cast<std::uint8_t>(proto::WalEventKind::kPump);
  ev.pre_status = 1;
  ev.pre_attempts = 1;
  ev.pre_steps = 40;
  ev.pre_messages = 60;
  ev.mark.live = 1;
  ev.mark.state_a = 2;
  ev.mark.state_b = 2;
  ev.mark.round = 5;
  ev.mark.remaining = 2;
  ev.mark.disclosed_gain_a = 7;
  ev.mark.disclosed_gain_b = -2;
  ev.mark.true_gain_a = 1.25;
  ev.mark.assignment = {0, 2, 1, 1, 0, 2, 1, 0};
  constexpr int kRounds = 200000;
  std::uint64_t sink = 0;
  const auto t0 = obs::WallClock::now();
  for (int i = 0; i < kRounds; ++i) {
    ev.tick = static_cast<runtime::Tick>(i);
    const proto::Frame f = proto::encode_snapshot_wal_event(ev);
    const auto back = proto::decode_snapshot_wal_event(f);
    if (!back.ok()) std::abort();
    sink += back.value().tick + f.payload.size();
  }
  // nexit-lint: allow(taint-flow): throughput benchmark — wall-clock duration is the measurement itself, printed to stdout and recorded in digest-excluded metrics
  const double s = obs::WallClock::ms_since(t0) / 1e3;
  if (sink == 0) std::abort();  // keep the loop observable
  return s > 0 ? kRounds / s : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  util::JsonReport json(flags, "snapshot_throughput");

  runtime::ScenarioConfig cfg;
  cfg.universe = bench::universe_from_flags(flags);
  cfg.negotiation = bench::negotiation_from_flags(flags);
  cfg.session_count = util::get_count(flags, "sessions", 96, 1u << 20);
  cfg.traffic = runtime::ScenarioTraffic::kBidirectionalUniformRandom;
  cfg.start_stagger = 2;  // kills target per-session ticks; keep them apart
  cfg.runtime.threads = util::get_count(flags, "threads", 1, 1024);
  util::reject_unknown(flags);

  sim::print_bench_header(
      "Snapshot", "journaling overhead and crash-resume restore throughput",
      sim::universe_summary(cfg.universe));
  std::cout << cfg.session_count << " sessions, threads "
            << cfg.runtime.threads << "\n";

  // 1. Baseline: no journaling.
  const RunResult plain = timed_run(cfg);

  // 2. Journaling on, no crashes: pure record-keeping overhead.
  runtime::ScenarioConfig journaled = cfg;
  journaled.durability.journal = true;
  const RunResult with_journal = timed_run(journaled);

  // 3. Kill + resume every session two ticks after its staggered start
  // (mid-negotiation for any non-trivial universe): each session restores
  // through checkpoint decode + WAL replay.
  runtime::ScenarioConfig crash = cfg;
  for (std::uint32_t i = 0; i < crash.session_count; ++i) {
    const runtime::Tick start = i * cfg.start_stagger;
    crash.events.push_back({start + 2, runtime::EventKind::kKill, i, 0});
    crash.events.push_back({start + 4, runtime::EventKind::kResume, i, 0});
  }
  const RunResult resumed = timed_run(crash);

  const double overhead_pct =
      plain.seconds > 0
          ? 100.0 * (with_journal.seconds - plain.seconds) / plain.seconds
          : 0.0;
  const double restores_per_s =
      resumed.seconds > 0
          ? static_cast<double>(cfg.session_count) / resumed.seconds
          : 0.0;
  const bool digest_match = plain.digest == with_journal.digest &&
                            plain.digest == resumed.digest;
  const double codec_events_per_s = wal_codec_events_per_second();

  std::printf("plain:     %.3f s   (digest %016llx)\n", plain.seconds,
              static_cast<unsigned long long>(plain.digest));
  std::printf("journaled: %.3f s   (+%.1f%% overhead)\n", with_journal.seconds,
              overhead_pct);
  std::printf("crash:     %.3f s   (%zu kill/resume cycles, %.0f restores/s)\n",
              resumed.seconds, cfg.session_count, restores_per_s);
  std::printf("WAL codec: %.0f encode+decode round-trips/s\n",
              codec_events_per_s);
  std::printf("digest match across all three runs: %s\n",
              digest_match ? "yes" : "NO");

  bench::record_universe(json, cfg.universe, cfg.runtime.threads);
  json.config("sessions", static_cast<std::int64_t>(cfg.session_count));
  json.metric("run_seconds_plain", plain.seconds);
  json.metric("run_seconds_journaled", with_journal.seconds);
  json.metric("journal_overhead_pct", overhead_pct);
  json.metric("run_seconds_crash", resumed.seconds);
  json.metric("restores_per_second", restores_per_s);
  json.metric("wal_codec_events_per_second", codec_events_per_s);
  json.metric("digest_match", static_cast<std::int64_t>(digest_match ? 1 : 0));
  json.metric("sessions_done_crash",
              static_cast<std::int64_t>(resumed.stats.done));
  json.write();

  // The contract is the point: a crash-resume run that lands a different
  // digest (or leaves sessions frozen) is a bug worth a red exit.
  if (!digest_match || resumed.stats.killed != 0 ||
      resumed.stats.done != cfg.session_count) {
    std::cerr << "error: durability contract violated (digest_match="
              << digest_match << ", killed=" << resumed.stats.killed
              << ", done=" << resumed.stats.done << "/" << cfg.session_count
              << ")\n";
    return 1;
  }
  return 0;
}
