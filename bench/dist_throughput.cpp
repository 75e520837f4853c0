// Throughput of the distributed sweep layer: how many sweep points per
// second a pool of spawn-local nexit_workerd processes completes, and how
// many runtime sessions per second a worker-sharded runtime timeline
// pumps, at workers=1 vs workers=4 — plus the bit-identity check that the
// folded digest does not move with the worker count.
//
//   ./build/dist_throughput --points=4 --sessions=200 --json=BENCH.json
//
// Flags:
//   --points=N     fig7 bandwidth points to shard (seeds 1001..1000+N)
//   --sessions=N   sessions of the runtime shard (default 200)
//   --workers=A,B  the two pool sizes to compare (default 1,4)
//   --json=PATH    machine-readable record of config + results
//
// The coordinator spawns nexit_workerd from its own directory, so run this
// from the build tree (CI does).

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "dist/coordinator.hpp"
#include "obs/wall_clock.hpp"
#include "sim/scenarios.hpp"
#include "sim/spec.hpp"
#include "util/digest.hpp"

using namespace nexit;

namespace {

struct PoolOutcome {
  double seconds = 0;
  std::uint64_t digest = util::kFnvOffsetBasis;
  bool ok = false;
};

PoolOutcome run_pool(std::size_t workers, const std::vector<dist::Job>& jobs) {
  PoolOutcome out;
  dist::CoordinatorConfig cfg;
  cfg.workers = workers;
  const auto t0 = obs::WallClock::now();
  std::vector<dist::JobResult> results;
  try {
    dist::Coordinator coordinator(cfg);
    if (coordinator.run(jobs, &results) != 0) return out;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: dist pool (%zu workers): %s\n", workers,
                 e.what());
    return out;
  }
  out.seconds = obs::WallClock::ms_since(t0) / 1e3;
  for (const dist::JobResult& r : results) {
    if (r.rc != 0) {
      std::fprintf(stderr, "error: dist job failed: %s\n", r.error.c_str());
      return out;
    }
    out.digest = util::fnv1a_mix(out.digest, r.digest);
  }
  out.ok = true;
  return out;
}

std::string spec_text_of(const sim::ScenarioPreset& preset,
                         const std::vector<std::string>& assignments) {
  sim::ExperimentSpec spec;
  preset.tune(spec);
  spec.merge_from_flags(util::Flags(assignments));
  std::string error;
  if (!spec.validate(&error)) {
    std::fprintf(stderr, "error: bench spec invalid: %s\n", error.c_str());
    std::exit(2);
  }
  return spec.to_text();
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  util::JsonReport json(flags, "dist_throughput");
  const std::size_t points = util::get_count(flags, "points", 4, 256);
  const std::size_t sessions =
      util::get_count(flags, "sessions", 200, 1u << 20);
  const std::size_t workers_lo = util::get_count(flags, "workers-lo", 1, 64);
  const std::size_t workers_hi = util::get_count(flags, "workers-hi", 4, 64);
  util::reject_unknown(flags);

  const sim::ScenarioPreset* fig7 = sim::find_scenario("fig7");
  const sim::ScenarioPreset* custom = sim::find_scenario("custom");
  if (fig7 == nullptr || custom == nullptr) {
    std::fprintf(stderr, "error: scenario registry incomplete\n");
    return 2;
  }

  std::vector<dist::Job> sweep_jobs;
  for (std::size_t p = 0; p < points; ++p) {
    const std::string seed = "seed=" + std::to_string(1001 + p);
    sweep_jobs.push_back(
        dist::Job{"fig7", seed, spec_text_of(*fig7, {seed})});
  }
  const std::vector<dist::Job> runtime_jobs = {dist::Job{
      "custom", "runtime",
      spec_text_of(*custom, {"experiment=runtime", "seed=42",
                             "runtime.sessions=" + std::to_string(sessions)})}};

  std::printf("dist_throughput: %zu fig7 points + %zu-session runtime shard, "
              "workers %zu vs %zu\n",
              points, sessions, workers_lo, workers_hi);

  const PoolOutcome sweep_lo = run_pool(workers_lo, sweep_jobs);
  const PoolOutcome sweep_hi = run_pool(workers_hi, sweep_jobs);
  const PoolOutcome rt_lo = run_pool(workers_lo, runtime_jobs);
  const PoolOutcome rt_hi = run_pool(workers_hi, runtime_jobs);
  if (!sweep_lo.ok || !sweep_hi.ok || !rt_lo.ok || !rt_hi.ok) return 1;

  const double pps_lo =
      sweep_lo.seconds > 0 ? points / sweep_lo.seconds : 0.0;
  const double pps_hi =
      sweep_hi.seconds > 0 ? points / sweep_hi.seconds : 0.0;
  const double sps_lo =
      rt_lo.seconds > 0 ? sessions / rt_lo.seconds : 0.0;
  const double sps_hi =
      rt_hi.seconds > 0 ? sessions / rt_hi.seconds : 0.0;

  std::printf("sweep: %.2f points/s @%zu workers, %.2f points/s @%zu workers "
              "(%.2fx)\n",
              pps_lo, workers_lo, pps_hi, workers_hi,
              pps_lo > 0 ? pps_hi / pps_lo : 0.0);
  std::printf("runtime: %.0f sessions/s @%zu workers, %.0f sessions/s @%zu "
              "workers\n",
              sps_lo, workers_lo, sps_hi, workers_hi);
  std::printf("sweep digest: %s (w=%zu) vs %s (w=%zu)\n",
              util::digest_hex(sweep_lo.digest).c_str(), workers_lo,
              util::digest_hex(sweep_hi.digest).c_str(), workers_hi);

  json.config("points", static_cast<std::int64_t>(points));
  json.config("sessions", static_cast<std::int64_t>(sessions));
  json.config("workers_lo", static_cast<std::int64_t>(workers_lo));
  json.config("workers_hi", static_cast<std::int64_t>(workers_hi));
  json.metric("sweep_seconds_lo", sweep_lo.seconds);
  json.metric("sweep_seconds_hi", sweep_hi.seconds);
  json.metric("points_per_second_lo", pps_lo);
  json.metric("points_per_second_hi", pps_hi);
  json.metric("runtime_seconds_lo", rt_lo.seconds);
  json.metric("runtime_seconds_hi", rt_hi.seconds);
  json.metric("sessions_per_second_lo", sps_lo);
  json.metric("sessions_per_second_hi", sps_hi);
  json.metric("sweep_digest", util::digest_hex(sweep_lo.digest));
  json.write();

  // The whole point of the layer: the digest must not depend on the pool.
  if (sweep_lo.digest != sweep_hi.digest ||
      rt_lo.digest != rt_hi.digest) {
    std::fprintf(stderr, "error: digest moved with worker count\n");
    return 1;
  }
  return 0;
}
