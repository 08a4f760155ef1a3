// Randomized differential fuzz: sequential runs vs the same runs fanned
// across a worker pool.
//
// Each trial draws a random — but validate()-clean — SimConfig with fault
// and resilience (quarantine) churn enabled at random rates and a random
// workload.  Every scenario is run once on the calling thread, then all of
// them are run again concurrently through parallel_map on a ThreadPool, the
// way the sweep driver, the experiment runner and the service's fork
// advances spread whole runs over cores.  Each pooled run must produce a
// flight-recorder stream bit-identical to its sequential twin (no state is
// shared between concurrent simulations) and satisfy the chaos invariants
// (completion, no leaked allocations, copy conservation, bounded
// degradation, replay determinism).  On divergence the failure message
// decodes the first differing record on both sides
// (DivergenceReport::to_string).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dollymp/cluster/cluster.h"
#include "dollymp/common/rng.h"
#include "dollymp/common/thread_pool.h"
#include "dollymp/obs/replay.h"
#include "dollymp/sched/dollymp.h"
#include "dollymp/sim/simulator.h"
#include "dollymp/workload/arrivals.h"
#include "dollymp/workload/trace_model.h"

namespace dollymp {
namespace {

struct FuzzScenario {
  SimConfig config;
  DollyMPConfig policy;
  int jobs = 8;
  double arrival_gap = 12.0;
  std::uint64_t workload_seed = 0;
};

FuzzScenario draw_scenario(Rng& rng) {
  FuzzScenario s;
  s.config.slot_seconds = rng.chance(0.5) ? 5.0 : 2.0;
  s.config.seed = rng.below(1u << 20) + 1;
  s.config.background.enabled = false;
  s.config.locality.enabled = rng.chance(0.3);
  s.config.max_copies_per_task = static_cast<int>(rng.range(2, 4));
  s.config.sigma_factor = rng.uniform(1.1, 2.0);

  // Fault churn: each class independently, at rates hot enough to fire
  // within the short horizon.
  if (rng.chance(0.6)) {
    s.config.failures.enabled = true;
    s.config.failures.mean_time_to_failure_seconds = rng.uniform(300.0, 900.0);
    s.config.failures.mean_repair_seconds = rng.uniform(50.0, 200.0);
  }
  if (rng.chance(0.4)) {
    s.config.faults.rack.enabled = true;
    s.config.faults.rack.time_to_failure.mean_seconds = rng.uniform(800.0, 2000.0);
    s.config.faults.rack.repair.mean_seconds = rng.uniform(100.0, 300.0);
  }
  if (rng.chance(0.4)) {
    s.config.faults.fail_slow.enabled = true;
    s.config.faults.fail_slow.slowdown_factor = rng.uniform(2.0, 4.0);
    s.config.faults.fail_slow.time_to_onset.mean_seconds = rng.uniform(300.0, 900.0);
    s.config.faults.fail_slow.recovery.mean_seconds = rng.uniform(100.0, 400.0);
  }
  if (rng.chance(0.5)) {
    s.config.faults.copy.enabled = true;
    s.config.faults.copy.inter_fault.mean_seconds = rng.uniform(60.0, 240.0);
  }

  // Policy: DollyMP with a random clone budget; resilience (retry backoff +
  // quarantine strikes) flips on for most trials.
  s.policy.clone_budget = static_cast<int>(rng.range(0, 2));
  s.policy.straggler_aware = rng.chance(0.5);
  if (rng.chance(0.7)) {
    s.policy.resilience.enabled = true;
    s.policy.resilience.flap_threshold = rng.uniform(1.5, 3.0);
  }

  s.jobs = static_cast<int>(rng.range(6, 12));
  s.arrival_gap = rng.uniform(8.0, 20.0);
  s.workload_seed = rng.below(1u << 20);
  return s;
}

std::vector<JobSpec> fuzz_workload(const FuzzScenario& s) {
  TraceModelConfig model_config;
  model_config.max_tasks_per_phase = 16;
  TraceModel model(model_config, s.workload_seed);
  auto jobs = model.sample_jobs(s.jobs);
  assign_poisson_arrivals(jobs, s.arrival_gap, s.workload_seed + 1);
  return jobs;
}

std::string describe(const FuzzScenario& s, int trial) {
  std::string out = "trial " + std::to_string(trial) + ": seed=" +
                    std::to_string(s.config.seed) + " jobs=" + std::to_string(s.jobs) +
                    " clones=" + std::to_string(s.policy.clone_budget);
  if (s.policy.straggler_aware) out += " straggler";
  if (s.policy.resilience.enabled) out += " resilience";
  if (s.config.failures.enabled) out += " crash";
  if (s.config.faults.rack.enabled) out += " rack";
  if (s.config.faults.fail_slow.enabled) out += " failslow";
  if (s.config.faults.copy.enabled) out += " copyfault";
  return out;
}

struct TrialRun {
  SimResult result;
  std::vector<TraceRecord> stream;
};

TrialRun run_scenario(const Cluster& cluster, const FuzzScenario& s,
                      const std::vector<JobSpec>& jobs) {
  Recorder rec;
  SimConfig config = s.config;
  config.recorder = &rec;
  DollyMPScheduler scheduler(s.policy);
  TrialRun run;
  run.result = simulate(cluster, config, jobs, scheduler);
  run.stream = rec.snapshot();
  return run;
}

void check_trial(const Cluster& cluster, const FuzzScenario& s,
                 const std::vector<JobSpec>& jobs, const TrialRun& sequential,
                 const TrialRun& pooled, int trial) {
  SCOPED_TRACE(describe(s, trial));

  // Differential: the pooled stream must be bit-identical, record for
  // record, to the sequential one; to_string() decodes the first divergent
  // record on both sides.
  const DivergenceReport diff = compare_streams(sequential.stream, pooled.stream);
  ASSERT_GT(sequential.stream.size(), 0u);
  ASSERT_TRUE(diff.identical) << diff.to_string();
  EXPECT_EQ(sequential.result.stats.recorder_hash, pooled.result.stats.recorder_hash);

  const SimResult& r = pooled.result;
  // Chaos invariant 1: every job completes.
  ASSERT_EQ(r.jobs.size(), jobs.size());
  for (const auto& j : r.jobs) {
    EXPECT_GE(j.finish_seconds, j.arrival_seconds) << "job " << j.id;
  }
  // Invariant 2: no leaked allocations after the last job.
  EXPECT_EQ(r.stats.leaked_cpu, 0.0);
  EXPECT_EQ(r.stats.leaked_mem, 0.0);
  EXPECT_EQ(r.stats.leaked_active_copies, 0);
  // Invariant 3: copy conservation — every launch finishes or is killed.
  EXPECT_EQ(r.total_copies_launched, r.stats.copies_finished + r.stats.copies_killed);
  // Invariant 4: bounded degradation versus the healthy twin (catches
  // livelock/runaway, not performance).
  SimConfig healthy = s.config;
  healthy.failures.enabled = false;
  healthy.faults = FaultConfig{};
  DollyMPScheduler healthy_scheduler(s.policy);
  const SimResult baseline = simulate(cluster, healthy, jobs, healthy_scheduler);
  EXPECT_LE(r.makespan_seconds, baseline.makespan_seconds * 50.0 + 1800.0);
  // Invariant 5: replay determinism — a second run of the same config
  // reproduces the same stream.
  const DivergenceReport replay = verify_replay(
      cluster, s.config, jobs, [&s] { return std::make_unique<DollyMPScheduler>(s.policy); });
  EXPECT_TRUE(replay.identical) << replay.to_string();
}

TEST(ParallelFuzz, RandomConfigsSequentialVsParallel) {
  constexpr int kTrials = 12;
  const Cluster cluster = Cluster::paper30();
  Rng rng(0xD011FA55F0225EEDULL);
  std::vector<FuzzScenario> scenarios;
  std::vector<std::vector<JobSpec>> workloads;
  for (int trial = 0; trial < kTrials; ++trial) {
    scenarios.push_back(draw_scenario(rng));
    ASSERT_NO_THROW(scenarios.back().config.validate()) << describe(scenarios.back(), trial);
    workloads.push_back(fuzz_workload(scenarios.back()));
  }

  std::vector<TrialRun> sequential;
  for (int trial = 0; trial < kTrials; ++trial) {
    sequential.push_back(run_scenario(cluster, scenarios[trial], workloads[trial]));
  }

  ThreadPool pool(4);
  const std::vector<TrialRun> pooled =
      parallel_map(pool, scenarios.size(), [&](std::size_t i) {
        return run_scenario(cluster, scenarios[i], workloads[i]);
      });

  for (int trial = 0; trial < kTrials; ++trial) {
    check_trial(cluster, scenarios[trial], workloads[trial], sequential[trial],
                pooled[trial], trial);
  }
}

}  // namespace
}  // namespace dollymp
