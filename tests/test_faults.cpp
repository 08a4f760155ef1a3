// The fault-injection matrix: Weibull delays, FaultEngine down-source
// bookkeeping, SimConfig validation, and end-to-end behavior of each
// injectable fault class (rack-correlated outages, fail-slow servers,
// transient copy faults) plus their overlap with independent crashes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dollymp/common/distributions.h"
#include "dollymp/common/experiment.h"
#include "dollymp/common/rng.h"
#include "dollymp/sched/capacity.h"
#include "dollymp/sched/dollymp.h"
#include "dollymp/sim/faults.h"
#include "dollymp/sim/sim_core.h"
#include "dollymp/sim/simulator.h"
#include "dollymp/workload/arrivals.h"
#include "dollymp/workload/trace_model.h"

namespace dollymp {
namespace {

std::vector<JobSpec> workload(int count) {
  std::vector<JobSpec> jobs;
  for (int i = 0; i < count; ++i) {
    jobs.push_back(JobSpec::single_phase(i, 5, {2, 4}, 40.0, 20.0, i * 15.0));
  }
  return jobs;
}

SimConfig base_config(std::uint64_t seed) {
  SimConfig config;
  config.slot_seconds = 5.0;
  config.seed = seed;
  config.background.enabled = false;
  config.locality.enabled = false;
  return config;
}

// ---- Weibull delay family --------------------------------------------------

TEST(Weibull, ShapeOneMatchesExponential) {
  // k = 1 degenerates to the exponential: same draws from the same stream.
  const WeibullDist weibull(120.0, 1.0);
  const ExponentialDist exponential(120.0);
  Rng a(5);
  Rng b(5);
  for (int i = 0; i < 50; ++i) {
    const double w = weibull.sample(a);
    const double e = exponential.sample(b);
    EXPECT_NEAR(w, e, 1e-9 * e);
  }
}

TEST(Weibull, SampleMeanConverges) {
  Rng rng(7);
  const WeibullDist dist(300.0, 1.5);
  double total = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) total += dist.sample(rng);
  EXPECT_NEAR(total / n, 300.0, 10.0);
}

TEST(Weibull, DeterministicGivenSeed) {
  Rng a(42);
  Rng b(42);
  const WeibullDist dist(60.0, 2.0);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(dist.sample(a), dist.sample(b));
  }
}

TEST(Weibull, ConsumesOneDrawLikeExponential) {
  // Switching delay families must never change the number of RNG draws —
  // that is what keeps the realization comparable across families.
  Rng a(9);
  Rng b(9);
  const WeibullDist weibull(100.0, 0.7);
  const ExponentialDist exponential(100.0);
  (void)weibull.sample(a);
  (void)exponential.sample(b);
  EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Weibull, RejectsBadParameters) {
  EXPECT_THROW(WeibullDist(0.0, 1.5), std::invalid_argument);
  EXPECT_THROW(WeibullDist(-1.0, 1.5), std::invalid_argument);
  EXPECT_THROW(WeibullDist(10.0, 0.0), std::invalid_argument);
}

// ---- SimConfig::validate ---------------------------------------------------

void expect_validate_error(const SimConfig& config, const std::string& needle) {
  try {
    config.validate();
    FAIL() << "expected validate() to reject; wanted message containing '" << needle
           << "'";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "actual message: " << e.what();
  }
}

TEST(Validate, AcceptsDefaultsAndFullMatrix) {
  SimConfig config;
  EXPECT_NO_THROW(config.validate());
  config.failures.enabled = true;
  config.faults.rack.enabled = true;
  config.faults.fail_slow.enabled = true;
  config.faults.copy.enabled = true;
  EXPECT_NO_THROW(config.validate());
}

TEST(Validate, RejectsBadCoreParameters) {
  SimConfig config;
  config.slot_seconds = 0.0;
  expect_validate_error(config, "slot_seconds must be > 0");
  config = SimConfig{};
  config.max_copies_per_task = 0;
  expect_validate_error(config, "max_copies_per_task must be >= 1");
  config = SimConfig{};
  config.max_slots = 0;
  expect_validate_error(config, "max_slots must be >= 1");
}

TEST(Validate, RejectsBadFaultParameters) {
  SimConfig config;
  config.failures.enabled = true;
  config.failures.mean_time_to_failure_seconds = 0.0;
  expect_validate_error(config, "mean_time_to_failure_seconds must be > 0");

  config = SimConfig{};
  config.faults.rack.enabled = true;
  config.faults.rack.time_to_failure.mean_seconds = -5.0;
  expect_validate_error(config, "rack time_to_failure mean must be > 0");

  config = SimConfig{};
  config.faults.rack.enabled = true;
  config.faults.rack.repair.dist = FaultDelayDist::kWeibull;
  config.faults.rack.repair.weibull_shape = 0.0;
  expect_validate_error(config, "rack repair Weibull shape must be > 0");

  config = SimConfig{};
  config.faults.fail_slow.enabled = true;
  config.faults.fail_slow.slowdown_factor = 0.5;
  expect_validate_error(config, "slowdown_factor must be >= 1");

  config = SimConfig{};
  config.faults.copy.enabled = true;
  config.faults.copy.inter_fault.mean_seconds = 0.0;
  expect_validate_error(config, "copy-fault inter_fault mean must be > 0");
}

TEST(Validate, RejectsRepairBeyondHorizon) {
  SimConfig config;
  config.failures.enabled = true;
  config.failures.mean_repair_seconds =
      static_cast<double>(config.max_slots) * config.slot_seconds * 2.0;
  expect_validate_error(config, "exceeds the max_slots horizon");
}

// ---- FaultEngine down-source bookkeeping -----------------------------------

TEST(FaultEngine, OverlappingDownSourcesAreIdempotent) {
  const Cluster cluster = Cluster::uniform(4, {8, 16});
  FailureConfig crash;
  crash.enabled = true;
  FaultConfig faults;
  faults.rack.enabled = true;
  Rng rng(1);
  FaultEngine engine(cluster, crash, faults, 5.0, rng);

  // First cause downs the server; the overlapping second cause is absorbed.
  EXPECT_TRUE(engine.mark_down(0, FaultClass::kCrash));
  EXPECT_TRUE(engine.is_down(0));
  EXPECT_FALSE(engine.mark_down(0, FaultClass::kRack));
  // Duplicate failure from the same source is absorbed too.
  EXPECT_FALSE(engine.mark_down(0, FaultClass::kCrash));

  // Clearing one of two causes keeps the server down; clearing the last
  // brings it up exactly once.
  EXPECT_FALSE(engine.mark_up(0, FaultClass::kCrash));
  EXPECT_TRUE(engine.is_down(0));
  EXPECT_TRUE(engine.mark_up(0, FaultClass::kRack));
  EXPECT_FALSE(engine.is_down(0));
  // Repair of an already-up server is a non-edge.
  EXPECT_FALSE(engine.mark_up(0, FaultClass::kRack));
  EXPECT_FALSE(engine.mark_up(0, FaultClass::kCrash));
}

TEST(FaultEngine, RackMembershipCoversCluster) {
  const Cluster cluster = Cluster::paper30();
  FailureConfig crash;
  FaultConfig faults;
  faults.rack.enabled = true;
  Rng rng(2);
  FaultEngine engine(cluster, crash, faults, 5.0, rng);
  ASSERT_EQ(engine.rack_count(), static_cast<int>(cluster.rack_count()));
  std::size_t members = 0;
  for (int r = 0; r < engine.rack_count(); ++r) members += engine.rack_members(r).size();
  EXPECT_EQ(members, cluster.size());
}

// ---- same-slot edge cases ---------------------------------------------------

TEST(FaultEdgeCases, RepairChurnAtSlotGranularity) {
  // Repair delays floor at one slot, so with a tiny mean repair every
  // failure's repair lands as close to it as the clock allows and
  // repair/failure events pile onto the same slots.  The deterministic
  // same-slot order (repairs before failures) must keep the run sound.
  const Cluster cluster = Cluster::uniform(6, {8, 16});
  SimConfig config = base_config(3);
  config.failures.enabled = true;
  config.failures.mean_time_to_failure_seconds = 60.0;
  config.failures.mean_repair_seconds = 1.0;  // floors to one slot
  DollyMPScheduler scheduler;
  const SimResult result = simulate(cluster, config, workload(15), scheduler);
  ASSERT_EQ(result.jobs.size(), 15u);
  EXPECT_GT(result.stats.events_server_failure, 0);
  EXPECT_EQ(result.stats.leaked_active_copies, 0);
  EXPECT_EQ(result.total_copies_launched,
            result.stats.copies_finished + result.stats.copies_killed);
}

TEST(FaultEdgeCases, RepairChurnIsDeterministic) {
  const Cluster cluster = Cluster::uniform(6, {8, 16});
  SimConfig config = base_config(4);
  config.failures.enabled = true;
  config.failures.mean_time_to_failure_seconds = 60.0;
  config.failures.mean_repair_seconds = 1.0;
  const auto jobs = workload(12);
  DollyMPScheduler s1;
  DollyMPScheduler s2;
  const SimResult a = simulate(cluster, config, jobs, s1);
  const SimResult b = simulate(cluster, config, jobs, s2);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.jobs[i].finish_seconds, b.jobs[i].finish_seconds);
  }
  EXPECT_EQ(a.stats.events_server_failure, b.stats.events_server_failure);
  EXPECT_EQ(a.stats.events_server_repair, b.stats.events_server_repair);
}

// ---- rack-correlated outages ------------------------------------------------

TEST(RackFaults, JobsCompleteAndEventsFire) {
  const Cluster cluster = Cluster::paper30();
  SimConfig config = base_config(5);
  config.faults.rack.enabled = true;
  config.faults.rack.time_to_failure.mean_seconds = 120.0;
  config.faults.rack.repair.mean_seconds = 40.0;
  DollyMPScheduler scheduler;
  const SimResult result = simulate(cluster, config, workload(20), scheduler);
  ASSERT_EQ(result.jobs.size(), 20u);
  EXPECT_GT(result.stats.events_rack_failure, 0);
  EXPECT_EQ(result.stats.leaked_active_copies, 0);
  EXPECT_EQ(result.total_copies_launched,
            result.stats.copies_finished + result.stats.copies_killed);
}

TEST(RackFaults, OverlapWithCrashesStaysSound) {
  // Crash and rack outages share servers: the down-source mask must absorb
  // overlapping failures and only re-admit a server when the last cause
  // clears.  Soundness shows up as conservation + completion.
  const Cluster cluster = Cluster::paper30();
  SimConfig config = base_config(6);
  config.failures.enabled = true;
  config.failures.mean_time_to_failure_seconds = 500.0;
  config.failures.mean_repair_seconds = 120.0;
  config.faults.rack.enabled = true;
  config.faults.rack.time_to_failure.mean_seconds = 600.0;
  config.faults.rack.repair.mean_seconds = 150.0;
  DollyMPScheduler scheduler;
  const SimResult result = simulate(cluster, config, workload(20), scheduler);
  ASSERT_EQ(result.jobs.size(), 20u);
  EXPECT_EQ(result.stats.leaked_active_copies, 0);
  EXPECT_EQ(result.stats.leaked_cpu, 0.0);
  EXPECT_EQ(result.stats.leaked_mem, 0.0);
  EXPECT_EQ(result.total_copies_launched,
            result.stats.copies_finished + result.stats.copies_killed);
  EXPECT_GE(result.stats.events_server_repair + result.stats.events_rack_repair, 1);
}

// ---- fail-slow servers -------------------------------------------------------

TEST(FailSlow, ProlongsJobsOnAverage) {
  const Cluster cluster = Cluster::uniform(6, {8, 16});
  double slow_total = 0.0;
  double healthy_total = 0.0;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    SimConfig config = base_config(seed);
    config.faults.fail_slow.enabled = true;
    config.faults.fail_slow.slowdown_factor = 6.0;
    config.faults.fail_slow.time_to_onset.mean_seconds = 120.0;
    config.faults.fail_slow.recovery.mean_seconds = 600.0;
    const auto jobs = workload(12);
    DollyMPScheduler s1;
    DollyMPScheduler s2;
    slow_total += simulate(cluster, config, jobs, s1).total_flowtime();
    SimConfig healthy = config;
    healthy.faults.fail_slow.enabled = false;
    healthy_total += simulate(cluster, healthy, jobs, s2).total_flowtime();
  }
  EXPECT_GT(slow_total, healthy_total);
}

TEST(FailSlow, OnsetAndRecoveryEventsBalance) {
  const Cluster cluster = Cluster::uniform(8, {8, 16});
  SimConfig config = base_config(8);
  config.faults.fail_slow.enabled = true;
  config.faults.fail_slow.time_to_onset.mean_seconds = 200.0;
  config.faults.fail_slow.recovery.mean_seconds = 100.0;
  DollyMPScheduler scheduler;
  const SimResult result = simulate(cluster, config, workload(20), scheduler);
  ASSERT_EQ(result.jobs.size(), 20u);
  EXPECT_GT(result.stats.events_fail_slow_onset, 0);
  // Each recover is preceded by an onset; at most one onset per server can
  // still be pending at run end... but timers keep cycling, so only the
  // ordering invariant holds:
  EXPECT_LE(result.stats.events_fail_slow_recover, result.stats.events_fail_slow_onset);
}

// ---- transient copy faults ---------------------------------------------------

TEST(CopyFaults, KillsCopiesButJobsComplete) {
  const Cluster cluster = Cluster::uniform(8, {8, 16});
  SimConfig config = base_config(9);
  config.faults.copy.enabled = true;
  config.faults.copy.inter_fault.mean_seconds = 60.0;
  DollyMPScheduler scheduler;
  const SimResult result = simulate(cluster, config, workload(20), scheduler);
  ASSERT_EQ(result.jobs.size(), 20u);
  EXPECT_GT(result.stats.events_copy_fault, 0);
  EXPECT_GT(result.stats.copies_killed_by_faults, 0);
  EXPECT_GT(result.stats.work_seconds_lost, 0.0);
  EXPECT_EQ(result.total_copies_launched,
            result.stats.copies_finished + result.stats.copies_killed);
  EXPECT_EQ(result.stats.leaked_active_copies, 0);
}

TEST(CopyFaults, WorkBasedModelSurvives) {
  const Cluster cluster = Cluster::uniform(6, {8, 16});
  SimConfig config = base_config(10);
  config.model = ExecutionModel::kWorkBased;
  config.faults.copy.enabled = true;
  config.faults.copy.inter_fault.mean_seconds = 90.0;
  DollyMPScheduler scheduler;
  const SimResult result = simulate(cluster, config, workload(12), scheduler);
  ASSERT_EQ(result.jobs.size(), 12u);
  EXPECT_GT(result.stats.events_copy_fault, 0);
}

// ---- Weibull delays end-to-end ----------------------------------------------

TEST(FaultMatrix, WeibullCrashDelaysAreDeterministic) {
  const Cluster cluster = Cluster::uniform(8, {8, 16});
  SimConfig config = base_config(11);
  config.failures.enabled = true;
  config.failures.mean_time_to_failure_seconds = 300.0;
  config.failures.mean_repair_seconds = 60.0;
  config.faults.crash_dist = FaultDelayDist::kWeibull;
  config.faults.crash_weibull_shape = 0.8;
  const auto jobs = workload(12);
  DollyMPScheduler s1;
  DollyMPScheduler s2;
  const SimResult a = simulate(cluster, config, jobs, s1);
  const SimResult b = simulate(cluster, config, jobs, s2);
  ASSERT_EQ(a.jobs.size(), 12u);
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.jobs[i].finish_seconds, b.jobs[i].finish_seconds);
  }
  EXPECT_GT(a.stats.events_server_failure, 0);
}

TEST(FaultMatrix, BaselineSchedulerSurvivesFullMatrix) {
  // The fault plumbing lives in the simulator, not the policy: a baseline
  // with no resilience hooks must still drive every job to completion.
  const Cluster cluster = Cluster::paper30();
  SimConfig config = base_config(12);
  config.failures.enabled = true;
  config.failures.mean_time_to_failure_seconds = 600.0;
  config.failures.mean_repair_seconds = 120.0;
  config.faults.rack.enabled = true;
  config.faults.fail_slow.enabled = true;
  config.faults.copy.enabled = true;
  config.faults.copy.inter_fault.mean_seconds = 120.0;
  CapacityScheduler scheduler;
  const SimResult result = simulate(cluster, config, workload(15), scheduler);
  ASSERT_EQ(result.jobs.size(), 15u);
  EXPECT_EQ(result.stats.leaked_active_copies, 0);
}

TEST(FaultMatrix, RunningCopyCountersMatchActiveCopiesAtEveryPause) {
  // fail_server stops walking the active jobs once the failed server's
  // running-copy counter reads zero; that is exact only while the counter
  // equals the number of active copies naming the server.  Check it at
  // every pause of a cloning policy under every fault class.
  const Cluster cluster = Cluster::google_like(3000);
  const SweepFaultPreset faults = make_fault_preset("all");
  SimConfig config;
  config.slot_seconds = 5.0;
  config.seed = 11;
  config.failures = faults.failures;
  config.faults = faults.faults;
  TraceModel model({}, 23);
  std::vector<JobSpec> jobs = model.sample_jobs(120);
  assign_poisson_arrivals(jobs, 10.0, 24);

  DollyMPScheduler scheduler;
  SimCore core(cluster, config);
  core.ingest(jobs);
  core.begin(scheduler);
  std::vector<int> expected(core.cluster().size());
  int pauses = 0;
  for (SimTime horizon = 0;; horizon += 7) {
    const StepOutcome outcome = core.step_until(horizon);
    std::fill(expected.begin(), expected.end(), 0);
    for (JobRuntime* job : core.active_jobs()) {
      for (const auto& phase : job->phases) {
        for (const auto& task : phase.tasks) {
          for (const auto& copy : task.copies) {
            if (copy.active) ++expected[static_cast<std::size_t>(copy.server)];
          }
        }
      }
    }
    for (std::size_t s = 0; s < expected.size(); ++s) {
      ASSERT_EQ(core.cluster().server(s).running_copies(), expected[s])
          << "server " << s << " at slot " << core.now();
    }
    ++pauses;
    if (outcome == StepOutcome::kFinished) break;
  }
  EXPECT_GT(pauses, 10);
  EXPECT_GT(core.stats().copies_killed_by_faults, 0) << "faults must kill copies";
  EXPECT_GT(core.stats().events_server_failure, 0);
}

}  // namespace
}  // namespace dollymp
