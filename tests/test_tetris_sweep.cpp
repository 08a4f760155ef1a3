// Equivalence gate for Tetris's early-ending packing sweep.
//
// TetrisScheduler stops sweeping servers once no live candidate (a
// non-gang runnable phase of an unfinished job with unscheduled tasks) is
// left.  The claim is that this changes no decision.  ReferenceTetris below
// is the full-fleet sweep it replaced, kept verbatim as the oracle: every
// run must produce the same flight-recorder stream hash and the same
// placement sequence under both.  The fake-context cases pin the edges: a
// gang phase that cannot place does not hold the sweep open, a task that
// fits nowhere is left pending without a stall, and a task re-queued by a
// server failure is placed in the same call.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "dollymp/cluster/cluster.h"
#include "dollymp/common/experiment.h"
#include "dollymp/common/rng.h"
#include "dollymp/job/job.h"
#include "dollymp/obs/recorder.h"
#include "dollymp/sched/tetris.h"
#include "dollymp/sim/runtime_state.h"
#include "dollymp/sim/runtime_store.h"
#include "dollymp/sim/simulator.h"
#include "dollymp/workload/apps.h"
#include "dollymp/workload/arrivals.h"
#include "dollymp/workload/trace_model.h"

namespace dollymp {
namespace {

/// The pre-exit Tetris: every schedule() call sweeps every server and
/// rescans every candidate phase, however few tasks are pending.
class ReferenceTetris final : public Scheduler {
 public:
  [[nodiscard]] std::string name() const override { return "tetris"; }

  void schedule(SchedulerContext& ctx) override {
    const Resources total = ctx.cluster().total_capacity();
    std::vector<Candidate> candidates;
    double max_work = 0.0;
    for (JobRuntime* job : ctx.active_jobs()) {
      place_gang_phases(ctx, *job);
      const double work = remaining_work(*job, total);
      max_work = std::max(max_work, work);
      for (auto& phase : job->phases) {
        if (!phase.runnable()) continue;
        candidates.push_back({job, &phase, work});
      }
    }
    if (candidates.empty()) return;
    for (auto& c : candidates) {
      c.remaining_norm = max_work > 0.0 ? 1.0 - c.remaining_norm / max_work : 0.0;
    }
    for (const auto& server : ctx.cluster().servers()) {
      for (;;) {
        Candidate* best = nullptr;
        TaskRuntime* best_task = nullptr;
        double best_score = -1.0;
        for (auto& c : candidates) {
          if (c.job->finished || !c.phase->runnable()) continue;
          if (c.phase->unscheduled_tasks == 0) continue;
          if (!server.can_fit(c.phase->spec->demand)) continue;
          TaskRuntime* task = next_unscheduled_task(*c.phase);
          if (task == nullptr) continue;
          const Resources& demand = c.phase->spec->demand;
          const double alignment =
              demand.dot(server.free()) / server.capacity().dot(server.capacity());
          const double score = alignment + kDelta * c.remaining_norm;
          if (score > best_score) {
            best_score = score;
            best = &c;
            best_task = task;
          }
        }
        if (best == nullptr) break;
        if (!ctx.place_copy(*best->job, *best->phase, *best_task, server.id())) break;
      }
    }
  }

 private:
  static constexpr double kDelta = TetrisConfig{}.delta;

  struct Candidate {
    JobRuntime* job;
    PhaseRuntime* phase;
    double remaining_norm;
  };

  static double remaining_work(const JobRuntime& job, const Resources& total) {
    double work = 0.0;
    for (const auto& phase : job.phases) {
      if (phase.finished) continue;
      work += static_cast<double>(phase.remaining_tasks) * phase.spec->theta_seconds *
              normalized_sum(phase.spec->demand, total);
    }
    return work;
  }
};

/// Forwards to `inner`, first quarantining a rotating thirteenth of the
/// fleet (and releasing the previous call's slice) so the sweep meets
/// quarantined servers as well as down ones.
class RotatingQuarantine final : public Scheduler {
 public:
  explicit RotatingQuarantine(Scheduler& inner) : inner_(inner) {}
  [[nodiscard]] std::string name() const override { return inner_.name(); }

  void schedule(SchedulerContext& ctx) override {
    const auto n = static_cast<ServerId>(ctx.cluster().size());
    for (ServerId s = 0; s < n; ++s) {
      ctx.set_server_quarantined(s, s % kStride == calls_ % kStride);
    }
    ++calls_;
    inner_.schedule(ctx);
  }

 private:
  static constexpr ServerId kStride = 13;
  Scheduler& inner_;
  ServerId calls_ = 0;
};

/// One placement decision as the stream shows it.
using Placement = std::tuple<SimTime, JobId, PhaseIndex, std::int32_t, std::int32_t>;

struct RunOutput {
  std::uint64_t hash = 0;
  std::uint64_t records = 0;
  std::vector<Placement> placements;
  long long failures = 0;
  long long quarantines = 0;
  long long gangs = 0;
  double mean_flowtime = 0.0;
};

RunOutput run_recorded(const Cluster& cluster, SimConfig config,
                       const std::vector<JobSpec>& jobs, Scheduler& scheduler) {
  Recorder rec;
  config.recorder = &rec;
  const SimResult result = simulate(cluster, config, jobs, scheduler);
  RunOutput out;
  out.hash = rec.hash();
  out.records = rec.records_written();
  out.mean_flowtime = result.mean_flowtime();
  for (const TraceRecord& r : rec.snapshot()) {
    if (r.type == TraceEv::kCopyPlaced || r.type == TraceEv::kClonePlaced) {
      out.placements.emplace_back(r.slot, r.job, r.phase, r.task, r.server);
    }
    if (r.type == TraceEv::kServerFailed) ++out.failures;
    if (r.type == TraceEv::kQuarantineEnter) ++out.quarantines;
    if (r.type == TraceEv::kGangPlaced) ++out.gangs;
  }
  return out;
}

/// Run `jobs` under the reference sweep and under TetrisScheduler and
/// require the same stream; returns the run for scenario-specific checks.
RunOutput expect_same_stream(const Cluster& cluster, const SimConfig& config,
                             const std::vector<JobSpec>& jobs, bool quarantine) {
  ReferenceTetris reference;
  TetrisScheduler tetris;
  RotatingQuarantine ref_q(reference);
  RotatingQuarantine tetris_q(tetris);
  Scheduler& ref_sched = quarantine ? static_cast<Scheduler&>(ref_q) : reference;
  Scheduler& new_sched = quarantine ? static_cast<Scheduler&>(tetris_q) : tetris;
  const RunOutput want = run_recorded(cluster, config, jobs, ref_sched);
  const RunOutput got = run_recorded(cluster, config, jobs, new_sched);
  EXPECT_EQ(got.hash, want.hash) << std::hex << "0x" << got.hash << " vs 0x" << want.hash;
  EXPECT_EQ(got.records, want.records);
  EXPECT_EQ(got.placements, want.placements);
  EXPECT_EQ(got.mean_flowtime, want.mean_flowtime);
  std::size_t tasks = 0;
  for (const JobSpec& job : jobs) tasks += static_cast<std::size_t>(job.total_tasks());
  EXPECT_GE(got.placements.size(), tasks) << "every task is placed at least once";
  return got;
}

std::vector<JobSpec> trace_jobs(int count, std::uint64_t seed) {
  TraceModel model({}, seed);
  std::vector<JobSpec> jobs = model.sample_jobs(count);
  assign_poisson_arrivals(jobs, 10.0, seed + 1);
  return jobs;
}

SimConfig base_config(std::uint64_t seed) {
  SimConfig config;
  config.slot_seconds = 5.0;
  config.seed = seed;
  return config;
}

TEST(TetrisSweep, MatchesFullSweepOnGoogleLikeHealthy) {
  const Cluster cluster = Cluster::google_like(3000);
  (void)expect_same_stream(cluster, base_config(3), trace_jobs(80, 17), false);
}

TEST(TetrisSweep, MatchesFullSweepOnGoogleLikeUnderAllFaults) {
  const Cluster cluster = Cluster::google_like(3000);
  const SweepFaultPreset faults = make_fault_preset("all");
  SimConfig config = base_config(5);
  config.failures = faults.failures;
  config.faults = faults.faults;
  const RunOutput run = expect_same_stream(cluster, config, trace_jobs(80, 29), true);
  EXPECT_GT(run.failures, 0) << "the sweep must meet down servers";
  EXPECT_GT(run.quarantines, 0) << "the sweep must meet quarantined servers";
}

TEST(TetrisSweep, MatchesFullSweepOnGpuGangMix) {
  const Cluster cluster = Cluster::gpu_pods(32);
  std::vector<JobSpec> jobs = trace_jobs(10, 42);
  MlTrainConfig train;
  train.world_size = 8;
  train.steps = 3;
  const int analytics = static_cast<int>(jobs.size());
  for (int k = 0; k < 3; ++k) {
    jobs.push_back(make_mltrain(analytics + k, 10.0 * k, train));
  }
  SimConfig config = base_config(7);
  config.resource_dims = 3;
  const RunOutput run = expect_same_stream(cluster, config, jobs, false);
  EXPECT_GE(run.gangs, 3 * train.steps) << "every gang phase is placed";
}

TEST(TetrisSweep, MatchesFullSweepOnThreeDimensionalInventory) {
  const Cluster cluster = Cluster::uniform(48, Resources{16, 64, 4});
  std::vector<JobSpec> jobs;
  for (int i = 0; i < 24; ++i) {
    const Resources demand = (i % 3 == 0)   ? Resources{2, 8, 1}
                             : (i % 3 == 1) ? Resources{4, 16, 0}
                                            : Resources{1, 24, 2};
    const double theta = 20.0 + 10.0 * (i % 4);
    jobs.push_back(JobSpec::single_phase(i, 6 + 4 * (i % 5), demand, theta, theta));
  }
  assign_poisson_arrivals(jobs, 8.0, 77);
  SimConfig config = base_config(9);
  config.resource_dims = 3;
  (void)expect_same_stream(cluster, config, jobs, false);
}

/// Stand-alone SchedulerContext: placements allocate real server capacity
/// and copy records but generate no events; time never advances.  Records
/// every placement so two policies' decisions can be compared call by call.
class FakeContext final : public SchedulerContext {
 public:
  FakeContext(Cluster cluster, std::vector<JobSpec> jobs)
      : cluster_(std::move(cluster)), locality_(config_.locality, cluster_),
        specs_(std::move(jobs)) {
    Rng rng(config_.seed);
    store_.reserve_for(specs_);
    for (const auto& spec : specs_) {
      const std::size_t idx = store_.materialize(spec, config_.slot_seconds, locality_, rng);
      store_.jobs()[idx].arrived = true;
    }
    for (auto& job : store_.jobs()) active_.push_back(&job);
  }

  [[nodiscard]] SimTime now() const override { return 0; }
  [[nodiscard]] double slot_seconds() const override { return config_.slot_seconds; }
  [[nodiscard]] const Cluster& cluster() const override { return cluster_; }
  [[nodiscard]] const SimConfig& config() const override { return config_; }
  [[nodiscard]] const std::vector<JobRuntime*>& active_jobs() override { return active_; }
  [[nodiscard]] Rng& policy_rng() override { return rng_; }

  bool place_copy(JobRuntime& job, PhaseRuntime& phase, TaskRuntime& task,
                  ServerId server_id) override {
    if (job.finished || !phase.runnable() || task.finished) return false;
    Server& server = cluster_.server(static_cast<std::size_t>(server_id));
    if (!server.allocate(task.demand)) return false;
    const bool had_active = task.active_copies() > 0;
    CopyRuntime copy;
    copy.server = server_id;
    copy.active = true;
    task.copies.push_back(copy);
    ++phase.active_copies;
    if (!had_active) --phase.unscheduled_tasks;
    placements_.emplace_back(0, job.id, phase.index, task.ref.task, server_id);
    return true;
  }
  bool place_speculative_copy(JobRuntime& job, PhaseRuntime& phase, TaskRuntime& task,
                              ServerId server) override {
    return place_copy(job, phase, task, server);
  }
  void request_wakeup(SimTime /*slot*/) override {}

  /// What SimCore does when a server crashes: the server goes down, its
  /// copies die, and a task left with no running copy is re-queued
  /// (unscheduled_tasks bumped, the phase cursor rewound to it).
  void fail_server(ServerId server_id) {
    Server& server = cluster_.server(static_cast<std::size_t>(server_id));
    server.set_down(true);
    for (JobRuntime* job : active_) {
      for (auto& phase : job->phases) {
        for (std::size_t t = 0; t < phase.tasks.size(); ++t) {
          TaskRuntime& task = phase.tasks[t];
          bool killed = false;
          for (auto& copy : task.copies) {
            if (!copy.active || copy.server != server_id) continue;
            copy.active = false;
            server.release(task.demand);
            --phase.active_copies;
            killed = true;
          }
          if (!killed || task.finished || task.active_copies() > 0) continue;
          ++phase.unscheduled_tasks;
          phase.first_unscheduled_hint =
              std::min(phase.first_unscheduled_hint, static_cast<int>(t));
        }
      }
    }
  }

  [[nodiscard]] const std::vector<Placement>& placements() const { return placements_; }
  [[nodiscard]] PhaseRuntime& phase(JobId job, PhaseIndex phase) {
    return store_.jobs()[static_cast<std::size_t>(job)].phases[static_cast<std::size_t>(phase)];
  }

 private:
  Cluster cluster_;
  SimConfig config_;
  LocalityModel locality_;
  std::vector<JobSpec> specs_;
  RuntimeStore store_;
  std::vector<JobRuntime*> active_;
  Rng rng_{1};
  std::vector<Placement> placements_;
};

TEST(TetrisSweepEdges, UnplaceableGangDoesNotHoldTheSweepOpen) {
  // Job 0 is a gang of 4 tasks that can never place here (the fake
  // context's place_gang always refuses); job 1 has two small tasks that
  // both fit on server 0.
  JobSpec gang = JobSpec::single_phase(0, 4, {2, 2}, 10.0);
  gang.phases[0].gang = true;
  const std::vector<JobSpec> jobs{gang, JobSpec::single_phase(1, 2, {2, 2}, 10.0)};
  FakeContext ref_ctx(Cluster::uniform(64, {8, 8}), jobs);
  FakeContext ctx(Cluster::uniform(64, {8, 8}), jobs);
  ReferenceTetris reference;
  TetrisScheduler tetris;
  reference.schedule(ref_ctx);
  tetris.schedule(ctx);

  EXPECT_EQ(ctx.placements(), ref_ctx.placements());
  ASSERT_EQ(ctx.placements().size(), 2u);
  for (const Placement& p : ctx.placements()) EXPECT_EQ(std::get<1>(p), 1);
  EXPECT_EQ(ctx.phase(0, 0).unscheduled_tasks, 4) << "no partial gang";
  EXPECT_EQ(tetris.servers_swept(), 1u)
      << "the pending gang kept the sweep going after job 1 was placed";
}

TEST(TetrisSweepEdges, TaskThatFitsNowhereStaysPendingWithoutStall) {
  // Nine full-server tasks on eight servers: eight place, the ninth fits
  // nowhere, so the sweep visits every server and places nothing more.
  const std::vector<JobSpec> jobs{JobSpec::single_phase(0, 9, {4, 4}, 10.0)};
  FakeContext ref_ctx(Cluster::uniform(8, {4, 4}), jobs);
  FakeContext ctx(Cluster::uniform(8, {4, 4}), jobs);
  ReferenceTetris reference;
  TetrisScheduler tetris;
  reference.schedule(ref_ctx);
  tetris.schedule(ctx);
  EXPECT_EQ(ctx.placements(), ref_ctx.placements());
  EXPECT_EQ(ctx.placements().size(), 8u);
  EXPECT_EQ(ctx.phase(0, 0).unscheduled_tasks, 1);
  EXPECT_EQ(tetris.servers_swept(), 8u);

  // In the simulator the ninth task waits for a copy to finish: no stall
  // is raised and the stream matches the full sweep.
  SimConfig config = base_config(1);
  config.slot_seconds = 1.0;
  (void)expect_same_stream(Cluster::uniform(8, {4, 4}), config, jobs, false);
}

TEST(TetrisSweepEdges, RequeuedTaskIsPlacedInTheSameCall) {
  const std::vector<JobSpec> jobs{JobSpec::single_phase(0, 3, {4, 4}, 10.0)};
  FakeContext ref_ctx(Cluster::uniform(16, {4, 4}), jobs);
  FakeContext ctx(Cluster::uniform(16, {4, 4}), jobs);
  ReferenceTetris reference;
  TetrisScheduler tetris;
  reference.schedule(ref_ctx);
  tetris.schedule(ctx);
  ASSERT_EQ(ctx.placements().size(), 3u);
  EXPECT_EQ(tetris.servers_swept(), 3u);

  ref_ctx.fail_server(1);
  ctx.fail_server(1);
  ASSERT_EQ(ctx.phase(0, 0).unscheduled_tasks, 1);
  ASSERT_EQ(ctx.phase(0, 0).first_unscheduled_hint, 1);
  reference.schedule(ref_ctx);
  tetris.schedule(ctx);

  EXPECT_EQ(ctx.placements(), ref_ctx.placements());
  ASSERT_EQ(ctx.placements().size(), 4u);
  EXPECT_EQ(ctx.placements().back(), Placement(0, 0, 0, 1, 3))
      << "task 1 must move to the first free server in the same call";
  EXPECT_EQ(ctx.phase(0, 0).unscheduled_tasks, 0);
  EXPECT_EQ(tetris.servers_swept(), 4u);
}

}  // namespace
}  // namespace dollymp
