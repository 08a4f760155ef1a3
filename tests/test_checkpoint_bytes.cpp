// Checkpoint byte-stability gates (DESIGN.md §4.8).
//
// A DMPCKPT01 payload must be a function of the simulation state alone:
//   * golden payload lengths and hashes pin the exact bytes of two small
//     checkpoints, so an encoder change that moves a single byte fails
//     here rather than as a silent format drift;
//   * save -> load -> save reproduces the bytes;
//   * the writer's reserved bound covers the payload across the policy,
//     fault, locality, gang and free-slot matrix, so one reservation is
//     the only allocation a checkpoint makes, and the bound stays within
//     twice the payload at trace scale.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dollymp/cluster/cluster.h"
#include "dollymp/common/state_io.h"
#include "dollymp/sched/dollymp.h"
#include "dollymp/service/session.h"
#include "dollymp/sim/sim_core.h"
#include "dollymp/workload/apps.h"
#include "dollymp/workload/arrivals.h"
#include "dollymp/workload/trace_model.h"

namespace dollymp {
namespace {

/// Payload length and payload hash of a sealed DMPCKPT01 buffer: the
/// header's length field and the envelope's trailing hash.
struct PayloadId {
  std::uint64_t length = 0;
  std::uint64_t hash = 0;
};

std::uint64_t le_u64(const std::vector<std::uint8_t>& bytes, std::size_t at) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    const std::uint8_t byte = bytes.at(at + static_cast<std::size_t>(i));
    v |= static_cast<std::uint64_t>(byte) << (8 * i);
  }
  return v;
}

PayloadId payload_id(const std::vector<std::uint8_t>& sealed) {
  return {le_u64(sealed, kStateHeaderBytes - 8), le_u64(sealed, sealed.size() - 8)};
}

/// A batch core and the policy it drives.
struct BatchRun {
  BatchRun(const Cluster& cluster, const SimConfig& config, const std::string& name)
      : BatchRun(cluster, config, make_named_policy(name)) {}
  BatchRun(const Cluster& cluster, const SimConfig& config,
           std::unique_ptr<Scheduler> scheduler)
      : policy(std::move(scheduler)), core(cluster, config) {}
  std::unique_ptr<Scheduler> policy;
  SimCore core;
};

/// WordCount and PageRank jobs with Poisson arrivals, sized for paper30.
std::vector<JobSpec> paper_jobs(int count, std::uint64_t seed) {
  AppConfig app;
  app.straggler_cv = 0.9;
  std::vector<JobSpec> jobs;
  for (int i = 0; i < count; ++i) {
    jobs.push_back(i % 2 == 0 ? make_wordcount(i, 4.0, 0.0, app)
                              : make_pagerank(i, 1.0, 3, 0.0, app));
  }
  assign_poisson_arrivals(jobs, 20.0, seed);
  return jobs;
}

SimConfig paper_locality_config() {
  SimConfig config;
  config.seed = 3;
  config.locality.enabled = true;
  return config;
}

constexpr SimTime kBatchPause = 60;

/// The paper30 batch run with locality on, paused mid-run.
std::unique_ptr<BatchRun> paper_batch(const std::vector<JobSpec>& jobs) {
  auto run =
      std::make_unique<BatchRun>(Cluster::paper30(), paper_locality_config(), "dollymp2");
  run->core.ingest(jobs);
  run->core.begin(*run->policy);
  (void)run->core.step_until(kBatchPause);
  return run;
}

std::vector<std::uint8_t> seal(const SimCore& core) {
  StateWriter w;
  core.save_state(w);
  return w.finish();
}

ServiceConfig faulty_service() {
  ServiceConfig config;
  config.policy = "dollymp2";
  config.arrivals.rate_per_second = 0.1;
  config.arrivals.mean_input_gb = 1.0;
  config.arrivals.seed = 17;
  config.sim.seed = 5;
  config.sim.failures.enabled = true;
  config.sim.failures.mean_time_to_failure_seconds = 900.0;
  config.sim.failures.mean_repair_seconds = 120.0;
  return config;
}

constexpr SimTime kServicePause = 120;

std::size_t free_slot_count(const Session& session) {
  std::size_t free = 0;
  for (const JobSpec* spec : session.core().job_spec_pointers()) free += spec == nullptr;
  return free;
}

// ---- golden bytes -----------------------------------------------------------

// Regenerate from this test's failure output only when a format change is
// intended; bump kStateVersion with it.
constexpr PayloadId kBatchGolden = {99603, 0xeba18d51b97adbd9ULL};
constexpr PayloadId kServiceGolden = {40005, 0x632e94b4b74270abULL};

TEST(CheckpointBytes, GoldenPayloadLengthAndHash) {
  {
    const std::vector<JobSpec> jobs = paper_jobs(24, 11);
    const auto run = paper_batch(jobs);
    ASSERT_FALSE(run->core.active_jobs().empty()) << "the pause must be mid-run";
    ASSERT_GT(run->core.stats().placements_accepted, 0);
    const PayloadId id = payload_id(seal(run->core));
    EXPECT_EQ(id.length, kBatchGolden.length);
    EXPECT_EQ(id.hash, kBatchGolden.hash) << "0x" << std::hex << id.hash;
  }
  {
    Session session(Cluster::paper30(), faulty_service());
    session.run_until(kServicePause);
    ASSERT_GT(free_slot_count(session), 0u) << "the state must hold free job slots";
    const PayloadId id = payload_id(session.serialize());
    EXPECT_EQ(id.length, kServiceGolden.length);
    EXPECT_EQ(id.hash, kServiceGolden.hash) << "0x" << std::hex << id.hash;
  }
}

TEST(CheckpointBytes, SaveLoadSaveReproducesTheBytes) {
  {
    const std::vector<JobSpec> jobs = paper_jobs(24, 11);
    const auto run = paper_batch(jobs);
    const std::vector<std::uint8_t> bytes = seal(run->core);
    BatchRun restored(Cluster::paper30(), paper_locality_config(), "dollymp2");
    restored.core.begin(*restored.policy);
    StateReader r(bytes);
    restored.core.load_state(r, /*load_scheduler=*/true);
    r.expect_done();
    EXPECT_EQ(seal(restored.core), bytes);
  }
  {
    Session session(Cluster::paper30(), faulty_service());
    session.run_until(kServicePause);
    const std::string path = testing::TempDir() + "/checkpoint_bytes_service.ckpt";
    session.checkpoint(path);
    const auto restored = Session::restore(Cluster::paper30(), faulty_service(), path);
    EXPECT_EQ(restored->serialize(), session.serialize());
  }
}

// ---- the reserved bound -----------------------------------------------------

/// The core's reserved bound on its current state covers the payload, and
/// the buffer never moves after the reservation: the sealed checkpoint
/// holds exactly the one allocation save_state made.  Returns the payload
/// bytes.
std::size_t expect_bound_holds(const SimCore& core, const std::string& what) {
  StateWriter w;
  const std::size_t before = w.size();
  const std::size_t bound = core.state_bytes_bound();
  core.save_state(w);
  const std::size_t payload = w.size() - before;
  EXPECT_LE(payload, bound) << what;
  const std::vector<std::uint8_t> sealed = w.finish();
  EXPECT_EQ(sealed.capacity(), before + bound + 8)
      << what << ": the buffer grew after the reservation";
  return payload;
}

TEST(CheckpointBytes, ReservedBoundCoversServiceMatrix) {
  // Every policy, faults and locality on and off, at a pause that holds
  // free job slots.  The whole session payload (a short head before the
  // core, the overload tail after it) fits the core's reservation too.
  constexpr std::size_t kSessionHeadBytes = 256;
  for (const std::string& policy : known_policy_names()) {
    for (const bool faults : {false, true}) {
      for (const bool locality : {false, true}) {
        const std::string what = policy + (faults ? "/faults" : "/clean") +
                                 (locality ? "/locality" : "/no-locality");
        ServiceConfig config = faulty_service();
        config.policy = policy;
        config.sim.failures.enabled = faults;
        config.sim.locality.enabled = locality;
        Session session(Cluster::paper30(), config);
        session.run_until(kServicePause);
        EXPECT_GT(free_slot_count(session), 0u) << what;
        expect_bound_holds(session.core(), what);
        const std::size_t bound = session.core().state_bytes_bound();
        EXPECT_LE(session.serialize().capacity(),
                  kStateHeaderBytes + kSessionHeadBytes + bound + 8)
            << what << ": the session tail outgrew the reservation";
      }
    }
  }
}

TEST(CheckpointBytes, ReservedBoundCoversBatchGangsAndLearners) {
  {
    const std::vector<JobSpec> jobs = paper_jobs(24, 11);
    expect_bound_holds(paper_batch(jobs)->core, "paper30/locality");
  }
  {
    // Gang trainers beside an analytics stream on GPU pods.
    TraceModel model({}, 42);
    std::vector<JobSpec> jobs = model.sample_jobs(10);
    assign_poisson_arrivals(jobs, 15.0, 43);
    MlTrainConfig train;
    train.world_size = 8;
    train.steps = 3;
    for (int k = 0; k < 3; ++k) jobs.push_back(make_mltrain(10 + k, 10.0 * k, train));
    SimConfig config;
    config.seed = 7;
    config.resource_dims = 3;
    for (const std::string policy : {"dollymp2", "capacity", "drf"}) {
      BatchRun run(Cluster::gpu_pods(32), config, policy);
      run.core.ingest(jobs);
      run.core.begin(*run.policy);
      (void)run.core.step_until(40);
      ASSERT_GT(run.core.stats().gangs_placed, 0) << policy;
      expect_bound_holds(run.core, "gangs/" + policy);
    }
  }
  {
    // DollyMP with its server scorer and resilience ledgers, under faults.
    DollyMPConfig dollymp;
    dollymp.straggler_aware = true;
    dollymp.resilience.enabled = true;
    SimConfig config = paper_locality_config();
    config.failures.enabled = true;
    config.failures.mean_time_to_failure_seconds = 600.0;
    config.failures.mean_repair_seconds = 120.0;
    const std::vector<JobSpec> jobs = paper_jobs(24, 11);  // specs outlive the core
    BatchRun run(Cluster::paper30(), config, std::make_unique<DollyMPScheduler>(dollymp));
    run.core.ingest(jobs);
    run.core.begin(*run.policy);
    (void)run.core.step_until(kBatchPause);
    expect_bound_holds(run.core, "dollymp2/learners/faults");
  }
}

TEST(CheckpointBytes, BoundStaysWithinTwiceThePayloadAtTraceScale) {
  // 30K google-trace servers and 3000 trace jobs, paused two fifths of the
  // way through the arrivals: a runaway estimate here would raise the
  // resident size of every checkpoint and fork.
  TraceModel model({}, 1);
  std::vector<JobSpec> jobs = model.sample_jobs(3000);
  assign_poisson_arrivals(jobs, 20.0, 2);
  double last = 0;
  for (const JobSpec& job : jobs) last = std::max(last, job.arrival_seconds);
  SimConfig config;
  config.seed = 1;
  config.background.enabled = false;
  BatchRun run(Cluster::google_trace(30000), config, "dollymp2");
  run.core.ingest(jobs);
  run.core.begin(*run.policy);
  (void)run.core.step_until(static_cast<SimTime>(last / config.slot_seconds) * 2 / 5);
  const std::size_t payload = expect_bound_holds(run.core, "trace-30k");
  EXPECT_GT(payload, std::size_t{10} << 20) << "the state must be trace-sized";
  EXPECT_LE(run.core.state_bytes_bound(), 2 * payload);
}

}  // namespace
}  // namespace dollymp
