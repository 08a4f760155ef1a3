// Crash-safe supervised recovery (DESIGN.md §4.9): a SIGKILL at any point
// of the run must not change a single byte of the decision stream.  The
// kill-at matrix below reruns the same workload with crashes injected
// mid-stride across policy × faults and demands the recovered
// continuation's stream hash equal the uninterrupted run's — plus the
// sharp-edge paths: corrupted-latest fallback, quarantined-resume refusal,
// and the restart budget.
#include "dollymp/service/supervisor.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "dollymp/cluster/cluster.h"
#include "dollymp/common/state_io.h"
#include "dollymp/service/session.h"

#if !defined(_WIN32)

namespace dollymp {
namespace {

constexpr SimTime kHorizon = 768;
constexpr SimTime kStride = 256;

/// A moderately loaded service config with the overload layer ON, so the
/// recovery proof covers the admission gate, governor and SLO window state
/// riding in the snapshots — not just the simulator core.
ServiceConfig supervised_config(const std::string& policy, bool faults) {
  ServiceConfig config;
  config.policy = policy;
  config.sim.seed = 5;
  config.pump_slots = 64;
  config.arrivals.rate_per_second = 0.1;
  config.arrivals.mean_input_gb = 1.5;
  config.arrivals.seed = 17;
  if (faults) {
    config.sim.failures.enabled = true;
    config.sim.failures.mean_time_to_failure_seconds = 900.0;
    config.sim.failures.mean_repair_seconds = 120.0;
  }
  config.overload.admission_enabled = true;
  config.overload.high_watermark = 3.0;
  config.overload.low_watermark = 1.5;
  config.overload.governor_enabled = true;
  config.overload.slo_target_p99_seconds = 600.0;
  config.overload.slo_window_size = 128;
  config.overload.slo_min_samples = 32;
  return config;
}

SupervisorOptions supervised_options(const std::string& base) {
  SupervisorOptions options;
  options.snapshot_base = base;
  options.horizon_slots = kHorizon;
  options.checkpoint_stride_slots = kStride;
  options.watchdog_seconds = 60.0;  // generous: tests assert crashes, not hangs
  return options;
}

void scrub_rotation(const std::string& base) {
  for (const char* suffix : {".latest", ".prev", ".progress", ".staging"}) {
    std::remove((base + suffix).c_str());
  }
  for (const char* generation : {".latest", ".prev"}) {
    for (int n = 0; n < 8; ++n) {
      std::remove((base + generation + ".quarantined." + std::to_string(n)).c_str());
    }
  }
}

std::string temp_base(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

TEST(Supervisor, KillAtAnyPointRecoversBitIdentical) {
  // Kill points are deliberately mid-stride (not multiples of 256): the
  // first child dies before its first snapshot, the later ones lose real
  // work past their last stride boundary.
  const std::vector<SimTime> kills = {130, 500, 650};
  for (const std::string policy : {"dollymp2", "drf", "tetris"}) {
    for (const bool faults : {false, true}) {
      const std::string label = policy + (faults ? "+faults" : "");
      const ServiceConfig config = supervised_config(policy, faults);
      const std::string base = temp_base("sup_matrix");
      scrub_rotation(base);

      const SupervisorResult clean =
          run_supervised(Cluster::paper30(), config, supervised_options(base));
      EXPECT_EQ(clean.final_clock, kHorizon) << label;
      EXPECT_EQ(clean.restarts, 0) << label;

      scrub_rotation(base);
      SupervisorOptions crashy = supervised_options(base);
      crashy.kill_at_slots = kills;
      const SupervisorResult recovered =
          run_supervised(Cluster::paper30(), config, crashy);
      EXPECT_EQ(recovered.restarts, static_cast<int>(kills.size())) << label;
      EXPECT_EQ(recovered.final_clock, clean.final_clock) << label;
      EXPECT_EQ(recovered.stream_hash, clean.stream_hash) << label;
      EXPECT_EQ(recovered.records_written, clean.records_written) << label;
      EXPECT_EQ(recovered.jobs_ingested, clean.jobs_ingested) << label;
      EXPECT_EQ(recovered.jobs_completed, clean.jobs_completed) << label;
      EXPECT_EQ(recovered.arrivals_shed, clean.arrivals_shed) << label;
      EXPECT_EQ(recovered.snapshots_quarantined, 0) << label;
      scrub_rotation(base);
    }
  }
}

TEST(Supervisor, FallsBackToPreviousGenerationWhenLatestIsCorrupt) {
  const ServiceConfig config = supervised_config("dollymp2", false);
  const std::string base = temp_base("sup_fallback");
  scrub_rotation(base);

  // Baseline: uninterrupted supervised run.
  const SupervisorResult clean =
      run_supervised(Cluster::paper30(), config, supervised_options(base));

  // Seed a two-generation rotation by hand (snapshots at stride 1 and 2),
  // then corrupt the newest one — the torn-write-plus-crash scenario.
  scrub_rotation(base);
  {
    Session session(Cluster::paper30(), config);
    SnapshotRotation rotation(base);
    session.run_until(kStride);
    rotation.write(session.serialize());
    session.run_until(2 * kStride);
    rotation.write(session.serialize());
    auto bytes = read_state_file(rotation.latest_path());
    bytes[bytes.size() / 2] ^= 0x01;
    std::FILE* f = std::fopen(rotation.latest_path().c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
  }

  // The first child must quarantine the corrupt latest, resume from the
  // previous generation and still land on the uninterrupted hash.
  const SupervisorResult recovered =
      run_supervised(Cluster::paper30(), config, supervised_options(base));
  EXPECT_EQ(recovered.final_clock, clean.final_clock);
  EXPECT_EQ(recovered.stream_hash, clean.stream_hash);
  EXPECT_EQ(recovered.records_written, clean.records_written);
  EXPECT_EQ(recovered.snapshots_quarantined, 1);
  scrub_rotation(base);
}

TEST(Supervisor, RefusesQuarantinedResumeSnapshot) {
  const ServiceConfig config = supervised_config("dollymp2", false);
  SupervisorOptions options = supervised_options(temp_base("sup_refuse"));
  options.resume_from = options.snapshot_base + ".latest.quarantined.0";
  EXPECT_THROW(
      {
        try {
          (void)run_supervised(Cluster::paper30(), config, options);
        } catch (const std::runtime_error& e) {
          EXPECT_NE(std::string(e.what()).find("quarantined"), std::string::npos);
          throw;
        }
      },
      std::runtime_error);
}

TEST(Supervisor, ExplicitResumeFromCheckpointContinues) {
  const ServiceConfig config = supervised_config("dollymp2", false);
  const std::string base = temp_base("sup_resume");
  scrub_rotation(base);
  const std::string ckpt = base + ".explicit";

  const SupervisorResult clean =
      run_supervised(Cluster::paper30(), config, supervised_options(base));

  // Cut a plain checkpoint at the first stride boundary and hand it to the
  // supervisor as the explicit starting point.  (Scoped: the supervisor
  // forks, so no session — and no worker threads — may be live then.)
  {
    Session session(Cluster::paper30(), config);
    session.run_until(kStride);
    session.checkpoint(ckpt);
  }

  scrub_rotation(base);
  SupervisorOptions options = supervised_options(base);
  options.resume_from = ckpt;
  const SupervisorResult resumed =
      run_supervised(Cluster::paper30(), config, options);
  EXPECT_EQ(resumed.final_clock, clean.final_clock);
  EXPECT_EQ(resumed.stream_hash, clean.stream_hash);
  std::remove(ckpt.c_str());
  scrub_rotation(base);
}

TEST(Supervisor, RestartBudgetExhaustionThrows) {
  const ServiceConfig config = supervised_config("dollymp2", false);
  const std::string base = temp_base("sup_budget");
  scrub_rotation(base);
  SupervisorOptions options = supervised_options(base);
  options.max_restarts = 1;
  // Every child dies immediately; the second crash blows the budget.
  options.kill_at_slots = {10, 10, 10, 10};
  EXPECT_THROW(
      {
        try {
          (void)run_supervised(Cluster::paper30(), config, options);
        } catch (const std::runtime_error& e) {
          EXPECT_NE(std::string(e.what()).find("restart budget"), std::string::npos);
          throw;
        }
      },
      std::runtime_error);
  scrub_rotation(base);
}

TEST(Supervisor, OptionValidationRejectsBadSetups) {
  const ServiceConfig config = supervised_config("dollymp2", false);
  const Cluster cluster = Cluster::paper30();
  auto reject = [&](auto&& mutate) {
    SupervisorOptions options = supervised_options(temp_base("sup_validate"));
    mutate(options);
    EXPECT_THROW((void)run_supervised(cluster, config, options), std::invalid_argument);
  };
  reject([](SupervisorOptions& o) { o.snapshot_base.clear(); });
  reject([](SupervisorOptions& o) { o.horizon_slots = 0; });
  reject([](SupervisorOptions& o) { o.checkpoint_stride_slots = 0; });
  // Bit-identity precondition: stride must land on pump boundaries.
  reject([](SupervisorOptions& o) { o.checkpoint_stride_slots = kStride + 1; });
  reject([](SupervisorOptions& o) { o.max_restarts = -1; });
  reject([](SupervisorOptions& o) { o.watchdog_seconds = 0.0; });
}

}  // namespace
}  // namespace dollymp

#endif  // !defined(_WIN32)
