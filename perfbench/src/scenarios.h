// The benchmark's workloads, built from the library's public entry points
// only (Cluster inventories, TraceModel, the arrival assigners, the
// workload/apps.h builders, make_named_policy, make_fault_preset and
// Session).  Every input is a pure function of the workload seed.  Knobs
// the library exposes for switching optimizations off (threads,
// event_shards, batch_placement, use_placement_index) stay at their
// defaults.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dollymp/cluster/cluster.h"
#include "dollymp/service/session.h"
#include "dollymp/sim/types.h"

namespace perfbench {

enum class ScenarioKind : std::uint8_t {
  kBatch,    ///< a fixed job list run to completion by SimCore
  kService,  ///< a streaming Session advanced in fixed windows
};

enum class Inventory : std::uint8_t { kGoogleTrace, kPaper30, kGoogleLike };
enum class JobMix : std::uint8_t { kTraceModel, kPaperApps };

struct Scenario {
  std::string name;
  ScenarioKind kind = ScenarioKind::kBatch;
  /// Policies run in every round, in order; one listed twice runs twice,
  /// giving its metrics two samples per round.  The first one runs once
  /// more per round as the cycle run, which takes the checkpoint cycles.
  std::vector<std::string> policies;
  Inventory inventory = Inventory::kGoogleTrace;
  std::size_t servers = 0;
  std::uint64_t seed = 1;

  // ---- batch ---------------------------------------------------------------
  JobMix mix = JobMix::kTraceModel;
  int jobs = 0;
  dollymp::SimConfig sim;

  // ---- service, and the checkpoint cycle of batch runs ----------------------
  dollymp::ServiceConfig service;
  /// Simulated slots one advance covers.
  dollymp::SimTime window_slots = 200;
  /// Service: windows each session runs.  Batch: checkpoint cycles the
  /// cycle run takes, spread over the run at evenly spaced job arrivals.
  int windows = 0;
};

/// Names of the workloads the benchmark defines, in run order.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// The named workload at full size, or at the self-test's smoke size.
/// Throws std::invalid_argument on an unknown name.
[[nodiscard]] Scenario make_scenario(const std::string& name, std::uint64_t seed,
                                     bool smoke = false);

[[nodiscard]] dollymp::Cluster build_cluster(const Scenario& scenario);
[[nodiscard]] std::vector<dollymp::JobSpec> build_jobs(const Scenario& scenario);

}  // namespace perfbench
