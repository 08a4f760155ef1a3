// One round of a workload: every policy's simulated run, plus one more run
// of the first policy that takes the checkpoint cycles, timed from outside
// the library.
#pragma once

#include <string>
#include <vector>

#include "checks.h"
#include "scenarios.h"
#include "trace.h"

namespace perfbench {

/// Counters read from the library after a run (SimStats, Session).
struct LayerCounts {
  double events = 0;
  double slots_visited = 0;
  double index_queries = 0;
  double index_scanned = 0;
  double index_updates = 0;
  double index_batch_hits = 0;
  double table_bytes = 0;
  double store_bytes = 0;
  double fault_kills = 0;
  double work_lost_s = 0;
  // Session observability at the last pause (service workloads).
  double specs_retained = 0;
  double live_jobs = 0;
  double service_store_bytes = 0;
  double obs_records = 0;
};

/// One simulated run of one policy.
struct RunSample {
  RunOutcome outcome;
  double setup_s = 0;
  double run_s = 0;
  double flow_mean_s = 0;
  // One entry per checkpoint cycle or advance window (cycle run only).
  std::vector<double> checkpoint_ms;
  std::vector<double> restore_ms;
  std::vector<double> fork_ms;
  std::vector<double> advance_s;
  LayerCounts counts;
  // Seen at the forwarding shims (traced rounds only).
  PlacementTally placements;
  long long schedule_calls = 0;
};

struct RoundResult {
  std::vector<RunSample> runs;  ///< one per scenario policy, in order, never paused
  /// The first policy once more, paused for the checkpoint cycles and the
  /// advance windows.  Only those samples are reported; its run time is not,
  /// since the pauses disturb the run.  Never traced.
  RunSample cycle;
  /// Host-speed gauge passes (gauge.h), one before each run.
  std::vector<double> gauge_s;
  double wall_s = 0;
};

/// Hand freed heap pages back to the system (glibc; a no-op elsewhere).
void trim_heap();

/// Run every policy of `scenario` once, then the cycle run.  With a tracer,
/// the policy runs go behind the timing shims and every layer call is
/// recorded as a span.
/// `snapshot_path` is where checkpoints are written.  Run failures are
/// recorded in each RunSample's outcome, never thrown.
[[nodiscard]] RoundResult run_round(const Scenario& scenario, Tracer* tracer,
                                    const std::string& snapshot_path);

}  // namespace perfbench
