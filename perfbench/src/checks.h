// Output checks applied to every simulated run the benchmark makes.  Each
// check is a pure function of a RunOutcome so the self-test can corrupt
// one field at a time and confirm the matching check fires.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// The deterministic outputs of one run.  Every round of one seed must
/// reproduce them exactly, and a traced run must match the untraced one.
struct Fingerprint {
  long long events = 0;
  long long placements = 0;
  long long copies_launched = 0;
  long long copies_killed = 0;
  long long slots_visited = 0;
  long long index_queries = 0;
  double flowtime_sum_s = 0.0;     ///< batch: total flowtime; service: response sum
  std::uint64_t stream_hash = 0;   ///< service: flight-recorder stream hash
  long long snapshot_bytes = 0;    ///< last checkpoint's size (checkpoint-cycle runs)

  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};

/// State signatures after one more window, taken at each checkpoint cycle:
/// the parent's, the restored copy's and the fork's.
struct CycleProbe {
  std::uint64_t parent = 0;
  std::uint64_t restored = 0;
  std::uint64_t forked = 0;
};

struct RunOutcome {
  std::string policy;
  std::string error;  ///< what the run threw; empty when it completed
  bool streaming = false;
  long long jobs_ingested = 0;
  long long jobs_completed = 0;
  long long jobs_live = 0;  ///< streaming: jobs still running at the last pause
  double leaked_cpu = 0.0;
  double leaked_mem = 0.0;
  long long active_copies = 0;  ///< copies still running when finish() was called
  long long copies_launched = 0;
  long long copies_finished = 0;
  long long copies_killed = 0;
  std::vector<CycleProbe> cycles;
  Fingerprint fingerprint;
};

/// Every violation of one run; empty when the run is correct.
///  * the run threw;
///  * batch: a job was left incomplete, or an allocation or active copy
///    leaked past the last job; streaming: completed + live != ingested;
///  * copies launched != finished + killed (+ still running, streaming);
///  * a restored or forked copy, advanced one more window, did not reach
///    the parent's state.
[[nodiscard]] std::vector<std::string> check_run(const RunOutcome& run);

/// Violations when two runs that must agree do not (round-to-round
/// determinism; traced against untraced).  `what` names the comparison.
[[nodiscard]] std::vector<std::string> check_same(const Fingerprint& expected,
                                                  const Fingerprint& got,
                                                  const std::string& what);

}  // namespace perfbench
