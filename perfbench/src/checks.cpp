#include "checks.h"

namespace perfbench {

std::vector<std::string> check_run(const RunOutcome& run) {
  std::vector<std::string> bad;
  const std::string who = run.policy + ": ";
  if (!run.error.empty()) {
    bad.push_back(who + "run threw: " + run.error);
    return bad;
  }
  if (run.streaming) {
    if (run.jobs_completed + run.jobs_live != run.jobs_ingested) {
      bad.push_back(who + "jobs not conserved (" + std::to_string(run.jobs_completed) +
                    " completed + " + std::to_string(run.jobs_live) + " live != " +
                    std::to_string(run.jobs_ingested) + " ingested)");
    }
  } else {
    if (run.jobs_completed != run.jobs_ingested) {
      bad.push_back(who + std::to_string(run.jobs_ingested - run.jobs_completed) + " of " +
                    std::to_string(run.jobs_ingested) + " jobs left incomplete");
    }
    if (run.leaked_cpu != 0.0) bad.push_back(who + "leaked_cpu is non-zero");
    if (run.leaked_mem != 0.0) bad.push_back(who + "leaked_mem is non-zero");
    if (run.active_copies != 0) bad.push_back(who + "leaked_active_copies is non-zero");
  }
  const long long still_running = run.streaming ? run.active_copies : 0;
  if (run.copies_launched != run.copies_finished + run.copies_killed + still_running) {
    bad.push_back(who + "copies not conserved (" + std::to_string(run.copies_launched) +
                  " launched != " + std::to_string(run.copies_finished) + " finished + " +
                  std::to_string(run.copies_killed) + " killed" +
                  (run.streaming ? " + " + std::to_string(still_running) + " running" : "") +
                  ")");
  }
  for (std::size_t i = 0; i < run.cycles.size(); ++i) {
    const CycleProbe& c = run.cycles[i];
    if (c.restored != c.parent) {
      bad.push_back(who + "restored copy diverged after checkpoint " + std::to_string(i));
    }
    if (c.forked != c.parent) {
      bad.push_back(who + "fork diverged after checkpoint " + std::to_string(i));
    }
  }
  return bad;
}

std::vector<std::string> check_same(const Fingerprint& expected, const Fingerprint& got,
                                    const std::string& what) {
  if (expected == got) return {};
  std::string fields;
  const auto differ = [&fields](bool same, const char* name) {
    if (!same) fields += (fields.empty() ? "" : ", ") + std::string(name);
  };
  differ(expected.events == got.events, "events");
  differ(expected.placements == got.placements, "placements");
  differ(expected.copies_launched == got.copies_launched, "copies launched");
  differ(expected.copies_killed == got.copies_killed, "copies killed");
  differ(expected.slots_visited == got.slots_visited, "slots visited");
  differ(expected.index_queries == got.index_queries, "index queries");
  differ(expected.flowtime_sum_s == got.flowtime_sum_s, "total flowtime");
  differ(expected.stream_hash == got.stream_hash, "stream hash");
  differ(expected.snapshot_bytes == got.snapshot_bytes, "snapshot bytes");
  return {what + " differs in " + fields};
}

}  // namespace perfbench
