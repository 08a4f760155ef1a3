#include "dollymp/sim/speculation.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "dollymp/obs/recorder.h"

namespace dollymp {

namespace {

/// Earliest slot at which `task` satisfies the overrun predicate
/// elapsed / theta >= slow_factor, i.e. the slot this pass would first
/// consider it a straggler.  Computed in closed form then fixed up against
/// the exact floating-point predicate so the wakeup lands on precisely the
/// slot the old every-slot polling would have acted on.
SimTime overrun_crossing_slot(const TaskRuntime& task, double theta_seconds,
                              double slot_seconds, double slow_factor) {
  const auto overdue = [&](SimTime t) {
    const double elapsed = static_cast<double>(t - task.first_start) * slot_seconds;
    return elapsed / theta_seconds >= slow_factor;
  };
  SimTime cross = task.first_start +
                  static_cast<SimTime>(std::ceil(slow_factor * theta_seconds / slot_seconds));
  while (!overdue(cross)) ++cross;
  while (cross > task.first_start && overdue(cross - 1)) --cross;
  return cross;
}

}  // namespace

int run_speculation_pass(SchedulerContext& ctx, const SpeculationConfig& config,
                         std::vector<SpeculationCandidate>& candidates) {
  if (!config.enabled) return 0;
  // Degradation ladder level >= 2: backup copies are pure extra load when
  // the cluster is saturated, so the sweep is suspended until the service
  // governor steps back down (level 0/1 — including every batch run —
  // leaves the pass untouched).
  if (ctx.overload_level() >= 2) return 0;

  // Resource budget for concurrently running backups.
  const Resources total = ctx.cluster().total_capacity();
  const SimTime now = ctx.now();
  const double slot_seconds = ctx.slot_seconds();

  // One walk over the runnable phases past the finished-fraction gate, in
  // job/phase/task order: already-backed-up tasks charge the budget,
  // overrunners become candidates, and the rest contribute their
  // straggler-threshold crossing to the next wakeup.
  double backup_norm_in_use = 0.0;
  candidates.clear();
  SimTime next_crossing = kNever;
  for (JobRuntime* job : ctx.active_jobs()) {
    for (auto& phase : job->phases) {
      if (!phase.runnable()) continue;
      const int finished_tasks = phase.spec->task_count - phase.remaining_tasks;
      const double finished_fraction =
          static_cast<double>(finished_tasks) / static_cast<double>(phase.spec->task_count);
      if (finished_fraction < config.min_finished_fraction) continue;
      for (auto& task : phase.tasks) {
        if (task.finished || !task.running()) continue;
        if (task.first_start == kNever) continue;
        const int copies = task.total_copies();
        if (copies > config.max_backups_per_task) {
          // already backed up: its extra copies count against the budget
          backup_norm_in_use +=
              normalized_sum(task.demand, total) * static_cast<double>(copies - 1);
          continue;
        }
        const double elapsed = static_cast<double>(now - task.first_start) * slot_seconds;
        const double overrun = elapsed / phase.spec->theta_seconds;
        if (overrun >= config.slow_factor) {
          candidates.push_back({job, &phase, &task, overrun});
        } else {
          // Not yet a straggler: the only slot at which that can change
          // with no intervening event is its threshold crossing.  (Tasks
          // gated out by min_finished_fraction need no timer: the gate
          // only opens at a completion, which invokes the scheduler.)
          const SimTime cross = overrun_crossing_slot(task, phase.spec->theta_seconds,
                                                      slot_seconds, config.slow_factor);
          if (next_crossing == kNever || cross < next_crossing) next_crossing = cross;
        }
      }
    }
  }
  if (next_crossing != kNever) ctx.request_wakeup(next_crossing);

  // Most overdue first — LATE's "longest approximate time to end".
  std::sort(candidates.begin(), candidates.end(),
            [](const SpeculationCandidate& a, const SpeculationCandidate& b) {
              return a.overrun > b.overrun;
            });

  int launched = 0;
  for (const auto& c : candidates) {
    if (backup_norm_in_use >= config.capacity_fraction_cap * 2.0) break;  // 2 dims
    const ServerId server = best_fit_server(ctx, c.task->demand);
    if (server == kInvalidServer) break;
    if (ctx.place_speculative_copy(*c.job, *c.phase, *c.task, server)) {
      backup_norm_in_use += normalized_sum(c.task->demand, total);
      ++launched;
    }
  }
  // Flight-recorder summary of this sweep: how many stragglers crossed the
  // overrun threshold and how many backups actually launched, packed into
  // one record (candidates in the high bits, launches in the low 16).
  if (Recorder* rec = ctx.recorder(); rec != nullptr && !candidates.empty()) {
    TraceRecord r;
    r.slot = ctx.now();
    r.type = TraceEv::kSpeculationPass;
    r.aux = (static_cast<std::int64_t>(candidates.size()) << 16) |
            static_cast<std::int64_t>(launched & 0xFFFF);
    rec->append(r);
  }
  return launched;
}

}  // namespace dollymp
