#include "dollymp/sched/capacity.h"

namespace dollymp {

CapacityScheduler::CapacityScheduler(CapacityConfig config) : config_(config) {}

void CapacityScheduler::schedule(SchedulerContext& ctx) {
  // FIFO over arrival order (the active list is maintained in arrival
  // order by the simulator).  A single-queue YARN Capacity Scheduler
  // reserves containers for the application at the head of the queue: when
  // the head job still has runnable container requests that do not fit,
  // later applications are not offered the leftover (no size-aware
  // backfill).  This head-of-line behaviour is what makes its flowtime
  // collapse under load in the paper's Figs. 6-7.
  // Placement is first-fit: YARN grants containers on whichever NodeManager
  // heartbeats with room, with no multi-resource packing (that is Tetris's
  // whole point, Section 2).
  for (JobRuntime* job : ctx.active_jobs()) {
    place_gang_phases(ctx, *job);
    for (auto& phase : job->phases) {
      if (!phase.runnable()) continue;
      while (TaskRuntime* task = next_unscheduled_task(phase)) {
        const ServerId server = first_fit_server(ctx, task->demand);
        if (server == kInvalidServer) break;
        if (!ctx.place_copy(*job, phase, *task, server)) break;
      }
    }
    bool head_blocked = false;
    for (auto& phase : job->phases) {
      if (!phase.runnable()) continue;
      // A gang phase never hands out per-task work, so a pending gang
      // blocks the head of the queue via its unscheduled counter instead.
      const bool pending = (phase.spec->gang && phase.unscheduled_tasks > 0) ||
                           next_unscheduled_task(phase) != nullptr;
      if (pending) {
        head_blocked = true;
        break;
      }
    }
    if (head_blocked) break;
  }
  run_speculation_pass(ctx, config_.speculation, spec_candidates_);
}

}  // namespace dollymp
