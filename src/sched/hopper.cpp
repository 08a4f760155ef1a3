#include "dollymp/sched/hopper.h"

#include <algorithm>
#include <vector>

namespace dollymp {

HopperScheduler::HopperScheduler(HopperConfig config) : config_(config) {}

void HopperScheduler::schedule(SchedulerContext& ctx) {
  const Resources total = ctx.cluster().total_capacity();

  // Order jobs by virtual size: remaining tasks inflated by the
  // speculation budget, weighted by per-task normalized demand.
  struct Entry {
    JobRuntime* job;
    double virtual_size;
  };
  std::vector<Entry> order;
  order.reserve(ctx.active_jobs().size());
  for (JobRuntime* job : ctx.active_jobs()) {
    double size = 0.0;
    for (const auto& phase : job->phases) {
      if (phase.finished) continue;
      size += static_cast<double>(phase.remaining_tasks) *
              normalized_sum(phase.spec->demand, total) * phase.spec->theta_seconds;
    }
    order.push_back({job, size * (1.0 + config_.speculation_budget)});
  }
  std::stable_sort(order.begin(), order.end(), [](const Entry& a, const Entry& b) {
    return a.virtual_size < b.virtual_size;
  });

  // Non-work-conserving allocation: stop handing out new tasks once the
  // remaining free capacity falls inside the speculation reservation, so
  // backups for the jobs already running always find room.
  const double reservation = config_.speculation_budget;
  for (auto& [job, virtual_size] : order) {
    const Resources free = ctx.cluster().total_free();
    const double free_fraction = min_free_fraction(free, total);
    if (free_fraction <= reservation) break;  // hold the rest back for backups
    place_gang_phases(ctx, *job);
    for (auto& phase : job->phases) {
      if (!phase.runnable()) continue;
      while (TaskRuntime* task = next_unscheduled_task(phase)) {
        const Resources now_free = ctx.cluster().total_free();
        const double now_fraction = min_free_fraction(now_free, total);
        if (now_fraction <= reservation) break;
        const ServerId server = best_fit_server(ctx, task->demand);
        if (server == kInvalidServer) break;
        if (!ctx.place_copy(*job, phase, *task, server)) break;
      }
    }
  }

  // The reservation pays off here: backups launch from the reserved slice.
  run_speculation_pass(ctx, config_.speculation, spec_candidates_);
}

}  // namespace dollymp
