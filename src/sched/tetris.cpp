#include "dollymp/sched/tetris.h"

#include <algorithm>
#include <vector>

namespace dollymp {

TetrisScheduler::TetrisScheduler(TetrisConfig config) : config_(config) {}

namespace {

struct Candidate {
  JobRuntime* job;
  PhaseRuntime* phase;
  double remaining_norm;  ///< remaining work, normalized to [0,1] across jobs
};

/// Remaining work of a job: unfinished tasks x theta x normalized demand.
double remaining_work(const JobRuntime& job, const Resources& total) {
  double work = 0.0;
  for (const auto& phase : job.phases) {
    if (phase.finished) continue;
    work += static_cast<double>(phase.remaining_tasks) * phase.spec->theta_seconds *
            normalized_sum(phase.spec->demand, total);
  }
  return work;
}

/// True when the phase can still hand a task to the packing loop.  Gang
/// phases never can: next_unscheduled_task refuses them.
bool is_live(const JobRuntime& job, const PhaseRuntime& phase) {
  return !job.finished && phase.runnable() && !phase.spec->gang &&
         phase.unscheduled_tasks > 0;
}

}  // namespace

void TetrisScheduler::schedule(SchedulerContext& ctx) {
  servers_swept_ = 0;
  const Resources total = ctx.cluster().total_capacity();

  // Gather candidate phases (all tasks within a phase share demand and
  // duration, so a phase is one candidate) and the jobs' remaining work.
  std::vector<Candidate> candidates;
  double max_work = 0.0;
  // Candidates that can still hand out a task; the sweep ends at zero.
  std::size_t live = 0;
  for (JobRuntime* job : ctx.active_jobs()) {
    // Gang phases cannot enter the per-server packing loop (they place as
    // one atomic wave), so offer them up front in arrival order.
    place_gang_phases(ctx, *job);
    const double work = remaining_work(*job, total);
    max_work = std::max(max_work, work);
    for (auto& phase : job->phases) {
      if (!phase.runnable()) continue;
      candidates.push_back({job, &phase, work});
      if (is_live(*job, phase)) ++live;
    }
  }
  if (live == 0) return;
  for (auto& c : candidates) {
    c.remaining_norm = max_work > 0.0 ? 1.0 - c.remaining_norm / max_work : 0.0;
  }

  // Machine-centric packing: fill each free server with its best-scoring
  // tasks, as the Tetris prototype does.  The alignment score is the raw
  // inner product demand.free, normalized by the server's capacity norm to
  // [0, 1] so the SRPT term (weighted delta) acts as the deliberate small
  // nudge the Tetris paper describes.  Larger, better-aligned demands score
  // higher on an empty machine — the property behind the paper's Fig. 2
  // walkthrough where the full-server job is scheduled first.
  // The sweep stops once no candidate is live (why that is exact: tetris.h).
  for (const auto& server : ctx.cluster().servers()) {
    if (live == 0) break;
    ++servers_swept_;
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
        const double score = alignment + config_.delta * c.remaining_norm;
        if (score > best_score) {
          best_score = score;
          best = &c;
          best_task = task;
        }
      }
      if (best == nullptr) break;
      if (!ctx.place_copy(*best->job, *best->phase, *best_task, server.id())) break;
      if (best->phase->unscheduled_tasks == 0 && --live == 0) break;
    }
  }
}

}  // namespace dollymp
