// Tetris (Grandl et al., SIGCOMM'14) — multi-resource packing baseline.
//
// For every free server, Tetris scores each pending task as
//     score = alignment + delta * shortness
// where alignment is the inner product of the task's demand vector with the
// server's free-resource vector (packing efficiency) and shortness is an
// SRPT-flavoured term favouring jobs with the least remaining work; the
// highest-scoring task is placed and the process repeats until nothing
// fits.  This is the "a + eps * p" combination the paper's Fig. 2
// walkthrough describes, with delta as the published default weight.
//
// Servers are swept in id order, and the sweep ends as soon as no live
// candidate (a non-gang runnable phase of an unfinished job with
// unscheduled tasks) remains.  This is exact: sim time stands still inside
// one call, so only place_copy changes a candidate and it only lowers
// unscheduled_tasks; every later server would have found nothing to place.
#pragma once

#include <cstddef>

#include "dollymp/sched/scheduler.h"

namespace dollymp {

struct TetrisConfig {
  /// Weight of the SRPT term against alignment.  Tetris deliberately keeps
  /// this small so that packing dominates and the SRPT preference "barely
  /// affects packing" (Grandl et al.); the ICPP paper's Fig. 2 walkthrough
  /// relies on exactly that (the full-server job has the highest combined
  /// score and is scheduled first).
  double delta = 0.1;
};

class TetrisScheduler final : public Scheduler {
 public:
  explicit TetrisScheduler(TetrisConfig config = {});

  [[nodiscard]] std::string name() const override { return "tetris"; }
  void schedule(SchedulerContext& ctx) override;

  /// Servers the most recent schedule() call visited before its sweep
  /// ended (diagnostic; never feeds a decision).
  [[nodiscard]] std::size_t servers_swept() const { return servers_swept_; }

 private:
  TetrisConfig config_;
  std::size_t servers_swept_ = 0;
};

}  // namespace dollymp
