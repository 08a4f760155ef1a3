// The Capacity Scheduler baseline (Hadoop YARN's default, Section 6.1).
//
// With a single queue the Capacity Scheduler serves applications in FIFO
// arrival order, granting each job's outstanding container requests before
// moving to the next job (head-of-line behaviour is what makes its
// flowtimes balloon under load in Figs. 6-7).  Hadoop's speculative
// execution runs on top: slow tasks get one backup copy each when spare
// resources exist (sim/speculation.h) — reproducing the paper's Fig. 1
// observation that backups launch too late to rescue small jobs.
#pragma once

#include "dollymp/sched/scheduler.h"
#include "dollymp/sim/speculation.h"

namespace dollymp {

struct CapacityConfig {
  SpeculationConfig speculation;
};

class CapacityScheduler final : public Scheduler {
 public:
  explicit CapacityScheduler(CapacityConfig config = {});

  [[nodiscard]] std::string name() const override { return "capacity"; }
  void schedule(SchedulerContext& ctx) override;

 private:
  CapacityConfig config_;
  /// The speculation sweep's candidate buffer, reused across passes.
  std::vector<SpeculationCandidate> spec_candidates_;
};

}  // namespace dollymp
