// RuntimeStore: flat struct-of-arrays backing store for all mutable
// job/phase/task/copy state of one simulation run.
//
// Before the overhaul each JobRuntime owned a vector<PhaseRuntime>, each
// phase a vector<TaskRuntime> and a vector<double> duration pool, and each
// task a vector<CopyRuntime> — tens of thousands of small heap blocks per
// trace run, scattered across the address space.  The store keeps ONE
// array per record kind, keyed by dense ids (a job's phases occupy a
// contiguous extent of the phase array, a phase's tasks a contiguous
// extent of the task array, and so on), and the runtime classes hold
// RtSpan windows into them.  Copy records live in a CopySlab with
// free-list reuse, so the steady state allocates nothing.
//
// Id spaces:
//   * JobId (job.h) stays the workload-assigned id; the store ALSO assigns
//     a dense index — materialization order — which is what the simulator
//     uses for event payloads (`&job - jobs().data()`), unchanged from the
//     old vector-of-jobs layout.
//   * Dense PhaseId / TaskId are the positions in phases()/tasks(); code
//     that needs them derives them by pointer difference, which the
//     contiguous layout makes valid across a whole run, not just within
//     one job.
//
// Growth: materialize() appends to the flat arrays.  When an append
// relocates an array, every span into it is rebound from the recorded
// extents — pointers held by callers across materialize() calls are
// invalid (exactly like iterators across vector::push_back), so the
// simulator materializes all jobs before taking references, and
// reserve_for() pre-sizes the arrays so the bulk path never relocates.
#pragma once

#include <cstddef>
#include <map>
#include <vector>

#include "dollymp/sim/runtime_state.h"

namespace dollymp {

class StateWriter;
class StateReader;

class RuntimeStore {
 public:
  RuntimeStore() = default;
  RuntimeStore(const RuntimeStore&) = delete;
  RuntimeStore& operator=(const RuntimeStore&) = delete;

  /// Pre-size the flat arrays for exactly these specs (phase/task/pool
  /// totals are derivable from the specs alone), so the following
  /// materialize() calls never relocate.
  void reserve_for(const std::vector<JobSpec>& specs);

  /// Build the runtime skeleton for a job: samples the per-phase duration
  /// pools (Pareto fitted to theta/sigma; degenerate to constant when
  /// sigma is 0) and the input-block replica placements.  Returns the
  /// job's dense index into jobs().  Draw order matches the pre-overhaul
  /// materialize_job exactly (pool samples, then per-task blocks, phase by
  /// phase), so seeds reproduce bit-identical runs.
  std::size_t materialize(const JobSpec& spec, double slot_seconds,
                          const LocalityModel& locality, Rng& rng);

  [[nodiscard]] std::vector<JobRuntime>& jobs() { return jobs_; }
  [[nodiscard]] const std::vector<JobRuntime>& jobs() const { return jobs_; }
  [[nodiscard]] CopySlab& copy_slab() { return slab_; }
  [[nodiscard]] const CopySlab& copy_slab() const { return slab_; }

  /// Total copy slots handed back for reuse is visible via
  /// copy_slab().counters(); this is the store-wide footprint: flat
  /// arrays (capacity, not size — reserved headroom is real memory) plus
  /// slab blocks.
  [[nodiscard]] std::size_t memory_bytes() const;

  /// Drop everything (flat arrays, slab, extents).
  void clear();

  /// Service-mode recycling: hand a completed job's slot back for reuse.
  /// The next materialize() of a job with the same shape (per-phase task
  /// counts — the pool size is a pure function of the task count, so it
  /// matches automatically) rebuilds the runtime records *in place*, with
  /// the identical RNG draw order the append path uses, so resident memory
  /// tracks live jobs instead of total arrivals.  The slot's JobRuntime
  /// keeps its finished state until reuse (active-list erase predicates
  /// stay sound); its copy extents must already be released.
  void release_job(std::size_t job_index);

  /// Recyclable slots currently parked (streaming memory accounting).
  [[nodiscard]] std::size_t free_slot_count() const;

  /// Released slot indices in reuse-pool order (shape by shape, each
  /// shape's slots in release order).  A slot is free exactly when its
  /// JobRuntime::spec is null.
  [[nodiscard]] std::vector<std::uint32_t> free_slots() const;

  /// Checkpoint/restore of the live runtime records.  Every slot keeps its
  /// JobRuntime scalars and extents; only live slots write their phases,
  /// tasks (copy lists re-acquired from the slab on load — the extent
  /// layout is not semantic) and duration pools.  A free slot's records
  /// carry nothing: rematerialize() overwrites all of them before reuse,
  /// and no heap event can name a free slot.  Spec pointers are NOT
  /// serialized: load_state takes one JobSpec pointer per slot, null for
  /// exactly the slots in `free` (the saved free_slots() order), rebuilds
  /// the free slots default-initialised and re-releases them in that
  /// order, so slot reuse and the RNG draw order continue unchanged.
  /// load_state rejects a copy naming a server outside [0, server_count)
  /// and returns the number of active copies it restored, for the caller
  /// to check against its own count.
  void save_state(StateWriter& w) const;
  std::size_t load_state(StateReader& r, const std::vector<const JobSpec*>& specs,
                         const std::vector<std::uint32_t>& free, std::size_t server_count);
  /// Upper bound on the bytes save_state appends, for tasks holding at
  /// most `replicas_per_task` input-block replicas.  Every copy record is
  /// bounded by the slab's carved slots, so no task is visited.
  [[nodiscard]] std::size_t state_bytes_bound(std::size_t replicas_per_task) const;

 private:
  struct JobExtent {
    std::uint32_t phase_begin = 0;
    std::uint32_t phase_count = 0;
  };
  struct PhaseExtent {
    std::uint32_t task_begin = 0;
    std::uint32_t task_count = 0;
    std::uint32_t pool_begin = 0;
    std::uint32_t pool_count = 0;
  };
  // Both are written as raw bytes; neither may grow alignment gaps.
  static_assert(sizeof(JobExtent) == 2 * sizeof(std::uint32_t));
  static_assert(sizeof(PhaseExtent) == 4 * sizeof(std::uint32_t));

  /// Point every span at the current array locations (after relocation).
  void rebind_views();

  /// Flat-array ranges [begin, end) covered by a run of slots.
  struct SlotRun {
    std::size_t phase_begin = 0;
    std::size_t phase_end = 0;
    std::size_t task_begin = 0;
    std::size_t task_end = 0;
    std::size_t pool_begin = 0;
    std::size_t pool_end = 0;
  };

  /// Calls f(const SlotRun&) for each maximal run of consecutive live
  /// slots.  Extents tile the flat arrays in slot order, so a run's
  /// phases, tasks and pool entries are each one contiguous block, and a
  /// store with no free slot is a single run.
  template <typename F>
  void for_each_live_run(F&& f) const;
  /// Phase, task and pool-entry counts over every live run.
  struct LiveCounts {
    std::size_t phases = 0;
    std::size_t tasks = 0;
    std::size_t pool = 0;
  };
  [[nodiscard]] LiveCounts live_counts() const;

  /// Check that the loaded extents tile the phase, task and pool arrays in
  /// slot order (throws typed `snapshot:` errors) and size the arrays.
  void size_from_extents();

  /// Rebuild a released slot's records in place for `spec` (same shape).
  void rematerialize(std::size_t job_index, const JobSpec& spec, double slot_seconds,
                     const LocalityModel& locality, Rng& rng);

  CopySlab slab_;
  std::vector<JobRuntime> jobs_;
  std::vector<PhaseRuntime> phases_;
  std::vector<TaskRuntime> tasks_;
  std::vector<double> durations_;
  std::vector<JobExtent> job_extents_;
  std::vector<PhaseExtent> phase_extents_;
  /// Released job slots keyed by shape (per-phase task counts).
  std::map<std::vector<std::uint32_t>, std::vector<std::uint32_t>> free_slots_;
  std::vector<std::uint32_t> shape_scratch_;
};

}  // namespace dollymp
