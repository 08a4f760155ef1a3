#include "dollymp/sim/runtime_store.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>

#include "dollymp/common/state_io.h"

namespace dollymp {

namespace {

/// Pool size for a phase: at least kMinPoolSize entries so that clones of
/// tasks in tiny phases still re-draw an independent duration (a literal
/// 1-entry pool would pin every clone to its original's time and make
/// cloning a single-task job a no-op, contradicting the paper's Fig. 2
/// example).
constexpr int kMinPoolSize = 16;

int pool_size_for(const PhaseSpec& ps) { return std::max(ps.task_count, kMinPoolSize); }

}  // namespace

void RuntimeStore::reserve_for(const std::vector<JobSpec>& specs) {
  std::size_t n_phases = 0;
  std::size_t n_tasks = 0;
  std::size_t n_pool = 0;
  for (const auto& spec : specs) {
    n_phases += spec.phases.size();
    for (const auto& ps : spec.phases) {
      n_tasks += static_cast<std::size_t>(ps.task_count);
      n_pool += static_cast<std::size_t>(pool_size_for(ps));
    }
  }
  // Growing capacity relocates the flat arrays, which silently invalidates
  // every RtSpan bound into them.  A batch run reserves once before any
  // views exist; a streaming run reserves before EVERY ingest chunk with
  // live jobs already bound — so relocation here must rebind, exactly as
  // materialize() does for growth it causes itself.
  const PhaseRuntime* phases_before = phases_.data();
  const TaskRuntime* tasks_before = tasks_.data();
  const double* durations_before = durations_.data();

  jobs_.reserve(jobs_.size() + specs.size());
  job_extents_.reserve(job_extents_.size() + specs.size());
  phases_.reserve(phases_.size() + n_phases);
  phase_extents_.reserve(phase_extents_.size() + n_phases);
  tasks_.reserve(tasks_.size() + n_tasks);
  durations_.reserve(durations_.size() + n_pool);

  if (phases_.data() != phases_before || tasks_.data() != tasks_before ||
      durations_.data() != durations_before) {
    rebind_views();
  }
}

std::size_t RuntimeStore::materialize(const JobSpec& spec, double slot_seconds,
                                      const LocalityModel& locality, Rng& rng) {
  if (slot_seconds <= 0.0) throw std::invalid_argument("materialize: slot_seconds > 0");
  spec.validate();

  // Service-mode slot reuse: a released slot of the same shape is rebuilt
  // in place — no array growth, no relocation, identical RNG draw order.
  if (!free_slots_.empty()) {
    shape_scratch_.clear();
    for (const auto& ps : spec.phases) {
      shape_scratch_.push_back(static_cast<std::uint32_t>(ps.task_count));
    }
    const auto it = free_slots_.find(shape_scratch_);
    if (it != free_slots_.end() && !it->second.empty()) {
      const std::size_t job_index = it->second.back();
      it->second.pop_back();
      if (it->second.empty()) free_slots_.erase(it);
      rematerialize(job_index, spec, slot_seconds, locality, rng);
      return job_index;
    }
  }

  const PhaseRuntime* phases_before = phases_.data();
  const TaskRuntime* tasks_before = tasks_.data();
  const double* durations_before = durations_.data();

  const std::size_t job_index = jobs_.size();
  jobs_.emplace_back();
  JobExtent job_extent;
  job_extent.phase_begin = static_cast<std::uint32_t>(phases_.size());
  job_extent.phase_count = static_cast<std::uint32_t>(spec.phases.size());

  {
    JobRuntime& job = jobs_.back();
    job.spec = &spec;
    job.id = spec.id;
    job.arrival = static_cast<SimTime>(std::llround(spec.arrival_seconds / slot_seconds));
    job.remaining_phases = static_cast<int>(spec.phases.size());
  }

  for (std::size_t k = 0; k < spec.phases.size(); ++k) {
    const PhaseSpec& ps = spec.phases[k];
    phases_.emplace_back();
    PhaseRuntime& phase = phases_.back();
    PhaseExtent extent;
    phase.index = static_cast<PhaseIndex>(k);
    phase.spec = &ps;
    phase.remaining_tasks = ps.task_count;
    phase.unscheduled_tasks = ps.task_count;
    phase.unfinished_parents = static_cast<int>(ps.parents.size());
    for (const auto parent : ps.parents) {
      phases_[job_extent.phase_begin + static_cast<std::size_t>(parent)].has_children = true;
    }
    phase.speedup = SpeedupFunction::from_stats(ps.theta_seconds, ps.sigma_seconds);

    // Pre-sample the phase's duration pool into the shared flat array.
    // With sigma == 0 the pool is constant theta; otherwise Pareto fitted
    // to (theta, sigma), matching how the paper derives the speedup
    // function from the same fit.
    const int pool_size = pool_size_for(ps);
    extent.pool_begin = static_cast<std::uint32_t>(durations_.size());
    extent.pool_count = static_cast<std::uint32_t>(pool_size);
    if (ps.sigma_seconds <= 0.0) {
      durations_.insert(durations_.end(), static_cast<std::size_t>(pool_size),
                        ps.theta_seconds);
    } else {
      const ParetoDist dist =
          ParetoDist::fit(ps.theta_seconds, ps.sigma_seconds / ps.theta_seconds);
      for (int i = 0; i < pool_size; ++i) {
        durations_.push_back(dist.sample(rng));
      }
    }

    extent.task_begin = static_cast<std::uint32_t>(tasks_.size());
    extent.task_count = static_cast<std::uint32_t>(ps.task_count);
    for (int i = 0; i < ps.task_count; ++i) {
      tasks_.emplace_back();
      TaskRuntime& task = tasks_.back();
      task.ref = TaskRef{spec.id, static_cast<PhaseIndex>(k), i};
      task.demand = ps.demand;
      task.copies.bind(&slab_);
      task.block = locality.place_block(rng);
    }
    phase_extents_.push_back(extent);
  }
  job_extents_.push_back(job_extent);

  if (phases_.data() != phases_before || tasks_.data() != tasks_before ||
      durations_.data() != durations_before) {
    rebind_views();
  } else {
    // No relocation: bind just the new job's spans.
    JobRuntime& job = jobs_[job_index];
    job.phases.assign(phases_.data() + job_extent.phase_begin, job_extent.phase_count);
    for (std::size_t k = 0; k < job_extent.phase_count; ++k) {
      PhaseRuntime& phase = phases_[job_extent.phase_begin + k];
      const PhaseExtent& extent = phase_extents_[job_extent.phase_begin + k];
      phase.tasks.assign(tasks_.data() + extent.task_begin, extent.task_count);
      phase.duration_pool.assign(durations_.data() + extent.pool_begin, extent.pool_count);
    }
  }
  return job_index;
}

void RuntimeStore::rematerialize(std::size_t job_index, const JobSpec& spec,
                                 double slot_seconds, const LocalityModel& locality,
                                 Rng& rng) {
  const JobExtent& job_extent = job_extents_[job_index];

  JobRuntime& job = jobs_[job_index];
  job = JobRuntime{};  // RtSpan members are plain views; reassign below
  job.spec = &spec;
  job.id = spec.id;
  job.arrival = static_cast<SimTime>(std::llround(spec.arrival_seconds / slot_seconds));
  job.remaining_phases = static_cast<int>(spec.phases.size());
  job.phases.assign(phases_.data() + job_extent.phase_begin, job_extent.phase_count);

  // has_children is cross-phase state: clear all before the parent loops.
  for (std::size_t k = 0; k < job_extent.phase_count; ++k) {
    phases_[job_extent.phase_begin + k].has_children = false;
  }

  for (std::size_t k = 0; k < spec.phases.size(); ++k) {
    const PhaseSpec& ps = spec.phases[k];
    PhaseRuntime& phase = phases_[job_extent.phase_begin + k];
    const PhaseExtent& extent = phase_extents_[job_extent.phase_begin + k];
    phase.index = static_cast<PhaseIndex>(k);
    phase.spec = &ps;
    phase.remaining_tasks = ps.task_count;
    phase.unscheduled_tasks = ps.task_count;
    phase.first_unscheduled_hint = 0;
    phase.active_copies = 0;
    phase.finished = false;
    phase.finish_slot = kNever;
    phase.gang_penalty = 1.0;
    phase.unfinished_parents = static_cast<int>(ps.parents.size());
    for (const auto parent : ps.parents) {
      phases_[job_extent.phase_begin + static_cast<std::size_t>(parent)].has_children = true;
    }
    phase.speedup = SpeedupFunction::from_stats(ps.theta_seconds, ps.sigma_seconds);

    // Identical draw order to the append path: the phase's pool samples
    // first, then per-task block placements.
    if (ps.sigma_seconds <= 0.0) {
      std::fill_n(durations_.begin() + extent.pool_begin, extent.pool_count,
                  ps.theta_seconds);
    } else {
      const ParetoDist dist =
          ParetoDist::fit(ps.theta_seconds, ps.sigma_seconds / ps.theta_seconds);
      for (std::uint32_t i = 0; i < extent.pool_count; ++i) {
        durations_[extent.pool_begin + i] = dist.sample(rng);
      }
    }
    phase.duration_pool.assign(durations_.data() + extent.pool_begin, extent.pool_count);
    phase.tasks.assign(tasks_.data() + extent.task_begin, extent.task_count);

    for (int i = 0; i < ps.task_count; ++i) {
      TaskRuntime& task = tasks_[extent.task_begin + static_cast<std::size_t>(i)];
      task.ref = TaskRef{spec.id, static_cast<PhaseIndex>(k), i};
      task.demand = ps.demand;
      task.copies.release_storage();  // extent already released at completion; idempotent
      task.block = locality.place_block(rng);
      task.finished = false;
      task.ever_cloned = false;
      task.finish_slot = kNever;
      task.first_start = kNever;
      task.work_done_seconds = 0.0;
      task.work_updated_at = 0;
      task.generation = 0;
    }
  }
}

void RuntimeStore::release_job(std::size_t job_index) {
  // The spec may be dropped by the caller once its jobs are recycled; null
  // the pointer so any dangling read trips immediately.
  jobs_[job_index].spec = nullptr;
  const JobExtent& job_extent = job_extents_[job_index];
  shape_scratch_.clear();
  for (std::size_t k = 0; k < job_extent.phase_count; ++k) {
    shape_scratch_.push_back(phase_extents_[job_extent.phase_begin + k].task_count);
  }
  free_slots_[shape_scratch_].push_back(static_cast<std::uint32_t>(job_index));
}

std::size_t RuntimeStore::free_slot_count() const {
  std::size_t n = 0;
  for (const auto& [shape, slots] : free_slots_) n += slots.size();
  return n;
}

std::vector<std::uint32_t> RuntimeStore::free_slots() const {
  std::vector<std::uint32_t> free;
  for (const auto& [shape, slots] : free_slots_) {
    free.insert(free.end(), slots.begin(), slots.end());
  }
  return free;
}

void RuntimeStore::rebind_views() {
  for (std::size_t j = 0; j < jobs_.size(); ++j) {
    jobs_[j].phases.assign(phases_.data() + job_extents_[j].phase_begin,
                           job_extents_[j].phase_count);
  }
  for (std::size_t p = 0; p < phases_.size(); ++p) {
    phases_[p].tasks.assign(tasks_.data() + phase_extents_[p].task_begin,
                            phase_extents_[p].task_count);
    phases_[p].duration_pool.assign(durations_.data() + phase_extents_[p].pool_begin,
                                    phase_extents_[p].pool_count);
  }
}

template <typename F>
void RuntimeStore::for_each_live_run(F&& f) const {
  const std::size_t n = jobs_.size();
  std::size_t j = 0;
  while (j < n) {
    if (jobs_[j].spec == nullptr) {
      ++j;
      continue;
    }
    SlotRun run;
    run.phase_begin = job_extents_[j].phase_begin;
    while (j < n && jobs_[j].spec != nullptr) ++j;
    run.phase_end = job_extents_[j - 1].phase_begin + job_extents_[j - 1].phase_count;
    const PhaseExtent& first = phase_extents_[run.phase_begin];
    const PhaseExtent& last = phase_extents_[run.phase_end - 1];
    run.task_begin = first.task_begin;
    run.task_end = last.task_begin + last.task_count;
    run.pool_begin = first.pool_begin;
    run.pool_end = last.pool_begin + last.pool_count;
    f(run);
  }
}

RuntimeStore::LiveCounts RuntimeStore::live_counts() const {
  LiveCounts live;
  for_each_live_run([&live](const SlotRun& run) {
    live.phases += run.phase_end - run.phase_begin;
    live.tasks += run.task_end - run.task_begin;
    live.pool += run.pool_end - run.pool_begin;
  });
  return live;
}

void RuntimeStore::save_state(StateWriter& w) const {
  w.section(0x53544F52u);  // 'STOR'
  const LiveCounts live = live_counts();

  // Live duration pools first, packed, one bulk block per run of live
  // slots; a store with no free slot writes its whole pool array as one
  // block.
  w.u64(live.pool);
  for_each_live_run([&](const SlotRun& run) {
    w.bytes(durations_.data() + run.pool_begin,
            (run.pool_end - run.pool_begin) * sizeof(double));
  });
  w.pod_vec(job_extents_);
  w.pod_vec(phase_extents_);

  // Every slot's scalar record: a free slot keeps its finished state until
  // reuse (active-list erase predicates read it).  Each record below is
  // one fixed-width fields() append, byte for byte the per-field layout
  // load_state reads.
  w.u64(jobs_.size());
  for (const JobRuntime& job : jobs_) {
    w.fields(job.id, job.arrival, job.arrived, job.finished, job.finish_slot,
             job.first_start, job.remaining_phases, job.clones_launched,
             job.speculative_launched, job.resource_seconds, job.tasks_with_clones,
             job.pending_events, job.ingest_seq);
  }

  w.u64(live.phases);
  for_each_live_run([&](const SlotRun& run) {
    for (std::size_t p = run.phase_begin; p < run.phase_end; ++p) {
      const PhaseRuntime& phase = phases_[p];
      w.fields(phase.index, phase.remaining_tasks, phase.unfinished_parents,
               phase.has_children, phase.unscheduled_tasks, phase.first_unscheduled_hint,
               phase.active_copies, phase.finished, phase.finish_slot, phase.gang_penalty);
      // spec pointer and speedup are rebuilt from the job's spec on load;
      // tasks/duration_pool spans from the extents.
    }
  });

  // A task is its ref and demand records and replica list, its scalars,
  // then one size-prefixed record per copy.
  constexpr std::uint32_t kRefSize = StateWriter::pod_size<TaskRef>;
  constexpr std::uint32_t kDemandSize = StateWriter::pod_size<Resources>;
  constexpr std::uint32_t kReplicaSize = StateWriter::pod_size<ServerId>;
  constexpr std::uint32_t kCopySize = StateWriter::pod_size<CopyRuntime>;
  w.u64(live.tasks);
  for_each_live_run([&](const SlotRun& run) {
    for (const TaskRuntime& task :
         std::span(tasks_.data() + run.task_begin, tasks_.data() + run.task_end)) {
      const std::vector<ServerId>& replicas = task.block.replicas;
      w.fields(kRefSize, task.ref, kDemandSize, task.demand, kReplicaSize,
               std::uint64_t{replicas.size()});
      w.bytes(replicas.data(), replicas.size() * sizeof(ServerId));
      w.fields(task.finished, task.ever_cloned, task.finish_slot, task.first_start,
               task.work_done_seconds, task.work_updated_at, task.generation,
               static_cast<std::uint32_t>(task.copies.size()));
      for (const CopyRuntime& copy : task.copies) w.fields(kCopySize, copy);
    }
  });
}

std::size_t RuntimeStore::state_bytes_bound(std::size_t replicas_per_task) const {
  // Wire sizes of the records save_state writes: a job's scalars, a
  // phase's scalars, a task's ref/demand/replica-list headers and scalars,
  // and one size-prefixed copy record.
  constexpr std::size_t kJobBytes = 4 + 8 + 1 + 1 + 8 + 8 + 4 + 4 + 4 + 8 + 4 + 4 + 8;
  constexpr std::size_t kPhaseBytes = 4 + 4 + 4 + 1 + 4 + 4 + 4 + 1 + 8 + 8;
  constexpr std::size_t kTaskBytes = (4 + sizeof(TaskRef)) + (4 + sizeof(Resources)) +
                                     (4 + 8) + 1 + 1 + 8 + 8 + 8 + 8 + 4 + 4;
  constexpr std::size_t kCopyBytes = 4 + sizeof(CopyRuntime);
  const LiveCounts live = live_counts();
  return 4 + 8 + live.pool * sizeof(double) + StateWriter::pod_vec_bytes(job_extents_) +
         StateWriter::pod_vec_bytes(phase_extents_) + 8 + jobs_.size() * kJobBytes + 8 +
         live.phases * kPhaseBytes + 8 +
         live.tasks * (kTaskBytes + replicas_per_task * sizeof(ServerId)) +
         slab_.counters().copies_capacity * kCopyBytes;
}

void RuntimeStore::size_from_extents() {
  const auto fail = [](const std::string& what) {
    throw std::runtime_error("snapshot: runtime-store " + what);
  };
  constexpr std::uint64_t kMaxExtent = std::numeric_limits<std::uint32_t>::max();
  std::uint64_t next_phase = 0;
  for (std::size_t j = 0; j < job_extents_.size(); ++j) {
    const JobExtent& extent = job_extents_[j];
    if (extent.phase_begin != next_phase || extent.phase_count == 0) {
      fail("job slot " + std::to_string(j) +
           " phase extent does not tile the phase array");
    }
    next_phase += extent.phase_count;
  }
  if (next_phase != phase_extents_.size()) {
    fail("job extents cover " + std::to_string(next_phase) + " of " +
         std::to_string(phase_extents_.size()) + " phases");
  }
  std::uint64_t next_task = 0;
  std::uint64_t next_pool = 0;
  for (std::size_t p = 0; p < phase_extents_.size(); ++p) {
    const PhaseExtent& extent = phase_extents_[p];
    if (extent.task_begin != next_task || extent.pool_begin != next_pool ||
        extent.task_count == 0 ||
        extent.task_count > static_cast<std::uint32_t>(std::numeric_limits<int>::max()) ||
        extent.pool_count != std::max<std::uint32_t>(extent.task_count, kMinPoolSize)) {
      fail("phase " + std::to_string(p) +
           " extent does not tile the task and pool arrays");
    }
    next_task += extent.task_count;
    next_pool += extent.pool_count;
    if (next_task > kMaxExtent || next_pool > kMaxExtent) {
      fail("extents overflow the 32-bit task and pool indices");
    }
  }
  phases_.resize(phase_extents_.size());
  tasks_.resize(static_cast<std::size_t>(next_task));
  durations_.resize(static_cast<std::size_t>(next_pool));
}

std::size_t RuntimeStore::load_state(StateReader& r,
                                     const std::vector<const JobSpec*>& specs,
                                     const std::vector<std::uint32_t>& free,
                                     std::size_t server_count) {
  r.section(0x53544F52u);  // 'STOR'
  clear();
  // The packed live pools are copied to their extents once those are read
  // and checked.
  const std::size_t packed_pool = r.count(sizeof(double));
  const std::uint8_t* packed = r.take(packed_pool * sizeof(double));
  r.pod_vec(job_extents_);
  r.pod_vec(phase_extents_);
  if (job_extents_.size() != specs.size()) {
    throw std::runtime_error("snapshot: runtime-store job count mismatch");
  }
  jobs_.resize(specs.size());
  size_from_extents();

  // Spec pointers first: they are what marks a slot live.  A live slot's
  // spec must have the shape its extents record.
  for (std::size_t j = 0; j < jobs_.size(); ++j) {
    const JobSpec* spec = specs[j];
    jobs_[j].spec = spec;
    if (spec == nullptr) continue;
    const JobExtent& extent = job_extents_[j];
    if (spec->phases.size() != extent.phase_count) {
      throw std::runtime_error("snapshot: runtime-store phase extent mismatch");
    }
    for (std::size_t k = 0; k < extent.phase_count; ++k) {
      const PhaseSpec& ps = spec->phases[k];
      if (static_cast<std::uint64_t>(ps.task_count) !=
          phase_extents_[extent.phase_begin + k].task_count) {
        throw std::runtime_error("snapshot: runtime-store task extent mismatch");
      }
      PhaseRuntime& phase = phases_[extent.phase_begin + k];
      phase.spec = &ps;
      phase.speedup = SpeedupFunction::from_stats(ps.theta_seconds, ps.sigma_seconds);
    }
  }

  const LiveCounts live = live_counts();
  if (packed_pool != live.pool) {
    throw std::runtime_error("snapshot: runtime-store duration count mismatch");
  }
  for_each_live_run([&](const SlotRun& run) {
    const std::size_t bytes = (run.pool_end - run.pool_begin) * sizeof(double);
    std::memcpy(durations_.data() + run.pool_begin, packed, bytes);
    packed += bytes;
  });

  if (r.u64() != jobs_.size()) {
    throw std::runtime_error("snapshot: runtime-store job count mismatch");
  }
  for (JobRuntime& job : jobs_) {
    job.id = r.i32();
    job.arrival = r.i64();
    job.arrived = r.b();
    job.finished = r.b();
    job.finish_slot = r.i64();
    job.first_start = r.i64();
    job.remaining_phases = r.i32();
    job.clones_launched = r.i32();
    job.speculative_launched = r.i32();
    job.resource_seconds = r.f64();
    job.tasks_with_clones = r.i32();
    job.pending_events = r.i32();
    job.ingest_seq = r.i64();
    job.invalidate_remaining_cache();
    if (job.spec == nullptr && (!job.finished || job.pending_events != 0)) {
      throw std::runtime_error("snapshot: free job slot " +
                               std::to_string(&job - jobs_.data()) +
                               " is unfinished or has pending events");
    }
  }

  if (r.u64() != live.phases) {
    throw std::runtime_error("snapshot: runtime-store phase count mismatch");
  }
  for_each_live_run([&](const SlotRun& run) {
    for (std::size_t p = run.phase_begin; p < run.phase_end; ++p) {
      PhaseRuntime& phase = phases_[p];
      phase.index = r.i32();
      phase.remaining_tasks = r.i32();
      phase.unfinished_parents = r.i32();
      phase.has_children = r.b();
      phase.unscheduled_tasks = r.i32();
      phase.first_unscheduled_hint = r.i32();
      phase.active_copies = r.i32();
      phase.finished = r.b();
      phase.finish_slot = r.i64();
      phase.gang_penalty = r.f64();
    }
  });

  if (r.u64() != live.tasks) {
    throw std::runtime_error("snapshot: runtime-store task count mismatch");
  }
  std::size_t active_copies = 0;
  for_each_live_run([&](const SlotRun& run) {
    for (TaskRuntime& task :
         std::span(tasks_.data() + run.task_begin, tasks_.data() + run.task_end)) {
      task.copies.bind(&slab_);
      r.pod(task.ref);
      r.pod(task.demand);
      r.pod_vec(task.block.replicas);
      task.finished = r.b();
      task.ever_cloned = r.b();
      task.finish_slot = r.i64();
      task.first_start = r.i64();
      task.work_done_seconds = r.f64();
      task.work_updated_at = r.i64();
      task.generation = r.u32();
      const std::uint32_t copies = r.u32();
      for (std::uint32_t c = 0; c < copies; ++c) {
        CopyRuntime copy;
        r.pod(copy);
        // Every recorded copy was placed, so it names a real server.
        if (copy.server < 0 || static_cast<std::size_t>(copy.server) >= server_count) {
          throw std::runtime_error("snapshot: copy server " + std::to_string(copy.server) +
                                   " is outside [0, " + std::to_string(server_count) + ")");
        }
        active_copies += copy.active ? 1 : 0;
        task.copies.push_back(copy);  // re-acquires a slab extent; layout not semantic
      }
    }
  });
  rebind_views();

  // Re-release in the saved order: reuse pops each shape's list from the
  // back, so the order decides which slot the next job of a shape gets.
  // A free slot's records stay default-initialised; its tasks only need
  // their copy lists bound to the slab.
  for (const std::uint32_t slot : free) {
    if (slot >= jobs_.size() || jobs_[slot].spec != nullptr) {
      throw std::invalid_argument(
          "RuntimeStore::load_state: free list disagrees with specs");
    }
    const JobExtent& extent = job_extents_[slot];
    const PhaseExtent& first = phase_extents_[extent.phase_begin];
    const PhaseExtent& last = phase_extents_[extent.phase_begin + extent.phase_count - 1];
    for (std::size_t t = first.task_begin; t < last.task_begin + last.task_count; ++t) {
      tasks_[t].copies.bind(&slab_);
    }
    release_job(slot);
  }
  return active_copies;
}

std::size_t RuntimeStore::memory_bytes() const {
  return jobs_.capacity() * sizeof(JobRuntime) +
         phases_.capacity() * sizeof(PhaseRuntime) +
         tasks_.capacity() * sizeof(TaskRuntime) +
         durations_.capacity() * sizeof(double) +
         job_extents_.capacity() * sizeof(JobExtent) +
         phase_extents_.capacity() * sizeof(PhaseExtent) + slab_.memory_bytes();
}

void RuntimeStore::clear() {
  // Task CopyLists hold slab extents; drop them before the slab's blocks.
  tasks_.clear();
  jobs_.clear();
  phases_.clear();
  durations_.clear();
  job_extents_.clear();
  phase_extents_.clear();
  free_slots_.clear();
  slab_.clear();
}

}  // namespace dollymp
