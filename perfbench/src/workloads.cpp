#include "workloads.h"

#include <algorithm>
#include <exception>
#include <filesystem>
#ifdef __GLIBC__
#include <malloc.h>
#endif
#include <memory>
#include <optional>
#include <stdexcept>

#include "dollymp/common/state_io.h"
#include "dollymp/service/session.h"
#include "dollymp/sim/sim_core.h"
#include "gauge.h"

namespace perfbench {

using namespace dollymp;

void trim_heap() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
}

namespace {

double seconds_since(std::int64_t t0_ns) { return static_cast<double>(now_ns() - t0_ns) * 1e-9; }

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  return h;
}

/// The policy a run schedules with: bare, or behind the timing shims.
struct Policy {
  std::unique_ptr<Scheduler> scheduler;
  TimingScheduler* shim = nullptr;
};

Policy make_policy(const std::string& name, Tracer* tracer, int index) {
  Policy p{make_named_policy(name), nullptr};
  if (tracer != nullptr) {
    auto shim = std::make_unique<TimingScheduler>(std::move(p.scheduler), *tracer, index);
    p.shim = shim.get();
    p.scheduler = std::move(shim);
  }
  return p;
}

/// A batch run: a SimCore over a copy of the prototype inventory.
class BatchEngine {
 public:
  BatchEngine(const Cluster& prototype, const SimConfig& config,
              std::unique_ptr<Scheduler> policy)
      : policy_(std::move(policy)), core_(prototype, config) {}

  [[nodiscard]] SimCore& core() { return core_; }
  [[nodiscard]] Scheduler& policy() { return *policy_; }

  void step(SimTime horizon) { (void)core_.step_until(horizon); }

  [[nodiscard]] std::uint64_t signature() const {
    const SimStats& st = core_.stats();
    std::uint64_t h = 0;
    for (const long long v :
         {static_cast<long long>(core_.now()), st.events_processed(), st.placements_accepted,
          st.copies_finished, st.copies_killed, st.scheduler_invocations,
          static_cast<long long>(core_.jobs_remaining())}) {
      h = mix(h, static_cast<std::uint64_t>(v));
    }
    return h;
  }

  /// SimCore::save_state sealed in the DMPCKPT01 envelope and written to a
  /// file, as Session::checkpoint does.  Returns the snapshot size.
  long long checkpoint(const std::string& path) const {
    StateWriter w;
    core_.save_state(w);
    const std::vector<std::uint8_t> bytes = w.finish();
    write_state_file(path, bytes);
    return static_cast<long long>(bytes.size());
  }

  /// A fresh core and policy loaded from the file, as Session::restore does.
  static std::unique_ptr<BatchEngine> restore(const Cluster& prototype,
                                              const SimConfig& config,
                                              const std::string& policy,
                                              const std::string& path) {
    auto engine = std::make_unique<BatchEngine>(prototype, config, make_named_policy(policy));
    engine->core_.begin(*engine->policy_);
    const std::vector<std::uint8_t> bytes = read_state_file(path);
    StateReader r(bytes);
    engine->core_.load_state(r, /*load_scheduler=*/true);
    r.expect_done();
    return engine;
  }

  /// In-memory snapshot into a fresh core sharing this run's job specs, as
  /// Session::fork does.
  [[nodiscard]] std::unique_ptr<BatchEngine> fork(const Cluster& prototype,
                                                  const SimConfig& config,
                                                  const std::string& policy) const {
    StateWriter w;
    core_.save_state(w);
    const std::vector<std::uint8_t> bytes = w.finish();
    StateReader r(bytes);
    auto engine = std::make_unique<BatchEngine>(prototype, config, make_named_policy(policy));
    engine->core_.begin(*engine->policy_);
    const std::vector<const JobSpec*> shared = core_.job_spec_pointers();
    engine->core_.load_state(r, /*load_scheduler=*/true, &shared);
    r.expect_done();
    return engine;
  }

 private:
  std::unique_ptr<Scheduler> policy_;
  SimCore core_;
};

/// A service run: a Session advanced window by window.
class ServiceEngine {
 public:
  explicit ServiceEngine(std::unique_ptr<Session> session) : session_(std::move(session)) {}

  [[nodiscard]] Session& session() { return *session_; }
  [[nodiscard]] const Session& session() const { return *session_; }

  void step(SimTime horizon) { session_->run_until(horizon); }

  [[nodiscard]] std::uint64_t signature() const {
    return mix(mix(session_->stream_hash(), static_cast<std::uint64_t>(session_->clock())),
               session_->records_written());
  }

  long long checkpoint(const std::string& path) const {
    session_->checkpoint(path);
    return static_cast<long long>(std::filesystem::file_size(path));
  }

 private:
  std::unique_ptr<Session> session_;
};

/// A service cycle run takes a checkpoint cycle after every this many
/// windows (after windows 2, 5, 8, ...): each cycle also steps two more
/// sessions, so a cycle after every window would take most of a round.
constexpr int kServiceCycleEvery = 3;

/// Where the parent run pauses, and what happens there.
struct Pause {
  SimTime horizon = SimCore::kUnbounded;
  bool advance_sample = false;  ///< this step is one timed advance window
  bool cycle = false;           ///< checkpoint, restore and fork after the step
};

/// Step the parent through `pauses`, taking a checkpoint cycle where asked.
/// The restored copy and the fork of each cycle are advanced to the next
/// pause and their state compared with the parent's there.  Returns the
/// host seconds spent stepping the parent.
template <typename Engine, typename RestoreFn, typename ForkFn>
double drive(Engine& parent, const std::vector<Pause>& pauses, Tracer* tracer,
             const std::string& snapshot_path, RunSample& sample, RestoreFn restore,
             ForkFn fork) {
  double step_s = 0;
  std::unique_ptr<Engine> restored;
  std::unique_ptr<Engine> forked;
  for (const Pause& pause : pauses) {
    const std::int64_t t0 = now_ns();
    {
      ScopedSpan span(tracer, SpanKind::kStep);
      parent.step(pause.horizon);
    }
    const double dt = seconds_since(t0);
    step_s += dt;
    if (pause.advance_sample) sample.advance_s.push_back(dt);
    if (restored) {
      restored->step(pause.horizon);
      forked->step(pause.horizon);
      sample.outcome.cycles.push_back(
          CycleProbe{parent.signature(), restored->signature(), forked->signature()});
      restored.reset();
      forked.reset();
    }
    if (!pause.cycle) continue;
    // Each timed call starts from a trimmed heap, so its multi-megabyte
    // buffers always fault in fresh pages.  Otherwise whether they land on
    // still-resident freed blocks depends on the exact allocation history,
    // and the timing flips between two modes from seed to seed.
    trim_heap();
    std::int64_t t = now_ns();
    sample.outcome.fingerprint.snapshot_bytes = parent.checkpoint(snapshot_path);
    sample.checkpoint_ms.push_back(seconds_since(t) * 1e3);
    trim_heap();
    t = now_ns();
    restored = restore(snapshot_path);
    sample.restore_ms.push_back(seconds_since(t) * 1e3);
    trim_heap();
    t = now_ns();
    forked = fork(parent);
    sample.fork_ms.push_back(seconds_since(t) * 1e3);
  }
  return step_s;
}

void note_shim(const Policy& policy, RunSample& sample) {
  if (policy.shim == nullptr) return;
  sample.placements = policy.shim->placements();
  sample.schedule_calls = policy.shim->schedule_calls();
}

void count_stats(const SimResult& result, RunSample& sample) {
  const SimStats& st = result.stats;
  LayerCounts& c = sample.counts;
  c.events = static_cast<double>(st.events_processed());
  c.slots_visited = static_cast<double>(st.slots_visited);
  c.index_queries = static_cast<double>(st.index_queries);
  c.index_scanned = static_cast<double>(st.index_servers_scanned);
  c.index_updates = static_cast<double>(st.index_updates);
  c.index_batch_hits = static_cast<double>(st.index_batch_hits);
  c.table_bytes = static_cast<double>(st.server_table_bytes);
  c.store_bytes = static_cast<double>(st.runtime_store_bytes);
  c.fault_kills = static_cast<double>(st.copies_killed_by_faults);
  c.work_lost_s = st.work_seconds_lost;

  RunOutcome& o = sample.outcome;
  o.leaked_cpu = st.leaked_cpu;
  o.leaked_mem = st.leaked_mem;
  o.active_copies = st.leaked_active_copies;
  o.copies_launched = result.total_copies_launched;
  o.copies_finished = st.copies_finished;
  o.copies_killed = st.copies_killed;

  Fingerprint& f = o.fingerprint;
  f.events = st.events_processed();
  f.placements = st.placements_accepted;
  f.copies_launched = result.total_copies_launched;
  f.copies_killed = st.copies_killed;
  f.slots_visited = st.slots_visited;
  f.index_queries = st.index_queries;
}

std::vector<Pause> batch_pauses(const Scenario& scenario, const std::vector<JobSpec>& jobs,
                                bool cycles) {
  std::vector<Pause> pauses;
  if (cycles && scenario.windows > 0) {
    double last_arrival = 0;
    for (const JobSpec& job : jobs) last_arrival = std::max(last_arrival, job.arrival_seconds);
    const auto last_slot = static_cast<SimTime>(last_arrival / scenario.sim.slot_seconds);
    const SimTime spacing = last_slot / (scenario.windows + 1);
    if (scenario.windows > 1 && scenario.window_slots > spacing) {
      throw std::invalid_argument(scenario.name + ": advance windows overlap");
    }
    for (int k = 1; k <= scenario.windows; ++k) {
      const SimTime at = last_slot * k / (scenario.windows + 1);
      pauses.push_back(Pause{at, false, true});
      pauses.push_back(Pause{at + scenario.window_slots, true, false});
    }
  }
  pauses.push_back(Pause{});
  return pauses;
}

RunSample batch_run(const Scenario& scenario, int index, bool cycles, Tracer* tracer,
                    const std::string& snapshot_path) {
  const std::string& name = scenario.policies[static_cast<std::size_t>(index)];
  RunSample sample;
  sample.outcome.policy = name;
  try {
    ScopedSpan run_span(tracer, SpanKind::kRun, index);
    const std::int64_t t0 = now_ns();
    std::optional<Cluster> cluster;
    std::vector<JobSpec> jobs;
    Policy policy;
    std::unique_ptr<BatchEngine> engine;
    {
      ScopedSpan setup_span(tracer, SpanKind::kSetup);
      {
        ScopedSpan span(tracer, SpanKind::kClusterBuild);
        cluster.emplace(build_cluster(scenario));
      }
      {
        ScopedSpan span(tracer, SpanKind::kWorkloadGen);
        jobs = build_jobs(scenario);
      }
      ScopedSpan span(tracer, SpanKind::kSimInit);
      policy = make_policy(name, tracer, index);
      engine = std::make_unique<BatchEngine>(*cluster, scenario.sim, std::move(policy.scheduler));
      engine->core().ingest(jobs);
      engine->core().begin(engine->policy());
    }
    sample.setup_s = seconds_since(t0);

    const std::vector<Pause> pauses = batch_pauses(scenario, jobs, cycles);
    double run_s = drive(
        *engine, pauses, tracer, snapshot_path, sample,
        [&](const std::string& path) {
          return BatchEngine::restore(*cluster, scenario.sim, name, path);
        },
        [&](const BatchEngine& parent) { return parent.fork(*cluster, scenario.sim, name); });
    const std::int64_t t1 = now_ns();
    SimResult result;
    {
      ScopedSpan span(tracer, SpanKind::kFinish);
      result = engine->core().finish();
    }
    run_s += seconds_since(t1);
    sample.run_s = run_s;

    count_stats(result, sample);
    note_shim(policy, sample);
    sample.outcome.jobs_ingested = static_cast<long long>(jobs.size());
    sample.outcome.jobs_completed = std::count_if(
        result.jobs.begin(), result.jobs.end(),
        [](const JobRecord& r) { return r.finish_seconds >= r.arrival_seconds; });
    sample.outcome.fingerprint.flowtime_sum_s = result.total_flowtime();
    sample.flow_mean_s = result.mean_flowtime();
  } catch (const std::exception& e) {
    sample.outcome.error = e.what();
  }
  return sample;
}

RunSample service_run(const Scenario& scenario, int index, bool cycles,
                      const Cluster& prototype, Tracer* tracer,
                      const std::string& snapshot_path) {
  const std::string& name = scenario.policies[static_cast<std::size_t>(index)];
  RunSample sample;
  sample.outcome.policy = name;
  sample.outcome.streaming = true;
  try {
    ScopedSpan run_span(tracer, SpanKind::kRun, index);
    ServiceConfig config = scenario.service;
    config.policy = name;
    const std::int64_t t0 = now_ns();
    std::unique_ptr<ServiceEngine> engine;
    {
      ScopedSpan setup_span(tracer, SpanKind::kSetup);
      ScopedSpan span(tracer, SpanKind::kSimInit);
      engine = std::make_unique<ServiceEngine>(std::make_unique<Session>(prototype, config));
    }
    sample.setup_s = seconds_since(t0);

    std::vector<Pause> pauses;
    for (int w = 1; w <= scenario.windows; ++w) {
      const bool cycle_here =
          w % kServiceCycleEvery == kServiceCycleEvery - 1 && w < scenario.windows;
      pauses.push_back(Pause{scenario.window_slots * w, cycles, cycles && cycle_here});
    }
    sample.run_s = drive(
        *engine, pauses, tracer, snapshot_path, sample,
        [&](const std::string& path) {
          return std::make_unique<ServiceEngine>(Session::restore(prototype, config, path));
        },
        [](const ServiceEngine& parent) {
          return std::make_unique<ServiceEngine>(parent.session().fork({}));
        });

    Session& session = engine->session();
    const StreamTotals totals = session.totals();
    LayerCounts& c = sample.counts;
    c.specs_retained = static_cast<double>(session.specs_retained());
    c.live_jobs = static_cast<double>(session.live_jobs());
    c.obs_records = static_cast<double>(session.records_written());
    c.service_store_bytes = static_cast<double>(session.store_memory_bytes());
    sample.outcome.jobs_ingested = totals.jobs_ingested;
    sample.outcome.jobs_completed = totals.jobs_completed;
    sample.outcome.jobs_live = session.live_jobs();
    sample.outcome.fingerprint.flowtime_sum_s = totals.response_seconds_sum;
    sample.outcome.fingerprint.stream_hash = session.stream_hash();
    sample.flow_mean_s = totals.jobs_completed > 0
                             ? totals.response_seconds_sum /
                                   static_cast<double>(totals.jobs_completed)
                             : 0.0;
    // finish() ends the session's core: it reads the conservation inputs
    // (allocations and copies still running at the last pause).
    const SimResult result = session.core().finish();
    count_stats(result, sample);
  } catch (const std::exception& e) {
    sample.outcome.error = e.what();
  }
  return sample;
}

}  // namespace

RoundResult run_round(const Scenario& scenario, Tracer* tracer,
                      const std::string& snapshot_path) {
  RoundResult round;
  const std::int64_t t0 = now_ns();
  ScopedSpan span(tracer, SpanKind::kWorkload);
  if (scenario.kind == ScenarioKind::kService) {
    // The session takes its inventory by value; the prototype is built once
    // per round, outside the timed set-up (Session construction).
    std::optional<Cluster> prototype;
    {
      ScopedSpan build_span(tracer, SpanKind::kClusterBuild);
      prototype.emplace(build_cluster(scenario));
    }
    for (int i = 0; i < static_cast<int>(scenario.policies.size()); ++i) {
      round.gauge_s.push_back(gauge_pass());
      round.runs.push_back(service_run(scenario, i, false, *prototype, tracer, snapshot_path));
    }
    round.gauge_s.push_back(gauge_pass());
    round.cycle = service_run(scenario, 0, true, *prototype, nullptr, snapshot_path);
  } else {
    for (int i = 0; i < static_cast<int>(scenario.policies.size()); ++i) {
      round.gauge_s.push_back(gauge_pass());
      round.runs.push_back(batch_run(scenario, i, false, tracer, snapshot_path));
    }
    round.gauge_s.push_back(gauge_pass());
    round.cycle = batch_run(scenario, 0, true, nullptr, snapshot_path);
  }
  round.wall_s = seconds_since(t0);
  return round;
}

}  // namespace perfbench
