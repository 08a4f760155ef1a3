// Span tracing and the forwarding shims the traced run times layers with.
//
// Every span is recorded from the benchmark's own code, around a call into
// one layer of the library: the round ("workload"), one simulated run
// ("run"), its set-up pieces, each step_until / finish call, and — through
// the shims below — every Scheduler::schedule() invocation.  Calls too
// frequent to record one span each (placement commits, the on_* callbacks)
// are added up into their parent span's `agg_ns` instead, so a span's self
// time is
//
//   duration - (durations of its child spans) - agg_ns.
//
// Spans stay in memory and are written out as a Chrome trace when the
// benchmark ends.  Nothing here is active in an untraced run: the benchmark
// hands the bare policy to the simulator and passes a null Tracer.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dollymp/sched/scheduler.h"

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Span names (the layer each one times).
enum class SpanKind : std::uint8_t {
  kWorkload,      ///< one round: every simulated run of the workload
  kRun,           ///< one simulated run of one policy
  kSetup,         ///< from the start of the run to its first event-loop step
  kClusterBuild,  ///< Cluster inventory construction
  kWorkloadGen,   ///< job generation
  kSimInit,       ///< SimCore construction + ingest + begin, or Session construction
  kStep,          ///< SimCore::step_until or Session::run_until (agg: callbacks)
  kSchedule,      ///< Scheduler::schedule (agg: placement commits)
  kFinish,        ///< SimCore::finish
};
[[nodiscard]] const char* to_string(SpanKind kind);

struct Span {
  SpanKind kind = SpanKind::kWorkload;
  int parent = -1;
  int policy = -1;  ///< index into the workload's policy list, -1 for none
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t agg_ns = 0;  ///< time in added-up child calls
  long long agg_count = 0;
};

class Tracer {
 public:
  /// Open a span as a child of the innermost open span.
  int open(SpanKind kind, int policy = -1);
  void close(int id);
  /// Add time spent in an added-up child call to the innermost open span.
  void add_to_open(std::int64_t ns) {
    if (!stack_.empty()) {
      Span& s = spans_[static_cast<std::size_t>(stack_.back())];
      s.agg_ns += ns;
      ++s.agg_count;
    }
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  void clear() {
    spans_.clear();
    stack_.clear();
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; a null tracer makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, SpanKind kind, int policy = -1)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->open(kind, policy) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

/// Self time of every span: duration minus child spans minus agg_ns.
[[nodiscard]] std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans);

/// Write spans as a Chrome trace (chrome://tracing, Perfetto).
void write_chrome_trace(const std::string& path, const std::vector<Span>& spans,
                        const std::vector<std::string>& policies);

/// Placement counts seen at the forwarding context.
struct PlacementTally {
  long long calls = 0;
  long long accepted = 0;
};

/// Forwards every SchedulerContext call to the simulator's own context and
/// times the three placement calls, adding them up into the open span.
class TimingContext final : public dollymp::SchedulerContext {
 public:
  TimingContext(Tracer& tracer, PlacementTally& tally) : tracer_(tracer), tally_(tally) {}
  void bind(dollymp::SchedulerContext& inner) { inner_ = &inner; }

  [[nodiscard]] dollymp::SimTime now() const override { return inner_->now(); }
  [[nodiscard]] double slot_seconds() const override { return inner_->slot_seconds(); }
  [[nodiscard]] const dollymp::Cluster& cluster() const override { return inner_->cluster(); }
  [[nodiscard]] const dollymp::SimConfig& config() const override { return inner_->config(); }
  [[nodiscard]] const std::vector<dollymp::JobRuntime*>& active_jobs() override {
    return inner_->active_jobs();
  }
  bool place_copy(dollymp::JobRuntime& job, dollymp::PhaseRuntime& phase,
                  dollymp::TaskRuntime& task, dollymp::ServerId server) override {
    const std::int64_t t0 = now_ns();
    const bool ok = inner_->place_copy(job, phase, task, server);
    note(t0, ok);
    return ok;
  }
  bool place_speculative_copy(dollymp::JobRuntime& job, dollymp::PhaseRuntime& phase,
                              dollymp::TaskRuntime& task, dollymp::ServerId server) override {
    const std::int64_t t0 = now_ns();
    const bool ok = inner_->place_speculative_copy(job, phase, task, server);
    note(t0, ok);
    return ok;
  }
  bool place_gang(dollymp::JobRuntime& job, dollymp::PhaseRuntime& phase) override {
    const std::int64_t t0 = now_ns();
    const bool ok = inner_->place_gang(job, phase);
    note(t0, ok);
    return ok;
  }
  void request_wakeup(dollymp::SimTime slot) override { inner_->request_wakeup(slot); }
  [[nodiscard]] dollymp::Rng& policy_rng() override { return inner_->policy_rng(); }
  [[nodiscard]] dollymp::PlacementIndex* placement_index() override {
    return inner_->placement_index();
  }
  [[nodiscard]] dollymp::ThreadPool* worker_pool() override { return inner_->worker_pool(); }
  [[nodiscard]] dollymp::ShardStats* shard_stats() override { return inner_->shard_stats(); }
  [[nodiscard]] dollymp::Recorder* recorder() override { return inner_->recorder(); }
  void set_server_quarantined(dollymp::ServerId server, bool quarantined) override {
    inner_->set_server_quarantined(server, quarantined);
  }
  void defer_retry(dollymp::SimTime release_slot) override { inner_->defer_retry(release_slot); }
  void note_retry_issued(long long backoff_slots) override {
    inner_->note_retry_issued(backoff_slots);
  }
  void note_clone_budget_degraded(int effective, int configured) override {
    inner_->note_clone_budget_degraded(effective, configured);
  }
  [[nodiscard]] int overload_level() const override { return inner_->overload_level(); }

 private:
  void note(std::int64_t t0, bool accepted) {
    tracer_.add_to_open(now_ns() - t0);
    ++tally_.calls;
    if (accepted) ++tally_.accepted;
  }

  Tracer& tracer_;
  PlacementTally& tally_;
  dollymp::SchedulerContext* inner_ = nullptr;
};

/// Forwards every Scheduler call to the wrapped policy.  schedule() gets its
/// own span; the on_* callbacks are added up into the open (step) span.
/// Both hand the policy a TimingContext over the simulator's context.
class TimingScheduler final : public dollymp::Scheduler {
 public:
  TimingScheduler(std::unique_ptr<dollymp::Scheduler> inner, Tracer& tracer, int policy)
      : inner_(std::move(inner)), tracer_(tracer), policy_(policy), ctx_(tracer, tally_) {}

  [[nodiscard]] const PlacementTally& placements() const { return tally_; }
  [[nodiscard]] long long schedule_calls() const { return schedule_calls_; }

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  void reset() override { inner_->reset(); }
  void schedule(dollymp::SchedulerContext& ctx) override {
    const int id = tracer_.open(SpanKind::kSchedule, policy_);
    ctx_.bind(ctx);
    inner_->schedule(ctx_);
    tracer_.close(id);
    ++schedule_calls_;
  }
  void on_job_arrival(dollymp::SchedulerContext& ctx) override {
    timed(ctx, [&] { inner_->on_job_arrival(ctx_); });
  }
  void on_copy_finished(dollymp::SchedulerContext& ctx, const dollymp::JobRuntime& job,
                        const dollymp::PhaseRuntime& phase, const dollymp::TaskRuntime& task,
                        const dollymp::CopyRuntime& copy) override {
    timed(ctx, [&] { inner_->on_copy_finished(ctx_, job, phase, task, copy); });
  }
  void on_phase_completed(dollymp::SchedulerContext& ctx, const dollymp::JobRuntime& job,
                          const dollymp::PhaseRuntime& phase) override {
    timed(ctx, [&] { inner_->on_phase_completed(ctx_, job, phase); });
  }
  void on_job_completed(dollymp::SchedulerContext& ctx,
                        const dollymp::JobRuntime& job) override {
    timed(ctx, [&] { inner_->on_job_completed(ctx_, job); });
  }
  void on_server_failed(dollymp::SchedulerContext& ctx, dollymp::ServerId server) override {
    timed(ctx, [&] { inner_->on_server_failed(ctx_, server); });
  }
  void on_server_repaired(dollymp::SchedulerContext& ctx, dollymp::ServerId server) override {
    timed(ctx, [&] { inner_->on_server_repaired(ctx_, server); });
  }
  void on_copy_fault(dollymp::SchedulerContext& ctx, const dollymp::JobRuntime& job,
                     const dollymp::PhaseRuntime& phase, const dollymp::TaskRuntime& task,
                     dollymp::ServerId server) override {
    timed(ctx, [&] { inner_->on_copy_fault(ctx_, job, phase, task, server); });
  }
  void on_server_degraded(dollymp::SchedulerContext& ctx, dollymp::ServerId server,
                          double factor) override {
    timed(ctx, [&] { inner_->on_server_degraded(ctx_, server, factor); });
  }
  void on_server_restored(dollymp::SchedulerContext& ctx, dollymp::ServerId server) override {
    timed(ctx, [&] { inner_->on_server_restored(ctx_, server); });
  }
  void save_state(dollymp::StateWriter& w) const override { inner_->save_state(w); }
  void load_state(dollymp::StateReader& r) override { inner_->load_state(r); }

 private:
  template <typename F>
  void timed(dollymp::SchedulerContext& ctx, F&& call) {
    ctx_.bind(ctx);
    const std::int64_t t0 = now_ns();
    call();
    tracer_.add_to_open(now_ns() - t0);
  }

  std::unique_ptr<dollymp::Scheduler> inner_;
  Tracer& tracer_;
  int policy_;
  PlacementTally tally_;
  TimingContext ctx_;
  long long schedule_calls_ = 0;
};

}  // namespace perfbench
