// Microbenchmark: one scheduling round (placement pass over a fresh
// cluster) for each policy, across cluster sizes.  Complements
// tab_overhead with a policy-by-policy comparison.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>

#include "bench_common.h"
#include "dollymp/workload/trace_model.h"

using namespace dollymp;
using namespace dollymp::bench;

namespace {

std::vector<JobSpec> step_jobs(int count) {
  TraceModelConfig config;
  config.max_tasks_per_phase = 50;
  TraceModel model(config, 9);
  return model.sample_jobs(count);
}

SimConfig step_config() {
  SimConfig config;
  config.slot_seconds = 5.0;
  config.seed = 9;
  config.background.enabled = false;
  return config;
}

void run_step(benchmark::State& state, const std::string& key) {
  DryRunContext ctx(Cluster::google_like(static_cast<std::size_t>(state.range(0))),
                    step_jobs(200), step_config());
  auto scheduler = make_scheduler(key);
  for (auto _ : state) {
    scheduler->reset();
    scheduler->on_job_arrival(ctx);
    scheduler->schedule(ctx);
    state.PauseTiming();
    ctx.reset_placements();
    state.ResumeTiming();
  }
  // Allocations per round from the copy-slab pool: fresh extents are
  // acquires - reuses.  After the first round warms the free lists, churn
  // should reuse extents rather than allocate (the counter tends to 0).
  const auto& slab = ctx.store().copy_slab().counters();
  state.counters["alloc_per_step"] =
      static_cast<double>(slab.acquires - slab.reuses) /
      static_cast<double>(std::max<std::int64_t>(1, state.iterations()));
  state.counters["slab_blocks"] = static_cast<double>(slab.block_allocations);
}

void BM_StepDollyMP(benchmark::State& state) { run_step(state, "dollymp2"); }
void BM_StepTetris(benchmark::State& state) { run_step(state, "tetris"); }
void BM_StepDrf(benchmark::State& state) { run_step(state, "drf"); }
void BM_StepCapacity(benchmark::State& state) { run_step(state, "capacity"); }

BENCHMARK(BM_StepDollyMP)->Arg(100)->Arg(1000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_StepTetris)->Arg(100)->Arg(1000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_StepDrf)->Arg(100)->Arg(1000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_StepCapacity)->Arg(100)->Arg(1000)->Unit(benchmark::kMillisecond);

}  // namespace
