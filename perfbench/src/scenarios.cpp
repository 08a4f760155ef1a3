#include "scenarios.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dollymp/common/experiment.h"
#include "dollymp/common/rng.h"
#include "dollymp/workload/apps.h"
#include "dollymp/workload/arrivals.h"
#include "dollymp/workload/trace_model.h"

namespace perfbench {

using namespace dollymp;

namespace {

// Stream tags keep the job bodies, the arrival process and the simulator's
// own streams independent draws of one workload seed.
constexpr std::uint64_t kArrivalTag = 0xA5A1;
constexpr std::uint64_t kBodyTag = 0xB0D1;
/// TraceModel seed of the trace workloads' job population.
constexpr std::uint64_t kTracePopulation = 1;
/// Arrival-source seed of the service workload's job stream.
constexpr std::uint64_t kServiceStream = 1 ^ kArrivalTag;

/// The Section 6.2 application mix: PageRank (10 or 1 GB inputs, three
/// supersteps) and 10 GB WordCount, over 1-4 core containers with 1.25-2.75
/// GB per core.  Every (application, input, container) combination appears
/// equally often, so the total work is the same for every seed; the seed
/// orders the jobs, jitters their arrivals and drives the simulator.  Task
/// durations are calibrated to the Fig. 1 scale (~100 s map tasks).  The
/// paper's "around 20 s" gaps overload the 30-node cluster: queues grow
/// through the run and mean flowtime swings by a quarter or more from seed
/// to seed.  26 s gaps keep it heavily loaded, with jobs queueing, but
/// stable.
std::vector<JobSpec> paper_jobs(int count, std::uint64_t seed) {
  constexpr int kShapes = 64;  // 4 (app, input) x 4 cores x 4 memory ratios
  std::vector<int> shapes(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) shapes[static_cast<std::size_t>(i)] = i % kShapes;
  // Shuffle within each block of kShapes consecutive jobs, so the heavy
  // jobs stay spread evenly over the arrival stream.
  Rng rng(seed ^ kBodyTag);
  for (std::size_t block = 0; block < shapes.size(); block += kShapes) {
    const std::size_t end = std::min(shapes.size(), block + kShapes);
    for (std::size_t i = end; i > block + 1; --i) {
      std::swap(shapes[i - 1], shapes[block + rng.below(i - block)]);
    }
  }
  std::vector<JobSpec> jobs;
  jobs.reserve(shapes.size());
  for (int i = 0; i < count; ++i) {
    const int shape = shapes[static_cast<std::size_t>(i)];
    const double cpu = 1.0 + shape / 4 % 4;
    const double mem_per_cpu = 1.25 + 0.5 * (shape / 16);
    AppConfig app;
    app.straggler_cv = 0.9;
    app.map_demand = {cpu, std::round(cpu * mem_per_cpu * 2.0) / 2.0};
    app.reduce_demand = {cpu, std::round(cpu * (mem_per_cpu + 0.5) * 2.0) / 2.0};
    // A wider container works through its split proportionally faster.
    app.map_theta_per_gb = 100.0 / cpu;
    switch (shape % 4) {
      case 0: jobs.push_back(make_pagerank(i, 10.0, 3, 0.0, app)); break;
      case 2: jobs.push_back(make_pagerank(i, 1.0, 3, 0.0, app)); break;
      default: jobs.push_back(make_wordcount(i, 10.0, 0.0, app)); break;
    }
  }
  assign_jittered_arrivals(jobs, 26.0, 0.25, seed ^ kArrivalTag);
  return jobs;
}

/// The Section 6.3 trace-driven stream: one fixed population of synthetic
/// Google-trace jobs, the same for every seed, so the total work is too.
/// The seed orders the jobs, draws their Poisson arrivals and drives the
/// simulator.  (Sampling the population per seed moves the total task
/// count by up to a fifth, which swamps the host-time metrics.)
std::vector<JobSpec> trace_jobs(int count, std::uint64_t seed) {
  TraceModel model(TraceModelConfig{}, kTracePopulation);
  std::vector<JobSpec> jobs = model.sample_jobs(count);
  Rng rng(seed ^ kBodyTag);
  for (std::size_t i = jobs.size(); i > 1; --i) std::swap(jobs[i - 1], jobs[rng.below(i)]);
  for (std::size_t i = 0; i < jobs.size(); ++i) jobs[i].id = static_cast<JobId>(i);
  assign_poisson_arrivals(jobs, 20.0, seed ^ kArrivalTag);
  return jobs;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"trace-30k", "paper-30node",
                                                 "service-faults"};
  return names;
}

Scenario make_scenario(const std::string& name, std::uint64_t seed, bool smoke) {
  Scenario s;
  s.name = name;
  s.seed = seed;
  s.sim.seed = seed;
  s.policies = {"dollymp2", "capacity", "tetris"};
  if (name == "trace-30k") {
    s.inventory = Inventory::kGoogleTrace;
    s.servers = smoke ? 1000 : 30000;
    s.mix = JobMix::kTraceModel;
    s.jobs = smoke ? 60 : 3000;
    s.sim.background.enabled = false;
    s.sim.locality.enabled = false;
    // A tetris run takes ~4 s here, against ~0.15 s for dollymp2 and
    // ~0.3 s for capacity; three runs of each short one per round give
    // their medians enough samples.
    s.policies = {"dollymp2", "capacity", "tetris", "dollymp2",
                  "capacity", "dollymp2", "capacity"};
    // At this light load 200 slots hold only ~50 arrivals; a longer window
    // (still shorter than the gap between checkpoint cycles) gives each
    // advance a measurable amount of work.
    s.window_slots = 2000;
    s.windows = smoke ? 1 : 4;
  } else if (name == "paper-30node") {
    s.inventory = Inventory::kPaper30;
    s.servers = 30;
    s.mix = JobMix::kPaperApps;
    s.jobs = smoke ? 40 : 1000;
    s.sim.background.enabled = true;
    s.sim.locality.enabled = true;
    s.windows = smoke ? 1 : 3;
  } else if (name == "service-faults") {
    s.kind = ScenarioKind::kService;
    s.inventory = Inventory::kGoogleLike;
    s.servers = smoke ? 300 : 3000;
    const SweepFaultPreset faults = make_fault_preset("all");
    s.service.sim.seed = seed;
    s.service.sim.failures = faults.failures;
    s.service.sim.faults = faults.faults;
    s.service.arrivals.rate_per_second = smoke ? 0.05 : 0.5;
    // One fixed arrival stream, the same for every seed, so the offered
    // load is too; the seed drives the simulator (task durations, faults).
    s.service.arrivals.seed = kServiceStream;
    s.windows = smoke ? 3 : 12;
  } else {
    std::string known;
    for (const std::string& n : workload_names()) known += (known.empty() ? "" : ", ") + n;
    throw std::invalid_argument("unknown workload '" + name + "' (known: " + known + ")");
  }
  return s;
}

Cluster build_cluster(const Scenario& scenario) {
  switch (scenario.inventory) {
    case Inventory::kGoogleTrace: return Cluster::google_trace(scenario.servers);
    case Inventory::kPaper30: return Cluster::paper30();
    case Inventory::kGoogleLike: return Cluster::google_like(scenario.servers);
  }
  throw std::logic_error("build_cluster: bad inventory");
}

std::vector<JobSpec> build_jobs(const Scenario& scenario) {
  return scenario.mix == JobMix::kPaperApps ? paper_jobs(scenario.jobs, scenario.seed)
                                            : trace_jobs(scenario.jobs, scenario.seed);
}

}  // namespace perfbench
