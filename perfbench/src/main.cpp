// dollymp_perfbench: runs one benchmark workload for a fixed time and prints
// its metrics as one JSON line (the last line of standard output).
//
//   dollymp_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    [--snapshot PATH] [--trace-out PATH]
//   dollymp_perfbench --self-test [--snapshot PATH]
//
// --trace 0 repeats untraced rounds and reports the end-to-end metrics.
// --trace 1 alternates untraced and traced rounds and reports the per-layer
// metrics plus the tracing overhead; it fails if a traced round's
// deterministic outputs differ from the untraced ones.  perfbench/README.md
// defines every metric.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "checks.h"
#include "dollymp/common/stats.h"
#include "gauge.h"
#include "scenarios.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool self_test = false;
  std::string snapshot = "perfbench-snapshot.bin";
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "dollymp_perfbench: " << error
            << "\nusage: dollymp_perfbench --workload NAME --seed N --seconds S --trace 0|1"
               " [--snapshot PATH] [--trace-out PATH]\n"
               "       dollymp_perfbench --self-test [--snapshot PATH]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") opt.workload = value();
      else if (arg == "--seed") opt.seed = std::stoull(value());
      else if (arg == "--seconds") opt.seconds = std::stod(value());
      else if (arg == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        opt.trace = v == "1";
      } else if (arg == "--snapshot") opt.snapshot = value();
      else if (arg == "--trace-out") opt.trace_out = value();
      else if (arg == "--self-test") opt.self_test = true;
      else usage("unknown argument " + arg);
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (!opt.self_test) {
    const auto& names = workload_names();
    if (std::find(names.begin(), names.end(), opt.workload) == names.end()) {
      usage("--workload must name one of the benchmark's workloads");
    }
    if (!(opt.seconds > 0)) usage("--seconds must be positive");
  }
  return opt;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Metric name -> (samples, unit), printed in insertion order.
class Metrics {
 public:
  void add(const std::string& name, const std::string& unit, double value,
           bool host_time = false) {
    if (index_.find(name) == index_.end()) {
      index_[name] = entries_.size();
      entries_.push_back(Entry{name, unit, host_time, {}});
    }
    entries_[index_[name]].samples.push_back(value);
  }
  /// Samples of a host time, which scale_host_times() rescales.
  void add_host_time(const std::string& name, const std::string& unit,
                     const std::vector<double>& values) {
    for (const double v : values) add(name, unit, v, true);
  }
  void scale_host_times(double factor) {
    for (Entry& e : entries_) {
      if (!e.host_time) continue;
      for (double& v : e.samples) v *= factor;
    }
  }

  /// Human-readable summary, then the JSON line.
  void print(bool correct, long long attempted, long long failed) const {
    for (const Entry& e : entries_) {
      std::vector<double> s = e.samples;
      std::sort(s.begin(), s.end());
      std::printf("%-34s median %-14.6g %-6s min %-12.6g max %-12.6g n=%zu\n", e.name.c_str(),
                  median(s), e.unit.c_str(), s.front(), s.back(), s.size());
    }
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      double v = median(entries_[i].samples);
      if (!std::isfinite(v)) v = 0;
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                  entries_[i].name.c_str(), v, entries_[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  struct Entry {
    std::string name;
    std::string unit;
    bool host_time = false;
    std::vector<double> samples;
  };
  std::vector<Entry> entries_;
  std::map<std::string, std::size_t> index_;
};

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Checks one run, and its determinism against the run that must match it.
/// Returns whether it failed.
bool failed_run(const RunOutcome& run, const RunOutcome* reference, const std::string& what) {
  std::vector<std::string> bad = check_run(run);
  if (reference != nullptr && bad.empty() && reference->error.empty()) {
    bad = check_same(reference->fingerprint, run.fingerprint, run.policy + ": " + what);
  }
  for (const std::string& b : bad) std::cerr << "FAILED " << b << "\n";
  return !bad.empty();
}

/// Checks every run of a round and its determinism against a reference
/// round; the cycle run must also match its own round's unpaused run of the
/// same policy (pausing and checkpointing must not change decisions).
/// Returns the number of failed runs.
long long failures(const RoundResult& round, const RoundResult* reference,
                   const std::string& what) {
  long long failed = 0;
  for (std::size_t i = 0; i < round.runs.size(); ++i) {
    failed += failed_run(round.runs[i].outcome,
                         reference != nullptr ? &reference->runs[i].outcome : nullptr, what);
  }
  RunOutcome unpaused = round.runs.front().outcome;
  unpaused.fingerprint.snapshot_bytes = round.cycle.outcome.fingerprint.snapshot_bytes;
  if (failed_run(round.cycle.outcome, &unpaused, "cycle run against unpaused run") ||
      (reference != nullptr &&
       failed_run(round.cycle.outcome, &reference->cycle.outcome, "cycle " + what))) {
    ++failed;
  }
  return failed;
}

/// Host seconds of a round's policy runs (set-up and run), the part the
/// timing shims can slow down.
double policy_runs_s(const RoundResult& round) {
  double s = 0;
  for (const RunSample& r : round.runs) s += r.setup_s + r.run_s;
  return s;
}

void add_end_to_end(const Scenario& scenario, const RoundResult& round, Metrics& m) {
  for (std::size_t i = 0; i < round.runs.size(); ++i) {
    const RunSample& r = round.runs[i];
    if (!r.outcome.error.empty()) continue;
    const std::string& p = scenario.policies[i];
    m.add_host_time("setup_s", "s", {r.setup_s});
    m.add_host_time("run_s." + p, "s", {r.run_s});
    m.add("flow_mean_s." + p, "s", r.flow_mean_s);
  }
  const RunSample& c = round.cycle;
  if (!c.outcome.error.empty()) return;
  m.add_host_time("advance_s", "s", c.advance_s);
  m.add_host_time("checkpoint_ms", "ms", c.checkpoint_ms);
  m.add_host_time("restore_ms", "ms", c.restore_ms);
  m.add_host_time("fork_ms", "ms", c.fork_ms);
}

/// Per-layer values of one traced round, from its spans and counters.
void add_per_layer(const Scenario& scenario, const RoundResult& round, const Tracer& tracer,
                   Metrics& m) {
  const std::vector<Span>& spans = tracer.spans();
  const std::vector<std::int64_t> self = self_times_ns(spans);
  const std::size_t np = scenario.policies.size();
  std::vector<double> loop_self(np), sched_self(np), place(np), callbacks(np), finish(np);
  std::vector<double> build, gen, init;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double dur = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    const auto p = static_cast<std::size_t>(std::max(s.policy, 0));
    switch (s.kind) {
      case SpanKind::kStep:
        // A Session runs its own policy, unshimmed: its step self time
        // would include the policy, so the loop's share is not measured.
        if (scenario.kind == ScenarioKind::kBatch) {
          loop_self[p] += static_cast<double>(self[i]) * 1e-9;
        }
        callbacks[p] += static_cast<double>(s.agg_ns) * 1e-9;
        break;
      case SpanKind::kSchedule:
        sched_self[p] += static_cast<double>(self[i]) * 1e-9;
        place[p] += static_cast<double>(s.agg_ns) * 1e-9;
        break;
      case SpanKind::kFinish: finish[p] += dur; break;
      case SpanKind::kClusterBuild: build.push_back(dur); break;
      case SpanKind::kWorkloadGen: gen.push_back(dur); break;
      case SpanKind::kSimInit: init.push_back(dur); break;
      default: break;
    }
  }
  m.add("cluster.build_s", "s", median(build));
  m.add("workload.gen_s", "s", median(gen));
  m.add("sim.init_s", "s", median(init));
  const RunSample& first = round.runs.front();
  m.add("sim.table_bytes", "bytes", first.counts.table_bytes);
  m.add("sim.store_bytes", "bytes", first.counts.store_bytes);
  m.add("service.snapshot_bytes", "bytes",
        static_cast<double>(round.cycle.outcome.fingerprint.snapshot_bytes));
  m.add("service.specs_retained", "count", first.counts.specs_retained);
  m.add("service.live_jobs", "count", first.counts.live_jobs);
  m.add("service.store_bytes", "bytes", first.counts.service_store_bytes);
  m.add("obs.records", "count", first.counts.obs_records);
  for (std::size_t i = 0; i < np; ++i) {
    const std::string& p = scenario.policies[i];
    const RunSample& r = round.runs[i];
    const LayerCounts& c = r.counts;
    m.add("sim.loop_self_s." + p, "s", loop_self[i]);
    m.add("sim.events." + p, "count", c.events);
    m.add("sim.slots_visited." + p, "count", c.slots_visited);
    m.add("sim.finish_s." + p, "s", finish[i]);
    m.add("sim.place_s." + p, "s", place[i]);
    m.add("sim.place_calls." + p, "count", static_cast<double>(r.placements.calls));
    m.add("sim.place_accept_ratio." + p, "ratio",
          ratio(static_cast<double>(r.placements.accepted),
                static_cast<double>(r.placements.calls)));
    m.add("sched.self_s." + p, "s", sched_self[i]);
    m.add("sched.self_us_per_call." + p, "us",
          ratio(sched_self[i] * 1e6, static_cast<double>(r.schedule_calls)));
    m.add("sched.callback_s." + p, "s", callbacks[i]);
    m.add("sched.calls." + p, "count", static_cast<double>(r.schedule_calls));
    m.add("sched.useful_copy_ratio." + p, "ratio",
          ratio(static_cast<double>(r.outcome.copies_finished),
                static_cast<double>(r.outcome.copies_launched)));
    // Tetris scans the servers itself and never queries the PlacementIndex;
    // the simulator still keeps the index up to date for it.
    if (p != "tetris") {
      m.add("index.queries." + p, "count", c.index_queries);
      m.add("index.scanned_per_query." + p, "count", ratio(c.index_scanned, c.index_queries));
      m.add("index.batch_hit_ratio." + p, "ratio", ratio(c.index_batch_hits, c.index_queries));
    }
    m.add("index.updates." + p, "count", c.index_updates);
    m.add("sim.fault_kills." + p, "count", c.fault_kills);
    m.add("sim.work_lost_s." + p, "s", c.work_lost_s);
  }
}

int run_benchmark(const Options& opt) {
  const Scenario scenario = make_scenario(opt.workload, opt.seed);
  const std::int64_t start = now_ns();
  const auto elapsed = [&] { return static_cast<double>(now_ns() - start) * 1e-9; };
  Metrics metrics;
  long long attempted = 0;
  long long failed = 0;
  std::optional<RoundResult> reference;  // the first untraced round
  std::vector<double> untraced_wall;
  std::vector<double> traced_wall;
  std::vector<double> untraced_runs_s;
  std::vector<double> traced_runs_s;
  std::vector<double> gauge_s;
  Tracer tracer;
  bool trace_written = false;
  // Alternate untraced and traced rounds in a traced run; stop before a
  // round that would overrun the time budget.
  for (int round_no = 0;; ++round_no) {
    const bool traced = opt.trace && round_no % 2 == 1;
    std::vector<double> walls = untraced_wall;
    walls.insert(walls.end(), traced_wall.begin(), traced_wall.end());
    const bool have_minimum = !untraced_wall.empty() && (!opt.trace || !traced_wall.empty());
    if (have_minimum && elapsed() + median(walls) > opt.seconds) break;

    tracer.clear();
    // Hand freed heap pages back between rounds, so the peak resident size
    // is one round's working set, not heap growth over however many rounds
    // fit in the run.
    trim_heap();
    const RoundResult round =
        run_round(scenario, traced ? &tracer : nullptr, opt.snapshot);
    attempted += static_cast<long long>(round.runs.size()) + 1;
    gauge_s.insert(gauge_s.end(), round.gauge_s.begin(), round.gauge_s.end());
    // One line per round with the unscaled host times, for diagnosing noise.
    std::printf("# round %d%s: gauge %.4f s, unscaled run_s", round_no, traced ? " (traced)" : "",
                median(round.gauge_s));
    for (std::size_t i = 0; i < round.runs.size(); ++i) {
      std::printf(" %s=%.4f", scenario.policies[i].c_str(), round.runs[i].run_s);
    }
    std::printf("\n");
    failed += failures(round, reference ? &*reference : nullptr,
                       traced ? "traced run against untraced" : "round against first round");
    if (!reference && !traced) reference = round;
    if (traced) {
      traced_wall.push_back(round.wall_s);
      traced_runs_s.push_back(policy_runs_s(round));
      add_per_layer(scenario, round, tracer, metrics);
      if (!trace_written && !opt.trace_out.empty()) {
        write_chrome_trace(opt.trace_out, tracer.spans(), scenario.policies);
        trace_written = true;
      }
    } else {
      untraced_wall.push_back(round.wall_s);
      untraced_runs_s.push_back(policy_runs_s(round));
      if (!opt.trace) add_end_to_end(scenario, round, metrics);
    }
  }
  if (opt.trace) {
    metrics.add("trace.overhead_pct", "%",
                100.0 * (median(traced_runs_s) / median(untraced_runs_s) - 1.0));
  } else {
    // End-to-end host times in reference-host seconds (gauge.h).
    metrics.scale_host_times(host_scale(gauge_s));
    metrics.add("peak_rss_mb", "MB",
                static_cast<double>(dollymp::process_peak_rss_bytes()) / (1024.0 * 1024.0));
  }
  std::printf("# %s seed=%llu rounds: %zu untraced, %zu traced; %.3f s\n",
              scenario.name.c_str(), static_cast<unsigned long long>(opt.seed),
              untraced_wall.size(), traced_wall.size(), elapsed());
  std::printf("# host gauge: median pass %.4f s over %zu passes (reference %.4f s)\n",
              median(gauge_s), gauge_s.size(), kGaugeReferenceS);
  metrics.print(failed == 0, attempted, failed);
  return 0;
}

}  // namespace

int self_test(const std::string& snapshot);

}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Options opt = perfbench::parse(argc, argv);
  try {
    if (opt.self_test) return perfbench::self_test(opt.snapshot);
    return perfbench::run_benchmark(opt);
  } catch (const std::exception& e) {
    std::cerr << "dollymp_perfbench: " << e.what() << "\n";
    return 1;
  }
}
