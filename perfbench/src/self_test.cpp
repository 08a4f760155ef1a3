// The benchmark's self-test: runs every workload at a smoke size, requires
// its outputs to pass every check, then corrupts one output at a time and
// requires the matching check to fire, so no check can pass silently.
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "checks.h"
#include "scenarios.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

class Expect {
 public:
  void that(bool ok, const std::string& what) {
    ++checked_;
    if (!ok) {
      ++failed_;
      std::cerr << "self-test FAILED: " << what << "\n";
    }
  }
  /// `check` must report at least one violation containing `needle`.
  void fires(const std::vector<std::string>& violations, const std::string& needle,
             const std::string& what) {
    bool found = false;
    for (const std::string& v : violations) found = found || v.find(needle) != std::string::npos;
    that(found, what + " (expected a violation mentioning '" + needle + "')");
  }
  [[nodiscard]] int failed() const { return failed_; }
  [[nodiscard]] int checked() const { return checked_; }

 private:
  int checked_ = 0;
  int failed_ = 0;
};

/// Corrupt one field of a correct outcome at a time.
void corrupt_outcome(const RunOutcome& good, const std::string& label, Expect& expect) {
  const auto fires = [&](const std::function<void(RunOutcome&)>& corrupt,
                         const std::string& needle, const std::string& what) {
    RunOutcome bad = good;
    corrupt(bad);
    expect.fires(check_run(bad), needle, label + ": " + what);
  };
  fires([](RunOutcome& o) { o.error = "injected"; }, "run threw", "a thrown run");
  fires([](RunOutcome& o) { o.jobs_completed -= 1; }, good.streaming ? "jobs not conserved"
                                                                     : "left incomplete",
        "an incomplete job");
  if (good.streaming) {
    fires([](RunOutcome& o) { o.jobs_live += 1; }, "jobs not conserved", "a phantom live job");
  } else {
    fires([](RunOutcome& o) { o.leaked_cpu = 1.0; }, "leaked_cpu", "leaked CPU");
    fires([](RunOutcome& o) { o.leaked_mem = 0.5; }, "leaked_mem", "leaked memory");
    fires([](RunOutcome& o) { o.active_copies = 1; }, "leaked_active_copies",
          "a leaked active copy");
  }
  fires([](RunOutcome& o) { o.copies_launched += 1; }, "copies not conserved",
        "an unaccounted copy");
  fires([](RunOutcome& o) { o.copies_killed += 1; }, "copies not conserved",
        "a double-counted kill");
  if (!good.cycles.empty()) {
    fires([](RunOutcome& o) { o.cycles.back().restored ^= 1; }, "restored copy diverged",
          "a diverged restore");
    fires([](RunOutcome& o) { o.cycles.front().forked ^= 1; }, "fork diverged",
          "a diverged fork");
  }

  const Fingerprint f = good.fingerprint;
  const auto differs = [&](const std::function<void(Fingerprint&)>& corrupt,
                           const std::string& field) {
    Fingerprint bad = f;
    corrupt(bad);
    expect.fires(check_same(f, bad, "x"), field, label + ": a changed " + field);
  };
  differs([](Fingerprint& g) { g.events += 1; }, "events");
  differs([](Fingerprint& g) { g.placements += 1; }, "placements");
  differs([](Fingerprint& g) { g.copies_launched += 1; }, "copies launched");
  differs([](Fingerprint& g) { g.copies_killed += 1; }, "copies killed");
  differs([](Fingerprint& g) { g.slots_visited += 1; }, "slots visited");
  differs([](Fingerprint& g) { g.index_queries += 1; }, "index queries");
  differs([](Fingerprint& g) { g.flowtime_sum_s += 5.0; }, "total flowtime");
  differs([](Fingerprint& g) { g.stream_hash ^= 1; }, "stream hash");
  differs([](Fingerprint& g) { g.snapshot_bytes += 1; }, "snapshot bytes");
}

}  // namespace

int self_test(const std::string& snapshot) {
  Expect expect;
  for (const std::string& name : workload_names()) {
    const Scenario scenario = make_scenario(name, 7, /*smoke=*/true);
    const RoundResult first = run_round(scenario, nullptr, snapshot);
    const RoundResult second = run_round(scenario, nullptr, snapshot);
    Tracer tracer;
    const RoundResult traced = run_round(scenario, &tracer, snapshot);
    for (std::size_t i = 0; i <= first.runs.size(); ++i) {
      const bool cycle = i == first.runs.size();
      const auto pick = [&](const RoundResult& r) -> const RunOutcome& {
        return cycle ? r.cycle.outcome : r.runs[i].outcome;
      };
      const RunOutcome& o = pick(first);
      const std::string label = name + "/" + o.policy + (cycle ? " (cycle run)" : "");
      for (const std::string& v : check_run(o)) expect.that(false, label + ": " + v);
      expect.that(check_same(o.fingerprint, pick(second).fingerprint, "").empty(),
                  label + ": a repeated round reproduces the first");
      expect.that(check_same(o.fingerprint, pick(traced).fingerprint, "").empty(),
                  label + ": the traced round matches the untraced one");
      expect.that(o.fingerprint.events > 0 && o.copies_launched > 0,
                  label + ": the run did work");
      corrupt_outcome(o, label, expect);
    }
    expect.that(!first.cycle.outcome.cycles.empty() && first.runs.front().outcome.cycles.empty(),
                name + ": only the cycle run took checkpoint cycles, and they were probed");
    expect.that(!tracer.spans().empty(), name + ": the traced round recorded spans");

    // The cycle run pauses; pausing and checkpointing must not change its
    // decisions.
    Fingerprint unpaused = first.runs.front().outcome.fingerprint;
    unpaused.snapshot_bytes = first.cycle.outcome.fingerprint.snapshot_bytes;
    expect.that(check_same(unpaused, first.cycle.outcome.fingerprint, "").empty(),
                name + ": the cycle run matches the unpaused run");
  }

  // The harness records a run that throws as a failed run, not a crash.
  Scenario broken = make_scenario("trace-30k", 7, /*smoke=*/true);
  broken.policies = {"no-such-policy"};
  const RoundResult thrown = run_round(broken, nullptr, snapshot);
  expect.fires(check_run(thrown.runs.front().outcome), "run threw",
               "a policy that throws is a failed run");

  std::cout << "self-test: " << expect.checked() - expect.failed() << " of "
            << expect.checked() << " checks passed\n";
  return expect.failed() == 0 ? 0 : 1;
}

}  // namespace perfbench
