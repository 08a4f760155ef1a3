// Online straggler-aware server scoring — the paper's stated future work
// (Section 8: "apply online learning methods to quickly identify those
// servers that can easily lead to stragglers").
//
// Each completed copy yields one observation: the ratio of its realized
// running time to the phase's expected duration theta.  Per server we
// maintain an exponentially-weighted moving average of that ratio; servers
// whose recent copies run slow (static slowness, contention from
// background load, remote reads) accumulate a slowdown estimate > 1 and
// can be deprioritized when placing new copies and clones.  The EWMA
// forgets, so a server recovers its score once contention passes —
// matching the paper's observation that background load changes over time.
//
// The estimator is deliberately simple (no distributional assumptions):
// with a forgetting factor alpha, the estimate tracks a piecewise-constant
// slowdown with O(1/alpha) sample lag, and a pseudo-count prior keeps cold
// servers neutral so exploration is free.
#pragma once

#include <cstddef>
#include <vector>

#include "dollymp/cluster/server.h"

namespace dollymp {

class StateWriter;
class StateReader;

struct ServerScorerConfig {
  /// EWMA forgetting factor in (0, 1]; higher adapts faster.
  double ewma_alpha = 0.25;
  /// Neutral prior slowdown and its pseudo-weight (in samples): a server
  /// with few observations stays close to 1.0.
  double prior_slowdown = 1.0;
  double prior_weight = 3.0;
  /// Estimates are clamped to [1/max_slowdown, max_slowdown].
  double max_slowdown = 16.0;
};

class ServerScorer {
 public:
  ServerScorer(std::size_t num_servers, ServerScorerConfig config = {});

  /// Record one finished copy: `expected_seconds` is the phase's theta,
  /// `actual_seconds` the realized wall-clock running time on `server`.
  /// Killed copies must NOT be reported (their durations are censored by
  /// the surviving sibling and would bias the estimate down).
  void observe(ServerId server, double expected_seconds, double actual_seconds);

  /// Current slowdown estimate (>= 1/max, <= max); 1.0 means nominal.
  [[nodiscard]] double estimated_slowdown(ServerId server) const;

  [[nodiscard]] std::size_t samples(ServerId server) const;
  [[nodiscard]] std::size_t size() const { return states_.size(); }

  /// Multiplier to apply to a placement score (higher is better): the
  /// reciprocal of the estimated slowdown.
  [[nodiscard]] double placement_weight(ServerId server) const {
    return 1.0 / estimated_slowdown(server);
  }

  void reset();

  /// Checkpoint/restore of the learned estimates (state_io framing).
  /// load_state resizes to the serialized server count, so a
  /// default-sized instance can be restored directly.
  void save_state(StateWriter& w) const;
  void load_state(StateReader& r);
  /// Upper bound on the bytes save_state appends (SimCore sizes the
  /// checkpoint buffer from the sum over its layers).
  [[nodiscard]] std::size_t state_bytes_bound() const;

 private:
  struct State {
    double ewma = 1.0;
    double weight = 0.0;  ///< effective sample mass behind the EWMA
    std::size_t count = 0;
  };

  ServerScorerConfig config_;
  std::vector<State> states_;
};

}  // namespace dollymp
