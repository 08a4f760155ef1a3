#include "dollymp/cluster/background_load.h"

#include <stdexcept>

#include "dollymp/common/state_io.h"

namespace dollymp {

BackgroundLoadProcess::BackgroundLoadProcess(BackgroundLoadConfig config,
                                             std::size_t num_servers, std::uint64_t seed)
    : config_(config) {
  if (config_.mean_interval_seconds <= 0.0) {
    throw std::invalid_argument("BackgroundLoad: mean interval must be > 0");
  }
  if (config_.max_slowdown < 1.0) {
    throw std::invalid_argument("BackgroundLoad: max slowdown must be >= 1");
  }
  states_.resize(num_servers);
  reset(seed);
}

void BackgroundLoadProcess::reset(std::uint64_t seed) {
  Rng root(seed);
  for (std::size_t i = 0; i < states_.size(); ++i) {
    states_[i] = State{};
    states_[i].rng = root.split(i + 1);
    // Desynchronize renewal times across servers.
    states_[i].until_seconds = config_.mean_interval_seconds * states_[i].rng.uniform();
  }
}

void BackgroundLoadProcess::renew(State& s, double now) {
  const ExponentialDist interval(config_.mean_interval_seconds);
  while (s.until_seconds <= now) {
    s.until_seconds += std::max(1e-9, interval.sample(s.rng));
    if (config_.enabled && s.rng.chance(config_.contention_probability)) {
      const BoundedParetoDist tail(1.0, config_.slowdown_shape, config_.max_slowdown);
      s.slowdown = tail.sample(s.rng);
    } else {
      s.slowdown = 1.0;
    }
  }
}

void BackgroundLoadProcess::save_state(StateWriter& w) const {
  w.u64(states_.size());
  for (const State& s : states_) {
    w.fields(s.until_seconds, s.slowdown, s.rng.state());
  }
}

std::size_t BackgroundLoadProcess::state_bytes_bound() const {
  // Per server: segment end, slowdown and the four RNG state words.
  return 8 + states_.size() * (8 + 8 + 4 * 8);
}

void BackgroundLoadProcess::load_state(StateReader& r) {
  const std::uint64_t n = r.u64();
  if (n != states_.size()) {
    throw std::runtime_error("snapshot: background-load server count mismatch");
  }
  for (State& s : states_) {
    s.until_seconds = r.f64();
    s.slowdown = r.f64();
    std::array<std::uint64_t, 4> rs{};
    for (std::uint64_t& word : rs) word = r.u64();
    s.rng.set_state(rs);
  }
}

double BackgroundLoadProcess::slowdown(std::size_t server, double seconds) {
  if (!config_.enabled) return 1.0;
  State& s = states_.at(server);
  if (seconds >= s.until_seconds) renew(s, seconds);
  return s.slowdown;
}

}  // namespace dollymp
