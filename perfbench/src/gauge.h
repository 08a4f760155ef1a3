// Host-speed gauge.  The host this benchmark runs on changes speed by a
// quarter or more over minutes (other tenants' load on the shared caches and
// memory), which moves every host time alike and no median within one run
// can absorb.  So a run also times a fixed kernel before each simulated run,
// one that shares the simulator's sensitivity to that load (pointer chasing
// in a std::map, then a std::sort), and reports its end-to-end host times
// scaled by kGaugeReferenceS / (the run's median gauge time): seconds at the
// speed of the reference host.  The kernel is part of the benchmark, not of
// the library, and runs in memory of its own, so no change to the library
// moves it.
#pragma once

#include <vector>

namespace perfbench {

/// Median seconds of one gauge pass on the reference host (perfbench/README.md).
inline constexpr double kGaugeReferenceS = 0.090;

/// Run the kernel once and return its host seconds.
[[nodiscard]] double gauge_pass();

/// kGaugeReferenceS over the median of `passes`: the factor that turns this
/// host's seconds into reference-host seconds.
[[nodiscard]] double host_scale(std::vector<double> passes);

}  // namespace perfbench
