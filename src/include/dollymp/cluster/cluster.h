// The cluster: an indexed set of heterogeneous servers plus the standard
// inventories used throughout the evaluation.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "dollymp/cluster/server.h"
#include "dollymp/common/resources.h"

namespace dollymp {

/// A group of identical servers, used to describe inventories compactly.
struct ServerGroup {
  ServerSpec spec;
  int count = 1;
};

class Cluster {
 public:
  Cluster();
  explicit Cluster(const std::vector<ServerGroup>& groups);
  // The server table lives behind a unique_ptr so Server views stay valid
  // across Cluster moves; copies deep-copy the table and rebind the views
  // (the simulator copies the prototype cluster per run).
  Cluster(const Cluster& other);
  Cluster& operator=(const Cluster& other);
  Cluster(Cluster&&) noexcept = default;
  Cluster& operator=(Cluster&&) noexcept = default;

  [[nodiscard]] std::size_t size() const { return servers_.size(); }
  [[nodiscard]] bool empty() const { return servers_.empty(); }
  [[nodiscard]] Server& server(std::size_t i) { return servers_.at(i); }
  [[nodiscard]] const Server& server(std::size_t i) const { return servers_.at(i); }
  [[nodiscard]] std::vector<Server>& servers() { return servers_; }
  [[nodiscard]] const std::vector<Server>& servers() const { return servers_; }

  /// Total capacity across servers (the denominators of Eq. 9 / Eq. 15).
  [[nodiscard]] const Resources& total_capacity() const { return total_; }
  /// Sum of free resources right now.
  [[nodiscard]] Resources total_free() const;
  /// Sum of allocated resources right now.
  [[nodiscard]] Resources total_used() const;
  /// Utilization of each dimension in [0,1]; max over dimensions.
  [[nodiscard]] double utilization() const;

  [[nodiscard]] int rack_count() const { return rack_count_; }

  /// The struct-of-arrays hot-state storage behind the Server views.
  [[nodiscard]] ServerTable& table() { return *table_; }
  [[nodiscard]] const ServerTable& table() const { return *table_; }

  void add_server(ServerSpec spec);
  /// Pre-size the table (large inventories build reallocation-free).
  void reserve(std::size_t servers);
  void reset_allocations();

  /// Checkpoint/restore: delegate to ServerTable::save_state/load_state and
  /// rebuild the Server views plus the derived totals, so a snapshot alone
  /// reconstructs the cluster in a fresh process.
  void save_state(StateWriter& w) const;
  void load_state(StateReader& r);
  /// Upper bound on the bytes save_state appends (SimCore sizes the
  /// checkpoint buffer from the sum over its layers).
  [[nodiscard]] std::size_t state_bytes_bound() const;

  // ----- standard inventories ---------------------------------------------

  /// The paper's private 30-node cluster (Section 6.1): 2 servers with 24
  /// cores / 48 GB, 7 servers with 16 cores / 32-64 GB, 21 servers with 8
  /// cores / 16 GB; 328 cores total, two racks.  Fast servers get a higher
  /// base speed (heterogeneity is what creates stragglers in Fig. 1).
  static Cluster paper30();

  /// Scaled-down Google-like heterogeneous inventory for the trace-driven
  /// simulations of Section 6.3 (the paper uses >30K servers; the default
  /// here keeps wall-clock reasonable while preserving heterogeneity mix —
  /// pass a larger `servers` to go bigger).
  static Cluster google_like(std::size_t servers);

  /// Full-scale trace inventory (Section 6.3): the paper replays Google
  /// traces on >30,000 servers.  Four machine shapes over racks of 48 —
  /// feasible to simulate thanks to the incremental PlacementIndex, and
  /// (with the struct-of-arrays ServerTable) cheap to build at 300K and
  /// 1,000,000 servers for the ROADMAP's million-server target (see
  /// bench/scale_step.cpp).
  static Cluster google_trace(std::size_t servers = 30'000);

  /// Mixed ML/analytics inventory for the GPU gang-scheduling scenario:
  /// per 8 machines, 2 are 8-GPU training nodes (64 cores / 256 GB / 8
  /// GPUs) and 6 are CPU-only 16-core workers, over racks of 16.  GPUs are
  /// the scarce integral third resource dimension (SimConfig::resource_dims
  /// = 3); gang-scheduled training steps compete with CPU analytics jobs
  /// for the hosts.
  static Cluster gpu_pods(std::size_t servers);

  /// Single server with the given (normalized) capacity — the transient
  /// setting of Sections 4.1/4.2 and the Fig. 2 example.
  static Cluster single(Resources capacity, double base_speed = 1.0);

  /// Homogeneous cluster (for controlled tests).
  static Cluster uniform(std::size_t servers, Resources capacity, double base_speed = 1.0);

 private:
  std::unique_ptr<ServerTable> table_;
  std::vector<Server> servers_;  ///< views into table_, one per row
  Resources total_;
  int rack_count_ = 0;
};

}  // namespace dollymp
