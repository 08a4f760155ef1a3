// Invariant tests for the incremental free-capacity placement index.
//
// Strategy: drive a heterogeneous cluster through a long randomized
// sequence of place / release / fail / repair events, maintaining the
// index exactly as the simulator does, and after EVERY mutation check all
// four query kinds against brute-force linear references over the live
// cluster state — candidate sets, best-fit winners (including the
// lowest-id tie-break), first-fit, locality- and weight-aware picks.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <deque>
#include <set>
#include <utility>
#include <vector>

#include "dollymp/cluster/cluster.h"
#include "dollymp/cluster/locality.h"
#include "dollymp/cluster/placement_index.h"
#include "dollymp/common/rng.h"
#include "dollymp/sched/scheduler.h"
#include "dollymp/sim/runtime_state.h"

namespace dollymp {
namespace {

// Demands on the trace model's grid (integral CPU, 0.5 GB memory) so
// allocate/release round-trips are bitwise lossless.
const std::vector<Resources> kPalette = {
    {1, 2}, {1, 0.5}, {2, 8}, {4, 16}, {6, 12}, {8, 24}, {12, 48}};

/// Brute-force fitting set: every up server whose free capacity holds
/// `demand`, ascending id.
std::vector<ServerId> brute_force_candidates(const Cluster& cluster,
                                             const Resources& demand) {
  std::vector<ServerId> out;
  for (const auto& server : cluster.servers()) {
    if (server.can_fit(demand)) out.push_back(server.id());
  }
  return out;
}

/// The DollyMP straggler-aware linear scan, reproduced verbatim as the
/// reference for weighted_best_fit.
ServerId weighted_reference(const Cluster& cluster, const Resources& demand,
                            const std::vector<double>& multipliers,
                            const BlockPlacement* boost_block) {
  ServerId best = kInvalidServer;
  double best_score = -1.0;
  for (const auto& server : cluster.servers()) {
    if (!server.can_fit(demand)) continue;
    double score = demand.dot(server.free()) *
                   multipliers[static_cast<std::size_t>(server.id())];
    if (boost_block != nullptr) {
      for (const auto replica : boost_block->replicas) {
        if (replica == server.id()) {
          score *= 1.25;
          break;
        }
      }
    }
    if (score > best_score) {
      best_score = score;
      best = server.id();
    }
  }
  return best;
}

struct LiveCopy {
  ServerId server;
  Resources demand;
};

class IndexFuzzHarness {
 public:
  IndexFuzzHarness(Cluster cluster, std::uint64_t seed)
      : cluster_(std::move(cluster)),
        locality_({}, cluster_),
        index_(cluster_),
        rng_(seed),
        multipliers_(cluster_.size(), 1.0) {}

  void check_all_queries() {
    for (const Resources& demand : kPalette) {
      EXPECT_EQ(index_.fitting_candidates(demand),
                brute_force_candidates(cluster_, demand));
      EXPECT_EQ(index_.best_fit(demand), best_fit_server(cluster_, demand));
      EXPECT_EQ(index_.first_fit(demand), first_fit_server(cluster_, demand));

      TaskRuntime task;
      task.demand = demand;
      task.block = block_;
      EXPECT_EQ(index_.locality_aware(locality_, task.block, demand),
                locality_aware_server(cluster_, locality_, task));
      EXPECT_EQ(index_.weighted_best_fit(demand, &block_),
                weighted_reference(cluster_, demand, multipliers_, &block_));
      EXPECT_EQ(index_.weighted_best_fit(demand, nullptr),
                weighted_reference(cluster_, demand, multipliers_, nullptr));
    }
  }

  void random_op() {
    const auto roll = rng_() % 100;
    if (roll < 45) {
      place_one();
    } else if (roll < 75) {
      release_one();
    } else if (roll < 85) {
      fail_one();
    } else if (roll < 95) {
      repair_one();
    } else {
      reweight_one();
    }
    if (rng_.chance(0.2)) block_ = locality_.place_block(rng_);
  }

  [[nodiscard]] std::size_t live_copies() const { return live_.size(); }

 private:
  void place_one() {
    const Resources& demand = kPalette[rng_() % kPalette.size()];
    const ServerId sid = index_.best_fit(demand);
    if (sid == kInvalidServer) return;
    ASSERT_TRUE(cluster_.server(static_cast<std::size_t>(sid)).allocate(demand));
    index_.on_allocation_changed(sid);
    live_.push_back({sid, demand});
  }

  void release_one() {
    if (live_.empty()) return;
    const std::size_t pick = rng_() % live_.size();
    const LiveCopy copy = live_[pick];
    live_.erase(live_.begin() + static_cast<std::ptrdiff_t>(pick));
    cluster_.server(static_cast<std::size_t>(copy.server)).release(copy.demand);
    index_.on_allocation_changed(copy.server);
  }

  void fail_one() {
    const auto sid = static_cast<ServerId>(rng_() % cluster_.size());
    auto& server = cluster_.server(static_cast<std::size_t>(sid));
    if (server.is_down()) return;
    // Simulator order: mark down, retire from the index, then kill the
    // victim's copies (their releases land while the server is down).
    server.set_down(true);
    index_.on_server_down(sid);
    for (std::size_t i = live_.size(); i-- > 0;) {
      if (live_[i].server != sid) continue;
      server.release(live_[i].demand);
      index_.on_allocation_changed(sid);
      live_.erase(live_.begin() + static_cast<std::ptrdiff_t>(i));
    }
  }

  void repair_one() {
    const auto sid = static_cast<ServerId>(rng_() % cluster_.size());
    auto& server = cluster_.server(static_cast<std::size_t>(sid));
    if (!server.is_down()) return;
    server.set_down(false);
    index_.on_server_up(sid);
  }

  void reweight_one() {
    const auto sid = static_cast<ServerId>(rng_() % cluster_.size());
    const double weight = rng_.uniform(1.0 / 16.0, 2.0);
    multipliers_[static_cast<std::size_t>(sid)] = weight;
    index_.set_multiplier(sid, weight);
  }

  Cluster cluster_;
  LocalityModel locality_;
  PlacementIndex index_;
  Rng rng_;
  std::vector<double> multipliers_;
  std::vector<LiveCopy> live_;
  BlockPlacement block_;
};

TEST(PlacementIndex, RandomizedChurnMatchesBruteForce) {
  IndexFuzzHarness harness(Cluster::google_like(80), 17);
  harness.check_all_queries();  // pristine cluster
  for (int op = 0; op < 600; ++op) {
    harness.random_op();
    harness.check_all_queries();
  }
  EXPECT_GT(harness.live_copies(), 0u);
}

TEST(PlacementIndex, RandomizedChurnHeterogeneousTraceInventory) {
  IndexFuzzHarness harness(Cluster::google_trace(60), 23);
  for (int op = 0; op < 400; ++op) {
    harness.random_op();
    harness.check_all_queries();
  }
}

TEST(PlacementIndex, EmptyClusterAnswersInvalid) {
  Cluster cluster;
  PlacementIndex index(cluster);
  EXPECT_EQ(index.best_fit({1, 1}), kInvalidServer);
  EXPECT_EQ(index.first_fit({1, 1}), kInvalidServer);
  EXPECT_EQ(index.weighted_best_fit({1, 1}, nullptr), kInvalidServer);
  EXPECT_TRUE(index.fitting_candidates({1, 1}).empty());
  EXPECT_EQ(index.size(), 0u);
}

TEST(PlacementIndex, AllServersFailedAnswersInvalid) {
  Cluster cluster = Cluster::uniform(8, {4, 4});
  PlacementIndex index(cluster);
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    cluster.server(i).set_down(true);
    index.on_server_down(static_cast<ServerId>(i));
  }
  EXPECT_EQ(index.best_fit({1, 1}), kInvalidServer);
  EXPECT_EQ(index.first_fit({1, 1}), kInvalidServer);
  EXPECT_TRUE(index.fitting_candidates({1, 1}).empty());
  // Repair one: it must come back exactly as the linear scan sees it.
  cluster.server(3).set_down(false);
  index.on_server_up(3);
  EXPECT_EQ(index.best_fit({1, 1}), best_fit_server(cluster, {1, 1}));
  EXPECT_EQ(index.first_fit({1, 1}), 3);
}

TEST(PlacementIndex, CountersTrackQueriesAndUpdates) {
  Cluster cluster = Cluster::uniform(4, {4, 4});
  PlacementIndex index(cluster);
  EXPECT_EQ(index.counters().queries, 0u);
  (void)index.best_fit({1, 1});
  (void)index.first_fit({1, 1});
  EXPECT_EQ(index.counters().queries, 2u);
  ASSERT_TRUE(cluster.server(0).allocate({1, 1}));
  index.on_allocation_changed(0);
  EXPECT_EQ(index.counters().updates, 1u);
}

/// One index group as seen from outside: (class capacity, exact used vector).
using GroupKey = std::pair<std::array<double, Resources::kMaxDims>,
                           std::array<double, Resources::kMaxDims>>;

/// Every group a query must walk for `demand`: the distinct used vectors of
/// up servers in classes whose capacity holds the demand.  The index's
/// active lists hold exactly these, so this is the query's visit count.
std::size_t live_groups_for(const Cluster& cluster, const Resources& demand) {
  std::set<GroupKey> live;
  for (const auto& server : cluster.servers()) {
    if (server.is_down() || !demand.fits_within(server.capacity())) continue;
    live.insert({server.capacity().dims, server.used().dims});
  }
  return live.size();
}

// Off-grid demands (background load in the paper-30node runs) make used
// vectors continuous, so the group pool keeps growing long after most of
// its groups have drained.  A query must still visit only the live groups,
// and the servers_scanned counter must report exactly those visits — never
// the pool size, and never fewer than it walked.
TEST(PlacementIndex, WalkVisitsOnlyLiveGroupsAfterOffGridChurn) {
  Cluster cluster = Cluster::paper30();
  PlacementIndex index(cluster);
  Rng rng(31);
  std::vector<LiveCopy> live;
  std::set<GroupKey> pool;  // every group the index has ever been handed
  const auto note = [&](ServerId sid) {
    const Server& server = cluster.server(static_cast<std::size_t>(sid));
    if (!server.is_down()) pool.insert({server.capacity().dims, server.used().dims});
  };
  for (const auto& server : cluster.servers()) note(server.id());

  // Fail three servers (copies first released, as the simulator orders it)
  // so "up servers" is a real bound below the fleet size.
  const auto fail = [&](ServerId sid) {
    auto& server = cluster.server(static_cast<std::size_t>(sid));
    server.set_down(true);
    index.on_server_down(sid);
    for (std::size_t i = live.size(); i-- > 0;) {
      if (live[i].server != sid) continue;
      server.release(live[i].demand);
      index.on_allocation_changed(sid);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
    }
  };

  const std::vector<Resources> queries = {{1, 2},      {2, 8},        {4, 16},
                                          {8, 24},     {12, 48},      {0.37, 1.13},
                                          {3.3, 7.9},  {7.75, 15.5}};
  const auto check_queries = [&] {
    std::size_t up = 0;
    for (const auto& server : cluster.servers()) up += server.is_down() ? 0 : 1;
    for (const Resources& demand : queries) {
      const std::size_t visits = live_groups_for(cluster, demand);
      ASSERT_LE(visits, up);
      const auto scanned = [&] { return index.counters().servers_scanned; };

      std::uint64_t before = scanned();
      EXPECT_EQ(index.best_fit(demand), best_fit_server(cluster, demand));
      EXPECT_EQ(scanned() - before, visits);

      before = scanned();
      EXPECT_EQ(index.first_fit(demand), first_fit_server(cluster, demand));
      EXPECT_EQ(scanned() - before, visits);

      before = scanned();
      EXPECT_EQ(index.weighted_best_fit(demand, nullptr),
                weighted_reference(cluster, demand,
                                   std::vector<double>(cluster.size(), 1.0), nullptr));
      EXPECT_EQ(scanned() - before, visits);
    }
  };

  for (int op = 0; op < 6000; ++op) {
    if (op == 2000) fail(4);
    if (op == 3000) fail(11);
    if (op == 4000) fail(29);
    if (!live.empty() && rng.chance(0.45)) {
      const std::size_t pick = rng() % live.size();
      const LiveCopy copy = live[pick];
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      cluster.server(static_cast<std::size_t>(copy.server)).release(copy.demand);
      index.on_allocation_changed(copy.server);
      note(copy.server);
    } else {
      const Resources demand{rng.uniform(0.05, 2.5), rng.uniform(0.05, 5.0)};
      const auto sid = static_cast<ServerId>(rng() % cluster.size());
      auto& server = cluster.server(static_cast<std::size_t>(sid));
      if (!server.allocate(demand)) continue;
      index.on_allocation_changed(sid);
      live.push_back({sid, demand});
      note(sid);
    }
    if (op % 500 == 0) check_queries();
  }
  ASSERT_GE(pool.size(), 1000u);
  check_queries();
}

}  // namespace
}  // namespace dollymp
