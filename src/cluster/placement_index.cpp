#include "dollymp/cluster/placement_index.h"

#include <algorithm>
#include <functional>

#include "dollymp/common/thread_pool.h"

namespace dollymp {

namespace {

/// The shared winner comparator: reproduces an ascending-id linear scan with
/// a strict `score > best` test, i.e. max score with lowest-id tie break.
inline bool beats(double score, ServerId id, double best_score, ServerId best) {
  return score > best_score || (score == best_score && id < best);
}

/// Server::can_fit for an up member, evaluated once per group: members share
/// a value-identical used vector, so the expression answers for all of them.
inline bool group_fits(const Resources& used, const Resources& demand,
                       const Resources& capacity) {
  return (used + demand).fits_within(capacity);
}

/// Server::free(), evaluated once per group — the same float expression on
/// value-identical inputs yields the member servers' exact free vector.
inline Resources group_free(const Resources& capacity, const Resources& used) {
  return (capacity - used).clamped();
}

}  // namespace

PlacementIndex::PlacementIndex(const Cluster& cluster) : cluster_(&cluster) {
  const std::size_t n = cluster.size();
  class_of_.assign(n, -1);
  group_of_.assign(n, kNoGroup);
  multiplier_.assign(n, 1.0);

  int max_rack = -1;
  for (const auto& server : cluster.servers()) max_rack = std::max(max_rack, server.rack());
  rack_classes_.assign(static_cast<std::size_t>(max_rack + 1), {});

  for (const auto& server : cluster.servers()) {
    const auto id = static_cast<std::size_t>(server.id());
    std::int32_t cls = -1;
    for (std::size_t c = 0; c < classes_.size(); ++c) {
      if (classes_[c].capacity == server.capacity()) {
        cls = static_cast<std::int32_t>(c);
        break;
      }
    }
    if (cls < 0) {
      cls = static_cast<std::int32_t>(classes_.size());
      ResourceClass rc;
      rc.capacity = server.capacity();
      classes_.push_back(std::move(rc));
    }
    class_of_[id] = cls;
    // Hierarchical level: bucket by (rack, class), first-seen class order
    // within each rack.  Ascending server ids keep each bucket sorted.
    auto& buckets = rack_classes_[static_cast<std::size_t>(server.rack())];
    RackClassBucket* bucket = nullptr;
    for (auto& b : buckets) {
      if (b.cls == cls) {
        bucket = &b;
        break;
      }
    }
    if (bucket == nullptr) {
      buckets.push_back({cls, 0, {}});
      bucket = &buckets.back();
    }
    bucket->members.push_back(server.id());
  }
  // Index descending so each insert appends at the tail of its group's
  // descending member vector — O(1) instead of a full-vector shift.
  for (std::size_t i = cluster.size(); i-- > 0;) {
    const Server& server = cluster.server(i);
    if (!server.is_down()) index_server(server.id());
  }
}

PlacementIndex::RackClassBucket& PlacementIndex::bucket_of(ServerId id) {
  const auto i = static_cast<std::size_t>(id);
  const int rack = cluster_->server(i).rack();
  for (auto& bucket : rack_classes_[static_cast<std::size_t>(rack)]) {
    if (bucket.cls == class_of_[i]) return bucket;
  }
  // Unreachable: every server was bucketed at construction.
  return rack_classes_[static_cast<std::size_t>(rack)].front();
}

std::int32_t PlacementIndex::group_for(ResourceClass& cls, const Resources& used) {
  // Exact per-dimension key (see the equality-policy note in resources.h):
  // lexicographic over all dimensions, which reproduces the historical
  // (cpu, mem) pair ordering when the extra dimensions are all zero.  The
  // map and the pool only grow; a slot created here costs queries nothing
  // once it drains, because they walk the active list alone.
  const std::array<double, Resources::kMaxDims>& key = used.dims;
  const auto it = cls.lookup.find(key);
  if (it != cls.lookup.end()) return it->second;
  const auto gid = static_cast<std::int32_t>(cls.groups.size());
  Group group;
  group.used = used;
  cls.groups.push_back(std::move(group));
  cls.lookup.emplace(key, gid);
  return gid;
}

void PlacementIndex::add_member(ResourceClass& cls, std::int32_t gid, ServerId id) {
  Group& group = cls.groups[static_cast<std::size_t>(gid)];
  if (group.members.empty()) {
    group.prev = kNoGroup;
    group.next = cls.active_head;
    if (cls.active_head != kNoGroup) {
      cls.groups[static_cast<std::size_t>(cls.active_head)].prev = gid;
    }
    cls.active_head = gid;
  }
  // Members are sorted DESCENDING: the tie-break winner (lowest id) is
  // back(), and — because queries prefer low ids — allocation churn
  // concentrates at low ids, whose insert/erase shifts only the short
  // low-id suffix.  Ascending order would memmove the entire million-entry
  // idle group on every touch of its front.
  group.members.insert(std::lower_bound(group.members.begin(), group.members.end(), id,
                                        std::greater<ServerId>()),
                       id);
}

void PlacementIndex::remove_member(ResourceClass& cls, std::int32_t gid, ServerId id) {
  Group& group = cls.groups[static_cast<std::size_t>(gid)];
  group.members.erase(std::lower_bound(group.members.begin(), group.members.end(), id,
                                       std::greater<ServerId>()));
  if (group.members.empty()) {
    // Unlink from the active list but keep the pool slot and the vector's
    // capacity: churn revisits the same used vectors, so steady-state
    // maintenance never allocates.
    if (group.prev != kNoGroup) {
      cls.groups[static_cast<std::size_t>(group.prev)].next = group.next;
    } else {
      cls.active_head = group.next;
    }
    if (group.next != kNoGroup) {
      cls.groups[static_cast<std::size_t>(group.next)].prev = group.prev;
    }
    group.prev = group.next = kNoGroup;
  }
}

void PlacementIndex::index_server(ServerId id) {
  const auto i = static_cast<std::size_t>(id);
  ResourceClass& cls = classes_[static_cast<std::size_t>(class_of_[i])];
  const std::int32_t gid = group_for(cls, cluster_->server(i).used());
  add_member(cls, gid, id);
  group_of_[i] = gid;
  ++bucket_of(id).up_count;
}

void PlacementIndex::deindex_server(ServerId id) {
  const auto i = static_cast<std::size_t>(id);
  ResourceClass& cls = classes_[static_cast<std::size_t>(class_of_[i])];
  remove_member(cls, group_of_[i], id);
  group_of_[i] = kNoGroup;
  --bucket_of(id).up_count;
}

void PlacementIndex::on_allocation_changed(ServerId id) {
  ++counters_.updates;
  const auto i = static_cast<std::size_t>(id);
  const std::int32_t old_gid = group_of_[i];
  if (old_gid == kNoGroup) return;  // down: re-indexed on repair
  ResourceClass& cls = classes_[static_cast<std::size_t>(class_of_[i])];
  const Resources& used = cluster_->server(i).used();
  if (cls.groups[static_cast<std::size_t>(old_gid)].used == used) return;
  remove_member(cls, old_gid, id);
  const std::int32_t gid = group_for(cls, used);
  add_member(cls, gid, id);
  group_of_[i] = gid;
}

void PlacementIndex::on_server_down(ServerId id) {
  ++counters_.updates;
  if (group_of_[static_cast<std::size_t>(id)] == kNoGroup) return;
  deindex_server(id);
}

void PlacementIndex::on_server_up(ServerId id) {
  ++counters_.updates;
  if (group_of_[static_cast<std::size_t>(id)] != kNoGroup) return;
  index_server(id);
}

void PlacementIndex::set_multiplier(ServerId id, double weight) {
  double& slot = multiplier_[static_cast<std::size_t>(id)];
  nonneutral_ += static_cast<int>(weight != 1.0) - static_cast<int>(slot != 1.0);
  slot = weight;
}

double PlacementIndex::multiplier(ServerId id) const {
  return multiplier_[static_cast<std::size_t>(id)];
}

ServerId PlacementIndex::best_fit(const Resources& demand) const {
  ++counters_.queries;
  ServerId best = kInvalidServer;
  double best_score = -1.0;
  for (const auto& cls : classes_) {
    if (!demand.fits_within(cls.capacity)) continue;
    for (std::int32_t gid = cls.active_head; gid != kNoGroup;
         gid = cls.groups[static_cast<std::size_t>(gid)].next) {
      const Group& group = cls.groups[static_cast<std::size_t>(gid)];
      ++counters_.servers_scanned;
      if (!group_fits(group.used, demand, cls.capacity)) continue;
      const double score = demand.dot(group_free(cls.capacity, group.used));
      const ServerId id = group.members.back();
      if (beats(score, id, best_score, best)) {
        best_score = score;
        best = id;
      }
    }
  }
  return best;
}

ServerId PlacementIndex::first_fit(const Resources& demand) const {
  ++counters_.queries;
  ServerId best = kInvalidServer;
  for (const auto& cls : classes_) {
    if (!demand.fits_within(cls.capacity)) continue;
    for (std::int32_t gid = cls.active_head; gid != kNoGroup;
         gid = cls.groups[static_cast<std::size_t>(gid)].next) {
      const Group& group = cls.groups[static_cast<std::size_t>(gid)];
      ++counters_.servers_scanned;
      if (!group_fits(group.used, demand, cls.capacity)) continue;
      const ServerId id = group.members.back();
      if (best == kInvalidServer || id < best) best = id;
    }
  }
  return best;
}

ServerId PlacementIndex::locality_aware(const LocalityModel& locality,
                                        const BlockPlacement& block,
                                        const Resources& demand) const {
  ++counters_.queries;
  // Node-local replica first, in replica order — same as the linear helper.
  for (const ServerId replica : block.replicas) {
    ++counters_.servers_scanned;
    if (cluster_->server(static_cast<std::size_t>(replica)).can_fit(demand)) {
      return replica;
    }
  }
  // Rack-local pass.  classify() == kRack requires sharing a rack with a
  // replica (and locality enabled, replicas present), so enumerating the
  // replicas' rack member lists covers exactly the linear scan's candidates;
  // the explicit tie break makes enumeration order irrelevant.
  ServerId best_rack = kInvalidServer;
  double best_rack_score = -1.0;
  if (locality.config().enabled && !block.replicas.empty()) {
    for (std::size_t r = 0; r < block.replicas.size(); ++r) {
      const int rack =
          cluster_->server(static_cast<std::size_t>(block.replicas[r])).rack();
      bool seen = false;
      for (std::size_t q = 0; q < r && !seen; ++q) {
        seen = cluster_->server(static_cast<std::size_t>(block.replicas[q])).rack() == rack;
      }
      if (seen) continue;
      // Hierarchical walk: a bucket whose class cannot hold the demand, or
      // whose members are all down/quarantined, is pruned whole — every
      // pruned member would have failed can_fit, and `beats` makes the
      // remaining enumeration order irrelevant.
      for (const auto& bucket : rack_classes_[static_cast<std::size_t>(rack)]) {
        if (bucket.up_count == 0) continue;
        if (!demand.fits_within(classes_[static_cast<std::size_t>(bucket.cls)].capacity)) {
          continue;
        }
        for (const ServerId id : bucket.members) {
          ++counters_.servers_scanned;
          const Server& server = cluster_->server(static_cast<std::size_t>(id));
          if (!server.can_fit(demand)) continue;
          if (locality.classify(block, id) != LocalityLevel::kRack) continue;
          const double score = demand.dot(server.free());
          if (beats(score, id, best_rack_score, best_rack)) {
            best_rack_score = score;
            best_rack = id;
          }
        }
      }
    }
  }
  if (best_rack != kInvalidServer) return best_rack;
  return best_fit(demand);
}

ServerId PlacementIndex::weighted_best_fit(const Resources& demand,
                                           const BlockPlacement* boost_block) const {
  ++counters_.queries;
  ServerId best = kInvalidServer;
  double best_score = -1.0;
  const auto consider = [&](ServerId id, double score) {
    if (beats(score, id, best_score, best)) {
      best_score = score;
      best = id;
    }
  };
  if (nonneutral_ == 0) {
    // Every multiplier is exactly 1.0, so non-replica members of a group are
    // score-tied and the lowest id stands in for all of them.  A replica's
    // 1.25 boost can only raise its score above its group's, so overlaying
    // each fitting replica as its own candidate keeps the candidate set's
    // maximum under `beats` equal to the full linear scan's winner.  (A
    // replica that is also a group representative appears twice, but its
    // boosted entry dominates its plain one, so the duplicate is inert.)
    for (const auto& cls : classes_) {
      if (!demand.fits_within(cls.capacity)) continue;
      for (std::int32_t gid = cls.active_head; gid != kNoGroup;
           gid = cls.groups[static_cast<std::size_t>(gid)].next) {
        const Group& group = cls.groups[static_cast<std::size_t>(gid)];
        ++counters_.servers_scanned;
        if (!group_fits(group.used, demand, cls.capacity)) continue;
        consider(group.members.back(),
                 demand.dot(group_free(cls.capacity, group.used)));
      }
    }
    if (boost_block != nullptr) {
      for (const ServerId replica : boost_block->replicas) {
        ++counters_.servers_scanned;
        const Server& server = cluster_->server(static_cast<std::size_t>(replica));
        if (!server.can_fit(demand)) continue;
        consider(replica, demand.dot(server.free()) * 1.25);
      }
    }
    return best;
  }
  // Straggler-aware multipliers are per server, so members must be scored
  // individually — but the fit test and the base score still collapse to
  // one evaluation per group.  The fitting groups are gathered into spans
  // first (same class/active-list/member order as the direct nested walk),
  // then the flattened member range is scored — serially, or sharded
  // across the worker pool.  Per-member scores are pure (no accumulation),
  // and `beats` is a strict total order over (score, id), so the maximum
  // of per-shard maxima equals the serial walk's winner bit for bit
  // regardless of shard count.
  scratch_spans_.clear();
  scratch_offsets_.clear();
  std::size_t total_members = 0;
  for (const auto& cls : classes_) {
    if (!demand.fits_within(cls.capacity)) continue;
    for (std::int32_t gid = cls.active_head; gid != kNoGroup;
         gid = cls.groups[static_cast<std::size_t>(gid)].next) {
      const Group& group = cls.groups[static_cast<std::size_t>(gid)];
      if (!group_fits(group.used, demand, cls.capacity)) continue;
      scratch_spans_.push_back({&group, demand.dot(group_free(cls.capacity, group.used))});
      scratch_offsets_.push_back(total_members);
      total_members += group.members.size();
    }
  }
  counters_.servers_scanned += total_members;

  // Score members [begin, end) of the flattened span range into a local
  // winner — the shared body of the serial and sharded paths.
  const auto scan_range = [&](std::size_t begin, std::size_t end, ServerId& out_best,
                              double& out_score) {
    ServerId local_best = kInvalidServer;
    double local_score = -1.0;
    std::size_t span = static_cast<std::size_t>(
        std::upper_bound(scratch_offsets_.begin(), scratch_offsets_.end(), begin) -
        scratch_offsets_.begin() - 1);
    std::size_t i = begin;
    while (i < end) {
      const WeightedSpan& ws = scratch_spans_[span];
      const std::size_t span_begin = scratch_offsets_[span];
      const std::size_t span_end = span_begin + ws.group->members.size();
      const std::size_t stop = std::min(end, span_end);
      for (; i < stop; ++i) {
        const ServerId id = ws.group->members[i - span_begin];
        double score = ws.base * multiplier_[static_cast<std::size_t>(id)];
        if (boost_block != nullptr) {
          for (const ServerId replica : boost_block->replicas) {
            if (replica == id) {
              score *= 1.25;
              break;
            }
          }
        }
        if (beats(score, id, local_score, local_best)) {
          local_score = score;
          local_best = id;
        }
      }
      ++span;
    }
    out_best = local_best;
    out_score = local_score;
  };

  const std::size_t shards = shard_count(pool_, total_members);
  if (shards < 2) {
    ServerId serial_best = kInvalidServer;
    double serial_score = -1.0;
    if (total_members > 0) scan_range(0, total_members, serial_best, serial_score);
    if (serial_best != kInvalidServer) consider(serial_best, serial_score);
    return best;
  }
  scratch_best_.assign(shards, kInvalidServer);
  scratch_score_.assign(shards, -1.0);
  run_shards(pool_, shards, total_members,
             [&](std::size_t s, std::size_t begin, std::size_t end) {
               scan_range(begin, end, scratch_best_[s], scratch_score_[s]);
             });
  for (std::size_t s = 0; s < shards; ++s) {
    if (scratch_best_[s] != kInvalidServer) consider(scratch_best_[s], scratch_score_[s]);
  }
  if (shard_stats_ != nullptr) shard_stats_->note(shards, total_members);
  return best;
}

std::vector<ServerId> PlacementIndex::fitting_candidates(const Resources& demand) const {
  std::vector<ServerId> out;
  for (const auto& cls : classes_) {
    if (!demand.fits_within(cls.capacity)) continue;
    for (std::int32_t gid = cls.active_head; gid != kNoGroup;
         gid = cls.groups[static_cast<std::size_t>(gid)].next) {
      const Group& group = cls.groups[static_cast<std::size_t>(gid)];
      if (!group_fits(group.used, demand, cls.capacity)) continue;
      out.insert(out.end(), group.members.begin(), group.members.end());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace dollymp
