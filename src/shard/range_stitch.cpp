// Cross-shard ordered operations: successor/predecessor spill waves and
// route-split range aggregation/collection (DESIGN.md §5.10).
//
// The contract is oracle equality: every answer is bit-identical to a
// single-Machine PimSkipList holding the union of the groups' contents.
// Two mechanisms deliver it:
//
//  * Clamping: a group's local answer only counts if it falls inside the
//    group's owned range [lo, hi). Keys physically present but outside
//    the owned range (the short-lived leftovers a faulted post-cutover
//    cleanup can leave behind) are never served.
//  * Spilling: a clamped miss re-asks the next group in key order (wave
//    by wave; each wave strictly advances the route cursor, so the loop
//    terminates). A spill that lands on a dead group answers kShardDown:
//    the true answer could live there, so no other key is ever returned.
//
// With replication, each group sub-query is served by the group's read
// member (the primary, skipping dead members) — one replica per wave, so
// the per-wave PIM cost matches the unreplicated store.
#include "shard/sharded_store.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace pim::shard {

namespace {

// One in-flight ordered query: original position, original query key and
// the group it is currently asking.
struct PendingNear {
  u64 pos = 0;
  Key key = 0;
  u32 group = 0;
};

// One clamped piece of a range query, inside one group's range.
struct RangePiece {
  u64 query = 0;  // index into the op's queries
  Key lo = 0;
  Key hi = 0;  // inclusive
};

}  // namespace

std::vector<ShardedPimStore::NearResult> ShardedPimStore::batch_successor(
    std::span<const Key> keys) {
  return batch_near(keys, /*forward=*/true);
}

std::vector<ShardedPimStore::NearResult> ShardedPimStore::batch_predecessor(
    std::span<const Key> keys) {
  return batch_near(keys, /*forward=*/false);
}

std::vector<ShardedPimStore::NearResult> ShardedPimStore::batch_near(
    std::span<const Key> keys, bool forward) {
  const u64 n = keys.size();
  std::vector<NearResult> out(n);
  std::vector<PendingNear> pending;
  pending.reserve(n);
  for (u64 i = 0; i < n; ++i) pending.push_back(PendingNear{i, keys[i], owning_group(keys[i])});

  struct Job : WaveJob<std::vector<core::PimSkipList::NearResult>> {
    std::vector<PendingNear> asks;
  };
  while (!pending.empty()) {
    // Group this wave's queries by the replica group they currently ask.
    std::vector<Job> jobs;
    for (auto& [group, idx] :
         split_by_group(pending.size(), [&](u64 i) { return pending[i].group; })) {
      const u32 slot = serving_member(group);
      if (slot == kNoSlot) {
        const Status down = shard_down_status(group);
        for (u64 pi : idx) out[pending[pi].pos].status = down;
        continue;
      }
      Job j;
      j.group = group;
      j.epoch = dispatch_epoch(group);
      j.calls = {{slot, {}, {}}};
      for (u64 pi : idx) j.asks.push_back(pending[pi]);
      jobs.push_back(std::move(j));
    }
    run_wave(jobs, [forward](core::PimSkipList& list, const Job& j) {
      std::vector<Key> sub;
      sub.reserve(j.asks.size());
      for (const PendingNear& a : j.asks) sub.push_back(a.key);
      return forward ? list.batch_successor(sub) : list.batch_predecessor(sub);
    });

    pending.clear();
    settle_wave(
        jobs,
        [&](Job& j, const Status&) {
          // The answers and their clamp bounds are from a configuration
          // that no longer exists. Re-ask the same group at the new epoch;
          // the range clamp re-spills anything the group no longer owns.
          pending.insert(pending.end(), j.asks.begin(), j.asks.end());
        },
        [&](Job& j) {
          const auto& c = j.calls.front();
          const auto [lo, hi] = group_range(j.group);  // clamp bounds
          // A miss spills to the neighbouring group, unless this group
          // owns the end of the key space in the direction of travel.
          const bool edge = forward ? hi == kMaxKey : lo == kMinKey;
          for (u64 k = 0; k < j.asks.size(); ++k) {
            const PendingNear& p = j.asks[k];
            if (c.failure.has_value()) {
              out[p.pos].status = *c.failure;
              continue;
            }
            const auto& r = c.out[k];
            if (r.found && (forward ? edge || r.key < hi : r.key >= lo)) {
              out[p.pos] = NearResult{Status(), true, r.key};
            } else if (edge) {
              out[p.pos] = NearResult{};  // no key beyond this end
            } else {
              pending.push_back(
                  PendingNear{p.pos, p.key, owning_group(forward ? hi : lo - 1)});
            }
          }
        });
  }
  return out;
}

// ---------------- route-split range operations ----------------

template <typename Job, typename Down>
std::vector<Job> ShardedPimStore::split_ranges(std::span<const RangeQuery> queries,
                                               Down&& down) {
  std::vector<Job> jobs;
  std::vector<u32> job_of(slots_.size(), static_cast<u32>(-1));
  for (u64 q = 0; q < queries.size(); ++q) {
    const Key lo = queries[q].lo, hi = queries[q].hi;
    if (lo > hi) continue;
    for (u32 idx = route_index(lo); idx < routes_.size() && routes_[idx].lo <= hi; ++idx) {
      const u32 group = routes_[idx].group;
      const Key top = route_top(idx);
      const RangePiece piece{q, std::max(lo, routes_[idx].lo),
                             top == kMaxKey ? hi : std::min(hi, top - 1)};
      const u32 slot = serving_member(group);
      if (slot == kNoSlot) {
        down(q, shard_down_status(group));
        continue;
      }
      if (job_of[slot] == static_cast<u32>(-1)) {
        job_of[slot] = static_cast<u32>(jobs.size());
        Job& j = jobs.emplace_back();
        j.group = group;
        j.epoch = dispatch_epoch(group);
        j.calls = {{slot, {}, {}}};
      }
      jobs[job_of[slot]].pieces.push_back(piece);
    }
  }
  return jobs;
}

ShardedPimStore::RangeResult ShardedPimStore::range_aggregate(Key lo, Key hi) {
  const RangeQuery query{lo, hi};
  return aggregate_ranges({&query, 1}, /*batched=*/false).front();
}

std::vector<ShardedPimStore::RangeResult> ShardedPimStore::batch_range_aggregate(
    std::span<const RangeQuery> queries) {
  return aggregate_ranges(queries, /*batched=*/true);
}

std::vector<ShardedPimStore::RangeResult> ShardedPimStore::aggregate_ranges(
    std::span<const RangeQuery> queries, bool batched) {
  std::vector<RangeResult> out(queries.size());
  struct Job : WaveJob<std::vector<RangeAgg>> {
    std::vector<RangePiece> pieces;
  };
  auto jobs = split_ranges<Job>(queries, [&](u64 q, Status down) { out[q].status = down; });
  run_wave(jobs, [batched](core::PimSkipList& list, const Job& j) {
    std::vector<RangeAgg> aggs;
    if (batched) {
      std::vector<RangeQuery> subs;
      for (const RangePiece& p : j.pieces) subs.push_back(RangeQuery{p.lo, p.hi});
      aggs = list.batch_range_aggregate(subs);
    } else {
      for (const RangePiece& p : j.pieces) aggs.push_back(list.range_count_broadcast(p.lo, p.hi));
    }
    return aggs;
  });

  // A failed piece fails its query (a kShardDown from the split wins);
  // the sum covers the pieces that answered.
  settle_wave(
      jobs,
      [&](Job& j, const Status& fenced) {
        for (const RangePiece& p : j.pieces) {
          if (out[p.query].status.ok()) out[p.query].status = fenced;
        }
      },
      [&](Job& j) {
        const auto& c = j.calls.front();
        for (u64 k = 0; k < j.pieces.size(); ++k) {
          RangeResult& r = out[j.pieces[k].query];
          if (c.failure.has_value()) {
            if (r.status.ok()) r.status = *c.failure;
            continue;
          }
          r.agg.count += c.out[k].count;
          r.agg.sum += c.out[k].sum;
        }
      });
  return out;
}

ShardedPimStore::CollectResult ShardedPimStore::range_collect(Key lo, Key hi) {
  CollectResult res;
  const RangeQuery query{lo, hi};
  struct Job : WaveJob<std::vector<std::pair<Key, Value>>> {
    std::vector<RangePiece> pieces;
  };
  auto jobs = split_ranges<Job>({&query, 1}, [&](u64, Status down) { res.status = down; });
  run_wave(jobs, [](core::PimSkipList& list, const Job& j) {
    std::vector<std::pair<Key, Value>> pairs;
    for (const RangePiece& p : j.pieces) {
      const auto part = list.range_collect_broadcast(p.lo, p.hi);
      pairs.insert(pairs.end(), part.begin(), part.end());
    }
    return pairs;
  });

  // A query meets each group once, so the jobs are in route order, and
  // route ranges are disjoint and ascending: appending keeps pairs sorted.
  auto fail = [&](const Status& st) {
    if (res.status.ok()) res.status = st;
  };
  settle_wave(
      jobs, [&](Job&, const Status& fenced) { fail(fenced); },
      [&](Job& j) {
        const auto& c = j.calls.front();
        if (c.failure.has_value()) return fail(*c.failure);
        res.pairs.insert(res.pairs.end(), c.out.begin(), c.out.end());
      });
  return res;
}

}  // namespace pim::shard
