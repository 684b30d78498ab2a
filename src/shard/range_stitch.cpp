// Cross-shard range operations: route-split range aggregation and
// collection (DESIGN.md §5.10). Successor and predecessor are point
// classes of batch_window (sharded_store.cpp).
//
// The contract is oracle equality: every answer is bit-identical to a
// single-Machine PimSkipList holding the union of the groups' contents.
// A query splits by the route table into pieces clamped to each group's
// owned range [lo, hi), one job per serving slot (the group's read
// member, so the per-wave PIM cost matches the unreplicated store), and
// the partial results merge in route order. A dead group in the path
// fails the query with kShardDown: a silently missing middle would be a
// wrong answer, not a degraded one.
#include "shard/sharded_store.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace pim::shard {

namespace {

// One clamped piece of a range query, inside one group's range.
struct RangePiece {
  u64 query = 0;  // index into the op's queries
  Key lo = 0;
  Key hi = 0;  // inclusive
};

}  // namespace

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
  run_wave(jobs, [batched](core::PimSkipList& list, const Job& j, std::vector<RangeAgg>& aggs) {
    if (batched) {
      std::vector<RangeQuery> subs;
      for (const RangePiece& p : j.pieces) subs.push_back(RangeQuery{p.lo, p.hi});
      aggs = list.batch_range_aggregate(subs);
    } else {
      for (const RangePiece& p : j.pieces) aggs.push_back(list.range_count_broadcast(p.lo, p.hi));
    }
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
  run_wave(jobs, [](core::PimSkipList& list, const Job& j, Pairs& out) {
    for (const RangePiece& p : j.pieces) {
      const auto part = list.range_collect_broadcast(p.lo, p.hi);
      out.insert(out.end(), part.begin(), part.end());
    }
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
