// Sharded-store tier tests (DESIGN.md §5.10): routing exactness against
// the batch reference model, parallel-vs-serial dispatch equivalence,
// and the chaos acceptance contract — killing one shard mid-workload
// fails exactly that shard's keys (never the batch), and failover to a
// spare restores full availability with zero lost acknowledged writes.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "reference_model.hpp"
#include "shard/sharded_store.hpp"
#include "test_util.hpp"

namespace pim {
namespace {

using shard::ShardOptions;
using shard::ShardState;
using shard::ShardedPimStore;
using test::Ref;

ShardOptions small_opts(bool parallel = true) {
  ShardOptions o;
  o.shards = 4;
  o.spares = 1;
  o.modules_per_shard = 8;
  o.domain_lo = 0;
  o.domain_hi = 1'000'000'000;
  o.parallel_dispatch = parallel;
  return o;
}

/// Applies one upsert batch to the tracker exactly as acknowledged:
/// positions whose status is kOk, first occurrence of a key wins.
void track_acked_upserts(Ref& acked, std::span<const std::pair<Key, Value>> ops,
                         const std::vector<Status>& st) {
  std::set<Key> seen;
  for (u64 i = 0; i < ops.size(); ++i) {
    if (!seen.insert(ops[i].first).second) continue;
    if (st[i].ok()) acked[ops[i].first] = ops[i].second;
  }
}

void track_acked_deletes(Ref& acked, std::span<const Key> keys,
                         const std::vector<ShardedPimStore::FlagResult>& st) {
  for (u64 i = 0; i < keys.size(); ++i) {
    if (st[i].status.ok()) acked.erase(keys[i]);
  }
}

TEST(ShardedStore, RouterAndBatchOpsMatchReference) {
  ShardedPimStore store(small_opts());
  rnd::Xoshiro256ss rng(0x5AA4D01u);
  const auto pairs = test::make_sorted_pairs(1500, rng);
  store.build(pairs);
  Ref ref(pairs.begin(), pairs.end());
  ASSERT_EQ(store.size(), ref.size());

  for (u32 round = 0; round < 6; ++round) {
    // Upserts: fresh keys plus rewrites, with duplicates in the batch.
    std::vector<std::pair<Key, Value>> ups;
    for (u32 i = 0; i < 48; ++i) ups.emplace_back(rng.range(0, 1'000'000'000), rng());
    ups.push_back(ups.front());  // duplicate: first occurrence must win
    const auto ust = store.batch_upsert(ups);
    for (const Status& s : ust) EXPECT_TRUE(s.ok()) << s.to_string();
    test::ref_upsert(ref, ups);

    // Updates against a mix of present and missing keys.
    std::vector<std::pair<Key, Value>> upd;
    for (u32 i = 0; i < 16; ++i) upd.emplace_back(test::existing_key(ref, rng), rng());
    upd.emplace_back(rng.range(0, 1'000'000'000), rng());
    const auto updres = store.batch_update(upd);
    const auto reffound = test::ref_update(ref, upd);
    for (u64 i = 0; i < upd.size(); ++i) {
      ASSERT_TRUE(updres[i].status.ok());
      EXPECT_EQ(updres[i].found, reffound[i] != 0) << "update pos " << i;
    }

    // Deletes.
    std::vector<Key> dels;
    for (u32 i = 0; i < 12; ++i) dels.push_back(test::existing_key(ref, rng));
    dels.push_back(rng.range(0, 1'000'000'000));
    const auto delres = store.batch_delete(dels);
    const auto refdel = test::ref_delete(ref, dels);
    for (u64 i = 0; i < dels.size(); ++i) {
      ASSERT_TRUE(delres[i].status.ok());
      EXPECT_EQ(delres[i].found, refdel[i] != 0) << "delete pos " << i;
    }

    // Gets.
    std::vector<Key> gets;
    for (u32 i = 0; i < 24; ++i) gets.push_back(test::existing_key(ref, rng));
    for (u32 i = 0; i < 8; ++i) gets.push_back(rng.range(0, 1'000'000'000));
    const auto gres = store.batch_get(gets);
    for (u64 i = 0; i < gets.size(); ++i) {
      ASSERT_TRUE(gres[i].status.ok());
      auto it = ref.find(gets[i]);
      EXPECT_EQ(gres[i].found, it != ref.end());
      if (it != ref.end()) {
        EXPECT_EQ(gres[i].value, it->second);
      }
    }

    // Ordered queries stitch across shard boundaries.
    std::vector<Key> near;
    for (u32 i = 0; i < 16; ++i) near.push_back(rng.range(0, 1'000'000'000));
    const auto succ = store.batch_successor(near);
    const auto pred = store.batch_predecessor(near);
    for (u64 i = 0; i < near.size(); ++i) {
      ASSERT_TRUE(succ[i].status.ok());
      auto it = ref.lower_bound(near[i]);
      EXPECT_EQ(succ[i].found, it != ref.end());
      if (it != ref.end()) {
        EXPECT_EQ(succ[i].key, it->first);
      }

      ASSERT_TRUE(pred[i].status.ok());
      auto pit = ref.upper_bound(near[i]);
      EXPECT_EQ(pred[i].found, pit != ref.begin());
      if (pit != ref.begin()) {
        EXPECT_EQ(pred[i].key, std::prev(pit)->first);
      }
    }

    // Range aggregation across all four shards.
    const Key lo = rng.range(0, 500'000'000);
    const Key hi = lo + static_cast<Key>(rng.range(0, 500'000'000));
    const auto agg = store.range_aggregate(lo, hi);
    ASSERT_TRUE(agg.status.ok());
    const auto [rc, rs] = test::ref_range(ref, lo, hi);
    EXPECT_EQ(agg.agg.count, rc);
    EXPECT_EQ(agg.agg.sum, rs);
  }

  // Full-space collect equals the reference map exactly.
  const auto all = store.range_collect(kMinKey, kMaxKey);
  ASSERT_TRUE(all.status.ok());
  const std::vector<std::pair<Key, Value>> expect(ref.begin(), ref.end());
  EXPECT_EQ(all.pairs, expect);
  EXPECT_EQ(store.size(), ref.size());
  store.check_invariants();
}

TEST(ShardedStore, ParallelAndSerialDispatchAgree) {
  // Every fan-out, first at R = 1, then at R = 2 with quorum writes and
  // quorum reads (the quorum consult and the multi-member write merge).
  for (const u32 replication : {1u, 2u}) {
    SCOPED_TRACE("replication " + std::to_string(replication));
    ShardOptions opts = small_opts(/*parallel=*/true);
    opts.replication = replication;
    opts.write_quorum = replication;
    opts.quorum_reads = replication > 1;
    ShardedPimStore par_store(opts);
    opts.parallel_dispatch = false;
    ShardedPimStore ser_store(opts);
    rnd::Xoshiro256ss rng(0xD15BA7C4u);
    const auto pairs = test::make_sorted_pairs(800, rng);
    par_store.build(pairs);
    ser_store.build(pairs);
    auto some_key = [&] {
      return rng() % 2 == 0 ? pairs[rng() % pairs.size()].first
                            : static_cast<Key>(rng.range(0, 1'000'000'000));
    };

    for (u32 round = 0; round < 4; ++round) {
      std::vector<std::pair<Key, Value>> ups;
      for (u32 i = 0; i < 64; ++i) ups.emplace_back(rng.range(0, 1'000'000'000), rng());
      const auto a = par_store.batch_upsert(ups);
      const auto b = ser_store.batch_upsert(ups);
      for (u64 i = 0; i < ups.size(); ++i) EXPECT_EQ(a[i].code(), b[i].code());

      std::vector<std::pair<Key, Value>> upd;
      for (u32 i = 0; i < 32; ++i) upd.emplace_back(some_key(), rng());
      const auto ua = par_store.batch_update(upd);
      const auto ub = ser_store.batch_update(upd);
      for (u64 i = 0; i < upd.size(); ++i) {
        EXPECT_EQ(ua[i].status.code(), ub[i].status.code());
        EXPECT_EQ(ua[i].found, ub[i].found);
      }

      std::vector<Key> dels;
      for (u32 i = 0; i < 16; ++i) dels.push_back(some_key());
      const auto da = par_store.batch_delete(dels);
      const auto db = ser_store.batch_delete(dels);
      for (u64 i = 0; i < dels.size(); ++i) {
        EXPECT_EQ(da[i].status.code(), db[i].status.code());
        EXPECT_EQ(da[i].found, db[i].found);
      }

      std::vector<Key> gets;
      for (u32 i = 0; i < 64; ++i) gets.push_back(rng.range(0, 1'000'000'000));
      const auto ga = par_store.batch_get(gets);
      const auto gb = ser_store.batch_get(gets);
      for (u64 i = 0; i < gets.size(); ++i) {
        EXPECT_EQ(ga[i].status.code(), gb[i].status.code());
        EXPECT_EQ(ga[i].found, gb[i].found);
        EXPECT_EQ(ga[i].value, gb[i].value);
      }

      for (const bool forward : {true, false}) {
        const auto sa = forward ? par_store.batch_successor(gets)
                                : par_store.batch_predecessor(gets);
        const auto sb = forward ? ser_store.batch_successor(gets)
                                : ser_store.batch_predecessor(gets);
        for (u64 i = 0; i < gets.size(); ++i) {
          EXPECT_EQ(sa[i].status.code(), sb[i].status.code());
          EXPECT_EQ(sa[i].found, sb[i].found);
          EXPECT_EQ(sa[i].key, sb[i].key);
        }
      }

      std::vector<ShardedPimStore::RangeQuery> queries;
      for (u32 i = 0; i < 8; ++i) {
        const Key lo = rng.range(0, 1'000'000'000);
        queries.push_back({lo, lo + static_cast<Key>(rng.range(0, 400'000'000))});
      }
      const auto ra = par_store.range_aggregate(queries[0].lo, queries[0].hi);
      const auto rb = ser_store.range_aggregate(queries[0].lo, queries[0].hi);
      EXPECT_EQ(ra.status.code(), rb.status.code());
      EXPECT_EQ(ra.agg.count, rb.agg.count);
      EXPECT_EQ(ra.agg.sum, rb.agg.sum);
      const auto qa = par_store.batch_range_aggregate(queries);
      const auto qb = ser_store.batch_range_aggregate(queries);
      for (u64 i = 0; i < queries.size(); ++i) {
        EXPECT_EQ(qa[i].status.code(), qb[i].status.code());
        EXPECT_EQ(qa[i].agg.count, qb[i].agg.count);
        EXPECT_EQ(qa[i].agg.sum, qb[i].agg.sum);
      }
    }
    const auto ca = par_store.range_collect(kMinKey, kMaxKey);
    const auto cb = ser_store.range_collect(kMinKey, kMaxKey);
    EXPECT_EQ(ca.status.code(), cb.status.code());
    EXPECT_EQ(ca.pairs, cb.pairs);
    EXPECT_EQ(par_store.size(), ser_store.size());
    EXPECT_EQ(par_store.quorum_read_resolves(), ser_store.quorum_read_resolves());
  }
}

// ---------------------------------------------------------------------
// The point-op window (batch_window): one fan-out for all six classes.
// ---------------------------------------------------------------------

void expect_same(const ShardedPimStore::WindowResult& a, const ShardedPimStore::WindowResult& b) {
  ASSERT_EQ(a.upserts.size(), b.upserts.size());
  for (u64 i = 0; i < a.upserts.size(); ++i) EXPECT_EQ(a.upserts[i].code(), b.upserts[i].code());
  for (const auto& [x, y] : {std::pair{&a.updates, &b.updates}, {&a.deletes, &b.deletes}}) {
    ASSERT_EQ(x->size(), y->size());
    for (u64 i = 0; i < x->size(); ++i) {
      EXPECT_EQ((*x)[i].status.code(), (*y)[i].status.code());
      EXPECT_EQ((*x)[i].found, (*y)[i].found);
    }
  }
  ASSERT_EQ(a.gets.size(), b.gets.size());
  for (u64 i = 0; i < a.gets.size(); ++i) {
    EXPECT_EQ(a.gets[i].status.code(), b.gets[i].status.code());
    EXPECT_EQ(a.gets[i].found, b.gets[i].found);
    EXPECT_EQ(a.gets[i].value, b.gets[i].value);
  }
  for (const auto& [x, y] :
       {std::pair{&a.successors, &b.successors}, {&a.predecessors, &b.predecessors}}) {
    ASSERT_EQ(x->size(), y->size());
    for (u64 i = 0; i < x->size(); ++i) {
      EXPECT_EQ((*x)[i].status.code(), (*y)[i].status.code());
      EXPECT_EQ((*x)[i].found, (*y)[i].found);
      EXPECT_EQ((*x)[i].key, (*y)[i].key);
    }
  }
}

/// The six one-class calls of a window, in its class order.
ShardedPimStore::WindowResult run_one_class_calls(ShardedPimStore& store,
                                                  const ShardedPimStore::WindowRequest& w) {
  ShardedPimStore::WindowResult r;
  r.upserts = store.batch_upsert(w.upserts);
  r.updates = store.batch_update(w.updates);
  r.deletes = store.batch_delete(w.deletes);
  r.gets = store.batch_get(w.gets);
  r.successors = store.batch_successor(w.successors);
  r.predecessors = store.batch_predecessor(w.predecessors);
  return r;
}

TEST(ShardedStore, WindowMatchesOneClassCallsInOneWave) {
  // A fault-free window makes, on every member machine, the same batch
  // calls in the same order as the six one-class calls do on a twin
  // store: the results and every slot's model metrics are equal, and a
  // window whose ordered reads do not spill runs as exactly one wave.
  struct Config {
    u32 replication, write_quorum;
    bool quorum_reads;
  };
  for (const Config cfg : {Config{1, 1, false}, Config{2, 2, false}, Config{2, 2, true}}) {
    SCOPED_TRACE("R " + std::to_string(cfg.replication) + " wq " +
                 std::to_string(cfg.write_quorum) + " quorum reads " +
                 std::to_string(cfg.quorum_reads));
    ShardOptions opts = small_opts();
    opts.replication = cfg.replication;
    opts.write_quorum = cfg.write_quorum;
    opts.quorum_reads = cfg.quorum_reads;
    ShardedPimStore a(opts);
    ShardedPimStore b(opts);
    rnd::Xoshiro256ss rng(0x3141D0u);
    const auto pairs = test::make_sorted_pairs(800, rng);
    a.build(pairs);
    b.build(pairs);

    // Stored keys split five ways. The window never deletes a key it
    // probes, and a probe of a stored key answers inside its own group,
    // so no successor or predecessor spills.
    ShardedPimStore::WindowRequest w;
    for (u64 i = 0; i + 4 < pairs.size(); i += 5) {
      w.updates.emplace_back(pairs[i].first, rng());
      w.deletes.push_back(pairs[i + 1].first);
      w.successors.push_back(pairs[i + 2].first);
      w.predecessors.push_back(pairs[i + 3].first);
      w.gets.push_back(pairs[i + 4].first);
    }
    for (u32 i = 0; i < 64; ++i) {
      w.upserts.emplace_back(rng.range(0, 1'000'000'000), rng());
      w.gets.push_back(w.upserts.back().first);
      w.gets.push_back(rng.range(0, 1'000'000'000));
    }
    const u64 waves = a.waves();
    const auto got = a.batch_window(w);
    EXPECT_EQ(a.waves() - waves, 1u);
    expect_same(got, run_one_class_calls(b, w));
    for (const auto& s : got.successors) EXPECT_TRUE(s.found);
    for (u32 s = 0; s < a.slots(); ++s) {
      const sim::Machine* ma = a.shard_machine(s);
      const sim::Machine* mb = b.shard_machine(s);
      ASSERT_EQ(ma == nullptr, mb == nullptr);
      if (ma == nullptr) continue;
      EXPECT_EQ(ma->rounds(), mb->rounds()) << "slot " << s;
      EXPECT_EQ(ma->io_time(), mb->io_time()) << "slot " << s;
      EXPECT_EQ(ma->messages(), mb->messages()) << "slot " << s;
      for (u32 m = 0; m < ma->modules(); ++m) {
        EXPECT_EQ(ma->module_work(m), mb->module_work(m)) << "slot " << s << " module " << m;
      }
    }

    // Random probes spill across groups in follow-up waves; the answers
    // still match the one-class calls.
    ShardedPimStore::WindowRequest spill;
    for (u32 i = 0; i < 64; ++i) {
      spill.upserts.emplace_back(rng.range(0, 1'000'000'000), rng());
      spill.deletes.push_back(rng.range(0, 1'000'000'000));
      spill.gets.push_back(rng.range(0, 1'000'000'000));
      spill.successors.push_back(rng.range(0, 1'000'000'000));
      spill.predecessors.push_back(rng.range(0, 1'000'000'000));
    }
    spill.successors.push_back(kMaxKey);  // answers at the top edge
    spill.predecessors.push_back(kMinKey);
    expect_same(a.batch_window(spill), run_one_class_calls(b, spill));
    a.check_invariants();
  }
}

TEST(ShardedStore, WindowReadNeverSeesItsRefusedWrite) {
  // R = 2, write quorum 2, one member dead: the window's upsert reaches
  // one member and is refused, and the same window's get of that key is
  // served again after the refusal, from the converged survivor.
  ShardOptions opts = small_opts();
  opts.replication = 2;
  opts.write_quorum = 2;
  ShardedPimStore store(opts);
  rnd::Xoshiro256ss rng(0x0D15C0u);
  const auto pairs = test::make_sorted_pairs(400, rng);
  store.build(pairs);
  const auto [k, v] = pairs[7];
  const u32 group = store.group_of(store.route(k));
  store.kill_shard(store.group_members(group)[0]);

  ShardedPimStore::WindowRequest w;
  w.upserts = {{k, v + 1}};
  w.gets = {k};
  const auto r = store.batch_window(w);
  EXPECT_EQ(r.upserts[0].code(), StatusCode::kNoQuorum) << r.upserts[0].to_string();
  ASSERT_TRUE(r.gets[0].status.ok()) << r.gets[0].status.to_string();
  EXPECT_TRUE(r.gets[0].found);
  EXPECT_EQ(r.gets[0].value, v) << "a read saw the write its group refused";
}

TEST(ShardedStore, WindowReadSeesTheAckedWriteItsServingMemberMissed) {
  // R = 3, write quorum 2: half the modules of the group's serving
  // member are down, so it misses the writes those modules home while
  // the other two members ack them. The window's gets of the written
  // keys are served again after the merge, from the serving member once
  // it has converged, and return the new acked values.
  ShardOptions opts = small_opts();
  opts.shards = 2;
  opts.replication = 3;
  opts.write_quorum = 2;
  ShardedPimStore store(opts);
  rnd::Xoshiro256ss rng(0x5EA3D0u);
  const auto pairs = test::make_sorted_pairs(400, rng);
  store.build(pairs);
  const u32 primary = store.group_primary(0);
  const auto [lo, hi] = store.group_range(0);
  const Key probe = pairs.front().first;
  ASSERT_EQ(store.route(probe), primary);

  // The crashes strike during one of the primary's partial gets, which
  // reads around a down module instead of recovering it.
  const sim::Machine* m = store.shard_machine(primary);
  sim::FaultPlan plan;
  plan.enabled = true;
  plan.seed = 0x0FF11Eu;
  const u64 at = m->rounds() + 64;
  for (u32 mod = 0; mod < opts.modules_per_shard / 2; ++mod) {
    plan.crashes.push_back(sim::CrashEvent{mod, at});
  }
  store.set_shard_fault_plan(primary, plan);
  ASSERT_LT(m->rounds(), at);
  for (u32 i = 0; i < 256 && m->rounds() <= at; ++i) (void)store.batch_get(std::vector<Key>{probe});
  ASSERT_EQ(m->down_count(), opts.modules_per_shard / 2);
  ASSERT_EQ(store.route(probe), primary);

  ShardedPimStore::WindowRequest w;
  for (u32 i = 0; i < 32; ++i) {
    const Key k = std::max<Key>(lo, 0) + static_cast<Key>(rng.below(400'000'000));
    ASSERT_LT(k, hi);
    w.upserts.emplace_back(k, rng());
    w.gets.push_back(k);
  }
  const u64 waves = store.waves();
  const auto r = store.batch_window(w);
  EXPECT_EQ(store.waves() - waves, 2u);
  // serving_member converged the primary (its repair recovers the down
  // modules) before it served the gets again.
  EXPECT_EQ(store.shard_machine(primary)->down_count(), 0u);
  std::map<Key, Value> first;  // duplicate upsert keys: the first occurrence wins
  for (const auto& [k, v] : w.upserts) first.emplace(k, v);
  for (u64 i = 0; i < w.gets.size(); ++i) {
    EXPECT_TRUE(r.upserts[i].ok()) << r.upserts[i].to_string();
    ASSERT_TRUE(r.gets[i].status.ok()) << r.gets[i].status.to_string();
    EXPECT_TRUE(r.gets[i].found);
    EXPECT_EQ(r.gets[i].value, first.at(w.gets[i])) << "key " << w.gets[i];
  }
  store.check_invariants();
}

TEST(ShardedStore, WindowFencedWritesStayInvisibleAndGetsServeAtTheNewEpoch) {
  // A zombie dispatch (test_age_dispatch): the window's writes come back
  // kFencedEpoch and are never journaled or seen, and its gets ask once
  // more at the group's current epoch and are served.
  ShardOptions opts = small_opts();
  opts.replication = 2;
  ShardedPimStore store(opts);
  rnd::Xoshiro256ss rng(0xFE7CEDu);
  const auto pairs = test::make_sorted_pairs(400, rng);
  store.build(pairs);
  const auto [k, v] = pairs[3];
  const u32 group = store.group_of(store.route(k));
  const u64 journal = store.group_journal_records(group);
  const u64 refusals = store.fence_refusals();

  store.test_age_dispatch(group);
  ShardedPimStore::WindowRequest w;
  w.upserts = {{k, v + 1}};
  w.deletes = {pairs[4].first};
  w.gets = {k, pairs[4].first};
  const auto r = store.batch_window(w);
  EXPECT_EQ(r.upserts[0].code(), StatusCode::kFencedEpoch) << r.upserts[0].to_string();
  EXPECT_EQ(r.deletes[0].status.code(), StatusCode::kFencedEpoch);
  EXPECT_EQ(store.group_journal_records(group), journal);
  EXPECT_GT(store.fence_refusals(), refusals);
  for (u64 i = 0; i < 2; ++i) {
    ASSERT_TRUE(r.gets[i].status.ok()) << r.gets[i].status.to_string();
    EXPECT_TRUE(r.gets[i].found);
    EXPECT_EQ(r.gets[i].value, pairs[3 + i].second) << "a fenced write is visible";
  }
  store.check_invariants();
}

TEST(ShardedStore, KillFailsExactlyItsKeysAndFailoverLosesNoAckedWrite) {
  ShardedPimStore store(small_opts());
  rnd::Xoshiro256ss rng(0xFA110Fu);
  const auto pairs = test::make_sorted_pairs(1200, rng);
  store.build(pairs);
  Ref acked(pairs.begin(), pairs.end());

  // A few acknowledged write batches before the failure.
  for (u32 round = 0; round < 3; ++round) {
    std::vector<std::pair<Key, Value>> ups;
    for (u32 i = 0; i < 64; ++i) ups.emplace_back(rng.range(0, 1'000'000'000), rng());
    track_acked_upserts(acked, ups, store.batch_upsert(ups));
    std::vector<Key> dels;
    for (u32 i = 0; i < 8; ++i) dels.push_back(test::existing_key(acked, rng));
    track_acked_deletes(acked, dels, store.batch_delete(dels));
  }

  const u32 victim = 1;
  store.kill_shard(victim);
  EXPECT_EQ(store.shard_state(victim), ShardState::kDead);
  EXPECT_EQ(store.live_shards(), 3u);

  // A batch spanning all shards: the victim's keys answer kShardDown,
  // every other key still succeeds — the batch is never wedged.
  std::vector<Key> gets;
  for (u32 i = 0; i < 128; ++i) gets.push_back(rng.range(0, 1'000'000'000));
  const auto gres = store.batch_get(gets);
  u32 down = 0, ok = 0;
  for (u64 i = 0; i < gets.size(); ++i) {
    if (store.route(gets[i]) == victim) {
      EXPECT_EQ(gres[i].status.code(), StatusCode::kShardDown) << "pos " << i;
      ++down;
    } else {
      EXPECT_TRUE(gres[i].status.ok()) << gres[i].status.to_string();
      ++ok;
    }
  }
  EXPECT_GT(down, 0u);
  EXPECT_GT(ok, 0u);

  // Writes into the dead range are rejected (not silently dropped): the
  // rejection means they are NOT acknowledged, so losing them is not a
  // durability violation.
  std::vector<std::pair<Key, Value>> ups;
  for (u32 i = 0; i < 32; ++i) ups.emplace_back(rng.range(0, 1'000'000'000), rng());
  track_acked_upserts(acked, ups, store.batch_upsert(ups));

  // Failover replays the victim's checkpoint + journal into the spare.
  const auto st = store.failover(victim);
  ASSERT_TRUE(st.ok()) << st.to_string();
  EXPECT_EQ(store.live_shards(), 4u);
  for (const Key k : gets) EXPECT_NE(store.route(k), victim);

  // Zero lost acknowledged writes: the store now equals the acked
  // tracker exactly — every acked upsert present with its value, every
  // acked delete gone, nothing extra.
  const auto all = store.range_collect(kMinKey, kMaxKey);
  ASSERT_TRUE(all.status.ok());
  const std::vector<std::pair<Key, Value>> expect(acked.begin(), acked.end());
  EXPECT_EQ(all.pairs, expect);
  store.check_invariants();
}

TEST(ShardedStore, ModuleCrashStormIsContainedThenHealthFailStopsTheShard) {
  auto opts = small_opts();
  opts.shard_breaker_strikes = 1;
  ShardedPimStore store(opts);
  rnd::Xoshiro256ss rng(0xC4A5Du);
  const auto pairs = test::make_sorted_pairs(1000, rng);
  store.build(pairs);
  Ref acked(pairs.begin(), pairs.end());

  // Crash every module of shard 2 a round into its next batch.
  const u32 victim = 2;
  sim::FaultPlan plan;
  plan.enabled = true;
  plan.seed = 0xDEAD5EEDull;
  const u64 at = store.shard_machine(victim)->rounds() + 2;
  for (u32 m = 0; m < opts.modules_per_shard; ++m) {
    plan.crashes.push_back(sim::CrashEvent{m, at});
  }
  store.set_shard_fault_plan(victim, plan);

  // The storm batch: only the victim's keys may fail, and they fail with
  // per-key statuses (kUnavailable / kShardDown family), not an exception.
  std::vector<Key> gets;
  for (u32 i = 0; i < 96; ++i) gets.push_back(rng.range(0, 1'000'000'000));
  const auto gres = store.batch_get(gets);
  for (u64 i = 0; i < gets.size(); ++i) {
    if (store.route(gets[i]) != victim) {
      EXPECT_TRUE(gres[i].status.ok()) << gres[i].status.to_string();
      auto it = acked.find(gets[i]);
      EXPECT_EQ(gres[i].found, it != acked.end());
    }
  }

  // Run batches until the health layer fail-stops the victim (the first
  // batch may complete before the crash round arrives).
  for (u32 tries = 0; tries < 4 && store.shard_state(victim) != ShardState::kDead;
       ++tries) {
    (void)store.batch_get(gets);
  }
  ASSERT_EQ(store.shard_state(victim), ShardState::kDead);
  EXPECT_EQ(store.live_shards(), 3u);

  // Failover restores full availability with all acked writes.
  ASSERT_TRUE(store.failover(victim).ok());
  EXPECT_EQ(store.live_shards(), 4u);
  const auto after = store.batch_get(gets);
  for (u64 i = 0; i < gets.size(); ++i) {
    ASSERT_TRUE(after[i].status.ok());
    auto it = acked.find(gets[i]);
    EXPECT_EQ(after[i].found, it != acked.end());
    if (it != acked.end()) {
      EXPECT_EQ(after[i].value, it->second);
    }
  }
  store.check_invariants();
}

TEST(ShardedStore, SuccessorStitchingSpillsThroughEmptyAndAroundDeadShards) {
  ShardedPimStore store(small_opts());
  // One key per shard except shard 1, which stays empty: a successor
  // query in shard 0's upper range must spill through 1 into 2.
  const auto r0 = store.shard_range(0);
  const auto r2 = store.shard_range(2);
  const auto r3 = store.shard_range(3);
  std::vector<std::pair<Key, Value>> pairs = {
      {r0.second - 10, 100}, {r2.first + 5, 300}, {r3.first + 7, 400}};
  std::sort(pairs.begin(), pairs.end());
  store.build(pairs);

  const std::vector<Key> q = {r0.second - 5};  // after shard 0's only key
  auto res = store.batch_successor(q);
  ASSERT_TRUE(res[0].status.ok());
  ASSERT_TRUE(res[0].found);
  EXPECT_EQ(res[0].key, r2.first + 5);  // spilled across empty shard 1

  // Predecessor of a key in shard 2's lower range spills back to shard 0.
  auto pre = store.batch_predecessor(std::vector<Key>{r2.first + 1});
  ASSERT_TRUE(pre[0].status.ok());
  ASSERT_TRUE(pre[0].found);
  EXPECT_EQ(pre[0].key, r0.second - 10);

  // With shard 2 dead, the spilled successor cannot be determined — the
  // query answers kShardDown rather than skipping to shard 3's key.
  store.kill_shard(2);
  res = store.batch_successor(q);
  EXPECT_EQ(res[0].status.code(), StatusCode::kShardDown);
  // A query entirely within a live shard is unaffected.
  auto live = store.batch_successor(std::vector<Key>{r3.first});
  ASSERT_TRUE(live[0].status.ok());
  EXPECT_EQ(live[0].key, r3.first + 7);

  // Past the last key: found=false, not an error.
  auto end = store.batch_successor(std::vector<Key>{r3.first + 8});
  ASSERT_TRUE(end[0].status.ok());
  EXPECT_FALSE(end[0].found);
}

TEST(ShardedStore, ReviveRestoresInPlaceAndRecyclesDecommissionedVictims) {
  ShardedPimStore store(small_opts());
  rnd::Xoshiro256ss rng(0x12EE71Eu);
  const auto pairs = test::make_sorted_pairs(600, rng);
  store.build(pairs);
  Ref ref(pairs.begin(), pairs.end());

  // Revive-in-place: kill, revive, contents restored from the journal.
  store.kill_shard(3);
  store.revive_shard(3);
  EXPECT_EQ(store.shard_state(3), ShardState::kLive);
  const auto all = store.range_collect(kMinKey, kMaxKey);
  ASSERT_TRUE(all.status.ok());
  EXPECT_EQ(all.pairs.size(), ref.size());

  // Failover path: the victim is decommissioned, then revives as a spare
  // and can host the NEXT failover.
  store.kill_shard(0);
  ASSERT_TRUE(store.failover(0).ok());
  EXPECT_EQ(store.shard_state(0), ShardState::kDead);
  store.revive_shard(0);
  EXPECT_EQ(store.shard_state(0), ShardState::kSpare);

  store.kill_shard(1);
  ASSERT_TRUE(store.failover(1).ok());  // lands on recycled slot 0
  EXPECT_EQ(store.live_shards(), 4u);
  const auto again = store.range_collect(kMinKey, kMaxKey);
  ASSERT_TRUE(again.status.ok());
  EXPECT_EQ(again.pairs.size(), ref.size());
  store.check_invariants();

  // No spare left: a third failover reports the shortage.
  store.kill_shard(2);
  EXPECT_EQ(store.failover(2).code(), StatusCode::kInvalidArgument);
}

TEST(ShardedStore, OptionValidationRejectsMalformedConfigs) {
  const auto bad = [](auto&& mutate) {
    ShardOptions o;
    mutate(o);
    return shard::validate_shard_options(o).code();
  };
  EXPECT_TRUE(shard::validate_shard_options(small_opts()).ok());
  EXPECT_EQ(bad([](ShardOptions& o) { o.shards = 0; }), StatusCode::kInvalidArgument);
  EXPECT_EQ(bad([](ShardOptions& o) { o.modules_per_shard = 0; }),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(bad([](ShardOptions& o) { o.replication = 0; }),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(bad([](ShardOptions& o) { o.replication = 33; }),
            StatusCode::kInvalidArgument);  // read retarget is a 32-bit mask
  EXPECT_EQ(bad([](ShardOptions& o) { o.write_quorum = 0; }),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(bad([](ShardOptions& o) {
              o.replication = 2;
              o.write_quorum = 3;  // quorum > R can never ack
            }),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(bad([](ShardOptions& o) {
              // shards + spares slots cannot even seat one full group.
              o.shards = 2;
              o.spares = 1;
              o.replication = 4;
            }),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(bad([](ShardOptions& o) { o.migration_chunk = 0; }),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(bad([](ShardOptions& o) { o.domain_hi = o.domain_lo; }),
            StatusCode::kInvalidArgument);

  // The constructor refuses the same configs before provisioning any
  // machine, throwing the structured status.
  ShardOptions o = small_opts();
  o.replication = 0;
  EXPECT_THROW(ShardedPimStore{o}, StatusError);
}

TEST(ShardedStore, MidBatchKillKeepsAckedWritesAndDropsUnackedOnes) {
  // The ack-interleaving chaos case: the victim dies DURING a batch —
  // after other shards' positions were acked and journaled, before its
  // own wave completed. No acked position may be lost, no failed
  // position may become visible after failover.
  auto opts = small_opts();
  opts.shard_breaker_strikes = 1;
  ShardedPimStore store(opts);
  rnd::Xoshiro256ss rng(0xAC41Bu);
  const auto pairs = test::make_sorted_pairs(800, rng);
  store.build(pairs);
  Ref acked(pairs.begin(), pairs.end());

  const u32 victim = 1;
  sim::FaultPlan plan;
  plan.enabled = true;
  plan.seed = 0xBADF00Dull;
  // Crashes recur every few rounds over a long window, so whichever
  // round a write wave reaches, modules die mid-wave (module recovery
  // between batches cannot outrun the storm).
  const u64 at = store.shard_machine(victim)->rounds() + 2;
  for (u64 r = at; r < at + 400; r += 4) {
    for (u32 m = 0; m < opts.modules_per_shard; ++m) {
      plan.crashes.push_back(sim::CrashEvent{m, r});
    }
  }
  store.set_shard_fault_plan(victim, plan);

  u64 failed = 0;
  const auto write_batch = [&] {
    std::vector<std::pair<Key, Value>> ups;
    for (u32 i = 0; i < 64; ++i) ups.emplace_back(rng.range(0, 1'000'000'000), rng());
    const auto st = store.batch_upsert(ups);
    track_acked_upserts(acked, ups, st);
    for (const Status& s : st) failed += s.ok() ? 0 : 1;
  };
  // Drive batches until the health verdict lands. The kill happens at a
  // batch's merge — after that batch's surviving positions were already
  // acked and journaled.
  for (u32 batch = 0;
       batch < 6 && store.shard_state(victim) != ShardState::kDead; ++batch) {
    write_batch();
  }
  ASSERT_EQ(store.shard_state(victim), ShardState::kDead)
      << "the crash storm never fail-stopped the victim";
  // One more mixed batch against the half-dead fleet: the victim's
  // positions are refused (and must stay invisible), everyone else acks.
  write_batch();
  ASSERT_GT(failed, 0u) << "no position was rejected";

  ASSERT_TRUE(store.failover(victim).ok());
  const auto all = store.range_collect(kMinKey, kMaxKey);
  ASSERT_TRUE(all.status.ok());
  const std::vector<std::pair<Key, Value>> expect(acked.begin(), acked.end());
  // Exact equality does both halves: every acked position survived the
  // journal replay, every non-acked position is invisible (keys that
  // existed before keep their pre-batch value).
  EXPECT_EQ(all.pairs, expect);
  store.check_invariants();
}

// Regression pin for the deadline-propagation contract (DESIGN.md §5.10,
// ISSUE 9 satellite): a per-op deadline set once on the store must be
// enforced by every shard created AFTER the call — failover targets
// (journal replay into a spare), revived victims, and migration targets
// all go through provision(), which stamps the stored deadline onto the
// fresh skiplist. If provision() ever stops doing that, a replacement
// shard would silently serve without the budget the operator set fleet-
// wide, and this test fails both structurally (the accessor) and
// behaviorally (the replacement never surfaces kDeadlineExceeded).
TEST(ShardedStore, OpDeadlinePropagatesToReplacementShards) {
  ShardOptions o = small_opts();
  o.spares = 3;  // failover target + migration target + slack
  ShardedPimStore store(o);
  rnd::Xoshiro256ss rng(0xDEAD11AEu);
  const auto pairs = test::make_sorted_pairs(1200, rng);
  store.build(pairs);

  const core::PimSkipList::OpDeadline d{/*max_rounds=*/0, /*max_retries=*/2};
  store.set_op_deadline(d);
  for (u32 s = 0; s < store.slots(); ++s) {
    if (store.shard_state(s) != ShardState::kLive) continue;
    EXPECT_EQ(store.shard_op_deadline(s).max_retries, d.max_retries)
        << "live slot " << s << " missed the fleet-wide deadline";
  }

  // --- Failover target (journal replay into a spare). ---
  const Key probe = pairs[100].first;
  const u32 victim = store.route(probe);
  store.kill_shard(victim);
  ASSERT_TRUE(store.failover(victim).ok());
  const u32 replacement = store.route(probe);
  ASSERT_NE(replacement, victim);
  EXPECT_EQ(store.shard_op_deadline(replacement).max_retries, d.max_retries)
      << "failover target was provisioned without the deadline";

  // Behavioral half: the replacement actually enforces the budget. Make
  // only the replacement flaky (95% drops eat retransmissions) — a
  // 2-retry budget cannot drain a sub-batch through that link, so every
  // key the replacement owns must surface kDeadlineExceeded, while keys
  // owned by healthy shards keep completing.
  ASSERT_TRUE(store.flaky_shard(replacement, 0.95).ok());
  std::vector<Key> owned, foreign;
  for (const auto& [k, v] : pairs) {
    (store.route(k) == replacement ? owned : foreign).push_back(k);
    if (owned.size() >= 8 && foreign.size() >= 8) break;
  }
  ASSERT_GE(owned.size(), 1u);
  const auto got = store.batch_get(owned);
  for (u64 i = 0; i < owned.size(); ++i) {
    EXPECT_EQ(got[i].status.code(), StatusCode::kDeadlineExceeded)
        << "replacement shard served key " << owned[i]
        << " without enforcing the propagated deadline: "
        << got[i].status.to_string();
  }
  const auto fine = store.batch_get(foreign);
  for (u64 i = 0; i < foreign.size(); ++i) {
    EXPECT_TRUE(fine[i].status.ok()) << fine[i].status.to_string();
  }
  ASSERT_TRUE(store.clear_shard_chaos(replacement).ok());

  // --- Revive target (in-place rebuild; victim comes back as a spare
  // with a freshly provisioned structure). ---
  store.revive_shard(victim);
  EXPECT_EQ(store.shard_op_deadline(victim).max_retries, d.max_retries)
      << "revived slot was provisioned without the deadline";

  // --- Migration target (chunked copy onto a spare, then cutover). ---
  const u32 source = store.route(pairs[700].first);
  const auto [lo, hi] = store.shard_range(source);
  Key split = 0;
  u64 in_range = 0;
  for (const auto& [k, v] : pairs) {
    if (k > lo && k < hi) {
      ++in_range;
      if (in_range == 8) split = k;  // strictly inside, non-degenerate
    }
  }
  ASSERT_GT(split, lo);
  ASSERT_TRUE(store.start_migration(source, split).ok());
  while (store.migration_active()) {
    ASSERT_TRUE(store.migration_step().ok());
  }
  for (u32 s = 0; s < store.slots(); ++s) {
    if (store.shard_state(s) != ShardState::kLive) continue;
    EXPECT_EQ(store.shard_op_deadline(s).max_retries, d.max_retries)
        << "slot " << s << " lost the deadline across migration";
  }
  store.check_invariants();
}

}  // namespace
}  // namespace pim
