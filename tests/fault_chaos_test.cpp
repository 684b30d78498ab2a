// Chaos and recovery tests: the full batch-operation suite must produce
// reference-identical results under a seeded storm of drops, duplicates,
// stragglers and a fail-stop module crash (ISSUE acceptance test), the
// three executors must agree bit-for-bit on results, metrics and fault
// counters for the same FaultPlan, recover() must rebuild a crashed
// module in place, and the partitioned baselines must fail cleanly.
#include <gtest/gtest.h>

#include <array>
#include <limits>
#include <map>
#include <set>
#include <vector>

#include "baseline/hash_partition_store.hpp"
#include "baseline/range_partition_store.hpp"
#include "core/pim_skiplist.hpp"
#include "random/rng.hpp"
#include "reference_model.hpp"
#include "sim/machine.hpp"
#include "sim/measure.hpp"
#include "test_util.hpp"

namespace pim::core {

// Test-only window into the journal/checkpoint internals.
struct SkipListTestPeer {
  static u64 journal_size(const PimSkipList& l) { return l.log_.size(); }
  static bool journal_valid(const PimSkipList& l) { return l.journal_valid_; }
  static u64 checkpoint_size(const PimSkipList& l) { return l.log_.checkpoint().size(); }
};

namespace {

// Reference-model batch semantics live in tests/reference_model.hpp
// (shared with the integrity and stress tests).
using test::existing_key;
using test::Ref;
using test::ref_delete;
using test::ref_fetch_add;
using test::ref_range;
using test::ref_update;
using test::ref_upsert;

// The ISSUE acceptance test: a fixed fault seed injecting drops, dups,
// one straggler window and one scheduled mid-workload crash, across the
// full operation suite, checked against a fault-free std::map reference.
TEST(FaultChaos, FullSuiteMatchesReferenceUnderFaultStorm) {
  sim::Machine machine(8);
  PimSkipList list(machine);
  rnd::Xoshiro256ss rng(2024);

  std::vector<std::pair<Key, Value>> pairs;
  Key k = 1000;
  for (int i = 0; i < 400; ++i) {
    k += 1 + static_cast<Key>(rng.below(50));
    pairs.push_back({k, rng()});
  }
  list.build(pairs);
  Ref ref(pairs.begin(), pairs.end());

  sim::FaultPlan plan;
  plan.enabled = true;
  plan.seed = 0xC1A05;
  plan.drop_prob = 0.02;
  plan.dup_prob = 0.02;
  plan.stall_windows = {{/*module=*/3, /*first_round=*/20, /*rounds=*/4}};
  plan.crashes = {{/*module=*/5, /*round=*/60}};
  machine.set_fault_plan(plan);

  for (int phase = 0; phase < 6; ++phase) {
    // Upserts: a mix of fresh keys and overwrites, with batch duplicates.
    std::vector<std::pair<Key, Value>> ups;
    for (int i = 0; i < 40; ++i) {
      ups.push_back({static_cast<Key>(rng.below(1u << 20)) + 500, rng()});
    }
    ups.push_back({ups[0].first, rng()});  // duplicate: first must win
    list.batch_upsert(ups);
    ref_upsert(ref, ups);
    ASSERT_EQ(list.size(), ref.size()) << "phase " << phase;

    // Gets: half present, half probably absent.
    std::vector<Key> gets;
    for (int i = 0; i < 16; ++i) gets.push_back(existing_key(ref, rng));
    for (int i = 0; i < 16; ++i) {
      gets.push_back(static_cast<Key>(rng.below(1u << 20)));
    }
    const auto got = list.batch_get(gets);
    for (u64 i = 0; i < gets.size(); ++i) {
      const auto it = ref.find(gets[i]);
      ASSERT_EQ(got[i].found, it != ref.end()) << "phase " << phase << " get " << i;
      if (got[i].found) {
        ASSERT_EQ(got[i].value, it->second);
      }
    }

    // Updates: present and absent keys.
    std::vector<std::pair<Key, Value>> upd;
    for (int i = 0; i < 12; ++i) upd.push_back({existing_key(ref, rng), rng()});
    for (int i = 0; i < 12; ++i) {
      upd.push_back({static_cast<Key>(rng.below(1u << 20)), rng()});
    }
    ASSERT_EQ(list.batch_update(upd), ref_update(ref, upd)) << "phase " << phase;

    // Successor / predecessor sweeps.
    std::vector<Key> qs;
    for (int i = 0; i < 24; ++i) qs.push_back(static_cast<Key>(rng.below(1u << 20)));
    const auto succ = list.batch_successor(qs);
    const auto pred = list.batch_predecessor(qs);
    for (u64 i = 0; i < qs.size(); ++i) {
      const auto it = ref.lower_bound(qs[i]);
      ASSERT_EQ(succ[i].found, it != ref.end()) << "phase " << phase;
      if (succ[i].found) {
        ASSERT_EQ(succ[i].key, it->first);
      }
      auto jt = ref.upper_bound(qs[i]);
      ASSERT_EQ(pred[i].found, jt != ref.begin()) << "phase " << phase;
      if (pred[i].found) {
        ASSERT_EQ(pred[i].key, std::prev(jt)->first);
      }
    }

    // Deletes: half present.
    std::vector<Key> dels;
    for (int i = 0; i < 10; ++i) dels.push_back(existing_key(ref, rng));
    for (int i = 0; i < 10; ++i) {
      dels.push_back(static_cast<Key>(rng.below(1u << 20)));
    }
    ASSERT_EQ(list.batch_delete(dels), ref_delete(ref, dels)) << "phase " << phase;
    ASSERT_EQ(list.size(), ref.size()) << "phase " << phase;

    // Range suite, including the mutating fetch-add.
    const Key lo = static_cast<Key>(rng.below(1u << 19));
    const Key hi = lo + static_cast<Key>(rng.below(1u << 19));
    const auto agg = list.range_count_broadcast(lo, hi);
    const auto [rc, rs] = ref_range(ref, lo, hi);
    ASSERT_EQ(agg.count, rc) << "phase " << phase;
    ASSERT_EQ(agg.sum, rs) << "phase " << phase;

    const auto faa = list.range_fetch_add_broadcast(lo, hi, 7);
    const auto [fc2, fs2] = ref_fetch_add(ref, lo, hi, 7);
    ASSERT_EQ(faa.count, fc2);
    ASSERT_EQ(faa.sum, fs2);

    std::vector<PimSkipList::RangeQuery> rqs = {{lo, hi}, {lo / 2, lo}, {hi, hi * 2}};
    const auto aggs = list.batch_range_aggregate(rqs);
    for (u64 i = 0; i < rqs.size(); ++i) {
      const auto [c, s] = ref_range(ref, rqs[i].lo, rqs[i].hi);
      ASSERT_EQ(aggs[i].count, c) << "phase " << phase << " query " << i;
      ASSERT_EQ(aggs[i].sum, s) << "phase " << phase << " query " << i;
    }
  }

  // The storm actually happened — and the structure survived it intact.
  const auto& fc = machine.fault_counters();
  EXPECT_GT(fc.drops, 0u);
  EXPECT_GT(fc.retries, 0u);
  EXPECT_GT(fc.dups, 0u);
  EXPECT_EQ(fc.crashes, 1u);
  EXPECT_GE(fc.recoveries, 1u);
  EXPECT_EQ(machine.down_count(), 0u);
  list.check_invariants();

  const auto all = list.range_collect_broadcast(0, std::numeric_limits<Key>::max());
  ASSERT_EQ(all.size(), ref.size());
  auto it = ref.begin();
  for (u64 i = 0; i < all.size(); ++i, ++it) {
    ASSERT_EQ(all[i].first, it->first);
    ASSERT_EQ(all[i].second, it->second);
  }
}

// Satellite: the same FaultPlan seed must produce bit-identical results,
// costs and fault counters under all three executors.
TEST(FaultChaos, ExecutorsAgreeOnResultsMetricsAndFaultCounters) {
  struct RunResult {
    std::vector<u8> upd;
    std::vector<u8> dels;
    std::vector<std::pair<bool, Value>> gets;
    std::vector<std::pair<bool, Key>> succs;
    std::vector<std::pair<Key, Value>> contents;
    std::vector<std::array<u64, 4>> costs;  // io, rounds, messages, pim per op
    sim::FaultCounters faults;
  };

  const auto run_with = [](sim::ExecOrder order) {
    sim::MachineOptions mopts;
    mopts.order = order;
    sim::Machine machine(8, mopts);
    PimSkipList list(machine);
    rnd::Xoshiro256ss rng(7);
    std::vector<std::pair<Key, Value>> pairs;
    Key k = 100;
    for (int i = 0; i < 256; ++i) {
      k += 1 + static_cast<Key>(rng.below(64));
      pairs.push_back({k, rng()});
    }
    list.build(pairs);

    sim::FaultPlan plan;
    plan.enabled = true;
    plan.seed = 99;
    plan.drop_prob = 0.05;
    plan.dup_prob = 0.05;
    plan.stall_windows = {{/*module=*/1, /*first_round=*/6, /*rounds=*/2}};
    plan.crashes = {{/*module=*/4, /*round=*/25}};
    machine.set_fault_plan(plan);

    RunResult r;
    const auto meter = [&](auto&& fn) {
      const auto m = sim::measure(machine, fn);
      r.costs.push_back({m.machine.io_time, m.machine.rounds, m.machine.messages,
                         m.machine.pim_time});
    };

    std::vector<std::pair<Key, Value>> ups;
    for (int i = 0; i < 48; ++i) {
      ups.push_back({static_cast<Key>(rng.below(1u << 16)), rng()});
    }
    meter([&] { list.batch_upsert(ups); });

    std::vector<Key> keys;
    for (int i = 0; i < 48; ++i) keys.push_back(static_cast<Key>(rng.below(1u << 16)));
    meter([&] {
      for (const auto& g : list.batch_get(keys)) r.gets.push_back({g.found, g.value});
    });
    meter([&] {
      for (const auto& s : list.batch_successor(keys)) {
        r.succs.push_back({s.found, s.key});
      }
    });

    std::vector<std::pair<Key, Value>> upd;
    for (int i = 0; i < 32; ++i) {
      upd.push_back({static_cast<Key>(rng.below(1u << 16)), rng()});
    }
    meter([&] { r.upd = list.batch_update(upd); });
    meter([&] { r.dels = list.batch_delete(std::span<const Key>(keys).subspan(0, 24)); });
    meter([&] { (void)list.range_fetch_add_broadcast(100, 1 << 15, 3); });

    r.contents = list.range_collect_broadcast(0, std::numeric_limits<Key>::max());
    r.faults = machine.fault_counters();
    list.check_invariants();
    return r;
  };

  const RunResult seq = run_with(sim::ExecOrder::kSequential);
  const RunResult shuf = run_with(sim::ExecOrder::kShuffled);
  const RunResult par = run_with(sim::ExecOrder::kParallel);

  for (const RunResult* other : {&shuf, &par}) {
    EXPECT_EQ(seq.upd, other->upd);
    EXPECT_EQ(seq.dels, other->dels);
    EXPECT_EQ(seq.gets, other->gets);
    EXPECT_EQ(seq.succs, other->succs);
    EXPECT_EQ(seq.contents, other->contents);
    EXPECT_EQ(seq.costs, other->costs);
    EXPECT_EQ(seq.faults, other->faults);
  }
}

// recover() rebuilds a crashed module in place from the surviving replica
// plus the journal; contents, size and invariants all survive.
TEST(FaultChaos, RecoverRestoresCrashedModuleInPlace) {
  sim::Machine machine(8);
  PimSkipList list(machine);
  rnd::Xoshiro256ss rng(11);
  const auto pairs = test::make_sorted_pairs(300, rng);
  list.build(pairs);

  sim::FaultPlan plan;
  plan.enabled = true;
  plan.seed = 5;
  machine.set_fault_plan(plan);

  // One fault-mode op to establish the checkpoint before the crash.
  (void)list.batch_get(std::vector<Key>{pairs[0].first});

  machine.crash_module(3);
  ASSERT_TRUE(machine.is_down(3));
  list.recover(3);

  EXPECT_EQ(machine.down_count(), 0u);
  EXPECT_EQ(machine.fault_counters().crashes, 1u);
  EXPECT_EQ(machine.fault_counters().recoveries, 1u);
  EXPECT_EQ(list.size(), pairs.size());
  list.check_invariants();

  std::vector<Key> keys;
  for (const auto& [k, v] : pairs) keys.push_back(k);
  const auto got = list.batch_get(keys);
  for (u64 i = 0; i < pairs.size(); ++i) {
    ASSERT_TRUE(got[i].found) << "key " << pairs[i].first << " lost in recovery";
    ASSERT_EQ(got[i].value, pairs[i].second);
  }
  // recover(m) on an up module is a no-op.
  list.recover(3);
  EXPECT_EQ(machine.fault_counters().recoveries, 1u);
}

// A crash in the middle of a mutating batch: the write-ahead journal
// replays the batch atomically — afterwards every key of the batch is
// present, nothing committed earlier is lost. A second crash in the
// middle of a delete checks the results of an aborted batch: its found
// flags come from the contents before the batch.
TEST(FaultChaos, CrashMidMutationReplaysJournalAtomically) {
  sim::Machine machine(8);
  PimSkipList list(machine);
  rnd::Xoshiro256ss rng(13);
  const auto pairs = test::make_sorted_pairs(200, rng);
  list.build(pairs);

  sim::FaultPlan plan;
  plan.enabled = true;
  plan.seed = 17;
  machine.set_fault_plan(plan);
  (void)list.batch_get(std::vector<Key>{pairs[0].first});  // start journaling

  // Schedule the crash a few rounds into the upcoming upsert's drains.
  plan.crashes = {{/*module=*/2, machine.rounds() + 4}};
  machine.set_fault_plan(plan);

  std::vector<std::pair<Key, Value>> ups;
  for (int i = 0; i < 64; ++i) {
    ups.push_back({static_cast<Key>(2'000'000'000) + 3 * i, rng()});
  }
  list.batch_upsert(ups);

  std::vector<Key> keys;
  for (const auto& [k, v] : ups) keys.push_back(k);
  for (const auto& [k, v] : pairs) keys.push_back(k);
  const auto got = list.batch_get(keys);
  for (u64 i = 0; i < ups.size(); ++i) {
    ASSERT_TRUE(got[i].found) << "upserted key " << ups[i].first << " missing";
    ASSERT_EQ(got[i].value, ups[i].second);
  }
  for (u64 i = 0; i < pairs.size(); ++i) {
    ASSERT_TRUE(got[ups.size() + i].found);
    ASSERT_EQ(got[ups.size() + i].value, pairs[i].second);
  }
  EXPECT_EQ(machine.fault_counters().crashes, 1u);
  EXPECT_GE(machine.fault_counters().recoveries, 1u);
  EXPECT_EQ(machine.down_count(), 0u);
  EXPECT_EQ(list.size(), pairs.size() + ups.size());
  list.check_invariants();

  plan.crashes = {{/*module=*/5, machine.rounds() + 2}};
  machine.set_fault_plan(plan);
  const u64 recoveries = machine.fault_counters().recoveries;
  std::vector<Key> dels;
  for (int i = 0; i < 32; ++i) dels.push_back(ups[2 * i].first);  // present
  for (int i = 0; i < 16; ++i) dels.push_back(ups[i].first + 1);  // absent
  const auto erased = list.batch_delete(dels);
  ASSERT_GT(machine.fault_counters().recoveries, recoveries) << "the delete did not abort";
  for (u64 i = 0; i < dels.size(); ++i) {
    EXPECT_EQ(erased[i], i < 32 ? 1 : 0) << "key " << dels[i];
  }
  EXPECT_EQ(list.size(), pairs.size() + ups.size() - 32);
  list.check_invariants();
}

// Journal bookkeeping: entries accumulate per mutating batch, compact
// past the threshold, invalidate on unjournaled mutations, and
// re-checkpoint on the next fault-mode operation.
TEST(FaultChaos, JournalCompactsAndRecheckpoints) {
  sim::Machine machine(4);
  PimSkipList list(machine);
  rnd::Xoshiro256ss rng(19);
  const auto pairs = test::make_sorted_pairs(100, rng);
  list.build(pairs);

  sim::FaultPlan plan;
  plan.enabled = true;
  plan.seed = 23;
  machine.set_fault_plan(plan);

  // 70 single-key journaled mutations: the journal compacts once it
  // crosses 64 entries (at batch 65), then grows again.
  for (int i = 0; i < 70; ++i) {
    list.batch_upsert(std::vector<std::pair<Key, Value>>{
        {static_cast<Key>(5'000'000 + i), static_cast<Value>(i)}});
  }
  EXPECT_EQ(SkipListTestPeer::journal_size(list), 5u);
  EXPECT_TRUE(SkipListTestPeer::journal_valid(list));

  list.checkpoint();
  EXPECT_EQ(SkipListTestPeer::journal_size(list), 0u);
  EXPECT_EQ(SkipListTestPeer::checkpoint_size(list), list.size());

  // An unjournaled mutation (plan disabled) invalidates the journal...
  sim::FaultPlan off;
  machine.set_fault_plan(off);
  list.batch_upsert(std::vector<std::pair<Key, Value>>{{9'999'999, 1}});
  EXPECT_FALSE(SkipListTestPeer::journal_valid(list));

  // ...and the next fault-mode operation re-checkpoints from scratch.
  machine.set_fault_plan(plan);
  (void)list.batch_get(std::vector<Key>{pairs[0].first});
  EXPECT_TRUE(SkipListTestPeer::journal_valid(list));
  EXPECT_EQ(SkipListTestPeer::checkpoint_size(list), list.size());
  list.check_invariants();
}

// The partitioned baselines have no recovery path: every entry point must
// fail fast with kUnavailable while a module is down, and a revived
// module comes back empty (its partition is simply gone).
TEST(FaultChaos, BaselinesFailCleanlyOnModuleLoss) {
  sim::Machine machine(4);
  sim::FaultPlan plan;
  plan.enabled = true;
  machine.set_fault_plan(plan);

  rnd::Xoshiro256ss rng(29);
  const auto pairs = test::make_sorted_pairs(200, rng);
  std::vector<Key> keys;
  for (const auto& [k, v] : pairs) keys.push_back(k);

  baseline::HashPartitionStore hash_store(machine);
  hash_store.build(pairs);
  ASSERT_TRUE(hash_store.batch_get(keys)[0].found);

  machine.crash_module(1);
  try {
    (void)hash_store.batch_get(keys);
    FAIL() << "batch_get on a degraded baseline must throw";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.code(), StatusCode::kUnavailable);
    EXPECT_NE(std::string(e.what()).find("no recovery path"), std::string::npos);
  }
  EXPECT_THROW(hash_store.batch_upsert(pairs), StatusError);
  EXPECT_THROW((void)hash_store.range_aggregate(0, 1'000'000'000), StatusError);

  // After revival the store works again but the partition's keys are gone.
  machine.revive(1);
  const auto got = hash_store.batch_get(keys);
  u64 found = 0;
  for (const auto& g : got) found += g.found ? 1 : 0;
  EXPECT_GT(found, 0u);
  EXPECT_LT(found, keys.size());
  EXPECT_EQ(hash_store.size(), pairs.size());  // it cannot know what it lost

  baseline::RangePartitionStore range_store(machine);
  range_store.build(pairs);
  machine.crash_module(2);
  try {
    (void)range_store.batch_successor(keys);
    FAIL() << "batch_successor on a degraded baseline must throw";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.code(), StatusCode::kUnavailable);
  }
  EXPECT_THROW((void)range_store.batch_delete(keys), StatusError);
  machine.revive(2);
}

}  // namespace
}  // namespace pim::core
