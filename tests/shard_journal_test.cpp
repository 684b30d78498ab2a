// Write-ahead log fold tests (DESIGN.md §5.5, §5.10): BatchLog::fold —
// the sort-merge that compacts a log into its sorted checkpoint and
// serves every replay, in the skiplist and in each replica group — must
// equal a record-by-record replay through the batch reference model.
// Checked directly on random records and every prefix of them, and
// through a 2-group store whose journals compact several times, before
// and after a member is rebuilt from the replay.
#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "core/pim_skiplist.hpp"
#include "reference_model.hpp"
#include "shard/sharded_store.hpp"
#include "test_util.hpp"

namespace pim {
namespace {

using core::BatchLog;
using core::LogRecord;
using core::Pairs;
using shard::ShardedPimStore;
using shard::ShardOptions;
using shard::ShardState;
using test::Ref;

// A narrow key domain: batches repeat keys, updates miss, and a key
// deleted by one call is often written again by a later one.
constexpr Key kDomain = 600;

/// n random ops over [0, kDomain); about one in four repeats an earlier
/// key of the same batch with a different value.
std::vector<std::pair<Key, Value>> random_ops(rnd::Xoshiro256ss& rng, u64 n) {
  std::vector<std::pair<Key, Value>> ops;
  for (u64 i = 0; i < n; ++i) {
    const Key k = !ops.empty() && rng.below(4) == 0 ? ops[rng.below(ops.size())].first
                                                    : rng.range(0, kDomain - 1);
    ops.emplace_back(k, rng());
  }
  return ops;
}

std::vector<Key> keys_of(const std::vector<std::pair<Key, Value>>& ops) {
  std::vector<Key> keys;
  for (const auto& kv : ops) keys.push_back(kv.first);
  return keys;
}

/// Reference contents in [lo, hi), in checkpoint format.
Pairs pairs_of(const Ref& ref, Key lo = kMinKey, Key hi = kMaxKey) {
  return Pairs(ref.lower_bound(lo), ref.lower_bound(hi));
}

TEST(FoldRecords, MatchesRecordByRecordReplay) {
  rnd::Xoshiro256ss rng(0xF01Du);
  for (int round = 0; round < 200; ++round) {
    Ref ref;
    for (const auto& [k, v] : random_ops(rng, rng.below(300))) ref[k] = v;
    BatchLog log;
    log.reset(pairs_of(ref));
    // states[i]: the reference contents after the first i records.
    std::vector<Pairs> states{pairs_of(ref)};
    const u64 records = rng.below(80);
    for (u64 r = 0; r < records; ++r) {
      const auto ops = random_ops(rng, 1 + rng.below(24));
      switch (rng.below(4)) {
        case 0:
          log.append(LogRecord::of(LogRecord::kUpsert, ops));
          test::ref_upsert(ref, ops);
          break;
        case 1:
          log.append(LogRecord::of(LogRecord::kUpdate, ops));
          (void)test::ref_update(ref, ops);
          break;
        case 2:
          log.append(LogRecord::of(keys_of(ops)));
          (void)test::ref_delete(ref, keys_of(ops));
          break;
        default: {
          LogRecord add;
          add.kind = LogRecord::kFetchAdd;
          add.lo = rng.range(0, kDomain - 1);
          add.hi = add.lo + rng.range(0, kDomain / 4);
          add.delta = rng();
          (void)test::ref_fetch_add(ref, add.lo, add.hi, add.delta);
          log.append(std::move(add));
          break;
        }
      }
      states.push_back(pairs_of(ref));
    }
    // Every prefix: a failed batch's found flags come from fold(n - 1).
    for (u64 upto = 0; upto < states.size(); ++upto) {
      ASSERT_EQ(log.fold(upto), states[upto]) << "round " << round << " upto " << upto;
    }
    ASSERT_EQ(log.fold(), states.back()) << "round " << round;
  }
}

/// 2 groups over [0, kDomain) of R members each, plus one spare.
ShardOptions journal_opts(u32 r) {
  ShardOptions o;
  o.shards = 2;
  o.spares = 1;
  o.modules_per_shard = 8;
  o.domain_lo = 0;
  o.domain_hi = kDomain;
  o.replication = r;
  o.write_quorum = r;
  return o;
}

u64 ref_digest(const ShardedPimStore& store, u32 group, const Ref& ref) {
  const auto [lo, hi] = store.group_range(group);
  return core::PimSkipList::pairs_digest(pairs_of(ref, lo, hi));
}

/// Random upsert / update / delete calls, the group replay checked
/// against the reference after every call; then one member of group 0 is
/// rebuilt from its group's replay (revive at R = 1, failover into the
/// spare at R = 2) and every live member must hold the reference.
void fold_through_store(u32 r) {
  ShardedPimStore store(journal_opts(r));
  rnd::Xoshiro256ss rng(0x10F0u + r);
  const auto pairs = test::make_sorted_pairs(200, rng, 0, kDomain - 1);
  store.build(pairs);
  Ref ref(pairs.begin(), pairs.end());

  const u32 groups = store.group_count();
  std::vector<u64> compactions(groups, 0);
  std::vector<Key> deleted;  // the last delete call's keys
  for (int call = 0; call < 330; ++call) {
    std::vector<u64> records_before(groups);
    for (u32 g = 0; g < groups; ++g) records_before[g] = store.group_journal_records(g);
    auto ops = random_ops(rng, 1 + rng.below(24));
    const std::string where = "R=" + std::to_string(r) + " call " + std::to_string(call);
    switch (call % 3) {
      case 0: {  // upsert, writing back what the previous call deleted
        for (const Key k : deleted) ops.emplace_back(k, rng());
        const auto st = store.batch_upsert(ops);
        for (const Status& s : st) ASSERT_TRUE(s.ok()) << where << ": " << s.to_string();
        test::ref_upsert(ref, ops);
        break;
      }
      case 1: {  // update, present and absent keys alike
        const auto res = store.batch_update(ops);
        const auto found = test::ref_update(ref, ops);
        for (u64 i = 0; i < ops.size(); ++i) {
          ASSERT_TRUE(res[i].status.ok()) << where << ": " << res[i].status.to_string();
          EXPECT_EQ(res[i].found, found[i] != 0) << where << " key " << ops[i].first;
        }
        break;
      }
      default: {
        deleted = keys_of(ops);
        const auto res = store.batch_delete(deleted);
        const auto found = test::ref_delete(ref, deleted);
        for (u64 i = 0; i < deleted.size(); ++i) {
          ASSERT_TRUE(res[i].status.ok()) << where << ": " << res[i].status.to_string();
          EXPECT_EQ(res[i].found, found[i] != 0) << where << " key " << deleted[i];
        }
        break;
      }
    }
    for (u32 g = 0; g < groups; ++g) {
      if (store.group_journal_records(g) < records_before[g]) ++compactions[g];
      ASSERT_EQ(store.group_expected_digest(g), ref_digest(store, g, ref))
          << where << " group " << g;
    }
  }
  for (u32 g = 0; g < groups; ++g) {
    EXPECT_GE(compactions[g], 3u) << "group " << g << " journal never compacted";
  }
  // The rebuild below must fold a non-empty journal into the checkpoint.
  ASSERT_GT(store.group_journal_records(0), 0u);

  const u32 victim = store.group_members(0)[0];
  store.kill_shard(victim);
  if (r == 1) {
    store.revive_shard(victim);
  } else {
    ASSERT_TRUE(store.failover(victim).ok());
    ASSERT_NE(store.group_members(0)[0], victim);
  }
  for (u32 g = 0; g < groups; ++g) {
    EXPECT_EQ(store.group_expected_digest(g), ref_digest(store, g, ref)) << "group " << g;
    for (const u32 slot : store.group_members(g)) {
      ASSERT_EQ(store.shard_state(slot), ShardState::kLive);
      EXPECT_EQ(store.member_digest(slot), ref_digest(store, g, ref))
          << "group " << g << " slot " << slot;
    }
  }
  std::vector<Key> all(kDomain);
  std::iota(all.begin(), all.end(), Key{0});
  const auto got = store.batch_get(all);
  for (const Key k : all) {
    ASSERT_TRUE(got[k].status.ok()) << got[k].status.to_string();
    const auto it = ref.find(k);
    ASSERT_EQ(got[k].found, it != ref.end()) << "key " << k;
    if (got[k].found) {
      EXPECT_EQ(got[k].value, it->second) << "key " << k;
    }
  }
  store.check_invariants();
}

TEST(ShardJournal, FoldMatchesReferenceAtR1) { fold_through_store(1); }

TEST(ShardJournal, FoldMatchesReferenceAtR2) { fold_through_store(2); }

}  // namespace
}  // namespace pim
