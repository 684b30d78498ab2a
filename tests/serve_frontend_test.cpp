// ServingFrontEnd tests (DESIGN.md §5.13): concurrent clients issuing
// single ops through the queue/batcher/pipeline stack must observe
// exactly the semantics of the serialization the replies report. Every
// reply carries its window sequence number, so the tests rebuild the
// total order (windows ascending; within a window the store's class
// order — upserts, deletes, gets, successors — with found flags against
// the window's write point) and replay the ACKED ops into the
// reference-model oracle. The chaos sweep (50 seeds) serves under kill,
// revive, migrate and read-deprioritize events with a live ShardPolicy
// thread underneath and requires every served read and the final
// contents to agree bit-identically with the oracle — kNoQuorum /
// kShardDown refusals must land on exactly the affected client ops and
// must never become visible. Also pinned: pipelined and unpipelined modes produce
// semantically identical serialization, every window is a contiguous run
// of submissions, duplicate coalescing preserves the batch contract and
// is counted exactly, admission control sheds at the door, and stop()
// completes (never abandons) every accepted op.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <future>
#include <map>
#include <set>
#include <thread>
#include <tuple>
#include <vector>

#include "reference_model.hpp"
#include "random/hash_fn.hpp"
#include "serve/serving_frontend.hpp"
#include "shard/policy.hpp"
#include "shard/sharded_store.hpp"
#include "test_util.hpp"

namespace pim {
namespace {

using serve::FrontEndOptions;
using serve::ServingFrontEnd;
using shard::PolicyOptions;
using shard::ShardOptions;
using shard::ShardPolicy;
using shard::ShardState;
using shard::ShardedPimStore;
using test::Ref;

ShardOptions serve_opts(u32 replication = 1, u32 write_quorum = 1) {
  ShardOptions o;
  o.shards = 4;
  o.spares = 2;
  o.modules_per_shard = 8;
  o.domain_lo = 0;
  o.domain_hi = 1'000'000'000;
  o.replication = replication;
  o.write_quorum = write_quorum;
  return o;
}

// One client-visible op with the reply it got — enough to rebuild the
// serialization afterwards (window seq + per-client submission order).
struct OpLog {
  enum Kind { kUpsert, kErase, kGet, kSucc } kind;
  Key key = 0;
  Value value = 0;  // upsert payload
  u64 seq = 0;      // window that served it
  Status status;
  bool flag = false;   // get/succ: found; erase: erased
  Value got = 0;       // get: value
  Key succ_key = 0;    // successor: answer
  u64 order = 0;       // per-client submission index
};

/// Replays the acked ops of a window-ordered log into the oracle and
/// checks every served read against it. `log` must hold each window's
/// ops in submission order (per-client submission order suffices when
/// each client has at most one op per window, or when there is one
/// client).
void replay_and_check(Ref& ref, const std::vector<OpLog>& log) {
  u64 i = 0;
  while (i < log.size()) {
    const u64 seq = log[i].seq;
    u64 j = i;
    while (j < log.size() && log[j].seq == seq) ++j;
    // Window [i, j): writes first, in class order, acked only.
    std::vector<std::pair<Key, Value>> ups;
    for (u64 k = i; k < j; ++k) {
      if (log[k].kind == OpLog::kUpsert && log[k].status.ok()) {
        ups.emplace_back(log[k].key, log[k].value);
      }
    }
    test::ref_upsert(ref, ups);  // duplicate keys: first occurrence wins
    // Deletes: erased flags reflect the state after the window's upserts
    // (the store runs the delete batch second).
    for (u64 k = i; k < j; ++k) {
      if (log[k].kind != OpLog::kErase || !log[k].status.ok()) continue;
      EXPECT_EQ(log[k].flag, ref.contains(log[k].key))
          << "erase flag diverged at window " << seq << " key " << log[k].key;
    }
    for (u64 k = i; k < j; ++k) {
      if (log[k].kind == OpLog::kErase && log[k].status.ok()) ref.erase(log[k].key);
    }
    // Reads observe the window's writes.
    for (u64 k = i; k < j; ++k) {
      const OpLog& op = log[k];
      if (!op.status.ok()) continue;
      if (op.kind == OpLog::kGet) {
        auto it = ref.find(op.key);
        EXPECT_EQ(op.flag, it != ref.end())
            << "get found diverged at window " << seq << " key " << op.key;
        if (it != ref.end() && op.flag) {
          EXPECT_EQ(op.got, it->second)
              << "get value diverged at window " << seq << " key " << op.key;
        }
      } else if (op.kind == OpLog::kSucc) {
        auto it = ref.lower_bound(op.key);
        EXPECT_EQ(op.flag, it != ref.end())
            << "successor found diverged at window " << seq;
        if (it != ref.end() && op.flag) {
          EXPECT_EQ(op.succ_key, it->first)
              << "successor key diverged at window " << seq;
        }
      }
    }
    i = j;
  }
}

/// Window-major, submission-minor order (stable on per-client order).
void sort_log(std::vector<OpLog>& log) {
  std::stable_sort(log.begin(), log.end(), [](const OpLog& a, const OpLog& b) {
    return a.seq != b.seq ? a.seq < b.seq : a.order < b.order;
  });
}

// ---------------------------------------------------------------------
// Single-threaded semantics: a deterministic burst submitted without
// waiting, so windows carry many ops from one client — coalescing and
// class ordering are exercised hard. Runs identically in both modes.
// ---------------------------------------------------------------------
void run_burst_mode(bool pipeline) {
  ShardedPimStore store(serve_opts());
  rnd::Xoshiro256ss rng(0x5EB5E001u);
  const auto pairs = test::make_sorted_pairs(800, rng);
  store.build(pairs);
  Ref ref(pairs.begin(), pairs.end());

  FrontEndOptions fo;
  fo.max_batch = 64;
  fo.max_delay_rounds = 16;
  fo.pipeline = pipeline;
  ServingFrontEnd fe(store, fo);

  struct Pending {
    OpLog base;
    std::future<serve::GetReply> get;
    std::future<serve::UpsertReply> ups;
    std::future<serve::EraseReply> ers;
    std::future<serve::SuccessorReply> suc;
  };
  std::vector<Pending> inflight;
  u64 order = 0;
  // Hot keys: 32 stored keys spread over every shard, so each window,
  // whatever its size (cuts follow thread timing), carries duplicate
  // reads and writes.
  constexpr u64 kHotKeys = 32;
  const u64 hot_stride = pairs.size() / kHotKeys;
  for (u32 burst = 0; burst < 12; ++burst) {
    for (u32 i = 0; i < 96; ++i) {
      Pending p;
      p.base.order = order++;
      const u64 dice = rng.below(10);
      const Key hot = pairs[rng.below(kHotKeys) * hot_stride].first;
      if (dice < 3) {
        p.base.kind = OpLog::kUpsert;
        // A quarter of upserts reuse a hot key: duplicate writes in one
        // window must coalesce first-occurrence-wins.
        p.base.key = (dice == 0) ? hot : rng.range(0, 1'000'000'000);
        p.base.value = rng();
        p.ups = fe.submit_upsert(p.base.key, p.base.value);
      } else if (dice < 5) {
        p.base.kind = OpLog::kErase;
        p.base.key = (dice == 3) ? hot : rng.range(0, 1'000'000'000);
        p.ers = fe.submit_erase(p.base.key);
      } else if (dice < 8) {
        p.base.kind = OpLog::kGet;
        p.base.key = hot;  // duplicate reads coalesce
        p.get = fe.submit_get(p.base.key);
      } else {
        p.base.kind = OpLog::kSucc;
        p.base.key = rng.range(0, 1'000'000'000);
        p.suc = fe.submit_successor(p.base.key);
      }
      inflight.push_back(std::move(p));
    }
    fe.drain();
  }

  std::vector<OpLog> log;
  log.reserve(inflight.size());
  for (Pending& p : inflight) {
    OpLog e = p.base;
    switch (e.kind) {
      case OpLog::kUpsert: {
        auto r = p.ups.get();
        e.seq = r.batch_seq;
        e.status = r.status;
        break;
      }
      case OpLog::kErase: {
        auto r = p.ers.get();
        e.seq = r.batch_seq;
        e.status = r.status;
        e.flag = r.erased;
        break;
      }
      case OpLog::kGet: {
        auto r = p.get.get();
        e.seq = r.batch_seq;
        e.status = r.status;
        e.flag = r.found;
        e.got = r.value;
        break;
      }
      case OpLog::kSucc: {
        auto r = p.suc.get();
        e.seq = r.batch_seq;
        e.status = r.status;
        e.flag = r.found;
        e.succ_key = r.key;
        break;
      }
    }
    EXPECT_TRUE(e.status.ok()) << e.status.to_string();
    log.push_back(std::move(e));
  }

  // Every window is a contiguous run of submissions, and the stats count
  // exactly the windows the replies report: (a) the one submitting
  // thread's replies carry non-decreasing batch_seq in submission order;
  // (b) windows, the largest window and the coalescing counters (ops
  // minus their distinct (class, key) pairs, per window) match the log.
  const auto st = fe.stats();
  std::map<u64, u64> window_ops;                 // batch_seq -> ops
  std::set<std::tuple<u64, int, Key>> distinct;  // (batch_seq, class, key)
  u64 out_of_order = 0, write_dups = 0, read_dups = 0;
  for (u64 i = 0; i < log.size(); ++i) {
    const OpLog& e = log[i];
    if (i > 0 && e.seq < log[i - 1].seq) ++out_of_order;
    ++window_ops[e.seq];
    if (!distinct.emplace(e.seq, e.kind, e.key).second) {
      ++(e.kind == OpLog::kUpsert || e.kind == OpLog::kErase ? write_dups : read_dups);
    }
  }
  u64 largest = 0;
  for (const auto& [seq, ops] : window_ops) largest = std::max(largest, ops);
  EXPECT_EQ(out_of_order, 0u) << "an op was served in an earlier window than an older op";
  EXPECT_EQ(st.windows, window_ops.size());
  EXPECT_EQ(st.max_window_ops, largest);
  EXPECT_EQ(st.coalesced_writes, write_dups);
  EXPECT_EQ(st.coalesced_reads, read_dups);

  sort_log(log);
  replay_and_check(ref, log);

  EXPECT_EQ(st.accepted, log.size());
  EXPECT_EQ(st.completed, log.size());
  EXPECT_EQ(st.rejected, 0u);
  EXPECT_GT(st.coalesced_reads, 0u) << "duplicate gets never coalesced";
  fe.stop();

  // The store agrees with the oracle bit-for-bit.
  const auto all = store.range_collect(0, 1'000'000'000);
  ASSERT_TRUE(all.status.ok());
  const std::vector<std::pair<Key, Value>> expect(ref.begin(), ref.end());
  EXPECT_EQ(all.pairs, expect);
  store.check_invariants();
}

TEST(ServeFrontEnd, BurstSemanticsPipelined) { run_burst_mode(true); }
TEST(ServeFrontEnd, BurstSemanticsUnpipelined) { run_burst_mode(false); }

// ---------------------------------------------------------------------
// The serve chaos sweep. One seed fixes one schedule: K blocking client
// threads issue ops through the front end while a live ShardPolicy
// thread repairs, audits and migrates underneath (the front end takes
// the policy's mutex for every store call), and the test thread fires
// seeded kill, revive, migrate and read-deprioritize events under the
// same mutex, each once serving has completed its share of the ops.
// R = 2 with write_quorum = 2: while a member is dead, writes to its
// group refuse with kNoQuorum, and those refusals must land on exactly
// the affected clients' ops and stay invisible. Each client owns a
// disjoint write key stripe and blocks on every reply, so it contributes
// at most one op per window and the (window, per-client order) sort
// rebuilds the exact serialization. The acked ops replay window by
// window into the reference model; every served read must agree with
// it, and so must the final contents. A failure names its seed;
// PIM_CHAOS_SEED=<seed> reruns that schedule through
// ConcurrentClientsUnderChaosAgreeWithOracle (the events and ops replay
// exactly; thread timing does not).
// ---------------------------------------------------------------------
void run_serve_chaos(u64 seed) {
  SCOPED_TRACE("serve chaos seed " + std::to_string(seed) + "; replay: PIM_CHAOS_SEED=" +
               std::to_string(seed) +
               " ./serve_frontend_test --gtest_filter='*ConcurrentClientsUnderChaos*'");
  ShardOptions so = serve_opts(/*replication=*/2, /*write_quorum=*/2);
  so.spares = 4;
  so.seed = seed;
  ShardedPimStore store(so);
  rnd::Xoshiro256ss rng(rnd::mix2(0x5EB5E002u, seed));
  const auto pairs = test::make_sorted_pairs(400, rng);
  store.build(pairs);
  Ref ref(pairs.begin(), pairs.end());

  PolicyOptions po;
  po.interval_ms = 1;  // repair, anti-entropy and load migration all on
  ShardPolicy policy(store, po);
  FrontEndOptions fo;
  fo.max_batch = 32;
  fo.max_delay_rounds = 8;
  fo.store_mu = &policy.mu();
  ServingFrontEnd fe(store, fo);

  constexpr u32 kClients = 4;
  constexpr u32 kOpsPerClient = 48;
  constexpr u32 kEvents = 6;
  constexpr Key kStride = 1'000'000'000 / kClients;
  std::vector<std::vector<OpLog>> logs(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (u32 c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      // Writes stay inside the client's own stripe — no two clients ever
      // write the same key, so every window's writes have distinct keys.
      rnd::Xoshiro256ss crng(rnd::mix2(seed, 0xC11E47u + c));
      const Key lo = static_cast<Key>(c) * kStride;
      std::vector<OpLog>& log = logs[c];
      for (u32 i = 0; i < kOpsPerClient; ++i) {
        OpLog e;
        e.order = i;
        const u64 dice = crng.below(10);
        if (dice < 4) {
          e.kind = OpLog::kUpsert;
          e.key = lo + crng.range(0, kStride - 1);
          e.value = crng();
          auto r = fe.upsert(e.key, e.value);
          e.seq = r.batch_seq;
          e.status = r.status;
        } else if (dice < 6) {
          e.kind = OpLog::kErase;
          e.key = lo + crng.range(0, kStride - 1);
          auto r = fe.erase(e.key);
          e.seq = r.batch_seq;
          e.status = r.status;
          e.flag = r.erased;
        } else if (dice < 9) {
          e.kind = OpLog::kGet;
          e.key = crng.range(0, 1'000'000'000);  // reads roam everywhere
          auto r = fe.get(e.key);
          e.seq = r.batch_seq;
          e.status = r.status;
          e.flag = r.found;
          e.got = r.value;
        } else {
          e.kind = OpLog::kSucc;
          e.key = crng.range(0, 1'000'000'000);
          auto r = fe.successor(e.key);
          e.seq = r.batch_seq;
          e.status = r.status;
          e.flag = r.found;
          e.succ_key = r.key;
        }
        log.push_back(std::move(e));
      }
    });
  }

  // The chaos events, in the policy thread's seat.
  constexpr u64 kOps = u64{kClients} * kOpsPerClient;
  std::vector<u32> killed;
  for (u32 ev = 0; ev < kEvents; ++ev) {
    while (fe.stats().completed < (ev + 1) * kOps / (kEvents + 1)) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    std::lock_guard lock(policy.mu());
    const u64 dice = rng.below(4);
    if (dice == 0) {  // kill the member serving a random key
      const u32 victim = store.route(static_cast<Key>(rng.below(1'000'000'000)));
      if (store.shard_state(victim) == ShardState::kLive) {
        store.kill_shard(victim);
        killed.push_back(victim);
      }
    } else if (dice == 1) {  // revive every victim
      for (const u32 s : killed) {
        if (store.shard_state(s) == ShardState::kDead) store.revive_shard(s);
      }
      killed.clear();
    } else if (dice == 2) {  // carve the upper half of a group's populated range
      const u32 g = static_cast<u32>(rng.below(store.group_count()));
      const auto [lo, hi] = store.group_range(g);
      const Key clo = std::max<Key>(lo, 0);
      const Key split = clo + (std::min<Key>(hi, 1'000'000'000) - clo) / 2;
      for (const u32 m : store.group_members(g)) {
        if (store.shard_state(m) != ShardState::kLive) continue;
        (void)store.start_migration(m, split);  // refused while a movement runs
        break;
      }
    } else {  // flip a live member's read priority
      const u32 slot = static_cast<u32>(rng.below(store.slots()));
      if (store.group_of(slot) != shard::kNoGroup &&
          store.shard_state(slot) == ShardState::kLive) {
        (void)store.set_read_deprioritized(slot, !store.read_deprioritized(slot));
      }
    }
  }

  for (auto& t : clients) t.join();
  fe.drain();
  fe.stop();
  policy.stop();
  for (const u32 s : killed) {
    if (store.shard_state(s) == ShardState::kDead) store.revive_shard(s);
  }

  std::vector<OpLog> log;
  for (auto& l : logs) {
    for (auto& e : l) log.push_back(std::move(e));
  }
  sort_log(log);
  // Status taxonomy: every reply is either served (kOk) or refused with
  // a fault-tier code — never an invented one, never silently dropped.
  for (const OpLog& e : log) {
    if (e.status.ok()) continue;
    const StatusCode c = e.status.code();
    EXPECT_TRUE(c == StatusCode::kNoQuorum || c == StatusCode::kShardDown ||
                c == StatusCode::kFencedEpoch || c == StatusCode::kUnavailable)
        << "unexpected refusal: " << e.status.to_string();
  }
  EXPECT_EQ(log.size(), kOps);

  replay_and_check(ref, log);

  // Final contents: bit-identical with the oracle that replayed acked
  // ops only — no acked write lost, no refused write visible.
  const auto all = store.range_collect(0, 1'000'000'000);
  ASSERT_TRUE(all.status.ok()) << all.status.to_string();
  const std::vector<std::pair<Key, Value>> expect(ref.begin(), ref.end());
  EXPECT_EQ(all.pairs, expect);
  store.check_invariants();
}

class ServeFrontEndChaos : public ::testing::TestWithParam<u64> {};

TEST_P(ServeFrontEndChaos, ClientsAgreeWithOracle) { run_serve_chaos(GetParam()); }

// 50 seeds, one ctest case each.
INSTANTIATE_TEST_SUITE_P(Seeds, ServeFrontEndChaos, ::testing::Range<u64>(1, 51));

// One schedule: seed 1, or the PIM_CHAOS_SEED a sweep failure named.
TEST(ServeFrontEnd, ConcurrentClientsUnderChaosAgreeWithOracle) {
  const char* seed = std::getenv("PIM_CHAOS_SEED");
  run_serve_chaos(seed != nullptr ? std::strtoull(seed, nullptr, 0) : 1);
}

// ---------------------------------------------------------------------
// Admission control + lifecycle edges.
// ---------------------------------------------------------------------
TEST(ServeFrontEnd, AdmissionControlShedsAtTheDoor) {
  ShardedPimStore store(serve_opts());
  rnd::Xoshiro256ss rng(0x5EB5E003u);
  const auto pairs = test::make_sorted_pairs(200, rng);
  store.build(pairs);

  FrontEndOptions fo;
  fo.max_batch = 8;
  fo.max_queue_ops = 4;
  ServingFrontEnd fe(store, fo);

  std::vector<std::future<serve::GetReply>> futs;
  for (u32 i = 0; i < 256; ++i) futs.push_back(fe.submit_get(pairs[i % pairs.size()].first));
  u64 ok = 0, shed = 0;
  for (auto& f : futs) {
    const auto r = f.get();
    if (r.status.ok()) {
      ++ok;
    } else {
      ASSERT_EQ(r.status.code(), StatusCode::kResourceExhausted) << r.status.to_string();
      EXPECT_EQ(r.batch_seq, 0u) << "a shed op must never reach a window";
      ++shed;
    }
  }
  EXPECT_GT(ok, 0u);
  EXPECT_GT(shed, 0u) << "max_queue_ops = 4 never shed under a 256-op flood";
  const auto st = fe.stats();
  EXPECT_EQ(st.rejected, shed);
  EXPECT_EQ(st.completed, ok);
}

TEST(ServeFrontEnd, StopCompletesEverythingThenRefuses) {
  ShardedPimStore store(serve_opts());
  rnd::Xoshiro256ss rng(0x5EB5E004u);
  const auto pairs = test::make_sorted_pairs(200, rng);
  store.build(pairs);

  ServingFrontEnd fe(store, FrontEndOptions{});
  std::vector<std::future<serve::UpsertReply>> futs;
  for (u32 i = 0; i < 64; ++i) futs.push_back(fe.submit_upsert(static_cast<Key>(i) * 7 + 1, i));
  fe.stop();
  for (auto& f : futs) {
    const auto r = f.get();  // stop() never abandons an accepted op
    EXPECT_TRUE(r.status.ok()) << r.status.to_string();
  }
  const auto r = fe.get(pairs[0].first);
  EXPECT_EQ(r.status.code(), StatusCode::kUnavailable);
  // Idempotent.
  fe.stop();
}

}  // namespace
}  // namespace pim
