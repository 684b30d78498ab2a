// Executor equivalence and model-variant tests: the parallel (threaded)
// module executor must produce bit-identical results and metrics to the
// sequential one, across full skiplist workloads; the queue-write variant
// must track shared-memory write contention.
#include <gtest/gtest.h>

#include "core/pim_skiplist.hpp"
#include "sim/measure.hpp"
#include "sim/trace.hpp"
#include "test_util.hpp"
#include "workload/generators.hpp"

namespace pim::sim {
namespace {

TEST(ParallelExecutor, EquivalentOnRawMessagePatterns) {
  auto run = [](ExecOrder order) {
    MachineOptions opts;
    opts.order = order;
    Machine machine(16, opts);
    machine.mailbox().assign(256, 0);
    Handler bounce = [&bounce](ModuleCtx& ctx, std::span<const u64> a) {
      ctx.charge(1 + a[1] % 3);
      if (a[1] == 0) {
        ctx.reply(a[0], ctx.id() + 1000);
        ctx.reply_add(a[0] % 7, 1);
        return;
      }
      const u64 next[2] = {a[0], a[1] - 1};
      ctx.forward((ctx.id() * 3 + 1) % ctx.modules(), &bounce, std::span<const u64>(next, 2));
    };
    for (u32 m = 0; m < 16; ++m) {
      for (u64 i = 0; i < 8; ++i) machine.send(m, &bounce, {16 * i + m + 8, i});
    }
    machine.run_until_quiescent();
    return std::make_tuple(machine.mailbox(), machine.io_time(), machine.messages(),
                           machine.rounds());
  };
  EXPECT_EQ(run(ExecOrder::kSequential), run(ExecOrder::kParallel));
}

TEST(ParallelExecutor, SkipListWorkloadBitIdentical) {
  auto run = [](ExecOrder order) {
    MachineOptions mopts;
    mopts.order = order;
    Machine machine(16, mopts);
    core::PimSkipList list(machine);
    rnd::Xoshiro256ss rng(271);
    const auto pairs = test::make_sorted_pairs(600, rng);
    list.build(pairs);

    std::vector<std::pair<Key, Value>> ups;
    for (int i = 0; i < 200; ++i) ups.push_back({rng.range(0, 1'000'000'000), rng()});
    list.batch_upsert(ups);

    const auto keys = test::random_keys(300, rng);
    const auto succ = list.batch_successor(keys);

    std::vector<Key> dels;
    for (int i = 0; i < 100; ++i) dels.push_back(ups[i].first);
    list.batch_delete(dels);

    // Stored, deleted and never-stored keys, so the get and update
    // handlers both hit and miss.
    std::vector<Key> probe;
    for (u64 i = 0; i < pairs.size(); i += 3) probe.push_back(pairs[i].first);
    for (int i = 0; i < 200; i += 2) probe.push_back(ups[i].first);
    for (const Key k : test::random_keys(100, rng)) probe.push_back(k);
    std::vector<std::pair<Key, Value>> upd;
    for (const Key k : probe) upd.push_back({k, rng()});
    list.batch_update(std::span<const std::pair<Key, Value>>(upd).subspan(0, upd.size() / 2));
    std::vector<std::pair<bool, Value>> got;
    for (const auto& g : list.batch_get(probe)) got.push_back({g.found, g.value});
    const auto updated = list.batch_update(upd);
    list.check_invariants();

    std::vector<Key> succ_keys;
    for (const auto& s : succ) succ_keys.push_back(s.found ? s.key : kMinKey);
    return std::make_tuple(succ_keys, got, updated, list.size(), machine.io_time(),
                           machine.messages(), machine.rounds());
  };
  EXPECT_EQ(run(ExecOrder::kSequential), run(ExecOrder::kParallel));
}

TEST(ParallelExecutor, RangeEnginesBitIdentical) {
  auto run = [](ExecOrder order) {
    MachineOptions mopts;
    mopts.order = order;
    Machine machine(8, mopts);
    core::PimSkipList list(machine);
    rnd::Xoshiro256ss rng(277);
    const auto pairs = test::make_sorted_pairs(500, rng, 0, 100'000);
    list.build(pairs);
    std::vector<core::PimSkipList::RangeQuery> queries;
    for (int t = 0; t < 30; ++t) {
      const Key lo = rng.range(0, 100'000);
      queries.push_back({lo, std::min<Key>(100'000, lo + 5000)});
    }
    std::vector<u64> counts;
    for (const auto& agg : list.batch_range_aggregate_expand(queries)) counts.push_back(agg.count);
    return std::make_tuple(counts, machine.io_time(), machine.messages());
  };
  EXPECT_EQ(run(ExecOrder::kSequential), run(ExecOrder::kParallel));
}

TEST(QueueWriteModel, TracksMaxWritesPerWord) {
  MachineOptions opts;
  opts.track_write_contention = true;
  Machine machine(4, opts);
  machine.mailbox().assign(4, 0);
  Handler hot = [](ModuleCtx& ctx, std::span<const u64>) { ctx.reply_add(0, 1); };
  Handler cold = [](ModuleCtx& ctx, std::span<const u64>) { ctx.reply_add(ctx.id(), 1); };
  // Round 1: all four modules write word 0 -> contention 4.
  machine.broadcast(&hot, {});
  machine.run_round();
  EXPECT_EQ(machine.write_contention(), 4u);
  // Round 2: each writes its own word -> contention 1.
  machine.broadcast(&cold, {});
  machine.run_round();
  EXPECT_EQ(machine.write_contention(), 5u);
}

TEST(QueueWriteModel, OffByDefault) {
  Machine machine(4);
  machine.mailbox().assign(1, 0);
  Handler hot = [](ModuleCtx& ctx, std::span<const u64>) { ctx.reply_add(0, 1); };
  machine.broadcast(&hot, {});
  machine.run_round();
  EXPECT_EQ(machine.write_contention(), 0u);
}

TEST(SyncCost, RoundsTimesLogP) {
  Machine machine(16);
  machine.mailbox().assign(1, 0);
  Handler hop = [&hop](ModuleCtx& ctx, std::span<const u64> a) {
    if (a[0] > 0) {
      const u64 next[1] = {a[0] - 1};
      ctx.forward((ctx.id() + 1) % ctx.modules(), &hop, std::span<const u64>(next, 1));
    }
  };
  const Snapshot before = machine.snapshot();
  machine.send(0, &hop, {4ull});
  machine.run_until_quiescent();
  const MachineDelta d = machine.delta(before);
  EXPECT_EQ(d.rounds, 5u);
  EXPECT_EQ(d.sync_cost, 5u * 4u);  // log2(16) = 4 per barrier
}

TEST(ParallelExecutor, RandomizedMixedBatchesAgreeUnderFaultsWithTracing) {
  // The strongest form of the executor contract: a randomized mixed
  // workload with probabilistic faults active AND a tracer attached must
  // produce bit-identical results, MachineDelta fields, fault counters,
  // and per-round trace record streams under all three executors.
  auto run = [](ExecOrder order) {
    MachineOptions mopts;
    mopts.order = order;
    Machine machine(24, mopts);
    core::PimSkipList list(machine);
    rnd::Xoshiro256ss rng(9151);
    const auto pairs = test::make_sorted_pairs(800, rng);
    list.build(pairs);

    FaultPlan plan;
    plan.enabled = true;
    plan.seed = 77;
    plan.drop_prob = 0.02;
    plan.dup_prob = 0.02;
    plan.stall_prob = 0.01;
    plan.corrupt_prob = 0.01;
    machine.set_fault_plan(plan);

    Tracer tracer;
    machine.set_tracer(&tracer);
    const Snapshot base = machine.snapshot();

    std::vector<u64> stream;  // results, metrics and trace, flattened
    for (int batch = 0; batch < 3; ++batch) {
      std::vector<std::pair<Key, Value>> ups;
      for (int i = 0; i < 120; ++i) ups.push_back({rng.range(0, 1'000'000'000), rng()});
      list.batch_upsert(ups);

      for (const auto& g : list.batch_get(test::random_keys(150, rng))) {
        stream.push_back(g.found);
        stream.push_back(g.value);
      }
      for (const auto& s : list.batch_successor(test::random_keys(150, rng))) {
        stream.push_back(s.found ? static_cast<u64>(s.key) : 0);
      }
      std::vector<Key> dels;
      for (int i = 0; i < 40; ++i) dels.push_back(ups[static_cast<u64>(i) * 2].first);
      for (u8 f : list.batch_delete(dels)) stream.push_back(f);
    }
    list.check_invariants();
    stream.push_back(list.size());

    const MachineDelta d = machine.delta(base);
    for (u64 v : {d.io_time, d.rounds, d.messages, d.pim_time, d.pim_work_total, d.sync_cost,
                  d.write_contention, d.shared_mem}) {
      stream.push_back(v);
    }
    const auto push_faults = [&stream](const FaultCounters& fc) {
      for (u64 v : {fc.drops, fc.dups, fc.stalls, fc.crashes, fc.retries, fc.lost,
                    fc.payload_corruptions, fc.checksum_rejects, fc.sheds, fc.hedges,
                    fc.hedge_wins, fc.hedge_waste, fc.breaker_trips}) {
        stream.push_back(v);
      }
    };
    push_faults(d.faults);

    EXPECT_EQ(tracer.dropped(), 0u);
    for (u64 i = 0; i < tracer.size(); ++i) {
      const RoundRecord& r = tracer.at(i);
      stream.push_back(r.round);
      stream.push_back(r.h);
      stream.insert(stream.end(), r.in.begin(), r.in.end());
      stream.insert(stream.end(), r.out.begin(), r.out.end());
      stream.insert(stream.end(), r.work.begin(), r.work.end());
      push_faults(r.faults);
    }
    machine.set_tracer(nullptr);
    return stream;
  };
  const auto seq = run(ExecOrder::kSequential);
  EXPECT_EQ(seq, run(ExecOrder::kShuffled));
  EXPECT_EQ(seq, run(ExecOrder::kParallel));
}

}  // namespace
}  // namespace pim::sim
