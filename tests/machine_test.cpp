// Tests for the PIM machine simulator: delivery, h-relation accounting,
// forwards (two-hop routing), broadcasts, metrics deltas, and execution
// order independence.
#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "sim/machine.hpp"
#include "sim/measure.hpp"

namespace pim::sim {
namespace {

TEST(Machine, DeliversTasksAndReplies) {
  Machine machine(4);
  machine.mailbox().assign(4, 0);
  Handler echo = [](ModuleCtx& ctx, std::span<const u64> a) {
    ctx.charge(1);
    ctx.reply(a[0], a[1] * 2);
  };
  for (u32 m = 0; m < 4; ++m) machine.send(m, &echo, {m, 10ull + m});
  machine.run_until_quiescent();
  for (u32 m = 0; m < 4; ++m) EXPECT_EQ(machine.mailbox()[m], 2 * (10ull + m));
}

TEST(Machine, HRelationIsMaxPerModule) {
  Machine machine(4);
  machine.mailbox().assign(16, 0);
  Handler sink = [](ModuleCtx& ctx, std::span<const u64>) { ctx.charge(1); };
  // 5 messages to module 0, 1 message to module 1: h = 5.
  for (int i = 0; i < 5; ++i) machine.send(0, &sink, {});
  machine.send(1, &sink, {});
  machine.run_round();
  EXPECT_EQ(machine.last_round_h(), 5u);
  EXPECT_EQ(machine.io_time(), 5u);
  EXPECT_EQ(machine.rounds(), 1u);
  EXPECT_EQ(machine.messages(), 6u);
}

TEST(Machine, RepliesCountTowardH) {
  Machine machine(2);
  machine.mailbox().assign(8, 0);
  Handler chatty = [](ModuleCtx& ctx, std::span<const u64>) {
    for (u64 s = 0; s < 3; ++s) ctx.reply(s, 1);  // 3 outgoing messages
  };
  machine.send(0, &chatty, {});
  machine.run_round();
  EXPECT_EQ(machine.last_round_h(), 1u + 3u);  // 1 in + 3 out on module 0
}

TEST(Machine, ForwardChargesBothHops) {
  Machine machine(2);
  machine.mailbox().assign(2, 0);
  Handler finish = [](ModuleCtx& ctx, std::span<const u64> a) {
    ctx.charge(1);
    ctx.reply(a[0], ctx.id() + 100);
  };
  Handler hop = [&finish](ModuleCtx& ctx, std::span<const u64> a) {
    ctx.charge(1);
    ctx.forward(1, &finish, a);
  };
  machine.send(0, &hop, {0ull});
  const u64 rounds = machine.run_until_quiescent();
  EXPECT_EQ(rounds, 2u);                     // hop round + finish round
  EXPECT_EQ(machine.mailbox()[0], 101u);     // executed on module 1
  // Messages: CPU->0 (in), 0->CPU (forward out), CPU->1 (in), 1->CPU (reply).
  EXPECT_EQ(machine.messages(), 4u);
  EXPECT_EQ(machine.io_time(), 2u + 2u);  // h=2 in each round
}

TEST(Machine, ForwardToSelfStillCostsARound) {
  Machine machine(1);
  machine.mailbox().assign(1, 0);
  Handler second = [](ModuleCtx& ctx, std::span<const u64>) { ctx.reply(0, 7); };
  Handler first = [&second](ModuleCtx& ctx, std::span<const u64> a) {
    ctx.forward(0, &second, a);
  };
  machine.send(0, &first, {});
  EXPECT_EQ(machine.run_until_quiescent(), 2u);
  EXPECT_EQ(machine.mailbox()[0], 7u);
}

TEST(Machine, BroadcastIsHOne) {
  Machine machine(8);
  machine.mailbox().assign(8, 0);
  Handler hello = [](ModuleCtx& ctx, std::span<const u64>) { ctx.charge(1); };
  machine.broadcast(&hello, {});
  machine.run_round();
  EXPECT_EQ(machine.last_round_h(), 1u);
  EXPECT_EQ(machine.messages(), 8u);
  for (u32 m = 0; m < 8; ++m) EXPECT_EQ(machine.module_work(m), 1u);
}

TEST(Machine, PimTimeIsMaxWorkDelta) {
  Machine machine(3);
  machine.mailbox().assign(1, 0);
  Handler heavy = [](ModuleCtx& ctx, std::span<const u64> a) { ctx.charge(a[0]); };
  const Snapshot before = machine.snapshot();
  machine.send(0, &heavy, {5ull});
  machine.send(1, &heavy, {17ull});
  machine.send(2, &heavy, {2ull});
  machine.run_until_quiescent();
  const MachineDelta delta = machine.delta(before);
  EXPECT_EQ(delta.pim_time, 17u);
  EXPECT_EQ(delta.pim_work_total, 24u);
}

TEST(Machine, MeasureCombinesCpuAndMachine) {
  Machine machine(2);
  machine.mailbox().assign(1, 0);
  Handler work = [](ModuleCtx& ctx, std::span<const u64>) { ctx.charge(4); };
  const OpMetrics metrics = measure(machine, [&] {
    par::charge(9);
    machine.send(0, &work, {});
    machine.run_until_quiescent();
  });
  EXPECT_EQ(metrics.cpu_work, 9u);
  EXPECT_EQ(metrics.cpu_depth, 9u);
  EXPECT_EQ(metrics.machine.pim_time, 4u);
  EXPECT_EQ(metrics.machine.rounds, 1u);
}

TEST(Machine, TasksQueuedDuringRoundRunNextRound) {
  Machine machine(1);
  machine.mailbox().assign(2, 0);
  std::vector<u64> order;
  Handler b = [&order](ModuleCtx&, std::span<const u64>) { order.push_back(2); };
  Handler a = [&](ModuleCtx& ctx, std::span<const u64>) {
    order.push_back(1);
    ctx.forward(0, &b, {});
  };
  machine.send(0, &a, {});
  machine.run_round();
  EXPECT_EQ(order, (std::vector<u64>{1}));  // b not yet
  machine.run_round();
  EXPECT_EQ(order, (std::vector<u64>{1, 2}));
  EXPECT_TRUE(machine.idle());
}

TEST(Machine, ReplyAddAccumulates) {
  Machine machine(3);
  machine.mailbox().assign(2, 0);
  Handler adder = [](ModuleCtx& ctx, std::span<const u64> a) {
    ctx.reply_add(0, a[0]);
    ctx.reply_add(1, 1);
  };
  machine.send(0, &adder, {5ull});
  machine.send(1, &adder, {7ull});
  machine.send(2, &adder, {11ull});
  machine.run_until_quiescent();
  EXPECT_EQ(machine.mailbox()[0], 23u);
  EXPECT_EQ(machine.mailbox()[1], 3u);
  // 3 incoming + 6 outgoing accumulating writes.
  EXPECT_EQ(machine.messages(), 9u);
}

TEST(Machine, OfflineCtxIsNotCounted) {
  Machine machine(2);
  machine.mailbox().assign(4, 0);
  auto ctx = machine.offline_ctx(1);
  ctx.charge(100);
  ctx.reply(0, 42);
  machine.finish_offline();
  EXPECT_EQ(machine.module_work(1), 0u);
  EXPECT_EQ(machine.messages(), 0u);
  EXPECT_EQ(machine.mailbox()[0], 42u);  // the write itself happens
}

TEST(Machine, SpaceAccounting) {
  Machine machine(2);
  auto ctx = machine.offline_ctx(0);
  ctx.add_space(100);
  ctx.add_space(-40);
  machine.finish_offline();
  EXPECT_EQ(machine.module_space(0), 60u);
  EXPECT_EQ(machine.module_space(1), 0u);
}

TEST(Machine, ShuffledOrderGivesSameResults) {
  // Same message pattern under sequential vs shuffled module execution
  // must produce identical mailbox contents and metrics (our algorithms
  // must be order-independent within a round).
  auto run = [](ExecOrder order) {
    MachineOptions opts;
    opts.order = order;
    Machine machine(8, opts);
    machine.mailbox().assign(64, 0);
    Handler echo = [](ModuleCtx& ctx, std::span<const u64> a) {
      ctx.charge(1);
      ctx.reply(a[0], a[1] + ctx.id());
    };
    for (u32 m = 0; m < 8; ++m) {
      for (u64 i = 0; i < 4; ++i) machine.send(m, &echo, {8 * i + m, i});
    }
    machine.run_until_quiescent();
    return std::make_tuple(machine.mailbox(), machine.io_time(), machine.messages());
  };
  EXPECT_EQ(run(ExecOrder::kSequential), run(ExecOrder::kShuffled));
}

TEST(Machine, RejectsBadTargets) {
  Machine machine(2);
  Handler noop = [](ModuleCtx&, std::span<const u64>) {};
  EXPECT_THROW(machine.send(5, &noop, {}), std::logic_error);
}

TEST(Machine, ConstantMessageSizeEnforced) {
  Machine machine(1);
  Handler noop = [](ModuleCtx&, std::span<const u64>) {};
  std::vector<u64> too_big(kMaxTaskArgs + 1, 0);
  EXPECT_THROW(machine.send(0, &noop, std::span<const u64>(too_big)), std::logic_error);
}

// The prefetch hook is a host cache hint (Handler::prefetch). Chains of
// forwarded tasks, each with its own id, run once with a recording hook and
// once on a twin whose handler has none: every executed task's hook runs
// exactly once and before its body, and the twin's mailbox and metrics
// match. The faulty run adds drops, dups and stalls, so delivered tasks
// wait out stalls and retries before they execute.
TEST(Machine, PrefetchHookRunsOncePerTaskBeforeItsBody) {
  constexpr u32 kModules = 16;
  constexpr u64 kChains = 64;
  constexpr u64 kHops = 5;
  constexpr u64 kTasks = kChains * kHops;
  for (const ExecOrder order :
       {ExecOrder::kSequential, ExecOrder::kShuffled, ExecOrder::kParallel}) {
    for (const bool faulty : {false, true}) {
      SCOPED_TRACE(testing::Message() << "order " << static_cast<int>(order) << ", faulty "
                                      << faulty);
      // One clock orders hooks and bodies. Task id i is only touched on the
      // lane that runs its module, so the per-id slots need no lock.
      std::atomic<u64> clock{0};
      std::vector<u64> hooks(kTasks, 0), bodies(kTasks, 0);
      std::vector<u64> hook_at(kTasks, 0), body_at(kTasks, 0);
      const auto run = [&](bool hooked) {
        MachineOptions opts;
        opts.order = order;
        Machine machine(kModules, opts);
        machine.mailbox().assign(kTasks, 0);
        if (faulty) {
          FaultPlan plan;
          plan.enabled = true;
          plan.seed = 7;
          plan.drop_prob = 0.1;
          plan.dup_prob = 0.1;
          plan.stall_prob = 0.2;
          plan.max_send_attempts = 20;
          machine.set_fault_plan(plan);
        }
        Handler hop;
        hop.body = [&](ModuleCtx& ctx, std::span<const u64> a) {
          const u64 id = a[0];
          if (hooked) {
            ++bodies[id];
            body_at[id] = ++clock;
          }
          ctx.charge(1 + id % 3);
          ctx.reply(id, a[1] + ctx.id());
          if (id % kHops + 1 < kHops) {
            ctx.forward((ctx.id() * 5 + 3) % kModules, &hop, {id + 1, a[1] * 3 + 1});
          }
        };
        if (hooked) {
          hop.prefetch = [&](ModuleId, std::span<const u64> a) {
            ++hooks[a[0]];
            hook_at[a[0]] = ++clock;
          };
        }
        for (u64 c = 0; c < kChains; ++c) machine.send(c % kModules, &hop, {c * kHops, c});
        machine.run_until_quiescent();
        std::vector<u64> work;
        for (ModuleId m = 0; m < kModules; ++m) work.push_back(machine.module_work(m));
        return std::make_tuple(machine.mailbox(), machine.rounds(), machine.io_time(),
                               machine.messages(), work);
      };
      EXPECT_EQ(run(true), run(false));
      for (u64 id = 0; id < kTasks; ++id) {
        EXPECT_EQ(bodies[id], 1u) << "task " << id;
        EXPECT_EQ(hooks[id], 1u) << "task " << id;
        EXPECT_LT(hook_at[id], body_at[id]) << "task " << id;
      }
    }
  }
}

}  // namespace
}  // namespace pim::sim
