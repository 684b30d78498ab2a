// Machine-level fault injection: transparent retransmission of drops,
// duplicate suppression, stall windows, fail-stop crashes, structured
// errors (kModuleDown / kRetryExhausted / kDrainStuck), zero-fault
// transparency, and the hardened mailbox bounds diagnostics.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/machine.hpp"
#include "sim/measure.hpp"

namespace pim::sim {
namespace {

FaultPlan enabled_plan(u64 seed) {
  FaultPlan plan;
  plan.enabled = true;
  plan.seed = seed;
  return plan;
}

TEST(FaultMachine, DropsAreRetransmittedTransparently) {
  Machine machine(4);
  FaultPlan plan = enabled_plan(1);
  plan.drop_prob = 0.4;
  machine.set_fault_plan(plan);

  machine.mailbox().assign(64, 0);
  Handler echo = [](ModuleCtx& ctx, std::span<const u64> a) {
    ctx.charge(1);
    ctx.reply(a[0], a[1] * 2);
  };
  for (u64 i = 0; i < 64; ++i) machine.send(static_cast<ModuleId>(i % 4), &echo, {i, i + 100});
  machine.run_until_quiescent();

  for (u64 i = 0; i < 64; ++i) EXPECT_EQ(machine.mailbox()[i], 2 * (i + 100));
  const auto& fc = machine.fault_counters();
  EXPECT_GT(fc.drops, 0u);
  EXPECT_GT(fc.retries, 0u);
  EXPECT_EQ(fc.lost, 0u);
}

TEST(FaultMachine, DuplicatesAreChargedButNeverExecuteTwice) {
  Machine machine(4);
  FaultPlan plan = enabled_plan(2);
  plan.dup_prob = 0.5;
  machine.set_fault_plan(plan);

  machine.mailbox().assign(1, 0);
  Handler count = [](ModuleCtx& ctx, std::span<const u64>) {
    ctx.charge(1);
    ctx.reply_add(0, 1);
  };
  const u64 n = 64;
  for (u64 i = 0; i < n; ++i) machine.send(static_cast<ModuleId>(i % 4), &count, {i});
  machine.run_until_quiescent();

  EXPECT_EQ(machine.mailbox()[0], n);  // each task ran exactly once
  EXPECT_GT(machine.fault_counters().dups, 0u);
}

TEST(FaultMachine, ScheduledStallPostponesExecution) {
  Machine machine(2);
  FaultPlan plan = enabled_plan(3);
  plan.stall_windows.push_back(StallWindow{/*module=*/0, /*first_round=*/0, /*rounds=*/3});
  machine.set_fault_plan(plan);

  machine.mailbox().assign(2, 0);
  Handler echo = [](ModuleCtx& ctx, std::span<const u64> a) {
    ctx.charge(1);
    ctx.reply(a[0], 7);
  };
  machine.send(0, &echo, {0ull});
  const u64 rounds = machine.run_until_quiescent();

  EXPECT_EQ(rounds, 4u);  // 3 stalled rounds + 1 executing round
  EXPECT_EQ(machine.mailbox()[0], 7u);
  EXPECT_EQ(machine.fault_counters().stalls, 3u);
}

TEST(FaultMachine, CrashWipesModuleAndNotifiesListeners) {
  Machine machine(4);
  machine.set_fault_plan(enabled_plan(4));
  std::vector<ModuleId> crashed;
  machine.add_crash_listener([&](ModuleId m) { crashed.push_back(m); });

  machine.mailbox().assign(1, 0);
  Handler grow = [](ModuleCtx& ctx, std::span<const u64>) {
    ctx.charge(1);
    ctx.add_space(10);
  };
  machine.send(2, &grow, {});
  machine.run_until_quiescent();
  ASSERT_EQ(machine.module_space(2), 10u);

  machine.crash_module(2);
  EXPECT_TRUE(machine.is_down(2));
  EXPECT_EQ(machine.down_count(), 1u);
  EXPECT_EQ(machine.module_space(2), 0u);
  ASSERT_EQ(crashed.size(), 1u);
  EXPECT_EQ(crashed[0], 2u);
  EXPECT_EQ(machine.fault_counters().crashes, 1u);

  machine.revive(2);
  EXPECT_FALSE(machine.is_down(2));
  EXPECT_EQ(machine.down_count(), 0u);
}

TEST(FaultMachine, SendToDownModuleSurfacesModuleDown) {
  Machine machine(2);
  FaultPlan plan = enabled_plan(5);
  plan.max_send_attempts = 3;
  machine.set_fault_plan(plan);
  machine.crash_module(1);

  machine.mailbox().assign(1, 0);
  Handler echo = [](ModuleCtx& ctx, std::span<const u64>) { ctx.charge(1); };
  machine.send(1, &echo, {});
  try {
    machine.run_until_quiescent();
    FAIL() << "expected StatusError";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.code(), StatusCode::kModuleDown);
  }
  EXPECT_EQ(machine.fault_counters().lost, 1u);
  machine.abort_pending();  // clears the lost record; machine is usable again
  machine.run_until_quiescent();
}

TEST(FaultMachine, PersistentLossSurfacesRetryExhausted) {
  Machine machine(2);
  FaultPlan plan = enabled_plan(6);
  plan.drop_prob = 1.0;
  plan.max_send_attempts = 3;
  machine.set_fault_plan(plan);

  machine.mailbox().assign(1, 0);
  Handler echo = [](ModuleCtx& ctx, std::span<const u64>) { ctx.charge(1); };
  machine.send(0, &echo, {});
  try {
    machine.run_until_quiescent();
    FAIL() << "expected StatusError";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.code(), StatusCode::kRetryExhausted);
    EXPECT_NE(std::string(e.what()).find("retry budget"), std::string::npos);
  }
  const auto& fc = machine.fault_counters();
  EXPECT_EQ(fc.drops, 3u);    // one per delivery attempt
  EXPECT_EQ(fc.retries, 2u);  // attempts 2 and 3 were retransmissions
  EXPECT_EQ(fc.lost, 1u);
}

TEST(FaultMachine, ExponentialBackoffSpacesRetransmissions) {
  Machine machine(1);
  FaultPlan plan = enabled_plan(7);
  plan.drop_prob = 1.0;
  plan.max_send_attempts = 4;
  plan.retry_backoff_rounds = 1;
  machine.set_fault_plan(plan);

  machine.mailbox().assign(1, 0);
  Handler echo = [](ModuleCtx& ctx, std::span<const u64>) { ctx.charge(1); };
  machine.send(0, &echo, {});
  while (machine.fault_counters().lost == 0) {
    ASSERT_LT(machine.rounds(), 32u);
    machine.run_round();  // run_round records losses; only drains throw
  }
  // Delivery attempts at rounds 0, 1, 3 and 7 (backoff 1, 2, 4 rounds).
  EXPECT_EQ(machine.rounds(), 8u);
  EXPECT_EQ(machine.fault_counters().drops, 4u);
  EXPECT_EQ(machine.fault_counters().retries, 3u);
  EXPECT_EQ(machine.fault_counters().lost, 1u);
}

TEST(FaultMachine, ZeroProbabilityPlanIsTransparent) {
  // A plan with everything at zero must leave every metric and result
  // byte-identical to a machine with no plan at all.
  auto workload = [](Machine& machine) {
    machine.mailbox().assign(32, 0);
    static Handler echo = [](ModuleCtx& ctx, std::span<const u64> a) {
      ctx.charge(a[1]);
      ctx.reply(a[0], a[1]);
    };
    static Handler hop = [](ModuleCtx& ctx, std::span<const u64> a) {
      ctx.charge(1);
      ctx.forward(static_cast<ModuleId>(a[2]), &echo, a);
    };
    const Snapshot before = machine.snapshot();
    for (u64 i = 0; i < 32; ++i) {
      machine.send(static_cast<ModuleId>(i % 4), &hop, {i, i + 1, (i + 1) % 4});
    }
    machine.run_until_quiescent();
    return std::make_pair(machine.delta(before), machine.mailbox());
  };

  Machine plain(4);
  Machine faulty(4);
  faulty.set_fault_plan(enabled_plan(8));  // enabled, all probabilities zero
  const auto [d0, mail0] = workload(plain);
  const auto [d1, mail1] = workload(faulty);

  EXPECT_EQ(mail0, mail1);
  EXPECT_EQ(d0.io_time, d1.io_time);
  EXPECT_EQ(d0.rounds, d1.rounds);
  EXPECT_EQ(d0.messages, d1.messages);
  EXPECT_EQ(d0.pim_time, d1.pim_time);
  EXPECT_EQ(d1.faults, FaultCounters{});
}

TEST(FaultMachine, FaultCountersFlowThroughSnapshotDelta) {
  Machine machine(4);
  FaultPlan plan = enabled_plan(9);
  plan.drop_prob = 0.5;
  machine.set_fault_plan(plan);
  machine.mailbox().assign(16, 0);
  Handler echo = [](ModuleCtx& ctx, std::span<const u64> a) {
    ctx.charge(1);
    ctx.reply(a[0], 1);
  };

  const Snapshot before = machine.snapshot();
  for (u64 i = 0; i < 16; ++i) machine.send(static_cast<ModuleId>(i % 4), &echo, {i});
  machine.run_until_quiescent();
  const MachineDelta d = machine.delta(before);
  EXPECT_EQ(d.faults.drops, machine.fault_counters().drops);
  EXPECT_GT(d.faults.drops, 0u);

  // A second snapshot window sees only its own faults.
  const Snapshot mid = machine.snapshot();
  EXPECT_EQ(machine.delta(mid).faults, FaultCounters{});
}

// ---- satellite: hardened mailbox diagnostics ----

TEST(FaultMachine, ReplyOutOfRangeNamesModuleAndSlot) {
  Machine machine(4);
  machine.mailbox().assign(4, 0);
  Handler bad = [](ModuleCtx& ctx, std::span<const u64>) { ctx.reply(99, 1); };
  machine.send(2, &bad, {});
  try {
    machine.run_until_quiescent();
    FAIL() << "expected logic_error";
  } catch (const std::logic_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("mailbox slot out of range"), std::string::npos) << msg;
    EXPECT_NE(msg.find("module 2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("slot 99"), std::string::npos) << msg;
    EXPECT_NE(msg.find("mailbox size 4"), std::string::npos) << msg;
  }
}

TEST(FaultMachine, ReplyBlockOverflowIsRejectedWithoutWrapping) {
  Machine machine(1);
  machine.mailbox().assign(4, 0);
  // slot + size would overflow naive arithmetic; the check must still fire.
  Handler bad = [](ModuleCtx& ctx, std::span<const u64>) {
    const u64 vals[2] = {1, 2};
    ctx.reply_block(UINT64_MAX, vals);
  };
  machine.send(0, &bad, {});
  EXPECT_THROW(machine.run_until_quiescent(), std::logic_error);
}

// ---- satellite: diagnosable drain-stuck error ----

TEST(FaultMachine, DrainStuckReportsRoundsPendingAndQueueDepths) {
  MachineOptions options;
  options.max_rounds_per_drain = 8;
  Machine machine(2, options);
  machine.mailbox().assign(1, 0);
  // A task that forwards to itself forever: the drain can never finish.
  static Handler* self = nullptr;
  static Handler loop = [](ModuleCtx& ctx, std::span<const u64> a) {
    ctx.charge(1);
    ctx.forward(ctx.id(), self, a);
  };
  self = &loop;
  machine.send(0, &loop, {});
  try {
    machine.run_until_quiescent();
    FAIL() << "expected StatusError";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.code(), StatusCode::kDrainStuck);
    const std::string msg = e.what();
    EXPECT_NE(msg.find("8 rounds"), std::string::npos) << msg;
    EXPECT_NE(msg.find("max_rounds_per_drain=8"), std::string::npos) << msg;
    EXPECT_NE(msg.find("pending="), std::string::npos) << msg;
    EXPECT_NE(msg.find("m0="), std::string::npos) << msg;
    EXPECT_NE(msg.find("m1="), std::string::npos) << msg;
  }
}

// ---- checksum envelope (transit corruption) ----

TEST(FaultMachine, ChecksumEnvelopeSealsPayload) {
  Handler noop = [](ModuleCtx&, std::span<const u64>) {};
  const u64 words[] = {1, 2, 3};
  Task t = make_task(&noop, words);
  EXPECT_TRUE(t.checksum_ok());
  t.args[1] ^= 1ull << 17;
  EXPECT_FALSE(t.checksum_ok());
  t.args[1] ^= 1ull << 17;
  EXPECT_TRUE(t.checksum_ok());
  t.checksum ^= 1;  // a damaged envelope is equally a damaged message
  EXPECT_FALSE(t.checksum_ok());

  // Zero-argument tasks are protected too (the checksum word itself is a
  // corruption target).
  Task empty = make_task(&noop, std::span<const u64>{});
  EXPECT_TRUE(empty.checksum_ok());
  empty.checksum ^= 1ull << 63;
  EXPECT_FALSE(empty.checksum_ok());
}

TEST(FaultMachine, CorruptedDeliveriesAreRejectedAndRetried) {
  Machine machine(4);
  FaultPlan plan = enabled_plan(31);
  plan.corrupt_prob = 0.2;
  machine.set_fault_plan(plan);

  machine.mailbox().assign(64, 0);
  // The handler cross-checks its payload: a corrupted task must never
  // reach execution — the envelope rejects it at delivery.
  Handler echo = [](ModuleCtx& ctx, std::span<const u64> a) {
    ctx.charge(1);
    EXPECT_EQ(a[1], a[0] + 1000);
    ctx.reply(a[0], a[1]);
  };
  for (u64 i = 0; i < 64; ++i) {
    machine.send(static_cast<ModuleId>(i % 4), &echo, {i, i + 1000});
  }
  machine.run_until_quiescent();

  for (u64 i = 0; i < 64; ++i) EXPECT_EQ(machine.mailbox()[i], i + 1000);
  const auto& fc = machine.fault_counters();
  EXPECT_GT(fc.payload_corruptions, 0u);
  // Every injected corruption is caught: the flip always lands in the
  // sealed payload or the checksum word, so detection is exhaustive.
  EXPECT_EQ(fc.checksum_rejects, fc.payload_corruptions);
  EXPECT_GT(fc.retries, 0u);
  EXPECT_EQ(fc.lost, 0u);
  EXPECT_EQ(fc.drops, 0u);  // rejects are counted separately from drops
}

TEST(FaultMachine, FullyCorruptedLinkExhaustsRetryBudget) {
  Machine machine(2);
  FaultPlan plan = enabled_plan(32);
  plan.corrupt_prob = 1.0;
  machine.set_fault_plan(plan);

  machine.mailbox().assign(1, 0);
  Handler echo = [](ModuleCtx& ctx, std::span<const u64> a) {
    ctx.charge(1);
    ctx.reply(0, a[0]);
  };
  machine.send(1, &echo, {42ull});
  try {
    machine.run_until_quiescent();
    FAIL() << "a fully corrupted link must exhaust the retry budget";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.code(), StatusCode::kRetryExhausted);
  }
  const auto& fc = machine.fault_counters();
  EXPECT_EQ(fc.payload_corruptions, plan.max_send_attempts);
  EXPECT_EQ(fc.checksum_rejects, plan.max_send_attempts);
  EXPECT_EQ(fc.lost, 1u);
  EXPECT_EQ(machine.mailbox()[0], 0u);  // the corrupted payload never landed
}

// ---- plan validation ----

TEST(FaultMachine, MalformedPlansAreRejectedAsInvalidArgument) {
  Machine machine(4);
  const auto expect_rejected = [&](FaultPlan plan, const char* what) {
    try {
      machine.set_fault_plan(plan);
      FAIL() << what << " must be rejected";
    } catch (const StatusError& e) {
      EXPECT_EQ(e.code(), StatusCode::kInvalidArgument) << what;
    }
  };

  FaultPlan bad = enabled_plan(1);
  bad.drop_prob = -0.1;
  expect_rejected(bad, "negative drop_prob");
  bad = enabled_plan(1);
  bad.dup_prob = 1.5;
  expect_rejected(bad, "dup_prob > 1");
  bad = enabled_plan(1);
  bad.stall_prob = 2.0;
  expect_rejected(bad, "stall_prob > 1");
  bad = enabled_plan(1);
  bad.corrupt_prob = -1e-9;
  expect_rejected(bad, "negative corrupt_prob");
  bad = enabled_plan(1);
  bad.mem_corrupt_prob = 1.0001;
  expect_rejected(bad, "mem_corrupt_prob > 1");
  bad = enabled_plan(1);
  bad.max_send_attempts = 0;
  expect_rejected(bad, "zero retry budget");
  bad = enabled_plan(1);
  bad.retry_backoff_rounds = 0;
  expect_rejected(bad, "zero backoff");
  bad = enabled_plan(1);
  bad.crashes = {{/*module=*/4, /*round=*/10}};
  expect_rejected(bad, "crash event naming module >= P");
  bad = enabled_plan(1);
  bad.stall_windows = {{/*module=*/7, /*first_round=*/0, /*rounds=*/1}};
  expect_rejected(bad, "stall window naming module >= P");
  bad = enabled_plan(1);
  bad.mem_corruptions = {{/*module=*/4, /*round=*/3}};
  expect_rejected(bad, "mem-corruption event naming module >= P");

  // A rejected plan must not clobber the installed one.
  FaultPlan good = enabled_plan(9);
  good.drop_prob = 0.25;
  machine.set_fault_plan(good);
  bad = enabled_plan(1);
  bad.drop_prob = 7.0;
  expect_rejected(bad, "re-validation after a good plan");
  EXPECT_TRUE(machine.fault_active());

  // Boundary probabilities are legal.
  FaultPlan edge = enabled_plan(2);
  edge.drop_prob = 0.0;
  edge.corrupt_prob = 1.0;
  machine.set_fault_plan(edge);
  EXPECT_TRUE(machine.fault_active());
}

// ---- crash / revive / corrupt API edge cases ----

TEST(FaultMachine, CrashAndReviveEdgeCasesAreDefined) {
  Machine machine(4);
  machine.set_fault_plan(enabled_plan(5));
  u32 crash_notifications = 0;
  machine.add_crash_listener([&](ModuleId) { ++crash_notifications; });

  // revive() of a module that never crashed is an idempotent no-op.
  machine.revive(2);
  EXPECT_EQ(machine.down_count(), 0u);
  EXPECT_FALSE(machine.is_down(2));

  // A module cannot die twice: the second crash_module is a no-op and
  // listeners fire exactly once.
  machine.crash_module(1);
  machine.crash_module(1);
  EXPECT_EQ(machine.fault_counters().crashes, 1u);
  EXPECT_EQ(crash_notifications, 1u);
  EXPECT_EQ(machine.down_count(), 1u);

  // Double revive is equally idempotent.
  machine.revive(1);
  machine.revive(1);
  EXPECT_EQ(machine.down_count(), 0u);

  // Module ids >= P are structured errors, not undefined behavior.
  const auto expect_invalid = [&](auto&& fn) {
    try {
      fn();
      FAIL() << "module id >= P must be rejected";
    } catch (const StatusError& e) {
      EXPECT_EQ(e.code(), StatusCode::kInvalidArgument);
    }
  };
  expect_invalid([&] { machine.crash_module(4); });
  expect_invalid([&] { machine.revive(17); });
  expect_invalid([&] { machine.corrupt_module_memory(4); });
}

TEST(FaultMachine, MemCorruptionListenersFireDeterministically) {
  const auto run = [](bool down_target) {
    Machine machine(4);
    FaultPlan plan = enabled_plan(77);
    plan.mem_corruptions = {{/*module=*/2, /*round=*/0}};
    machine.set_fault_plan(plan);
    std::vector<std::pair<ModuleId, u64>> strikes;
    machine.add_mem_corrupt_listener(
        [&](ModuleId m, u64 draw) { strikes.emplace_back(m, draw); });

    // Direct strike (chaos-driver path).
    machine.corrupt_module_memory(1);
    // A down module has no memory left to corrupt: silently skipped.
    if (down_target) {
      machine.crash_module(3);
      machine.corrupt_module_memory(3);
    }
    // The scheduled event fires at the start of the drain's first round.
    Handler noop = [](ModuleCtx& ctx, std::span<const u64>) { ctx.charge(1); };
    machine.send(0, &noop, {});
    machine.run_until_quiescent();
    return std::make_pair(strikes, machine.fault_counters().mem_corruptions);
  };

  const auto [strikes, fired] = run(false);
  ASSERT_EQ(strikes.size(), 2u);
  EXPECT_EQ(strikes[0].first, 1u);  // direct
  EXPECT_EQ(strikes[1].first, 2u);  // scheduled
  EXPECT_EQ(fired, 2u);

  // Striking a down module applies nothing; draws stay deterministic for
  // the surviving strikes.
  const auto [strikes2, fired2] = run(true);
  ASSERT_EQ(strikes2.size(), 2u);
  EXPECT_EQ(strikes2[0], strikes[0]);
  EXPECT_EQ(fired2, 2u);
}

// ---- graceful degradation: deadlines, admission, hedging, breaker ----

TEST(FaultMachine, RoundBudgetSurfacesDeadlineExceeded) {
  Machine machine(2);
  FaultPlan plan = enabled_plan(40);
  plan.stall_windows.push_back(StallWindow{/*module=*/0, /*first_round=*/0, /*rounds=*/10});
  machine.set_fault_plan(plan);

  machine.mailbox().assign(1, 0);
  Handler echo = [](ModuleCtx& ctx, std::span<const u64> a) {
    ctx.charge(1);
    ctx.reply(a[0], 7);
  };
  machine.send(0, &echo, {0ull});
  machine.set_round_budget(RoundBudget{/*max_rounds=*/3, /*max_retries=*/0});
  ASSERT_TRUE(machine.round_budget_armed());
  try {
    machine.run_until_quiescent();
    FAIL() << "expected StatusError";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.code(), StatusCode::kDeadlineExceeded);
    const std::string msg = e.what();
    EXPECT_NE(msg.find("round budget exceeded"), std::string::npos) << msg;
    EXPECT_NE(msg.find("queued="), std::string::npos) << msg;
  }
  EXPECT_GT(machine.budget_rounds_used(), 3u);

  // Disarmed, the same drain completes once the stall window ends.
  machine.clear_round_budget();
  EXPECT_FALSE(machine.round_budget_armed());
  machine.run_until_quiescent();
  EXPECT_EQ(machine.mailbox()[0], 7u);
}

TEST(FaultMachine, RetransmissionBudgetSurfacesDeadlineExceeded) {
  Machine machine(2);
  FaultPlan plan = enabled_plan(41);
  plan.drop_prob = 1.0;  // six attempts before kRetryExhausted...
  machine.set_fault_plan(plan);

  machine.mailbox().assign(1, 0);
  Handler echo = [](ModuleCtx& ctx, std::span<const u64>) { ctx.charge(1); };
  machine.send(0, &echo, {});
  // ...but the budget caps retransmission cost long before that.
  machine.set_round_budget(RoundBudget{/*max_rounds=*/0, /*max_retries=*/2});
  try {
    machine.run_until_quiescent();
    FAIL() << "expected StatusError";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.code(), StatusCode::kDeadlineExceeded);
  }
  EXPECT_GT(machine.budget_retries_used(), 2u);
  EXPECT_EQ(machine.fault_counters().lost, 0u);  // budget fired first
  machine.clear_round_budget();
  machine.abort_pending();
}

TEST(FaultMachine, TrySendShedsWhenIngressQueueIsFull) {
  MachineOptions options;
  options.max_queue_depth = 2;
  Machine machine(2, options);
  machine.mailbox().assign(1, 0);
  Handler count = [](ModuleCtx& ctx, std::span<const u64>) {
    ctx.charge(1);
    ctx.reply_add(0, 1);
  };
  EXPECT_TRUE(machine.try_send(0, &count, {1ull}).ok());
  EXPECT_TRUE(machine.try_send(0, &count, {2ull}).ok());
  const Status shed = machine.try_send(0, &count, {3ull});
  EXPECT_EQ(shed.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(shed.message().find("ingress queue full"), std::string::npos) << shed.message();
  EXPECT_EQ(machine.fault_counters().sheds, 1u);

  machine.run_until_quiescent();
  EXPECT_EQ(machine.mailbox()[0], 2u);  // the shed task never ran
  EXPECT_TRUE(machine.try_send(0, &count, {3ull}).ok());  // drained: admitted again
  machine.run_until_quiescent();
  EXPECT_EQ(machine.mailbox()[0], 3u);
}

TEST(FaultMachine, SendAllAdmittedSpillsOverflowIntoBackoffWaves) {
  MachineOptions options;
  options.max_queue_depth = 2;
  Machine machine(2, options);
  machine.mailbox().assign(1, 0);
  static Handler count = [](ModuleCtx& ctx, std::span<const u64>) {
    ctx.charge(1);
    ctx.reply_add(0, 1);
  };
  std::vector<Message> msgs;
  for (u64 i = 0; i < 8; ++i) msgs.push_back(Message{0, make_task(&count, {i})});
  machine.send_all_admitted(msgs);
  machine.run_until_quiescent();

  EXPECT_EQ(machine.mailbox()[0], 8u);  // nothing was lost, only delayed
  const auto& fc = machine.fault_counters();
  EXPECT_GT(fc.sheds, 0u);
  EXPECT_GT(fc.requeued, 0u);
}

TEST(FaultMachine, UnboundedQueueKeepsSendAllAdmittedTransparent) {
  // max_queue_depth == 0 must be byte-for-byte the plain send loop.
  auto workload = [](Machine& machine, bool batched) {
    machine.mailbox().assign(8, 0);
    static Handler echo = [](ModuleCtx& ctx, std::span<const u64> a) {
      ctx.charge(1);
      ctx.reply(a[0], a[0] + 1);
    };
    const Snapshot before = machine.snapshot();
    if (batched) {
      std::vector<Message> msgs;
      for (u64 i = 0; i < 8; ++i) {
        msgs.push_back(Message{static_cast<ModuleId>(i % 2), make_task(&echo, {i})});
      }
      machine.send_all_admitted(msgs);
    } else {
      for (u64 i = 0; i < 8; ++i) machine.send(static_cast<ModuleId>(i % 2), &echo, {i});
    }
    machine.run_until_quiescent();
    return std::make_pair(machine.delta(before), machine.mailbox());
  };
  Machine plain(2);
  Machine batched(2);
  const auto [d0, mail0] = workload(plain, false);
  const auto [d1, mail1] = workload(batched, true);
  EXPECT_EQ(mail0, mail1);
  EXPECT_EQ(d0.rounds, d1.rounds);
  EXPECT_EQ(d0.io_time, d1.io_time);
  EXPECT_EQ(d0.messages, d1.messages);
  EXPECT_EQ(d1.faults, FaultCounters{});
}

TEST(FaultMachine, HedgedSendOutrunsStalledModule) {
  MachineOptions options;
  options.hedge_stall_rounds = 2;
  Machine machine(4, options);
  FaultPlan plan = enabled_plan(42);
  plan.stall_windows.push_back(StallWindow{/*module=*/0, /*first_round=*/0, /*rounds=*/30});
  machine.set_fault_plan(plan);

  machine.mailbox().assign(1, 0);
  Handler echo = [](ModuleCtx& ctx, std::span<const u64> a) {
    ctx.charge(1);
    ctx.reply(a[0], 7);
  };
  machine.send_hedged(0, &echo, {0ull});
  const u64 rounds = machine.run_until_quiescent();

  EXPECT_EQ(machine.mailbox()[0], 7u);
  EXPECT_LT(rounds, 10u);  // nowhere near the 30-round stall
  const auto& fc = machine.fault_counters();
  EXPECT_EQ(fc.hedges, 1u);
  EXPECT_EQ(fc.hedge_wins, 1u);
  EXPECT_EQ(fc.hedge_waste, 0u);
}

TEST(FaultMachine, LosingHedgeIsDiscardedAsWaste) {
  MachineOptions options;
  options.hedge_stall_rounds = 2;
  Machine machine(4, options);
  FaultPlan plan = enabled_plan(43);
  // The stall ends exactly when the hedge copy lands: the original
  // executes first (module-id order in the prepass) and the copy is
  // dequeued unrun as waste.
  plan.stall_windows.push_back(StallWindow{/*module=*/0, /*first_round=*/0, /*rounds=*/2});
  machine.set_fault_plan(plan);

  machine.mailbox().assign(1, 0);
  Handler echo = [](ModuleCtx& ctx, std::span<const u64> a) {
    ctx.charge(1);
    ctx.reply(a[0], 9);
  };
  machine.send_hedged(0, &echo, {0ull});
  machine.run_until_quiescent();

  EXPECT_EQ(machine.mailbox()[0], 9u);
  const auto& fc = machine.fault_counters();
  EXPECT_EQ(fc.hedges, 1u);
  EXPECT_EQ(fc.hedge_wins, 0u);
  EXPECT_EQ(fc.hedge_waste, 1u);
}

TEST(FaultMachine, HedgedSendToDownModuleReroutesInsteadOfDying) {
  MachineOptions options;
  options.hedge_stall_rounds = 2;
  Machine machine(4, options);
  machine.set_fault_plan(enabled_plan(44));
  machine.crash_module(1);

  machine.mailbox().assign(1, 0);
  Handler echo = [](ModuleCtx& ctx, std::span<const u64> a) {
    ctx.charge(1);
    ctx.reply(a[0], 5);
  };
  machine.send_hedged(1, &echo, {0ull});
  machine.run_until_quiescent();  // no throw: the task found a live replica
  EXPECT_EQ(machine.mailbox()[0], 5u);
  EXPECT_EQ(machine.fault_counters().hedges, 1u);
  EXPECT_EQ(machine.fault_counters().lost, 0u);

  // The same send without hedging dies with the module.
  Machine bare(4);
  bare.set_fault_plan(enabled_plan(44));
  bare.crash_module(1);
  bare.mailbox().assign(1, 0);
  bare.send_hedged(1, &echo, {0ull});
  EXPECT_THROW(bare.run_until_quiescent(), StatusError);
}

TEST(FaultMachine, HedgeRerouteIsChargedWhicheverModuleItLandsOn) {
  // Every delivery attempt occupies the h-relation, the reroute of a
  // hedged send included, whether the replica it lands on has a higher
  // or a lower id than the down module.
  Handler echo = [](ModuleCtx& ctx, std::span<const u64> a) {
    ctx.charge(1);
    ctx.reply(a[0], 5);
  };
  std::vector<std::pair<u64, u64>> io_and_messages;
  for (ModuleId down = 0; down < 4; ++down) {
    MachineOptions options;
    options.hedge_stall_rounds = 2;
    Machine machine(4, options);
    machine.set_fault_plan(enabled_plan(44));
    machine.crash_module(down);
    machine.mailbox().assign(1, 0);
    machine.send_hedged(down, &echo, {0ull});
    machine.run_until_quiescent();
    ASSERT_EQ(machine.mailbox()[0], 5u);
    io_and_messages.emplace_back(machine.io_time(), machine.messages());
  }
  for (ModuleId down = 1; down < 4; ++down) {
    EXPECT_EQ(io_and_messages[down], io_and_messages[0]) << "down module " << down;
  }
}

TEST(FaultMachine, HedgingDisabledKeepsMetricsBitIdentical) {
  // With hedge_stall_rounds == 0 a hedged send must be indistinguishable
  // from a plain send, even under faults (stalls included).
  auto workload = [](Machine& machine, bool hedged) {
    FaultPlan plan = enabled_plan(45);
    plan.stall_windows.push_back(StallWindow{/*module=*/0, /*first_round=*/0, /*rounds=*/3});
    machine.set_fault_plan(plan);
    machine.mailbox().assign(8, 0);
    static Handler echo = [](ModuleCtx& ctx, std::span<const u64> a) {
      ctx.charge(1);
      ctx.reply(a[0], a[0] + 1);
    };
    const Snapshot before = machine.snapshot();
    for (u64 i = 0; i < 8; ++i) {
      if (hedged) {
        machine.send_hedged(static_cast<ModuleId>(i % 4), &echo, {i});
      } else {
        machine.send(static_cast<ModuleId>(i % 4), &echo, {i});
      }
    }
    machine.run_until_quiescent();
    return std::make_pair(machine.delta(before), machine.mailbox());
  };
  Machine plain(4);
  Machine hedged(4);
  const auto [d0, mail0] = workload(plain, false);
  const auto [d1, mail1] = workload(hedged, true);
  EXPECT_EQ(mail0, mail1);
  EXPECT_EQ(d0.rounds, d1.rounds);
  EXPECT_EQ(d0.io_time, d1.io_time);
  EXPECT_EQ(d0.messages, d1.messages);
  EXPECT_EQ(d0.faults, d1.faults);
  EXPECT_EQ(d1.faults.hedges, 0u);
}

TEST(FaultMachine, CrashReoffersQueuedTasksThroughRetryPath) {
  Machine machine(2);
  FaultPlan plan = enabled_plan(46);
  // Stall the target for the delivery round so tasks sit delivered-but-
  // unexecuted when the crash strikes.
  plan.stall_windows.push_back(StallWindow{/*module=*/1, /*first_round=*/0, /*rounds=*/1});
  machine.set_fault_plan(plan);

  machine.mailbox().assign(1, 0);
  Handler count = [](ModuleCtx& ctx, std::span<const u64>) {
    ctx.charge(1);
    ctx.reply_add(0, 1);
  };
  for (u64 i = 0; i < 3; ++i) machine.send(1, &count, {i});
  machine.run_round();  // delivered into module 1's queue, stalled, unrun
  machine.crash_module(1);
  machine.revive(1);
  machine.run_until_quiescent();

  // Nothing vanished: every queued task was re-offered and executed after
  // the revive, exactly once.
  EXPECT_EQ(machine.mailbox()[0], 3u);
  const auto& fc = machine.fault_counters();
  EXPECT_GE(fc.drops, 3u);
  EXPECT_GE(fc.retries, 3u);
  EXPECT_EQ(fc.lost, 0u);
}

TEST(FaultMachine, StallWindowCoveringCrashRoundIsVoid) {
  // Pinned semantics: crash wins, stall is moot. A revived module restarts
  // fresh; the scheduled straggler died with it.
  Handler echo = [](ModuleCtx& ctx, std::span<const u64> a) {
    ctx.charge(1);
    ctx.reply(a[0], 11);
  };
  const auto make = [&] {
    Machine machine(1);
    FaultPlan plan = enabled_plan(47);
    plan.stall_windows.push_back(StallWindow{/*module=*/0, /*first_round=*/0, /*rounds=*/6});
    machine.set_fault_plan(plan);
    machine.mailbox().assign(1, 0);
    machine.send(0, &echo, {0ull});
    return machine;
  };

  // Control: the full window postpones execution to round 6.
  Machine control = make();
  control.run_until_quiescent();
  EXPECT_EQ(control.mailbox()[0], 11u);
  EXPECT_EQ(control.fault_counters().stalls, 6u);

  // Crash at round 2, inside the window: the remainder of the window is
  // void, so after the revive the redelivered task runs without waiting
  // for round 6.
  Machine crashed = make();
  crashed.run_round();
  crashed.run_round();
  crashed.crash_module(0);  // re-offers the queued task via the retry path
  crashed.revive(0);
  crashed.run_until_quiescent();
  EXPECT_EQ(crashed.mailbox()[0], 11u);
  EXPECT_EQ(crashed.fault_counters().stalls, 2u);  // rounds 0 and 1 only
}

TEST(FaultMachine, BreakerMarksModuleSuspectAfterConsecutiveLosses) {
  MachineOptions options;
  options.breaker_strikes = 2;
  Machine machine(2, options);
  FaultPlan plan = enabled_plan(48);
  plan.max_send_attempts = 2;
  plan.overload_windows.push_back(
      OverloadWindow{/*module=*/1, /*first_round=*/0, /*rounds=*/1000});
  machine.set_fault_plan(plan);

  machine.mailbox().assign(1, 0);
  Handler echo = [](ModuleCtx& ctx, std::span<const u64>) { ctx.charge(1); };
  machine.send(1, &echo, {});
  machine.send(1, &echo, {});
  try {
    machine.run_until_quiescent();
    FAIL() << "expected StatusError";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.code(), StatusCode::kRetryExhausted);  // module 1 is up, just deaf
  }
  // Two consecutive losses against an *up* module tripped the breaker:
  // the owner should fail-stop module 1 and recover it surgically.
  EXPECT_TRUE(machine.is_suspect(1));
  EXPECT_EQ(machine.suspect_count(), 1u);
  EXPECT_EQ(machine.fault_counters().breaker_trips, 1u);
  EXPECT_GT(machine.fault_counters().sheds, 0u);
  machine.clear_suspect(1);
  EXPECT_FALSE(machine.is_suspect(1));
  EXPECT_EQ(machine.suspect_count(), 0u);
  machine.abort_pending();
}

}  // namespace
}  // namespace pim::sim
