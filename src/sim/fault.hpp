// Deterministic, seeded fault injection for the PIM machine.
//
// The model of paper §2.1 assumes P always-alive modules and a reliable
// network. Real PIM hardware (UPMEM-class; see the PIM-tree follow-up)
// loses transfers, has straggler DPUs, and loses whole modules. This
// subsystem injects those faults into the simulator reproducibly:
//
//   * drop  — a CPU->module delivery (including the redelivery hop of a
//     module->module forward) is lost in transit. The sender's reliable-
//     delivery layer (epoch-tagged reply slots + bounded-round timeout,
//     implemented centrally in Machine) retransmits with exponential
//     round-backoff until max_send_attempts is exhausted, after which the
//     message is declared lost and the next drain raises a pim::Status
//     error (kModuleDown if the target crashed, else kRetryExhausted).
//   * dup   — a delivery arrives twice; the receiver's epoch filter
//     discards the copy before processing. Costs one extra incoming
//     message (it occupies the h-relation), executes nothing.
//   * stall — a straggler module skips executing its queue for a round
//     (deliveries still land; the tasks run when the stall ends).
//   * crash — fail-stop: the module's local memory, delivered queue and
//     pending messages are wiped; the machine marks it down and invokes
//     crash listeners so the owning data structure can invalidate its
//     state. Deliveries to a down module count as drops and eventually
//     surface kModuleDown. Machine::revive() brings the module back
//     (empty); structure-level recovery repopulates it.
//   * corrupt (transit) — a delivery's payload is silently altered in the
//     network (one bit of one payload word, or of the checksum envelope
//     itself, chosen by the fault draw). The receiver verifies the
//     checksum at delivery; a mismatch is counted and treated exactly
//     like a drop, so corruption and omission share one recovery
//     machinery (epoch-tagged retransmission of the *original* message).
//   * mem-corrupt (at rest) — a word of a module's local memory flips
//     between rounds with no message involved. The machine cannot see it
//     (that is what "silent" means); it invokes memory-corruption
//     listeners with a deterministic draw and the owning data structure
//     applies the flip to its own state. Detection and repair belong to
//     the structure's scrubber (core/scrubber).
//
// Determinism: probabilistic decisions are pure hashes of
// (seed, epoch, round, target module, task payload) — never of pointer
// values or delivery order — so the same FaultPlan produces bit-identical
// fault sequences under the sequential, shuffled and parallel executors.
// At-rest draws have no payload and hash (seed, epoch, round, module)
// like stalls; both new kinds reuse the same mix64 content-hash scheme.
//
// Plan validation: set_plan / Machine::set_fault_plan reject malformed
// plans (probabilities outside [0,1], a zero retry budget, events naming
// modules >= P) with a structured pim::Status (kInvalidArgument) instead
// of silently misbehaving.
#pragma once

#include <vector>

#include "common/types.hpp"
#include "sim/message.hpp"
#include "sim/metrics.hpp"

namespace pim::sim {

/// A scheduled straggler: module `module` skips execution for `rounds`
/// consecutive rounds starting at absolute machine round `first_round`.
///
/// Overlap with a crash is pinned: if the module crashes at a round the
/// window covers, the crash wins and the remainder of the window is moot —
/// the straggler the window scheduled died, and a module revived inside
/// the window restarts fresh (it does not resume stalling). Windows that
/// start after the revive, and probabilistic stall draws, apply normally.
struct StallWindow {
  ModuleId module = 0;
  u64 first_round = 0;
  u64 rounds = 1;
};

/// Sustained ingress overload: every delivery to `module` during the
/// window is rejected at the module's ingress (counted as a shed AND a
/// drop, then retried with the normal backoff). Models a saturated module
/// whose bounded queue sheds load; a window that outlasts the retry
/// budget produces lost messages against an *up* module — exactly the
/// signature the circuit breaker converts into a fail-stop crash.
struct OverloadWindow {
  ModuleId module = 0;
  u64 first_round = 0;
  u64 rounds = 1;
};

/// Correlated straggler storm: during the window, each module
/// independently stalls each round with probability `fraction` (a pure
/// content hash of (seed, round, module), so the same modules stall under
/// every executor). Degraded-mode benches sweep `fraction` to model 5% /
/// 20% of modules straggling at once.
struct StallStorm {
  u64 first_round = 0;
  u64 rounds = 1;
  double fraction = 0.0;
};

/// A scheduled fail-stop crash at the start of absolute round `round`.
struct CrashEvent {
  ModuleId module = 0;
  u64 round = 0;
};

/// A scheduled at-rest memory corruption striking module `module` at the
/// start of absolute round `round`.
struct MemCorruptEvent {
  ModuleId module = 0;
  u64 round = 0;
};

struct FaultPlan {
  bool enabled = false;
  u64 seed = 0;

  // Probabilistic faults, probability per delivery (resp. per
  // module-round for stall_prob and mem_corrupt_prob), in [0, 1].
  double drop_prob = 0.0;
  double dup_prob = 0.0;
  double stall_prob = 0.0;
  /// Payload corruption in transit, per delivery.
  double corrupt_prob = 0.0;
  /// Local-memory corruption at rest, per module-round.
  double mem_corrupt_prob = 0.0;

  // Scheduled faults (absolute machine rounds).
  std::vector<StallWindow> stall_windows;
  std::vector<CrashEvent> crashes;
  std::vector<MemCorruptEvent> mem_corruptions;
  std::vector<OverloadWindow> overload_windows;
  std::vector<StallStorm> stall_storms;

  // Reliable-delivery policy: a dropped message is retransmitted after
  // retry_backoff_rounds << attempt rounds, up to max_send_attempts total
  // delivery attempts.
  u32 max_send_attempts = 6;
  u64 retry_backoff_rounds = 1;
};

class FaultInjector {
 public:
  void set_plan(const FaultPlan& plan);
  bool active() const { return plan_.enabled; }
  const FaultPlan& plan() const { return plan_; }

  FaultCounters& counters() { return counters_; }
  const FaultCounters& counters() const { return counters_; }

  /// Batch-operation epoch: drivers bump it per batch so fault draws are
  /// decorrelated across (re-)executions of identical payloads.
  u64 epoch() const { return epoch_; }
  void begin_epoch() { ++epoch_; }

  // Pure decision functions (no state mutation; callers count).
  bool should_drop(u64 round, ModuleId target, const Task& task) const {
    return hit(drop_threshold_, decide(kDropSalt, round, target, task));
  }
  bool should_dup(u64 round, ModuleId target, const Task& task) const {
    return hit(dup_threshold_, decide(kDupSalt, round, target, task));
  }
  /// Straggler decision for (round, m): scheduled windows, storm draws and
  /// the probabilistic stall. `last_crash_round` is the round of m's most
  /// recent crash (kNeverCrashed if none): a window that covers it is
  /// voided — crash wins, stall is moot (see StallWindow).
  static constexpr u64 kNeverCrashed = ~0ull;
  bool is_stalled(u64 round, ModuleId m, u64 last_crash_round = kNeverCrashed) const;
  /// Scheduled ingress-overload decision for (round, m).
  bool is_overloaded(u64 round, ModuleId m) const;

  /// Transit-corruption decision for one delivery (content-hash of the
  /// original payload, so retransmissions of a corrupted message draw
  /// afresh via the attempt-bumped round).
  bool should_corrupt(u64 round, ModuleId target, const Task& task) const {
    return hit(corrupt_threshold_, decide(kCorruptSalt, round, target, task));
  }
  /// Deterministic draw steering *which* word/bit a transit corruption
  /// flips. Distinct salt so it is independent of the hit decision.
  u64 corrupt_draw(u64 round, ModuleId target, const Task& task) const {
    return decide(kCorruptBitSalt, round, target, task);
  }

  /// At-rest corruption decision for (round, module): probabilistic draw
  /// plus scheduled MemCorruptEvents.
  bool should_corrupt_memory(u64 round, ModuleId m) const;
  /// Deterministic draw steering what an at-rest corruption hits; `nonce`
  /// decorrelates multiple strikes on the same (round, module).
  u64 mem_corrupt_draw(u64 round, ModuleId m, u64 nonce) const;

 private:
  static constexpr u64 kDropSalt = 0xD509D509D509D509ull;
  static constexpr u64 kDupSalt = 0xD0B1D0B1D0B1D0B1ull;
  static constexpr u64 kStallSalt = 0x57A1157A1157A115ull;
  static constexpr u64 kStormSalt = 0x5709357093570935ull;
  static constexpr u64 kCorruptSalt = 0xC0440C0440C0440Cull;
  static constexpr u64 kCorruptBitSalt = 0xB17FB17FB17FB17Full;
  static constexpr u64 kMemCorruptSalt = 0x3E3E3E3E3E3E3E3Eull;

  static bool hit(u64 threshold, u64 hash) {
    return threshold != 0 && (threshold == UINT64_MAX || hash < threshold);
  }
  u64 decide(u64 salt, u64 round, ModuleId target, const Task& task) const;

  FaultPlan plan_;
  FaultCounters counters_;
  u64 epoch_ = 0;
  u64 drop_threshold_ = 0;
  u64 dup_threshold_ = 0;
  u64 stall_threshold_ = 0;
  u64 corrupt_threshold_ = 0;
  u64 mem_corrupt_threshold_ = 0;
  std::vector<u64> storm_thresholds_;  // parallel to plan_.stall_storms
};

}  // namespace pim::sim
