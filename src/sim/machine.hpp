// The PIM machine simulator.
//
// Implements the model of paper §2.1 (Fig. 1): P PIM modules (core + local
// memory) connected to the CPU side by a network operating in
// bulk-synchronous rounds. The simulator executes module tasks and
// accounts, exactly as the model defines them:
//
//   * h-relations: in each round, h_r = max over modules of (messages
//     delivered to + sent from that module); IO time accumulates Σ h_r.
//   * PIM time: handlers call ctx.charge(w) for local work; per-module
//     cumulative counters give max-over-modules for any measured span.
//   * synchronization: each barrier costs log P; MachineDelta reports
//     rounds · log P as sync_cost (the paper separates this from IO time
//     and lets it dominate only for Theorem 5.1-style O(1)-IO operations).
//   * forwards (PIM→PIM offload): routed through the CPU side — the
//     outgoing hop is charged to the sender in the current round and the
//     incoming hop to the receiver in the next round, matching the paper's
//     "return a value to shared memory, which causes the offload from the
//     CPU side".
//   * queue-write variant (§2.1 discussion, left as future work by the
//     paper): optionally counts, per round, the maximum number of writes
//     landing on one shared-memory word; Σ over rounds is reported as
//     write_contention.
//
// Execution order within a round is module-by-module FIFO by default and
// deterministic. Two more executors exist: kShuffled (random module order,
// used by tests to verify order-independence) and kParallel (modules run
// concurrently on the host thread pool with buffered side effects —
// results and metrics are bit-identical to sequential execution; handlers
// must only touch their own module's state, which is the model's
// discipline anyway).
//
// Host performance (DESIGN.md §5.9): the round engine is sparsity-aware
// and allocation-free on its hot path. The machine maintains an active
// set (modules with pending deliveries or queued tasks); delivery,
// execution, queue recounts and the barrier h-fold iterate only that set
// — idle modules contribute exact zeros, so every metric is bit-identical
// to the dense engine. All per-round scratch (execution order, parallel
// out-buffers, retransmission pass, per-module task rings) is pooled and
// recycled across rounds. Because a round delivers all its messages before
// any module executes, the engine knows every task of the round up front:
// after delivery, retries and the hedging prepass it calls each executing
// task's optional prefetch hook (Handler::prefetch) before the first body
// runs — one pass over the whole round in the sequential and shuffled
// executors, one pass per claimed module on each kParallel lane. Hooks
// only warm the host cache, so no model metric depends on them.
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/error.hpp"
#include "common/math_util.hpp"
#include "common/status.hpp"
#include "common/types.hpp"
#include "random/rng.hpp"
#include "sim/fault.hpp"
#include "sim/message.hpp"
#include "sim/metrics.hpp"
#include "sim/task_ring.hpp"

namespace pim::sim {

class Machine;
class Tracer;  // sim/trace.hpp — round-level tracing, default off

/// Execution-order policy for module processing within a round.
enum class ExecOrder {
  kSequential,  // modules 0..P-1 in order (default, deterministic)
  kShuffled,    // random module order each round (order-independence tests)
  kParallel,    // host-parallel with buffered side effects (deterministic)
};

struct MachineOptions {
  ExecOrder order = ExecOrder::kSequential;
  u64 shuffle_seed = 0xC0FFEEull;
  /// Count per-round max writes to a single shared-memory word (the
  /// queue-write model variant).
  bool track_write_contention = false;
  /// Safety valve for run_until_quiescent.
  u64 max_rounds_per_drain = 1u << 22;

  // ---- graceful degradation (all off by default: with the defaults the
  // machine's behavior and metrics are bit-identical to a machine built
  // before these knobs existed) ----

  /// Bound on a module's ingress backlog (pending deliveries + delivered-
  /// but-unexecuted queue). 0 = unbounded. When full, try_send /
  /// send_all_admitted shed instead of enqueueing (kResourceExhausted).
  u64 max_queue_depth = 0;
  /// Hedged sends: a hedgeable task stuck behind a straggler for this many
  /// rounds fires a copy at a randomly-chosen live replica; first
  /// execution wins, the loser is suppressed. 0 = hedging disabled
  /// (send_hedged degenerates to send exactly).
  u64 hedge_stall_rounds = 0;
  /// Circuit breaker: after this many consecutive lost messages against an
  /// *up* module, the module is marked suspect (is_suspect) so the owning
  /// structure can convert gray failure into fail-stop + surgical
  /// recovery. 0 = breaker disabled.
  u32 breaker_strikes = 0;
};

/// Per-batch degradation budget (see Machine::set_round_budget): the
/// maximum rounds a drain may run and the maximum retransmissions it may
/// spend before the machine surfaces a structured kDeadlineExceeded.
/// 0 = unlimited. Unlike max_rounds_per_drain (a livelock safety valve,
/// kDrainStuck) this is an expected operational bound and spans every
/// drain of one batch.
struct RoundBudget {
  u64 max_rounds = 0;
  u64 max_retries = 0;
};

/// Handle given to module task handlers. All communication and accounting
/// goes through this object.
class ModuleCtx {
 public:
  ModuleId id() const { return id_; }
  u32 modules() const;

  /// Charge local work on this PIM core.
  void charge(u64 w);

  /// Write one word into the CPU-side mailbox (shared memory). Counts one
  /// module→CPU message.
  void reply(u64 slot, u64 value);

  /// Write up to kMaxTaskArgs consecutive words starting at `slot`;
  /// counts one message (messages carry a constant number of words).
  void reply_block(u64 slot, std::span<const u64> values);

  /// Accumulate into a shared-memory word (the model allows concurrent
  /// writes; see §2.1's queue-write discussion). Counts one message.
  void reply_add(u64 slot, u64 delta);

  /// Offload a task to another module via the CPU side (2 message hops:
  /// out now, in next round). Forwarding to self is allowed (the task is
  /// re-queued next round; both hops are still charged, matching the
  /// model's routing through shared memory).
  void forward(ModuleId m, const Handler* fn, std::span<const u64> args);
  void forward(ModuleId m, const Handler* fn, std::initializer_list<u64> args) {
    forward(m, fn, std::span<const u64>(args.begin(), args.size()));
  }

  /// Adjust this module's accounted local-memory footprint (words).
  void add_space(i64 words);

 private:
  friend class Machine;

  /// Buffered side effect (parallel executor).
  struct PendingWrite {
    u64 slot;
    u64 words[kMaxTaskArgs];
    u32 n;
    bool add;
  };
  struct OutBuffer {
    std::vector<PendingWrite> writes;
    std::vector<Message> forwards;
  };

  ModuleCtx(Machine& machine, ModuleId id, OutBuffer* out = nullptr)
      : machine_(machine), id_(id), out_(out) {}
  Machine& machine_;
  ModuleId id_;
  OutBuffer* out_;
};

class Machine {
 public:
  explicit Machine(u32 modules, MachineOptions options = {});

  u32 modules() const { return static_cast<u32>(per_module_.size()); }

  // ---- CPU-side message injection (delivered next round) ----

  void send(ModuleId m, const Handler* fn, std::span<const u64> args);
  void send(ModuleId m, const Handler* fn, std::initializer_list<u64> args) {
    send(m, fn, std::span<const u64>(args.begin(), args.size()));
  }
  /// One message to every module (an h=1 relation on its own).
  void broadcast(const Handler* fn, std::span<const u64> args);
  void broadcast(const Handler* fn, std::initializer_list<u64> args) {
    broadcast(fn, std::span<const u64>(args.begin(), args.size()));
  }

  /// Admission-controlled send: sheds (kResourceExhausted) instead of
  /// enqueueing when the target's backlog is at max_queue_depth. With
  /// max_queue_depth == 0 it never sheds.
  Status try_send(ModuleId m, const Handler* fn, std::span<const u64> args);
  Status try_send(ModuleId m, const Handler* fn, std::initializer_list<u64> args) {
    return try_send(m, fn, std::span<const u64>(args.begin(), args.size()));
  }
  /// Offers a whole wave under admission control. Shed messages are
  /// spilled and re-offered after running backoff rounds (1, 2, 4, ...,
  /// capped), letting the full queues drain in between; each late
  /// admission counts one requeue. Throws kResourceExhausted if the spill
  /// cannot be placed within max_rounds_per_drain backoff rounds, and
  /// kDeadlineExceeded if an armed RoundBudget expires first. With
  /// max_queue_depth == 0 this is exactly a loop of plain sends.
  void send_all_admitted(std::span<const Message> msgs);

  /// Sends a *hedgeable* task: its handler must read only replicated
  /// state, so a copy may execute on any live module (PimSkipList uses
  /// this for search launches into the replicated upper part). When the
  /// target stalls past hedge_stall_rounds the machine fires a copy at a
  /// deterministically-chosen live replica; when the target is down the
  /// delivery reroutes instead of dropping. First execution wins; the
  /// loser is suppressed (hedge_wins / hedge_waste counters). With
  /// hedging disabled this is exactly send().
  void send_hedged(ModuleId m, const Handler* fn, std::span<const u64> args);
  void send_hedged(ModuleId m, const Handler* fn, std::initializer_list<u64> args) {
    send_hedged(m, fn, std::span<const u64>(args.begin(), args.size()));
  }

  // ---- per-batch round budget (deadline propagation) ----

  /// Arms the budget and zeroes its used-counters. Batch drivers arm per
  /// attempt; recovery paths run unbudgeted (callers clear first).
  void set_round_budget(RoundBudget budget);
  void clear_round_budget() { budget_armed_ = false; }
  bool round_budget_armed() const { return budget_armed_; }
  u64 budget_rounds_used() const { return budget_rounds_used_; }
  u64 budget_retries_used() const { return budget_retries_used_; }

  // ---- round execution ----

  /// True if no work remains: nothing pending delivery, nothing queued on
  /// a module (stalled modules keep delivered tasks queued across rounds)
  /// and no dropped message awaiting retransmission.
  bool idle() const { return pending_total_ == 0 && queued_total_ == 0 && retry_.empty(); }

  /// Executes one bulk-synchronous round: delivers all pending messages,
  /// runs module handlers, performs barrier accounting. With an active
  /// FaultPlan this is also where faults strike: scheduled crashes fire at
  /// round start, deliveries may be dropped/duplicated, stalled modules
  /// skip execution, and due retransmissions are redelivered.
  void run_round();

  /// Runs rounds until idle. Returns the number of rounds executed.
  /// Throws pim::StatusError:
  ///   * kDrainStuck when max_rounds_per_drain is hit (message includes
  ///     round count, pending total and per-module queue depths);
  ///   * kModuleDown / kRetryExhausted when fault injection declared a
  ///     message lost (callers recover / abort and retry the batch).
  u64 run_until_quiescent();

  // ---- fault injection / recovery ----

  /// Installs (or replaces) the fault plan. Must be called between rounds.
  /// Throws pim::StatusError(kInvalidArgument) on malformed plans:
  /// probabilities outside [0, 1], a zero retry budget, or scheduled
  /// crash/stall/mem-corruption events naming modules >= P.
  void set_fault_plan(const FaultPlan& plan);
  bool fault_active() const { return fault_.active(); }
  const FaultCounters& fault_counters() const { return fault_.counters(); }
  /// Epoch tag for reply-slot sentinels; batch drivers bump it per batch
  /// (and per retry of a batch) to decorrelate fault draws. Also resets
  /// the hedge-suppression filter (a new batch reuses no hedge ids).
  void begin_fault_epoch() {
    fault_.begin_epoch();
    hedge_done_.clear();
  }

  // ---- circuit breaker ----

  /// True if the breaker tripped on m: breaker_strikes consecutive lost
  /// messages against it while it was up (gray failure — alive but not
  /// answering). The machine only marks; the owning structure decides
  /// (PimSkipList crashes the suspect so surgical recover(m) runs).
  bool is_suspect(ModuleId m) const { return !suspect_.empty() && suspect_[m] != 0; }
  u32 suspect_count() const { return suspect_count_; }
  /// Resets m's strikes and suspect flag (after the caller acted on it).
  void clear_suspect(ModuleId m);

  bool is_down(ModuleId m) const { return !down_.empty() && down_[m]; }
  u32 down_count() const { return down_count_; }
  /// Fail-stop crash, immediately: zeroes the module's accounted space,
  /// marks it down and invokes crash listeners. Delivered-but-unexecuted
  /// tasks die with the module, but the reliable layer still holds each
  /// send: they re-enter the retransmission path (counted as drops), so
  /// the loss surfaces as kModuleDown — or redelivers after a revive —
  /// instead of silently wedging the batch. Also used by scheduled
  /// CrashEvents. Requires a fault plan.
  /// Crashing an already-down module is a no-op (the module cannot die
  /// twice); a module id >= P is kInvalidArgument.
  void crash_module(ModuleId m);
  /// Brings a crashed module back online (empty). The owning structure is
  /// responsible for repopulating it (e.g. PimSkipList::recover).
  /// Reviving a module that never crashed is a no-op (revive is
  /// idempotent); a module id >= P is kInvalidArgument.
  void revive(ModuleId m);
  /// Called with the module id when a module crashes. Registrants must
  /// outlive the machine's fault-mode use (PimSkipList registers itself).
  using CrashListener = std::function<void(ModuleId)>;
  void add_crash_listener(CrashListener listener) {
    crash_listeners_.push_back(std::move(listener));
  }
  /// Called when an at-rest memory corruption strikes module m (at round
  /// start, or via corrupt_module_memory). The draw is a deterministic
  /// hash the structure uses to pick the word/bit to flip — the machine
  /// itself has no visibility into module-local memory, which is exactly
  /// what makes the fault silent.
  using MemCorruptListener = std::function<void(ModuleId, u64 draw)>;
  void add_mem_corrupt_listener(MemCorruptListener listener) {
    mem_corrupt_listeners_.push_back(std::move(listener));
  }
  /// Fires one at-rest corruption at module m immediately (between
  /// rounds), with a fresh deterministic draw. Testing / chaos-driver
  /// counterpart of the scheduled MemCorruptEvents. Requires a fault plan.
  void corrupt_module_memory(ModuleId m);
  /// Purges all in-flight work (pending, queued, retransmissions, lost
  /// records). Drivers call this before retrying a failed batch so stale
  /// tasks cannot write into a reused mailbox.
  void abort_pending();
  /// Folds a recovery episode into the fault counters.
  void record_recovery(u64 rounds, u64 io) {
    auto& fc = fault_.counters();
    ++fc.recoveries;
    fc.recovery_rounds += rounds;
    fc.recovery_io += io;
  }
  /// Folds a scrub audit pass into the fault counters.
  void record_scrub(u64 repairs) {
    auto& fc = fault_.counters();
    ++fc.scrubs;
    fc.scrub_repairs += repairs;
  }

  // ---- shared-memory mailbox (CPU side) ----

  std::vector<u64>& mailbox() { return mailbox_; }
  const std::vector<u64>& mailbox() const { return mailbox_; }

  // ---- metrics ----

  const MachineOptions& options() const { return options_; }

  Snapshot snapshot() const;
  MachineDelta delta(const Snapshot& since) const;
  u64 io_time() const { return io_time_; }
  u64 rounds() const { return rounds_; }
  u64 messages() const { return messages_; }
  u64 write_contention() const { return write_contention_; }
  /// High-water of the mailbox (CPU shared memory, Table 1's "M needed")
  /// over barriers (since_rounds, rounds()] — what delta() reports as
  /// shared_mem for a span that started at rounds() == since_rounds. 0 if
  /// the span contains no barrier. The barrier log makes it exactly the
  /// barriers between two snapshots, so nested or back-to-back measured
  /// spans cannot clobber each other.
  u64 mailbox_highwater_since(u64 since_rounds) const;
  u64 module_work(ModuleId m) const { return per_module_[m].work; }
  u64 module_space(ModuleId m) const { return per_module_[m].space_words; }
  /// h of the most recently completed round (diagnostics/tests).
  u64 last_round_h() const { return last_round_h_; }

  // ---- round-level tracing (sim/trace.hpp) ----

  /// Attaches a tracer: every subsequent barrier appends one RoundRecord
  /// (per-module in/out/work deltas, h_r, fault events, active phase).
  /// Baselines the tracer's cumulative-counter view at the current state.
  /// set_tracer(nullptr) detaches. The tracer must outlive its attachment.
  /// With no tracer attached the per-barrier cost is one branch on a null
  /// pointer and all metrics are bit-identical to an untraced machine.
  void set_tracer(Tracer* tracer);
  Tracer* tracer() const { return tracer_; }

  /// Construction/testing escape hatch: a context whose charges and
  /// messages are NOT counted. Used only for offline bulk-build and test
  /// setup; never inside measured operations.
  ModuleCtx offline_ctx(ModuleId m) {
    PIM_CHECK(m < modules(), "offline_ctx: bad module");
    offline_ = true;
    return ModuleCtx(*this, m);
  }
  /// Re-enables accounting after offline construction.
  void finish_offline() { offline_ = false; }
  bool offline() const { return offline_; }

 private:
  friend class ModuleCtx;

  struct PerModule {
    TaskRing queue;      // delivered, not yet executed (flat ring, pooled)
    u64 work = 0;        // cumulative local work
    u64 space_words = 0;  // accounted local memory footprint
    u64 round_in = 0;     // messages delivered this round
    u64 round_out = 0;    // messages sent this round
  };

  /// A dropped delivery awaiting retransmission (attempt counts total
  /// deliveries tried so far).
  struct RetrySend {
    ModuleId target = 0;
    Task task;
    u64 due_round = 0;
    u32 attempt = 0;
  };
  struct LostSend {
    ModuleId target = 0;
    u32 attempts = 0;
  };

  void enqueue_pending(ModuleId m, Task task);
  void count_out(ModuleId m, u64 n = 1);
  void note_slot_write(u64 slot);
  void apply_write(const ModuleCtx::PendingWrite& w);
  /// Calls the prefetch hook of every task queued on m (host-only; see
  /// Handler). run_round runs it before the round's first body.
  void prefetch_module(ModuleId m);
  void execute_module(ModuleId m, ModuleCtx& ctx);
  void deliver_faulty(ModuleId m, const Task& task, u32 attempt);
  void fire_mem_corruption(ModuleId m);
  /// Marks m as having work for the *next* round (pending delivery or a
  /// leftover queue). Consumed — and cleared — at the next round start.
  void mark_active(ModuleId m) {
    if (active_flag_[m] == 0) {
      active_flag_[m] = 1;
      active_.push_back(m);
    }
  }
  /// Enrolls m in the *current* round's fold: resets its per-round in/out
  /// counters once and adds it to touched_. Idempotent within a round.
  void touch_round(ModuleId m) {
    if (touched_flag_[m] == 0) {
      touched_flag_[m] = 1;
      auto& pm = per_module_[m];
      pm.round_in = 0;
      pm.round_out = 0;
      touched_.push_back(m);
    }
  }
  /// Target's admission backlog: pending deliveries + queued tasks.
  u64 backlog(ModuleId m) const { return pending_[m].size() + per_module_[m].queue.size(); }
  /// Records one lost message against m for the breaker (no-op if down).
  void note_lost_for_breaker(ModuleId m);
  /// Deterministic replica choice for a hedge of `hedge_id` away from
  /// `avoid`: live (and, if possible, not currently stalled) module picked
  /// by content hash — identical under every executor.
  ModuleId pick_hedge_target(ModuleId avoid, u64 hedge_id);
  /// Age stalled hedgeable tasks / fire copies, and resolve original-vs-
  /// hedge races in module-id order before execution. No-op unless
  /// hedging is enabled.
  void run_hedging_prepass();
  /// Throws kDeadlineExceeded if an armed budget is exhausted.
  void check_budget();
  /// Out-of-line tracer notification (keeps run_round's hot path to a
  /// null-pointer branch when tracing is off).
  void record_trace(u64 h);
  [[noreturn]] void throw_lost();
  [[noreturn]] void throw_drain_stuck(u64 executed);

  std::vector<PerModule> per_module_;
  // Messages injected by the CPU (or forwarded) since the last round
  // started; delivered at the next run_round. Inner vectors are recycled
  // (clear() keeps capacity), so steady-state delivery allocates nothing.
  std::vector<std::vector<Task>> pending_;
  u64 pending_total_ = 0;
  u64 queued_total_ = 0;  // tasks delivered but not yet executed (stalls)
  std::vector<u64> mailbox_;

  // ---- sparse dispatch + pooled round scratch (DESIGN.md §5.9) ----
  // Invariant between rounds: a module holds pending deliveries or queued
  // tasks iff it is in active_. Modules outside the set are exact zeros
  // for every per-round quantity, so folds over the set equal folds over
  // all P modules.
  std::vector<ModuleId> active_;   // modules with work for the next round
  std::vector<u8> active_flag_;    // membership bitmap for active_
  std::vector<ModuleId> touched_;  // modules in the current round's fold
  std::vector<u8> touched_flag_;   // membership bitmap for touched_
  std::vector<ModuleId> round_list_;  // scratch: consumed active set
  std::vector<ModuleId> exec_order_;  // scratch: kShuffled permutation
  std::vector<ModuleCtx::OutBuffer> out_buffers_;  // pooled kParallel buffers
  std::vector<RetrySend> retry_pass_;              // pooled retransmission pass
  std::vector<u64> trace_in_, trace_out_, trace_work_;  // pooled tracer scratch
  bool round_faulty_ = false;  // cached fault_.active() for the round

  // ---- fault state ----
  FaultInjector fault_;
  std::vector<bool> down_;
  u32 down_count_ = 0;
  std::vector<u8> stalled_;      // per-round scratch (decided pre-execution)
  std::vector<RetrySend> retry_;
  std::vector<LostSend> lost_;
  std::vector<CrashListener> crash_listeners_;
  std::vector<MemCorruptListener> mem_corrupt_listeners_;
  u64 mem_corrupt_nonce_ = 0;  // decorrelates same-round strikes
  /// Round of each module's most recent crash (kNeverCrashed if none);
  /// voids stall windows the crash overlapped (crash wins, stall moot).
  std::vector<u64> last_crash_round_;

  // ---- degradation state ----
  RoundBudget budget_;
  bool budget_armed_ = false;
  u64 budget_rounds_used_ = 0;
  u64 budget_retries_used_ = 0;
  u64 hedge_seq_ = 0;                   // hedge-id allocator (never reused)
  std::unordered_set<u64> hedge_done_;  // executed/suppressed hedge ids
  std::vector<u32> strikes_;            // consecutive losses per up module
  std::vector<u8> suspect_;             // breaker verdicts
  u32 suspect_count_ = 0;

  MachineOptions options_;
  rnd::Xoshiro256ss shuffle_rng_;

  u64 io_time_ = 0;
  u64 rounds_ = 0;
  u64 messages_ = 0;
  u64 write_contention_ = 0;
  u64 last_round_h_ = 0;
  /// Barrier log of mailbox sizes: one entry per barrier at which the size
  /// differed from the previous entry (compressed run-length form keyed by
  /// the 1-based barrier index == rounds_ after the increment). Lets
  /// delta() reconstruct the exact high-water of any span without a
  /// machine-global reset.
  struct MailboxMark {
    u64 barrier;
    u64 words;
  };
  std::vector<MailboxMark> mailbox_marks_;
  Tracer* tracer_ = nullptr;
  std::unordered_map<u64, u32> round_slot_writes_;  // queue-write tracking
  bool offline_ = false;
  bool in_round_ = false;
};

}  // namespace pim::sim
