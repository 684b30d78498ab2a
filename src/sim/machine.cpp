#include "sim/machine.hpp"

#include <algorithm>
#include <numeric>
#include <string>

#include "parallel/thread_pool.hpp"
#include "sim/trace.hpp"

namespace pim::sim {

// ---------------- ModuleCtx ----------------

u32 ModuleCtx::modules() const { return machine_.modules(); }

void ModuleCtx::charge(u64 w) {
  if (machine_.offline_) return;
  machine_.per_module_[id_].work += w;
}

void ModuleCtx::reply(u64 slot, u64 value) {
  PIM_CHECK(slot < machine_.mailbox_.size(),
            "reply: mailbox slot out of range (module " + std::to_string(id_) + ", slot " +
                std::to_string(slot) + ", mailbox size " +
                std::to_string(machine_.mailbox_.size()) + ")");
  if (out_ != nullptr) {
    PendingWrite w{slot, {value}, 1, false};
    out_->writes.push_back(w);
  } else {
    machine_.mailbox_[slot] = value;
    machine_.note_slot_write(slot);
  }
  if (!machine_.offline_) machine_.count_out(id_);
}

void ModuleCtx::reply_block(u64 slot, std::span<const u64> values) {
  PIM_CHECK(values.size() <= kMaxTaskArgs,
            "reply_block exceeds constant message size (module " + std::to_string(id_) +
                ", words " + std::to_string(values.size()) + ", limit " +
                std::to_string(kMaxTaskArgs) + ")");
  PIM_CHECK(slot <= machine_.mailbox_.size() &&
                values.size() <= machine_.mailbox_.size() - slot,
            "reply_block: mailbox overflow (module " + std::to_string(id_) + ", slot " +
                std::to_string(slot) + ", words " + std::to_string(values.size()) +
                ", mailbox size " + std::to_string(machine_.mailbox_.size()) + ")");
  if (out_ != nullptr) {
    PendingWrite w{slot, {}, static_cast<u32>(values.size()), false};
    std::copy(values.begin(), values.end(), w.words);
    out_->writes.push_back(w);
  } else {
    std::copy(values.begin(), values.end(), machine_.mailbox_.begin() + static_cast<i64>(slot));
    machine_.note_slot_write(slot);
  }
  if (!machine_.offline_) machine_.count_out(id_);
}

void ModuleCtx::reply_add(u64 slot, u64 delta) {
  PIM_CHECK(slot < machine_.mailbox_.size(),
            "reply_add: mailbox slot out of range (module " + std::to_string(id_) + ", slot " +
                std::to_string(slot) + ", mailbox size " +
                std::to_string(machine_.mailbox_.size()) + ")");
  if (out_ != nullptr) {
    PendingWrite w{slot, {delta}, 1, true};
    out_->writes.push_back(w);
  } else {
    machine_.mailbox_[slot] += delta;
    machine_.note_slot_write(slot);
  }
  if (!machine_.offline_) machine_.count_out(id_);
}

void ModuleCtx::forward(ModuleId m, const Handler* fn, std::span<const u64> args) {
  PIM_CHECK(m < machine_.modules(), "forward: bad module id");
  if (out_ != nullptr) {
    out_->forwards.push_back(Message{m, make_task(fn, args)});
  } else {
    machine_.enqueue_pending(m, make_task(fn, args));
  }
  if (!machine_.offline_) machine_.count_out(id_);  // module -> CPU hop, this round
  // The CPU -> m hop is charged when the task is delivered next round.
}

void ModuleCtx::add_space(i64 words) {
  auto& space = machine_.per_module_[id_].space_words;
  if (words < 0) {
    const u64 dec = static_cast<u64>(-words);
    PIM_CHECK(space >= dec, "module space underflow");
    space -= dec;
  } else {
    space += static_cast<u64>(words);
  }
}

// ---------------- Machine ----------------

Machine::Machine(u32 modules, MachineOptions options)
    : per_module_(modules),
      pending_(modules),
      active_flag_(modules, 0),
      touched_flag_(modules, 0),
      down_(modules, false),
      stalled_(modules, 0),
      last_crash_round_(modules, FaultInjector::kNeverCrashed),
      strikes_(modules, 0),
      suspect_(modules, 0),
      options_(options),
      shuffle_rng_(options.shuffle_seed) {
  PIM_CHECK(modules >= 1, "machine needs at least one module");
}

namespace {

[[noreturn]] void invalid_argument(std::string msg) {
  throw StatusError(Status(StatusCode::kInvalidArgument, std::move(msg)));
}

// Below this many touched modules a kParallel round runs on the caller's
// thread via the sequential direct-write path (bit-identical by the merge
// contract): the pool wake-up costs more than the round.
constexpr u64 kMinParallelModules = 4;

}  // namespace

void Machine::set_fault_plan(const FaultPlan& plan) {
  PIM_CHECK(!in_round_, "set_fault_plan: cannot change the plan mid-round");
  // Module bounds of scheduled events are a machine-level property (the
  // injector does not know P); reject before installing anything.
  for (const auto& ev : plan.crashes) {
    if (ev.module >= modules()) {
      invalid_argument("FaultPlan.crashes names module " + std::to_string(ev.module) +
                       " on a machine with " + std::to_string(modules()) + " modules");
    }
  }
  for (const auto& w : plan.stall_windows) {
    if (w.module >= modules()) {
      invalid_argument("FaultPlan.stall_windows names module " + std::to_string(w.module) +
                       " on a machine with " + std::to_string(modules()) + " modules");
    }
  }
  for (const auto& ev : plan.mem_corruptions) {
    if (ev.module >= modules()) {
      invalid_argument("FaultPlan.mem_corruptions names module " + std::to_string(ev.module) +
                       " on a machine with " + std::to_string(modules()) + " modules");
    }
  }
  for (const auto& w : plan.overload_windows) {
    if (w.module >= modules()) {
      invalid_argument("FaultPlan.overload_windows names module " + std::to_string(w.module) +
                       " on a machine with " + std::to_string(modules()) + " modules");
    }
  }
  fault_.set_plan(plan);  // validates probabilities, fractions and the retry policy
}

void Machine::crash_module(ModuleId m) {
  PIM_CHECK(fault_.active(), "crash_module requires an active fault plan");
  if (m >= modules()) {
    invalid_argument("crash_module: module " + std::to_string(m) + " >= P = " +
                     std::to_string(modules()));
  }
  if (down_[m]) return;  // a module cannot die twice; double crash is a no-op
  auto& fc = fault_.counters();
  ++fc.crashes;
  down_[m] = true;
  ++down_count_;
  last_crash_round_[m] = rounds_;  // voids stall windows covering this round
  auto& pm = per_module_[m];
  pm.space_words = 0;  // local memory is gone
  // Delivered-but-unexecuted tasks die with the module, but the reliable
  // layer still holds each send: re-offer them as if the delivery had been
  // dropped, so the loss surfaces as kModuleDown (or redelivers after a
  // revive) instead of vanishing and wedging the batch.
  for (u64 i = 0; i < pm.queue.size(); ++i) {
    const Task& t = pm.queue.at(i);
    ++fc.drops;
    if (fault_.plan().max_send_attempts <= 1) {
      ++fc.lost;
      lost_.push_back(LostSend{m, 1});
    } else {
      RetrySend r;
      r.target = m;
      r.task = t;
      r.task.stall_age = 0;
      r.task.hedge_fired = 0;
      r.due_round = rounds_ + fault_.plan().retry_backoff_rounds;
      r.attempt = 2;
      retry_.push_back(r);
    }
  }
  queued_total_ -= pm.queue.size();
  pm.queue.clear();
  // Other in-flight messages (pending_, retry_) are CPU-side state and
  // survive; their deliveries will count as drops and exhaust to
  // kModuleDown.
  for (auto& listener : crash_listeners_) listener(m);
}

void Machine::revive(ModuleId m) {
  if (m >= modules()) {
    invalid_argument("revive: module " + std::to_string(m) + " >= P = " +
                     std::to_string(modules()));
  }
  if (!down_[m]) return;  // revive is idempotent; an up module stays up
  down_[m] = false;
  --down_count_;
}

void Machine::fire_mem_corruption(ModuleId m) {
  ++fault_.counters().mem_corruptions;
  const u64 draw = fault_.mem_corrupt_draw(rounds_, m, mem_corrupt_nonce_++);
  for (auto& listener : mem_corrupt_listeners_) listener(m, draw);
}

void Machine::corrupt_module_memory(ModuleId m) {
  PIM_CHECK(fault_.active(), "corrupt_module_memory requires an active fault plan");
  PIM_CHECK(!in_round_, "corrupt_module_memory: cannot strike mid-round");
  if (m >= modules()) {
    invalid_argument("corrupt_module_memory: module " + std::to_string(m) + " >= P = " +
                     std::to_string(modules()));
  }
  if (down_[m]) return;  // a down module has no memory left to corrupt
  fire_mem_corruption(m);
}

void Machine::abort_pending() {
  PIM_CHECK(!in_round_, "abort_pending: cannot abort mid-round");
  for (ModuleId m : active_) {
    // Only active modules can hold pending deliveries or queued tasks.
    pending_[m].clear();
    per_module_[m].queue.clear();
    active_flag_[m] = 0;
  }
  active_.clear();
  pending_total_ = 0;
  queued_total_ = 0;
  retry_.clear();
  lost_.clear();
  hedge_done_.clear();  // no aborted task can race a future one
}

// ---------------- degradation: budget, breaker ----------------

void Machine::set_round_budget(RoundBudget budget) {
  PIM_CHECK(!in_round_, "set_round_budget: cannot arm mid-round");
  budget_ = budget;
  budget_armed_ = budget.max_rounds > 0 || budget.max_retries > 0;
  budget_rounds_used_ = 0;
  budget_retries_used_ = 0;
}

void Machine::check_budget() {
  if (!budget_armed_) return;
  const bool rounds_over = budget_.max_rounds > 0 && budget_rounds_used_ > budget_.max_rounds;
  const bool retries_over = budget_.max_retries > 0 && budget_retries_used_ > budget_.max_retries;
  if (!rounds_over && !retries_over) return;
  std::string msg = std::string("round budget exceeded: ") +
                    std::to_string(budget_rounds_used_) + " rounds (max " +
                    std::to_string(budget_.max_rounds) + "), " +
                    std::to_string(budget_retries_used_) + " retransmissions (max " +
                    std::to_string(budget_.max_retries) + "); pending=" +
                    std::to_string(pending_total_) + ", queued=" +
                    std::to_string(queued_total_) + ", retries_in_flight=" +
                    std::to_string(retry_.size());
  throw StatusError(Status(StatusCode::kDeadlineExceeded, std::move(msg)));
}

void Machine::clear_suspect(ModuleId m) {
  if (m >= modules()) {
    invalid_argument("clear_suspect: module " + std::to_string(m) + " >= P = " +
                     std::to_string(modules()));
  }
  if (suspect_[m] != 0) --suspect_count_;
  suspect_[m] = 0;
  strikes_[m] = 0;
}

void Machine::note_lost_for_breaker(ModuleId m) {
  // Losses against a down module are expected (fail-stop is already
  // visible); the breaker exists for gray failure — an up module that
  // never answers.
  if (options_.breaker_strikes == 0 || down_[m]) return;
  ++strikes_[m];
  if (strikes_[m] >= options_.breaker_strikes && suspect_[m] == 0) {
    suspect_[m] = 1;
    ++suspect_count_;
    ++fault_.counters().breaker_trips;
  }
}

void Machine::enqueue_pending(ModuleId m, Task task) {
  pending_[m].push_back(task);
  ++pending_total_;
  mark_active(m);
}

void Machine::count_out(ModuleId m, u64 n) {
  // messages_ is folded in at the barrier (round_out is per-module and
  // only touched by the module's own execution lane).
  per_module_[m].round_out += n;
}

void Machine::note_slot_write(u64 slot) {
  if (!options_.track_write_contention || offline_) return;
  ++round_slot_writes_[slot];
}

void Machine::send(ModuleId m, const Handler* fn, std::span<const u64> args) {
  PIM_CHECK(m < modules(), "send: bad module id");
  enqueue_pending(m, make_task(fn, args));
}

Status Machine::try_send(ModuleId m, const Handler* fn, std::span<const u64> args) {
  PIM_CHECK(m < modules(), "try_send: bad module id");
  if (options_.max_queue_depth > 0 && backlog(m) >= options_.max_queue_depth) {
    ++fault_.counters().sheds;
    return Status(StatusCode::kResourceExhausted,
                  "module " + std::to_string(m) + " ingress queue full (backlog " +
                      std::to_string(backlog(m)) + ", max_queue_depth " +
                      std::to_string(options_.max_queue_depth) + ")");
  }
  enqueue_pending(m, make_task(fn, args));
  return Status();
}

void Machine::send_all_admitted(std::span<const Message> msgs) {
  for (const auto& msg : msgs) {
    PIM_CHECK(msg.target < modules(), "send_all_admitted: bad module id");
  }
  if (options_.max_queue_depth == 0) {
    for (const auto& msg : msgs) enqueue_pending(msg.target, msg.task);
    return;
  }
  auto& fc = fault_.counters();
  std::vector<Message> wave(msgs.begin(), msgs.end());
  bool retry_wave = false;
  u64 backoff = 1;
  u64 spent = 0;
  while (true) {
    std::vector<Message> spill;
    for (const auto& msg : wave) {
      if (backlog(msg.target) >= options_.max_queue_depth) {
        ++fc.sheds;
        spill.push_back(msg);
      } else {
        enqueue_pending(msg.target, msg.task);
        if (retry_wave) ++fc.requeued;
      }
    }
    if (spill.empty()) return;
    // Exponential backoff: run rounds so the saturated queues drain, then
    // re-offer the spill. A backlog implies in-flight work, so rounds make
    // progress; if they don't (a dead-and-never-recovered target), the
    // drain safety valve bounds the spin.
    for (u64 i = 0; i < backoff; ++i) {
      if (spent >= options_.max_rounds_per_drain) {
        throw StatusError(Status(
            StatusCode::kResourceExhausted,
            "send_all_admitted: " + std::to_string(spill.size()) +
                " message(s) still shed after " + std::to_string(spent) +
                " backoff rounds (max_queue_depth " + std::to_string(options_.max_queue_depth) +
                ", first target module " + std::to_string(spill.front().target) + ")"));
      }
      run_round();
      ++spent;
      check_budget();
    }
    backoff = std::min<u64>(backoff * 2, 64);
    wave.swap(spill);
    retry_wave = true;
  }
}

void Machine::send_hedged(ModuleId m, const Handler* fn, std::span<const u64> args) {
  PIM_CHECK(m < modules(), "send_hedged: bad module id");
  Task t = make_task(fn, args);
  // Ids are only assigned when hedging is on: with it off, a hedged send
  // is byte-for-byte a plain send (zero-fault metrics stay bit-identical).
  if (options_.hedge_stall_rounds > 0) t.hedge_id = ++hedge_seq_;
  enqueue_pending(m, t);
}

ModuleId Machine::pick_hedge_target(ModuleId avoid, u64 hedge_id) {
  // Content hash, not RNG state: the choice must not depend on executor
  // order or on how many draws happened before this one.
  u64 h = rnd::mix64(fault_.plan().seed ^ 0x4ED6E4ED6E4ED6E4ull);
  h = rnd::mix64(h ^ rounds_);
  h = rnd::mix64(h ^ hedge_id);
  std::vector<ModuleId> candidates;
  candidates.reserve(modules());
  for (ModuleId m = 0; m < modules(); ++m) {
    if (m != avoid && !down_[m] && stalled_[m] == 0) candidates.push_back(m);
  }
  if (candidates.empty()) {
    for (ModuleId m = 0; m < modules(); ++m) {
      if (m != avoid && !down_[m]) candidates.push_back(m);
    }
  }
  if (candidates.empty()) return avoid;  // nowhere better to go
  return candidates[h % candidates.size()];
}

void Machine::run_hedging_prepass() {
  // Only touched modules can hold queued work (see run_round's active-set
  // invariant); touched_ is sorted, so claims still resolve in module-id
  // order — single-threaded, identical under every executor. Mid-queue
  // removal is an order-preserving compaction on the ring (one linear
  // pass, no node churn).
  auto& fc = fault_.counters();
  for (ModuleId m : touched_) {
    if (down_[m]) continue;
    auto& q = per_module_[m].queue;
    if (q.empty()) continue;
    u64 kept = 0;
    if (stalled_[m] != 0) {
      // Straggler: first discard tasks whose hedge already won elsewhere —
      // this is the latency payoff; the drain no longer waits out the
      // stall for a task that is moot. Then age the rest; at the
      // threshold, fire one copy at a live replica (delivered next round
      // through the normal faulty delivery path — a hedge can itself be
      // dropped or corrupted).
      for (u64 i = 0; i < q.size(); ++i) {
        Task& task = q.at(i);
        if (task.hedge_id != 0 && hedge_done_.contains(task.hedge_id)) continue;
        if (task.hedge_id != 0 && task.hedge_fired == 0 &&
            ++task.stall_age >= options_.hedge_stall_rounds) {
          task.hedge_fired = 1;
          ++fc.hedges;
          Task copy = task;
          copy.is_hedge = 1;
          copy.hedge_fired = 0;
          copy.stall_age = 0;
          enqueue_pending(pick_hedge_target(m, task.hedge_id), copy);
        }
        if (kept != i) q.at(kept) = task;
        ++kept;
      }
    } else {
      // About to execute: resolve original-vs-hedge races. First claim
      // wins; the loser is dequeued unrun.
      for (u64 i = 0; i < q.size(); ++i) {
        Task& task = q.at(i);
        if (task.hedge_id != 0) {
          if (hedge_done_.contains(task.hedge_id)) {
            if (task.is_hedge != 0) ++fc.hedge_waste;
            continue;
          }
          hedge_done_.insert(task.hedge_id);
          if (task.is_hedge != 0) ++fc.hedge_wins;
        }
        if (kept != i) q.at(kept) = task;
        ++kept;
      }
    }
    q.truncate(kept);
  }
}

void Machine::broadcast(const Handler* fn, std::span<const u64> args) {
  Task task = make_task(fn, args);
  for (ModuleId m = 0; m < modules(); ++m) enqueue_pending(m, task);
}

void Machine::execute_module(ModuleId m, ModuleCtx& ctx) {
  auto& pm = per_module_[m];
  // Only the tasks present at round start run this round.
  u64 budget = pm.queue.size();
  while (budget-- > 0) {
    Task task = pm.queue.front();
    pm.queue.pop_front();
    PIM_CHECK(task.fn != nullptr, "null task handler");
    (*task.fn)(ctx, task.arg_span());
  }
}

void Machine::apply_write(const ModuleCtx::PendingWrite& w) {
  if (w.add) {
    mailbox_[w.slot] += w.words[0];
  } else {
    std::copy(w.words, w.words + w.n, mailbox_.begin() + static_cast<i64>(w.slot));
  }
  note_slot_write(w.slot);
}

void Machine::deliver_faulty(ModuleId m, const Task& task, u32 attempt) {
  touch_round(m);
  auto& pm = per_module_[m];
  ++pm.round_in;  // every delivery attempt occupies the h-relation
  auto& fc = fault_.counters();
  // One lambda for every outcome that ends in a retransmission: drops and
  // checksum-rejected corruption share the epoch-tagged retry machinery
  // (the retry always carries the ORIGINAL task, not a corrupted copy).
  const auto drop_and_retry = [&] {
    if (attempt >= fault_.plan().max_send_attempts) {
      ++fc.lost;
      lost_.push_back(LostSend{m, attempt});
      note_lost_for_breaker(m);
    } else {
      RetrySend r;
      r.target = m;
      r.task = task;
      r.due_round = rounds_ + (fault_.plan().retry_backoff_rounds << (attempt - 1));
      r.attempt = attempt + 1;
      retry_.push_back(r);
    }
  };
  if (down_[m]) {
    // A hedgeable task aimed at a dead module is rerouted to a live
    // replica instead of burning its whole retry budget on a corpse; the
    // copy restarts the attempt count (it is a fresh send to a new home).
    if (options_.hedge_stall_rounds > 0 && task.hedge_id != 0 && down_count_ < modules() &&
        !hedge_done_.contains(task.hedge_id)) {
      ++fc.hedges;
      Task copy = task;
      copy.is_hedge = 1;
      copy.hedge_fired = 0;
      copy.stall_age = 0;
      deliver_faulty(pick_hedge_target(m, task.hedge_id), copy, /*attempt=*/1);
      return;
    }
    ++fc.drops;
    drop_and_retry();
    return;
  }
  if (fault_.is_overloaded(rounds_, m)) {
    // Sustained ingress overload: the module sheds the delivery at its
    // doorstep. Counted as shed + drop, then retried with normal backoff;
    // a window outlasting the budget feeds the circuit breaker.
    ++fc.sheds;
    ++fc.drops;
    drop_and_retry();
    return;
  }
  if (fault_.should_drop(rounds_, m, task)) {
    ++fc.drops;
    drop_and_retry();
    return;
  }
  Task delivered = task;
  if (fault_.should_corrupt(rounds_, m, task)) {
    // Transit corruption: flip one bit of one envelope word. Word index
    // nargs is the checksum word itself, so zero-argument tasks are
    // corruptible too (a damaged checksum is equally a damaged message).
    ++fc.payload_corruptions;
    const u64 draw = fault_.corrupt_draw(rounds_, m, task);
    const u32 word = static_cast<u32>(draw % (task.nargs + 1));
    const u64 mask = 1ull << ((draw >> 8) % 64);
    if (word == task.nargs) {
      delivered.checksum ^= mask;
    } else {
      delivered.args[word] ^= mask;
    }
  }
  if (!delivered.checksum_ok()) {
    // The envelope catches the corruption at delivery; the message is
    // treated exactly like a drop and retransmitted with backoff.
    ++fc.checksum_rejects;
    drop_and_retry();
    return;
  }
  if (fault_.should_dup(rounds_, m, task)) {
    // The duplicate copy occupies the network but is discarded by the
    // receiver's filter before processing — charged, never executed.
    ++fc.dups;
    ++pm.round_in;
  }
  pm.queue.push_back(delivered);
  strikes_[m] = 0;  // a successful delivery resets the breaker's count
}

void Machine::run_round() {
  PIM_CHECK(!in_round_, "run_round is not reentrant");
  in_round_ = true;
  if (options_.track_write_contention) round_slot_writes_.clear();
  const bool faulty = fault_.active();
  round_faulty_ = faulty;

  // Reset last round's touch marks; touched_ accumulates the modules that
  // participate in THIS round's h-relation and execution.
  for (ModuleId m : touched_) touched_flag_[m] = 0;
  touched_.clear();

  // Scheduled fail-stop crashes strike at round start, before delivery.
  if (faulty) {
    for (const auto& ev : fault_.plan().crashes) {
      if (ev.round == rounds_ && !down_[ev.module]) crash_module(ev.module);
    }
    // At-rest memory corruption also strikes between rounds: silent (no
    // message, no h-relation), applied by the owning structure through the
    // listener. Decided module-by-module in id order so every executor
    // sees the identical strike sequence.
    for (ModuleId m = 0; m < modules(); ++m) {
      if (!down_[m] && fault_.should_corrupt_memory(rounds_, m)) fire_mem_corruption(m);
    }
  }

  // Consume the active set: exactly the modules with pending deliveries
  // or leftover queued work (the invariant is that any other module has
  // neither). Sorted ascending so every delivery side effect — retry
  // enqueue order, breaker strikes, queue FIFO order — matches the old
  // full 0..P-1 scan bit for bit. Modules marked active during the round
  // (forwards, fired hedges) accumulate in active_ for the NEXT round.
  round_list_.clear();
  round_list_.swap(active_);  // active_ keeps round_list_'s old capacity
  for (ModuleId m : round_list_) active_flag_[m] = 0;
  std::sort(round_list_.begin(), round_list_.end());

  // Deliver: move pending into module queues; count incoming messages.
  for (ModuleId m : round_list_) {
    touch_round(m);
    auto& pm = per_module_[m];
    if (!faulty) {
      pm.round_in = pending_[m].size();
      for (auto& task : pending_[m]) pm.queue.push_back(task);
    } else {
      for (auto& task : pending_[m]) deliver_faulty(m, task, /*attempt=*/1);
    }
    pending_[m].clear();
  }
  pending_total_ = 0;

  // Redeliver retransmissions whose backoff expired. deliver_faulty may
  // re-drop into retry_, so swap the due list out first (retry_pass_ is
  // pooled: both vectors keep their capacity across rounds).
  if (faulty && !retry_.empty()) {
    retry_pass_.clear();
    retry_pass_.swap(retry_);
    for (auto& r : retry_pass_) {
      if (r.due_round <= rounds_) {
        ++fault_.counters().retries;
        if (budget_armed_) ++budget_retries_used_;
        deliver_faulty(r.target, r.task, r.attempt);
      } else {
        retry_.push_back(r);
      }
    }
  }

  // Decide stragglers for this round (after delivery, so a stall is only
  // counted when it actually postpones queued work). This is the one
  // deliberately O(P) faulty step: pick_hedge_target consults stalled_[]
  // for every module, so the whole array must be refreshed.
  if (faulty) {
    for (ModuleId m = 0; m < modules(); ++m) {
      stalled_[m] = (!down_[m] && fault_.is_stalled(rounds_, m, last_crash_round_[m])) ? 1 : 0;
      if (stalled_[m] && !per_module_[m].queue.empty()) ++fault_.counters().stalls;
    }
    // Retry and reroute targets were appended to touched_ out of id
    // order; everything downstream (hedging claims, execution, barrier
    // fold) iterates touched_ ascending. Zero-fault rounds touch in
    // round_list_ order, which is already sorted.
    std::sort(touched_.begin(), touched_.end());
    // Hedging runs between the stall decision and execution, single-
    // threaded in module-id order, so fire/win/waste outcomes are
    // identical under every executor.
    if (options_.hedge_stall_rounds > 0) run_hedging_prepass();
  }

  // Execute. Tasks emitted during execution (forwards) land in pending_
  // for next round; replies become visible at the barrier. Down and
  // stalled modules skip execution (their queues persist; a stalled
  // module's tasks run once the stall ends).
  auto& pool = par::ThreadPool::instance();
  const bool use_pool = options_.order == ExecOrder::kParallel && pool.lanes() > 1 &&
                        touched_.size() >= kMinParallelModules;
  if (use_pool) {
    // Concurrent module execution with buffered side effects, merged in
    // ascending module order below — bit-identical to sequential
    // execution. Buffers are pooled; clearing after the merge retains
    // their capacity for the next round.
    if (out_buffers_.size() < modules()) out_buffers_.resize(modules());
    pool.run_batch(
        [this](u32 i) {
          const ModuleId m = touched_[i];
          if (round_faulty_ && (down_[m] || stalled_[m])) return;
          if (per_module_[m].queue.empty()) return;
          ModuleCtx ctx(*this, m, &out_buffers_[m]);
          execute_module(m, ctx);
        },
        static_cast<u32>(touched_.size()));
    for (ModuleId m : touched_) {
      auto& buf = out_buffers_[m];
      for (const auto& w : buf.writes) apply_write(w);
      for (const auto& msg : buf.forwards) enqueue_pending(msg.target, msg.task);
      buf.writes.clear();
      buf.forwards.clear();
    }
  } else {
    // Sequential / shuffled — and the kParallel fallback when the pool
    // has one lane or the round is too sparse to amortize a wake-up
    // (direct mailbox writes, no buffering; bit-identical by the merge
    // contract above).
    const std::vector<ModuleId>* order = &touched_;
    if (options_.order == ExecOrder::kShuffled) {
      exec_order_.assign(touched_.begin(), touched_.end());
      for (u64 i = exec_order_.size(); i > 1; --i) {
        std::swap(exec_order_[i - 1], exec_order_[shuffle_rng_.below(static_cast<u32>(i))]);
      }
      order = &exec_order_;
    }
    if (!faulty) {
      // Zero-fault fast path: no per-module fault state consulted at all.
      for (ModuleId m : *order) {
        if (per_module_[m].queue.empty()) continue;
        ModuleCtx ctx(*this, m);
        execute_module(m, ctx);
      }
    } else {
      for (ModuleId m : *order) {
        if (down_[m] || stalled_[m] || per_module_[m].queue.empty()) continue;
        ModuleCtx ctx(*this, m);
        execute_module(m, ctx);
      }
    }
  }

  // Recount queued work and re-arm the active set. Only touched modules
  // can hold leftovers (a stalled module's postponed tasks, a crashed
  // retry's redelivery): queues only grow through delivery, and delivery
  // touches.
  u64 queued = 0;
  for (ModuleId m : touched_) {
    const u64 depth = per_module_[m].queue.size();
    queued += depth;
    if (depth != 0) mark_active(m);
  }
  queued_total_ = queued;

  // Barrier: h_r = max over modules of (in + out); fold message counts.
  // Untouched modules contributed exact zeros under the old full scan, so
  // folding only touched_ is identical.
  u64 h = 0;
  for (ModuleId m : touched_) {
    const auto& pm = per_module_[m];
    h = std::max(h, pm.round_in + pm.round_out);
    messages_ += pm.round_in + pm.round_out;
  }
  last_round_h_ = h;
  io_time_ += h;
  ++rounds_;
  if (budget_armed_) ++budget_rounds_used_;
  const u64 mb = mailbox_.size();
  // Barrier log for span-relative shared_mem (see mailbox_highwater_since):
  // append only when the size changed, so the log stays proportional to
  // the number of mailbox resizes, not rounds.
  if (mailbox_marks_.empty() ? mb != 0 : mailbox_marks_.back().words != mb) {
    mailbox_marks_.push_back(MailboxMark{rounds_, mb});
  }
  if (tracer_ != nullptr) record_trace(h);
  if (options_.track_write_contention) {
    u32 max_writes = 0;
    for (const auto& [slot, count] : round_slot_writes_) max_writes = std::max(max_writes, count);
    write_contention_ += max_writes;
  }
  in_round_ = false;
}

void Machine::throw_lost() {
  bool any_down = false;
  for (const auto& l : lost_) any_down = any_down || down_[l.target];
  std::string msg = std::to_string(lost_.size()) +
                    " message(s) exhausted their retry budget (first target module " +
                    std::to_string(lost_.front().target) + ", " +
                    std::to_string(lost_.front().attempts) + " delivery attempts)";
  throw StatusError(Status(any_down ? StatusCode::kModuleDown : StatusCode::kRetryExhausted,
                           std::move(msg)));
}

void Machine::throw_drain_stuck(u64 executed) {
  std::string msg = "run_until_quiescent: no quiescence after " + std::to_string(executed) +
                    " rounds (max_rounds_per_drain=" + std::to_string(options_.max_rounds_per_drain) +
                    "); pending=" + std::to_string(pending_total_) +
                    ", queued=" + std::to_string(queued_total_) +
                    ", retries=" + std::to_string(retry_.size()) + "; per-module depths:";
  constexpr ModuleId kMaxListed = 32;
  for (ModuleId m = 0; m < modules() && m < kMaxListed; ++m) {
    msg += " m" + std::to_string(m) + "=" +
           std::to_string(pending_[m].size() + per_module_[m].queue.size());
  }
  if (modules() > kMaxListed) msg += " ...";
  throw StatusError(Status(StatusCode::kDrainStuck, std::move(msg)));
}

u64 Machine::run_until_quiescent() {
  u64 executed = 0;
  if (!lost_.empty()) throw_lost();
  check_budget();
  while (!idle()) {
    if (executed >= options_.max_rounds_per_drain) throw_drain_stuck(executed);
    run_round();
    ++executed;
    // Surface lost messages as soon as the barrier completes; callers
    // abort_pending() (and possibly recover) before retrying the batch.
    if (!lost_.empty()) throw_lost();
    // The armed deadline spans every drain of one batch: exceeding it
    // surfaces kDeadlineExceeded instead of spinning toward kDrainStuck.
    check_budget();
  }
  return executed;
}

void Machine::set_tracer(Tracer* tracer) {
  tracer_ = tracer;
  if (tracer_ != nullptr) tracer_->on_attach(snapshot());
}

void Machine::record_trace(u64 h) {
  // Pooled scratch, rebuilt full-width each traced round: untouched
  // modules report exact zeros (their round_in/round_out fields hold
  // stale values from their last touched round, never read elsewhere),
  // and work is cumulative so the full copy is the source of truth.
  const u32 p = modules();
  trace_in_.assign(p, 0);
  trace_out_.assign(p, 0);
  trace_work_.resize(p);
  for (ModuleId m : touched_) {
    trace_in_[m] = per_module_[m].round_in;
    trace_out_[m] = per_module_[m].round_out;
  }
  for (ModuleId m = 0; m < p; ++m) trace_work_[m] = per_module_[m].work;
  tracer_->record(rounds_ - 1, h, trace_in_, trace_out_, trace_work_, fault_.counters());
}

u64 Machine::mailbox_highwater_since(u64 since_rounds) const {
  if (rounds_ <= since_rounds) return 0;  // no barrier in the span
  // Barrier b's mailbox size is the last mark with barrier <= b (0 if
  // none). The span covers barriers (since_rounds, rounds_]; its first
  // barrier is since_rounds + 1, and every mark after that is inside it.
  const u64 first = since_rounds + 1;
  auto it = std::upper_bound(
      mailbox_marks_.begin(), mailbox_marks_.end(), first,
      [](u64 b, const MailboxMark& mk) { return b < mk.barrier; });
  u64 hw = it == mailbox_marks_.begin() ? 0 : std::prev(it)->words;
  for (; it != mailbox_marks_.end(); ++it) hw = std::max(hw, it->words);
  return hw;
}

Snapshot Machine::snapshot() const {
  Snapshot s;
  s.io_time = io_time_;
  s.rounds = rounds_;
  s.messages = messages_;
  s.write_contention = write_contention_;
  s.module_work.resize(modules());
  for (ModuleId m = 0; m < modules(); ++m) s.module_work[m] = per_module_[m].work;
  s.faults = fault_.counters();
  return s;
}

MachineDelta Machine::delta(const Snapshot& since) const {
  MachineDelta d;
  d.io_time = io_time_ - since.io_time;
  d.rounds = rounds_ - since.rounds;
  d.messages = messages_ - since.messages;
  d.write_contention = write_contention_ - since.write_contention;
  d.sync_cost = d.rounds * log2_at_least1(modules());
  d.shared_mem = mailbox_highwater_since(since.rounds);
  PIM_CHECK(since.module_work.size() == per_module_.size(), "snapshot from another machine");
  for (ModuleId m = 0; m < modules(); ++m) {
    const u64 cur = per_module_[m].work;
    const u64 base = since.module_work[m];
    // Work counters are cumulative and must never run backwards — crash
    // zeroes only accounted space, and recovery rebuilds structure state,
    // not machine counters. A regression here would make the unsigned
    // subtraction wrap and poison pim_time, so fail loudly instead.
    PIM_CHECK(cur >= base,
              "module work counter regressed across a measured span (module " +
                  std::to_string(m) + ": " + std::to_string(base) + " -> " +
                  std::to_string(cur) + ")");
    const u64 w = cur - base;
    d.pim_time = std::max(d.pim_time, w);
    d.pim_work_total += w;
  }
  d.faults = fault_.counters() - since.faults;
  return d;
}

}  // namespace pim::sim
