// Shard-level fault handling: the kill/revive chaos API, failover into a
// spare, and per-shard chaos plan installation (DESIGN.md §5.10–§5.11).
//
// The durability argument, in one place: every write the store
// acknowledged (per-position kOk) was committed on >= write_quorum live
// replicas AND appended to the owning GROUP's journal *on the caller
// thread, after the shard round that acknowledged it*. The journal and
// its checkpoint live CPU-side in the router, not in any shard's
// Machine, so a rack loss cannot touch them. With R > 1 a death costs
// nothing: surviving members keep serving reads and writes. failover()
// and revive_shard() are the last-resort replay path (R = 1, or a whole
// group dead): they rebuild a member from checkpoint + journal in
// record order with the same first-occurrence-wins batch semantics the
// live shards applied — so the restored shard holds exactly the
// acknowledged state, no more (unacknowledged and kNoQuorum writes were
// never journaled) and no less.
#include "shard/sharded_store.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "random/hash_fn.hpp"

namespace pim::shard {

void ShardedPimStore::kill_shard(u32 slot) {
  PIM_CHECK(slot < slots_.size(), "kill_shard: bad slot");
  Shard& s = slots_[slot];
  if (s.state == ShardState::kDead) return;  // cannot die twice
  // Rack loss: the machine, the structure and every CPU-side mirror go.
  // The group-level checkpoint + journal survive (they live here).
  s.list.reset();
  s.machine.reset();
  s.state = ShardState::kDead;
  s.fail_streak = 0;
  if (s.group != kNoGroup) {
    // Losing a member is a configuration change: fence every wave, ack
    // and movement dispatched under the old membership. (In-flight
    // batch merges check this epoch before trusting any result the
    // dead member — or its survivors — produced for that wave.)
    ++groups_[s.group].fence_epoch;
  }
  abort_migration_for(slot);
  abort_repair_for(slot);
}

void ShardedPimStore::revive_shard(u32 slot) {
  PIM_CHECK(slot < slots_.size(), "revive_shard: bad slot");
  Shard& s = slots_[slot];
  if (s.state != ShardState::kDead) return;  // revive is idempotent
  if (s.group != kNoGroup) {
    // A rebuild that was replacing this member is moot now.
    abort_repair_for(slot);
    ReplicaGroup& g = groups_[s.group];
    Pairs contents = g.log.fold();
    restore_into(slot, contents);
    g.log.reset(std::move(contents));
    s.lo = g.lo;
    s.hi = g.hi;
    s.state = ShardState::kLive;
    // Re-admission happens at a NEW epoch: anything the member (or its
    // group) had in flight under the pre-revive configuration is fenced,
    // and the member's gray history is forgotten — it is rebuilt fresh
    // from the authoritative replay.
    g.deprioritized &= ~(1u << g.rank_of(slot));
    ++g.fence_epoch;
  } else {
    restore_into(slot, {});
    s.state = ShardState::kSpare;
  }
}

Status ShardedPimStore::failover(u32 slot) {
  if (slot >= slots_.size() || slots_[slot].state != ShardState::kDead) {
    return Status(StatusCode::kInvalidArgument,
                  "failover target must be a dead shard");
  }
  Shard& victim = slots_[slot];
  if (victim.group == kNoGroup) {
    return Status(StatusCode::kInvalidArgument,
                  "dead shard owns no key range (already failed over?)");
  }
  const u32 gi = victim.group;
  // The instant replay path supersedes any online rebuild of this group.
  if (repair_.has_value() && repair_->group == gi) {
    const u32 t = repair_->target;
    repair_.reset();
    recycle_target(t);
  }
  u32 spare = slots();
  for (u32 i = 0; i < slots(); ++i) {
    if (slots_[i].state == ShardState::kSpare &&
        !(migration_.has_value() && migration_->target == i)) {
      spare = i;
      break;
    }
  }
  if (spare == slots()) {
    return Status(StatusCode::kInvalidArgument, "no spare shard available");
  }
  ReplicaGroup& g = groups_[gi];
  Pairs contents = g.log.fold();
  restore_into(spare, contents);
  Shard& fresh = slots_[spare];
  fresh.state = ShardState::kLive;
  fresh.group = gi;
  fresh.lo = g.lo;
  fresh.hi = g.hi;
  for (u32 mi = 0; mi < g.members.size(); ++mi) {
    if (g.members[mi] == slot) {
      g.members[mi] = spare;
      g.deprioritized &= ~(1u << mi);
    }
  }
  g.log.reset(std::move(contents));
  ++g.fence_epoch;  // membership changed: fence the old configuration
  // The victim is decommissioned: the log stays with the group. A later
  // revive_shard(slot) turns the repaired rack into an empty spare.
  victim.group = kNoGroup;
  return Status();
}

void ShardedPimStore::set_shard_fault_plan(u32 slot, const sim::FaultPlan& plan) {
  Shard& s = slots_[slot];
  PIM_CHECK(s.machine != nullptr, "set_shard_fault_plan: shard is dead");
  s.machine->set_fault_plan(plan);
  if (plan.enabled && s.state == ShardState::kLive) {
    // Establish the shard's internal journal while it is healthy, so
    // module-level crash recovery works from the first faulty batch on.
    // Best-effort: the probe already runs under the new plan, so with a
    // tight op deadline armed it can blow its budget — that must not
    // escape a chaos-injection call (the first real batch will surface
    // per-key errors through the normal status channel instead).
    const Key lo = shard_range(slot).first;
    try {
      (void)s.list->batch_get(std::vector<Key>{lo == kMinKey ? Key{0} : lo});
    } catch (const StatusError&) {
    }
  }
}

// ---------------- gray-failure chaos ----------------

Status ShardedPimStore::slow_shard(u32 slot, double stall_factor) {
  if (slot >= slots_.size() || slots_[slot].machine == nullptr) {
    return Status(StatusCode::kInvalidArgument,
                  "slow_shard: slot has no live machine");
  }
  if (!(stall_factor >= 1.0)) {
    return Status(StatusCode::kInvalidArgument,
                  "slow_shard: stall_factor must be >= 1");
  }
  // A module-round stalls with p = 1 - 1/f, so progress happens on a
  // 1/f fraction of rounds: effective per-wave round cost multiplies by
  // ~f while every message still (eventually) delivers — slow-but-alive,
  // invisible to the fail-stop breaker.
  sim::FaultPlan p;
  p.enabled = stall_factor > 1.0;
  p.seed = rnd::mix2(rnd::mix2(opts_.seed, 0x51084FAC7ull), slot);
  p.stall_prob = 1.0 - 1.0 / stall_factor;
  set_shard_fault_plan(slot, p);
  return Status{};
}

Status ShardedPimStore::flaky_shard(u32 slot, double drop_prob) {
  if (slot >= slots_.size() || slots_[slot].machine == nullptr) {
    return Status(StatusCode::kInvalidArgument,
                  "flaky_shard: slot has no live machine");
  }
  if (!(drop_prob >= 0.0 && drop_prob < 1.0)) {
    return Status(StatusCode::kInvalidArgument,
                  "flaky_shard: drop_prob must be in [0, 1)");
  }
  sim::FaultPlan p;
  p.enabled = drop_prob > 0.0;
  p.seed = rnd::mix2(rnd::mix2(opts_.seed, 0xF1A27EEDull), slot);
  p.drop_prob = drop_prob;
  set_shard_fault_plan(slot, p);
  return Status{};
}

Status ShardedPimStore::clear_shard_chaos(u32 slot) {
  if (slot >= slots_.size() || slots_[slot].machine == nullptr) {
    return Status(StatusCode::kInvalidArgument,
                  "clear_shard_chaos: slot has no live machine");
  }
  set_shard_fault_plan(slot, sim::FaultPlan{});
  return Status{};
}

Status ShardedPimStore::set_read_deprioritized(u32 slot, bool on) {
  if (slot >= slots_.size() || slots_[slot].group == kNoGroup) {
    return Status(StatusCode::kInvalidArgument,
                  "read depriority applies to group members only");
  }
  ReplicaGroup& g = groups_[slots_[slot].group];
  const u32 mi = g.rank_of(slot);
  const u32 bit = 1u << mi;
  if (((g.deprioritized & bit) != 0) == on) return Status{};  // no change
  if (on) {
    g.deprioritized |= bit;
    // Make the demotion sticky: rotate the primary off the deprioritized
    // member when a live, non-deprioritized alternative exists (reads
    // then pay no first-pass probe). serving_member converges the new
    // primary if the group is dirty, so the handover cannot serve stale.
    if (g.primary == mi) {
      const u32 r = static_cast<u32>(g.members.size());
      for (u32 i = 1; i < r; ++i) {
        const u32 cand = (mi + i) % r;
        if (g.deprioritized & (1u << cand)) continue;
        if (slots_[g.members[cand]].state == ShardState::kLive) {
          g.primary = cand;
          break;
        }
      }
    }
  } else {
    g.deprioritized &= ~bit;
  }
  ++g.fence_epoch;  // read preference is part of the configuration
  return Status{};
}

bool ShardedPimStore::read_deprioritized(u32 slot) const {
  const u32 gi = slots_[slot].group;
  if (gi == kNoGroup) return false;
  const ReplicaGroup& g = groups_[gi];
  for (u32 mi = 0; mi < g.members.size(); ++mi) {
    if (g.members[mi] == slot) return (g.deprioritized >> mi) & 1u;
  }
  return false;
}

void ShardedPimStore::set_op_deadline(core::PimSkipList::OpDeadline d) {
  deadline_ = d;
  for (Shard& s : slots_) {
    if (s.list != nullptr) s.list->set_op_deadline(d);
  }
}

}  // namespace pim::shard
