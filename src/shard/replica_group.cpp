// Replica-group maintenance: anti-entropy (digest audit + read-repair),
// background re-replication of under-strength groups, and primary
// demotion (DESIGN.md §5.11).
//
// Anti-entropy correctness: the group journal holds exactly the acked
// writes, so its replay IS the authoritative contents. A live member
// whose content digest (offline CPU-side mirror walk — the PR 2
// scrubber machinery, unmetered) disagrees has missed or mangled an
// acked write: read-repair diffs its offline contents against the
// replay and patches the difference in place via the member's own batch
// ops; a diff too large (or a repair that does not converge) escalates
// to an offline rebuild from the replay. Either way the member ends
// digest-identical to the journal, which is what the replication test
// asserts.
//
// Re-replication correctness: start_repair/repair_step mirror the
// migration protocol — chunked range_collect_broadcast copy from a live
// member plus a delta-log tee of every acked group write since the
// start, drained before the install. The install swaps the rebuilt
// shard into the dead member's place (or appends when the group is
// short a member, e.g. a freshly carved migration target) on the caller
// thread, atomically with respect to batches. Writes are never paused.
#include "shard/sharded_store.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace pim::shard {

// ---------------- primary demotion ----------------

u32 ShardedPimStore::demote_dead_primaries() {
  u32 demoted = 0;
  for (u32 gi = 0; gi < groups_.size(); ++gi) {
    ReplicaGroup& g = groups_[gi];
    if (slots_[g.members[g.primary]].state == ShardState::kLive) continue;
    const u32 slot = read_member(gi);
    if (slot == kNoSlot) continue;  // whole group dead — nothing to demote to
    g.primary = g.rank_of(slot);
    // Read preference moved: fence anything in flight under the old
    // configuration (a wave dispatched to the dead primary included).
    ++g.fence_epoch;
    ++demoted;
  }
  return demoted;
}

// ---------------- anti-entropy ----------------

AntiEntropyReport ShardedPimStore::anti_entropy_step(u32 max_groups) {
  AntiEntropyReport rep;
  const u32 n = static_cast<u32>(groups_.size());
  if (n == 0 || max_groups == 0) return rep;

  // Visit order: dirty groups first (a write already told us a member
  // lagged), then the rotating cursor for background coverage.
  std::vector<u32> visit;
  for (u32 g = 0; g < n && visit.size() < max_groups; ++g) {
    if (groups_[g].dirty) visit.push_back(g);
  }
  while (visit.size() < max_groups) {
    const u32 g = anti_entropy_cursor_;
    anti_entropy_cursor_ = (anti_entropy_cursor_ + 1) % n;
    if (std::find(visit.begin(), visit.end(), g) != visit.end()) break;
    visit.push_back(g);
  }

  for (const u32 gi : visit) {
    ReplicaGroup& g = groups_[gi];
    ++rep.groups_audited;
    rep.audited_groups.push_back(gi);
    const Pairs expected = g.log.fold();
    const u64 want = core::PimSkipList::pairs_digest(expected);
    for (const u32 slot : g.members) {
      converge_member(gi, slot, expected, want, &rep);
    }
    g.dirty = false;
  }
  return rep;
}

bool ShardedPimStore::converge_member(u32 group, u32 slot, const Pairs& expected,
                                      u64 want_digest, AntiEntropyReport* rep) {
  (void)group;
  Shard& s = slots_[slot];
  if (s.state != ShardState::kLive) return false;
  if (s.list->contents_digest() == want_digest) return false;
  if (rep != nullptr) ++rep->divergent;
  // Two-pointer diff of the member's offline contents against the
  // authoritative replay: extra keys die, missing/stale keys are
  // re-upserted.
  const auto have = s.list->contents_offline();
  std::vector<Key> dels;
  std::vector<std::pair<Key, Value>> ups;
  u64 i = 0, j = 0;
  while (i < have.size() || j < expected.size()) {
    if (j >= expected.size() ||
        (i < have.size() && have[i].first < expected[j].first)) {
      dels.push_back(have[i].first);
      ++i;
    } else if (i >= have.size() || expected[j].first < have[i].first) {
      ups.push_back(expected[j]);
      ++j;
    } else {
      if (have[i].second != expected[j].second) ups.push_back(expected[j]);
      ++i;
      ++j;
    }
  }
  bool rebuild = dels.size() + ups.size() > opts_.anti_entropy_rebuild_threshold;
  if (!rebuild) {
    try {
      if (!dels.empty()) (void)s.list->batch_delete(dels);
      if (!ups.empty()) (void)s.list->batch_upsert(ups);
      if (rep != nullptr) rep->repaired_keys += dels.size() + ups.size();
    } catch (const StatusError&) {
      observe_shard_health(slot, true);
      rebuild = true;
    }
    // Per-key failures don't throw; re-digest to be sure.
    if (!rebuild && s.list->contents_digest() != want_digest) rebuild = true;
  }
  if (rebuild && slots_[slot].state == ShardState::kLive) {
    restore_into(slot, expected);
    if (rep != nullptr) ++rep->rebuilds;
  }
  return true;
}

// ---------------- re-replication (repair) ----------------

std::optional<u32> ShardedPimStore::pick_repair() const {
  if (migration_.has_value() || repair_.has_value()) return std::nullopt;
  if (free_spares() == 0) return std::nullopt;
  for (u32 gi = 0; gi < groups_.size(); ++gi) {
    const ReplicaGroup& g = groups_[gi];
    bool needs = g.members.size() < opts_.replication;
    for (const u32 slot : g.members) {
      needs |= slots_[slot].state != ShardState::kLive;
    }
    if (!needs) continue;
    if (read_member(gi) == kNoSlot) continue;  // whole group dead: failover territory
    return gi;
  }
  return std::nullopt;
}

Status ShardedPimStore::start_repair(u32 group) {
  if (migration_.has_value() || repair_.has_value()) {
    return Status(StatusCode::kMigrationInProgress,
                  "a data movement is already running (one at a time)");
  }
  if (group >= groups_.size()) {
    return Status(StatusCode::kInvalidArgument, "start_repair: bad group");
  }
  ReplicaGroup& g = groups_[group];
  u32 dead_slot = kNoSlot;
  for (const u32 slot : g.members) {
    if (slots_[slot].state != ShardState::kLive) {
      dead_slot = slot;
      break;
    }
  }
  if (dead_slot == kNoSlot && g.members.size() >= opts_.replication) {
    return Status(StatusCode::kInvalidArgument, "group needs no repair");
  }
  const u32 source = read_member(group);
  if (source == kNoSlot) {
    return Status(StatusCode::kInvalidArgument,
                  "no live member to copy from (whole group dead — failover "
                  "replays the journal instead)");
  }
  u32 target = slots();
  for (u32 i = 0; i < slots(); ++i) {
    if (slots_[i].state == ShardState::kSpare) {
      target = i;
      break;
    }
  }
  if (target == slots()) {
    return Status(StatusCode::kInvalidArgument, "no spare shard available");
  }
  provision(target);  // fresh machine + empty structure for the copy

  RepairState r;
  r.group = group;
  r.source = source;
  r.target = target;
  r.dead_slot = dead_slot;
  r.start_epoch = g.fence_epoch;
  // Copy plan: the acked keyset. The source member's structure is the
  // copy medium; the install digest-checks the rebuilt member against
  // the journal replay (finish_repair), so a source that lagged — or
  // carried refused writes awaiting rollback — cannot leak through.
  for (const auto& [k, v] : g.log.fold()) r.plan_keys.push_back(k);
  repair_ = std::move(r);
  return Status();
}

Status ShardedPimStore::repair_step() {
  if (!repair_.has_value()) {
    return Status(StatusCode::kInvalidArgument, "no repair is active");
  }
  // The group's configuration changed since the repair started (a member
  // died or was revived, the primary demoted, a cutover...). Resolve the
  // race by epoch, never by timing: this repair was planned against a
  // configuration that no longer exists, so it aborts — the policy loop
  // restarts one against the new config if still needed. (A revive of
  // the dead member it was replacing, for example, makes installing the
  // stale copy actively wrong.) A source fault during the copy kills the
  // source member at its breaker verdict, which aborts the repair the
  // same way; the policy loop restarts it from another live member.
  if (Status fenced = fence_movement(*repair_); !fenced.ok()) {
    repair_.reset();
    return fenced;
  }
  if (auto copied = copy_chunk(*repair_)) return *copied;
  try {
    finish_repair();
  } catch (const StatusError& e) {
    // Drain fault: if the target survived, the repair is still active
    // and the next step resumes the drain; if the health verdict killed
    // it, the abort already rolled the repair back.
    return e.status();
  }
  return Status();
}

void ShardedPimStore::finish_repair() {
  RepairState& r = *repair_;
  Shard& tgt = slots_[r.target];

  // Drain the delta log (acked group writes since start_repair) onto the
  // rebuilt member; the cursor makes a fault-interrupted drain resumable.
  drain_delta(r.target, r.delta, r.delta_applied);

  // The copy medium was a live member's structure, which may itself have
  // lagged the journal or carried a refused (kNoQuorum) write awaiting
  // anti-entropy rollback. The journal replay is authoritative:
  // digest-check the rebuilt member and rebuild it offline on mismatch,
  // so an install can never make an unacked write servable again.
  const Pairs want = groups_[r.group].log.fold();
  if (tgt.list->contents_digest() != core::PimSkipList::pairs_digest(want)) {
    restore_into(r.target, want);
  }

  // ---- install (caller thread, atomic with respect to batches) ----
  const RepairState done = std::move(r);
  repair_.reset();
  ReplicaGroup& g = groups_[done.group];
  Shard& fresh = slots_[done.target];
  fresh.state = ShardState::kLive;
  fresh.group = done.group;
  fresh.lo = g.lo;
  fresh.hi = g.hi;
  if (done.dead_slot != kNoSlot) {
    for (u32 mi = 0; mi < g.members.size(); ++mi) {
      if (g.members[mi] == done.dead_slot) {
        g.members[mi] = done.target;
        g.deprioritized &= ~(1u << mi);  // fresh member, fresh gray slate
      }
    }
    // Decommissioned: a later revive_shard turns the repaired rack into
    // an empty spare.
    slots_[done.dead_slot].group = kNoGroup;
  } else {
    PIM_CHECK(g.members.size() < opts_.replication,
              "repair install would overfill the group");
    g.deprioritized &= ~(1u << g.members.size());
    g.members.push_back(done.target);
  }
  ++g.fence_epoch;  // the install is a configuration change
}

void ShardedPimStore::abort_repair_for(u32 slot) {
  if (!repair_.has_value()) return;
  if (slot != repair_->source && slot != repair_->target &&
      slot != repair_->dead_slot) {
    return;
  }
  const u32 target = repair_->target;
  repair_.reset();
  recycle_target(target);
}

std::optional<ShardedPimStore::RepairInfo> ShardedPimStore::repair_info() const {
  if (!repair_.has_value()) return std::nullopt;
  RepairInfo info;
  info.group = repair_->group;
  info.source = repair_->source;
  info.target = repair_->target;
  info.dead_slot = repair_->dead_slot;
  info.copied = repair_->copied;
  info.delta_records = repair_->delta.size();
  return info;
}

void ShardedPimStore::recycle_target(u32 slot) {
  Shard& t = slots_[slot];
  if (t.state == ShardState::kDead) return;
  provision(slot);
  t.state = ShardState::kSpare;
  t.group = kNoGroup;
}

}  // namespace pim::shard
