// Online range migration: carve a hot group's upper range out to a spare
// while the source keeps serving. Protocol (DESIGN.md §5.10):
//
//   1. start_migration snapshots the moving range's key list (from the
//      group's journal replay — CPU-side, free) and opens a delta log:
//      every acknowledged write landing in the range keeps routing to
//      the source group AND is double-entried into the delta.
//   2. migration_step copies one chunk of keys via a range collect on
//      one live source member, upserting them into the target. A write
//      racing the copy is safe either way: the delta replay re-applies
//      it in order.
//   3. The step after the last chunk drains the delta onto the target,
//      then cuts over atomically ON THE CALLER THREAD: route flip, a
//      fresh single-member group for the moved range, checkpoint
//      rewrite — no PIM round between them. The moved leaves are then
//      deleted from every live source member (or, if a machine faults
//      mid-delete, that member is rebuilt from the rewritten group
//      checkpoint, which is equivalent and cannot fail).
//
// The carved-off group starts with ONE member even when R > 1; the
// policy loop's re-replication brings it back to full strength (the
// group journal protects it meanwhile). Ownership moves only at
// cutover, so a crash of either end at any public-API boundary loses
// nothing and duplicates nothing: kill the target → the source group
// still owns and serves everything; kill the copy-source member → the
// staged copy is discarded and the group's other members (or journal
// replay) still cover the moving range.
#include "shard/sharded_store.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace pim::shard {

Status ShardedPimStore::start_migration(u32 source, Key split_key) {
  if (migration_.has_value()) {
    return Status(StatusCode::kMigrationInProgress,
                  "a range migration is already running");
  }
  if (repair_.has_value()) {
    return Status(StatusCode::kMigrationInProgress,
                  "a replica repair is already running (one data movement at a time)");
  }
  if (source >= slots_.size()) {
    return Status(StatusCode::kInvalidArgument, "start_migration: bad slot");
  }
  Shard& s = slots_[source];
  if (s.state == ShardState::kDead) {
    return shard_down_status(s.group != kNoGroup ? s.group : source);
  }
  if (s.state != ShardState::kLive || s.group == kNoGroup) {
    return Status(StatusCode::kInvalidArgument,
                  "migration source must be a live shard");
  }
  ReplicaGroup& g = groups_[s.group];
  if (split_key <= g.lo || split_key >= g.hi) {
    return Status(StatusCode::kInvalidArgument,
                  "split key must fall strictly inside the source's range");
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

  provision(target);  // fresh machine + empty structure for the staged copy

  MigrationState m;
  m.group = s.group;
  m.source = source;
  m.target = target;
  m.lo = split_key;
  m.hi = g.hi;
  m.start_epoch = g.fence_epoch;
  for (const auto& [k, v] : g.log.fold()) {
    if (k >= m.lo && k < m.hi) m.plan_keys.push_back(k);
  }
  migration_ = std::move(m);
  return Status();
}

Status ShardedPimStore::fence_movement(const Movement& mv) {
  const u64 now = groups_[mv.group].fence_epoch;
  if (now == mv.start_epoch) return Status();
  ++fence_refusals_;
  recycle_target(mv.target);
  return fenced_status(mv.group, mv.start_epoch, now);
}

std::optional<Status> ShardedPimStore::copy_chunk(Movement& mv) {
  if (mv.copy_done) return std::nullopt;
  if (mv.cursor >= mv.plan_keys.size()) {
    mv.copy_done = true;
    return std::nullopt;
  }
  const u64 end =
      std::min(mv.cursor + opts_.migration_chunk, static_cast<u64>(mv.plan_keys.size()));
  const Key chunk_lo = mv.plan_keys[mv.cursor];
  const Key chunk_hi = mv.plan_keys[end - 1];  // inclusive collect bound
  std::vector<std::pair<Key, Value>> pairs;
  try {
    pairs = slots_[mv.source].list->range_collect_broadcast(chunk_lo, chunk_hi);
  } catch (const StatusError& e) {
    // Source faulted mid-collect; nothing was staged, the cursor stays
    // put. A fatal verdict kills the source member, which aborts the
    // movement (ownership never moved).
    observe_shard_health(mv.source, true);
    return e.status();
  }
  try {
    if (!pairs.empty()) slots_[mv.target].list->batch_upsert(pairs);
  } catch (const StatusError& e) {
    // Re-collecting and re-upserting the same chunk is idempotent.
    observe_shard_health(mv.target, true);
    return e.status();
  }
  mv.copied += pairs.size();
  mv.cursor = end;
  if (mv.cursor >= mv.plan_keys.size()) mv.copy_done = true;
  return Status();  // still active; the next step drains and installs
}

Status ShardedPimStore::migration_step() {
  if (!migration_.has_value()) {
    return Status(StatusCode::kInvalidArgument, "no migration is active");
  }
  // Source-group configuration changed mid-flight (death, revive,
  // repair install, demotion...): the copy plan and delta were built
  // against a configuration that is gone. Resolve by epoch — abort and
  // let the policy loop re-propose against the new config. The source
  // group never gave up ownership, so nothing is lost.
  if (Status fenced = fence_movement(*migration_); !fenced.ok()) {
    migration_.reset();
    return fenced;
  }
  if (auto copied = copy_chunk(*migration_)) return *copied;
  try {
    finish_migration();
  } catch (const StatusError& e) {
    // Drain fault: if the target survived, the migration is still active
    // and the next step resumes the drain; if the health verdict killed
    // it, the abort already rolled the migration back.
    return e.status();
  }
  return Status();
}

void ShardedPimStore::finish_migration() {
  MigrationState& m = *migration_;
  Shard& tgt = slots_[m.target];

  // Drain the delta log onto the target, record by record (the cursor
  // makes a fault-interrupted drain resumable; same-order replay of a
  // record is idempotent).
  drain_delta(m.target, m.delta, m.delta_applied);

  // The copy pass read ONE live member's structure, which may have
  // carried a refused (kNoQuorum) write awaiting anti-entropy rollback
  // or missed an acked one; and the target's own application can lag
  // after per-key faults. Cutover moves OWNERSHIP AND DURABILITY, so
  // only the acked state may cross: the source journal's replay splits
  // at the cut into the carved group's checkpoint and the source's, and
  // the target is rebuilt offline when its contents disagree.
  const Pairs replay = groups_[m.group].log.fold();
  const auto key_at = [&](Key k) {
    return std::ranges::lower_bound(replay, k, {}, &Pairs::value_type::first);
  };
  const auto cut = key_at(m.lo);
  Pairs moved_pairs(cut, key_at(m.hi));
  if (tgt.list->contents_digest() != core::PimSkipList::pairs_digest(moved_pairs)) {
    restore_into(m.target, moved_pairs);
  }

  // ---- atomic cutover (caller thread, no PIM rounds in between) ----
  const u32 target = m.target;
  const MigrationState done = std::move(m);
  migration_.reset();  // from here on, writes route normally

  // The moved range becomes a fresh single-member group; the policy
  // loop's repair path re-replicates it back to R.
  const u32 new_gid = static_cast<u32>(groups_.size());

  // Route flip: entries of the source group at or above the split move
  // to the new group; a split strictly inside an entry splits that entry.
  const u32 idx = route_index(done.lo);
  if (routes_[idx].lo < done.lo) {
    routes_.insert(routes_.begin() + idx + 1, RouteEntry{done.lo, done.group});
  }
  for (RouteEntry& e : routes_) {
    if (e.group == done.group && e.lo >= done.lo) e.group = new_gid;
  }

  ReplicaGroup carved;
  carved.lo = done.lo;
  carved.hi = done.hi;
  carved.members.push_back(target);
  std::vector<Key> moved;
  moved.reserve(moved_pairs.size());
  for (const auto& [k, v] : moved_pairs) moved.push_back(k);
  carved.log.reset(std::move(moved_pairs));

  // Durability handoff: the moved range leaves the source group's
  // journal and becomes the carved group's checkpoint.
  {
    ReplicaGroup& src = groups_[done.group];
    src.hi = done.lo;
    src.log.reset(Pairs(replay.begin(), cut));
    // Shrinking the owned range is a configuration change: late acks
    // and movements planned against the pre-cutover range are fenced.
    ++src.fence_epoch;
  }
  groups_.push_back(std::move(carved));

  tgt.state = ShardState::kLive;
  tgt.group = new_gid;
  tgt.lo = done.lo;
  tgt.hi = done.hi;

  // Physically remove the moved leaves from every live source member.
  // On a machine fault, fall back to rebuilding that member from the
  // (already rewritten) group checkpoint — offline, cannot fail, same
  // contents.
  for (const u32 member : groups_[done.group].members) {
    Shard& ms = slots_[member];
    ms.lo = groups_[done.group].lo;
    ms.hi = groups_[done.group].hi;
    if (ms.state != ShardState::kLive) continue;
    try {
      constexpr u64 kChunk = 1024;
      for (u64 i = 0; i < moved.size(); i += kChunk) {
        const u64 e = std::min(i + kChunk, static_cast<u64>(moved.size()));
        (void)ms.list->batch_delete(
            std::span<const Key>(moved.data() + i, e - i));
      }
    } catch (const StatusError&) {
      observe_shard_health(member, true);
      if (slots_[member].state == ShardState::kLive) {
        restore_into(member, groups_[done.group].log.checkpoint());
      }
    }
  }
}

void ShardedPimStore::abort_migration_for(u32 slot) {
  if (!migration_.has_value()) return;
  if (slot != migration_->source && slot != migration_->target) return;
  const MigrationState m = std::move(*migration_);
  migration_.reset();
  if (slot == m.source) {
    // The staged copy is worthless without a consistent copy pass;
    // recycle the target into an empty spare. (The group's other
    // members — or its journal — still cover the range in full.)
    recycle_target(m.target);
  }
  // slot == target: the source group never gave anything up — full
  // ownership, nothing to undo.
}

std::optional<ShardedPimStore::MigrationInfo> ShardedPimStore::migration_info() const {
  if (!migration_.has_value()) return std::nullopt;
  MigrationInfo info;
  info.source = migration_->source;
  info.target = migration_->target;
  info.lo = migration_->lo;
  info.hi = migration_->hi;
  info.copied = migration_->copied;
  info.delta_records = migration_->delta.size();
  return info;
}

std::optional<ShardedPimStore::MigrationPlan> ShardedPimStore::pick_migration(
    double hot_share_factor) {
  if (migration_.has_value() || repair_.has_value()) return std::nullopt;
  if (free_spares() == 0) return std::nullopt;
  const u32 live = live_shards();
  if (live < 1) return std::nullopt;

  u32 hot = slots();
  double hot_share = 0;
  for (u32 i = 0; i < slots(); ++i) {
    if (slots_[i].state != ShardState::kLive || slots_[i].group == kNoGroup) continue;
    const double share = shard_load(i).io_share;
    if (share > hot_share) {
      hot_share = share;
      hot = i;
    }
  }
  if (hot == slots()) return std::nullopt;
  // Hot = carrying hot_share_factor× its fair share of the fleet's IO.
  if (hot_share * live <= hot_share_factor) return std::nullopt;

  const ReplicaGroup& g = groups_[slots_[hot].group];
  std::vector<Key> keys;
  for (const auto& [k, v] : g.log.fold()) keys.push_back(k);
  if (keys.size() < 2) return std::nullopt;
  const Key split = keys[keys.size() / 2];
  if (split <= g.lo || split >= g.hi) return std::nullopt;
  return MigrationPlan{hot, split};
}

}  // namespace pim::shard
