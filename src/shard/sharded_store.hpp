// ShardedPimStore — a fleet of PimSkipList-on-Machine shards behind a
// CPU-side range router (DESIGN.md §5.10, replication §5.11).
//
// One Machine(P) models one rack. This tier range-partitions the key
// space across S replica groups — each a group of R independent shards
// (its own sim::Machine plus core::PimSkipList per member) — and turns
// the per-rack survivability built by PRs 1–5 into a survivable fleet:
//
//  * Two-phase batch split/merge: every batch is split by the route
//    table, the per-shard sub-batches run at once as one wave on the
//    store's own par::ThreadPool (shard machines share no state, so the
//    merge is bit-identical to running shards sequentially), and per-key
//    Status results are reassembled in the caller's order. A dead group
//    yields kShardDown for exactly its keys; a dead module inside a live
//    shard yields kUnavailable for exactly its keys (the PR 3 partial-
//    batch contract, composed one level up). A batch is never wedged.
//    The six point ops are one fan-out: batch_window takes a batch per
//    class and calls each member at most once per wave, and each point
//    op is its one-class case. The range ops keep their own.
//
//  * Replication (ShardOptions::replication = R, default 1 == PR 6
//    behavior bit-for-bit): writes dispatch to every live member of the
//    owning group in the same wave and a position is acknowledged when
//    at least write_quorum members commit it (kNoQuorum otherwise);
//    reads are served by the group primary and transparently retarget
//    to another live member when the primary is dead or faulted, so up
//    to R-1 deaths in a group cause zero unavailability and zero lost
//    acks. Anti-entropy (digest audit + read-repair) and background
//    re-replication (repair_step) keep the group converged and at full
//    strength; see replica_group.hpp and src/shard/policy.hpp for the
//    autonomous loop that drives them.
//
//  * Shard health: sub-batches run inside a catch-all; a shard whose
//    machine reports every module down, or whose sub-batches keep
//    escaping with faults (the shard-level analogue of the PR 3 circuit
//    breaker, fed by the same per-module breaker/down signals), is
//    fail-stopped — kill_shard/revive_shard expose the same transition
//    as a chaos API.
//
//  * Failover: every acknowledged write is journaled at the GROUP level
//    (a core::BatchLog: a key-sorted checkpoint + ordered batch records,
//    folded into the checkpoint by one sort-merge every
//    BatchLog::kCompactLimit records).
//    With R > 1 the journal is a backstop:
//    a surviving replica keeps serving and repair rebuilds the dead
//    member from the live one. Journal replay into a spare — failover(s)
//    — is the last-resort path for R = 1 or a whole dead group;
//    revive_shard(s) is the same replay into the victim's own slot.
//
//  * Online range migration: split a hot group's range at a chosen key
//    and stream its leaves to a spare in chunks while writes keep
//    landing on the source; writes into the moving range are also
//    appended to a migration delta log, replayed on the target before an
//    atomic cutover (route flip + source-side range delete in one step).
//    Crash of either end mid-migration aborts cleanly: ownership moves
//    only at cutover, so there is no window where a key is lost or
//    served twice. pick_migration() chooses the split from per-shard
//    load statistics (io share, per-module work CoV — the PR 4 metrics).
//
//  * Cross-shard range stitching: successor / predecessor queries
//    spill group-local misses to the neighboring group in key order
//    (follow-up waves of the window), and range aggregates/collects
//    split a query by the route table and merge per-group partial
//    results — answers are bit-identical to a single-Machine PimSkipList
//    holding the same contents.
//
// Threading contract: the store's public API is driven by one caller
// thread; only the fan-out phase is internally parallel. All routing,
// journaling and migration bookkeeping happens on the caller thread
// between waves, which is what makes kill/cutover atomic with respect
// to batches. ShardPolicy (policy.hpp) runs a background thread but
// serializes every store call behind its own mutex, which workload
// threads are expected to share.
#pragma once

#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/status.hpp"
#include "common/types.hpp"
#include "core/pim_skiplist.hpp"
#include "parallel/thread_pool.hpp"
#include "shard/replica_group.hpp"
#include "sim/fault.hpp"
#include "sim/machine.hpp"

namespace pim::shard {

enum class ShardState : u8 {
  kLive,   // member of a group (serves traffic) — or a built migration
           // target about to be installed
  kSpare,  // provisioned but empty; failover / migration / repair target
  kDead,   // machine lost (chaos kill or health verdict); a group with
           // only dead members answers kShardDown until failover() or
           // revive_shard()
};

struct ShardOptions {
  /// Initial replica groups (equal key ranges over [domain_lo,
  /// domain_hi)). Total slots = shards * replication + spares.
  u32 shards = 4;
  /// Spare slots provisioned up front (failover / migration / repair
  /// targets).
  u32 spares = 1;
  /// Modules per shard machine (the paper's P, per rack).
  u32 modules_per_shard = 8;
  /// Key domain the initial boundaries divide. Keys outside still route
  /// (to the first / last group) — the edge groups own the open ends.
  Key domain_lo = 0;
  Key domain_hi = 1'000'000'000;
  u64 seed = 0x5AA4D5EEDull;
  /// Run a wave's shard calls at once on the store's thread pool (one
  /// lane per slot). Off = the same pool with no workers, which runs the
  /// calls one after another on the calling thread; results are identical
  /// (disjoint state), so tests can diff the two dispatch modes directly.
  bool parallel_dispatch = true;
  /// Applied to every shard machine (breaker, queue bounds, hedging —
  /// the PR 3 knobs compose per shard).
  sim::MachineOptions machine_options{};
  /// Applied to every shard's skiplist; the seed is re-mixed per slot and
  /// per provisioning generation so no two shard structures share
  /// placement randomness (replicas converge on CONTENTS, not layout —
  /// anti-entropy compares content digests, which are layout-free).
  core::PimSkipList::Options list_options{};
  /// Target keys copied per migration_step() / repair_step() chunk.
  u64 migration_chunk = 256;
  /// Consecutive escaped sub-batch failures before a shard is declared
  /// dead (the shard-level circuit breaker).
  u32 shard_breaker_strikes = 2;
  /// Replicas per range group (R). 1 preserves single-copy PR 6
  /// behavior bit-for-bit.
  u32 replication = 1;
  /// Live members that must commit a write before it is acknowledged
  /// (and group-journaled). In 1..replication. A write reaching at
  /// least one but fewer than this many live members returns kNoQuorum
  /// for its keys and is NOT acked.
  u32 write_quorum = 1;
  /// Anti-entropy escalation: a divergent member whose diff against the
  /// group journal's replay exceeds this many keys (or that is still
  /// divergent after read-repair) is rebuilt offline instead.
  u64 anti_entropy_rebuild_threshold = 64;
  /// Read-your-quorum (opt-in, needs write_quorum > 1): batch_get
  /// consults write_quorum live members per group and returns the value
  /// they agree on; any disagreement or per-key fault is resolved from
  /// the group journal's replay — the authoritative acked state — so a
  /// read can never observe a write that was refused (kNoQuorum) or
  /// missed by a lagging member. Off (default) keeps primary-preferred
  /// reads; with write_quorum == 1 the flag is inert, so R = 1 behavior
  /// stays bit-identical.
  bool quorum_reads = false;
};

/// Mirrors PR 2's FaultPlan::validate — reject malformed options with
/// kInvalidArgument before any machine is provisioned: shards >= 1,
/// modules_per_shard >= 1, replication >= 1, write_quorum in
/// [1, replication], spares + shards >= replication, a non-empty key
/// domain wide enough for the shard count and migration_chunk > 0. The
/// ShardedPimStore constructor throws StatusError carrying the same
/// status.
Status validate_shard_options(const ShardOptions& opts);

class ShardedPimStore {
 public:
  explicit ShardedPimStore(ShardOptions opts);
  ~ShardedPimStore();

  ShardedPimStore(const ShardedPimStore&) = delete;
  ShardedPimStore& operator=(const ShardedPimStore&) = delete;

  // ---------------- bulk build (offline, not metered) ----------------

  /// Splits strictly-increasing unique pairs by the route table and bulk
  /// builds every member of every group; group checkpoints start at the
  /// built contents (so failover works from round zero).
  void build(std::span<const std::pair<Key, Value>> sorted_unique);

  // ---------------- batch point operations ----------------

  struct GetResult {
    Status status;
    bool found = false;
    Value value = 0;
  };
  struct FlagResult {
    Status status;
    bool found = false;  // update: key existed; delete: key erased
  };
  struct NearResult {
    Status status;
    bool found = false;
    Key key = 0;
  };

  /// A window of point ops: one batch per class. The store runs the
  /// classes in this order, so the writes land before the reads and a
  /// read observes the window's own acked writes.
  struct WindowRequest {
    std::vector<std::pair<Key, Value>> upserts{};
    std::vector<std::pair<Key, Value>> updates{};
    std::vector<Key> deletes{};
    std::vector<Key> gets{};
    std::vector<Key> successors{};
    std::vector<Key> predecessors{};
  };
  /// Per-position results, one vector per class of the request.
  struct WindowResult {
    std::vector<Status> upserts;
    std::vector<FlagResult> updates;
    std::vector<FlagResult> deletes;
    std::vector<GetResult> gets;
    std::vector<NearResult> successors;
    std::vector<NearResult> predecessors;
  };
  /// Runs a whole window as one fan-out. The first wave makes one job per
  /// group and calls each slot at most once: writes go to every live
  /// member, and reads ride on the serving member's call (the consulted
  /// members' calls for quorum reads). A member runs its share class by
  /// class and keeps each class's result or StatusError, so a read that
  /// throws never discards a write the member already applied. Each
  /// group settles its writes first (quorum merge, one journal record
  /// per write class), then its reads. Follow-up waves carry only reads:
  /// gets retargeted off a member that failed them, successor and
  /// predecessor spills, and the reads of a group whose writes this wave
  /// left dirty or whose job was fenced; those are served again through
  /// serving_member, so no read sees a write its group did not ack.
  WindowResult batch_window(const WindowRequest& req);

  /// The one-class windows. Reads retarget to another live member when
  /// the serving one fails; R = 1 degenerates to a single attempt.
  std::vector<GetResult> batch_get(std::span<const Key> keys);
  /// Per-position status; kOk positions are acknowledged (group-
  /// journaled, committed on >= write_quorum live replicas) and survive
  /// any later shard failover. kNoQuorum positions are NOT acked.
  std::vector<Status> batch_upsert(std::span<const std::pair<Key, Value>> ops);
  std::vector<FlagResult> batch_update(std::span<const std::pair<Key, Value>> ops);
  std::vector<FlagResult> batch_delete(std::span<const Key> keys);
  /// Smallest stored key >= query, stitched across group boundaries: a
  /// miss in the owning group spills to the next group in key order. A
  /// query whose answer could live in a dead group reports kShardDown
  /// (the answer cannot be determined, so no wrong key is ever served).
  std::vector<NearResult> batch_successor(std::span<const Key> keys);
  /// Largest stored key <= query (mirror stitching, spills backwards).
  std::vector<NearResult> batch_predecessor(std::span<const Key> keys);

  // ---------------- cross-shard range operations ----------------

  using RangeAgg = core::PimSkipList::RangeAgg;
  using RangeQuery = core::PimSkipList::RangeQuery;
  struct RangeResult {
    Status status;  // kShardDown if any group owning part of the range is dead
    RangeAgg agg;   // partial (live groups only) when !status.ok()
  };
  /// Inclusive [lo, hi] count+sum, split by the route table and merged.
  RangeResult range_aggregate(Key lo, Key hi);
  /// Batched count+sum per query (each split per group, partials added).
  std::vector<RangeResult> batch_range_aggregate(std::span<const RangeQuery> queries);
  struct CollectResult {
    Status status;
    std::vector<std::pair<Key, Value>> pairs;  // sorted by key; partial when !ok
  };
  CollectResult range_collect(Key lo, Key hi);

  // ---------------- chaos / failover API ----------------

  /// Fail-stops a whole shard: its Machine and structure are destroyed
  /// (rack loss — the CPU-side mirrors die with it). The shard stays a
  /// member of its group; with another live member the group keeps
  /// serving (reads retarget, writes quorum on the survivors), otherwise
  /// routes to the group answer kShardDown. Killing a spare just
  /// decommissions it. Any migration or repair involving the shard is
  /// aborted (ownership never moved, so the surviving end stays exact).
  /// No-op on an already-dead shard.
  void kill_shard(u32 slot);
  /// Rebuilds a dead shard in place from its group's checkpoint +
  /// journal and returns it to service (kLive if it is a group member,
  /// kSpare otherwise). Every acknowledged write is restored.
  void revive_shard(u32 slot);
  /// Replays the group's checkpoint + journal into a spare slot and
  /// swaps it into the dead member's place. The victim slot is
  /// decommissioned (revive_shard turns it back into a spare). This is
  /// the last-resort instant path (R = 1, or a whole group dead);
  /// prefer start_repair/repair_step for online rebuild under load.
  /// Returns kInvalidArgument if `slot` is not a dead group member or
  /// no spare exists.
  Status failover(u32 slot);

  /// Installs a plan on one shard's machine (per-shard chaos). An enabled
  /// plan on a live shard also establishes the shard's internal journal,
  /// so module-level recovery works from the next batch on.
  void set_shard_fault_plan(u32 slot, const sim::FaultPlan& plan);
  /// Per-batch deadline forwarded to every live shard's skiplist — and,
  /// via provision(), to every shard created AFTER the call (failover /
  /// revive targets, repair builds, migration targets): a replacement
  /// member enforces the same budget as the shard it replaced.
  void set_op_deadline(core::PimSkipList::OpDeadline d);
  /// Deadline a slot's structure currently enforces (zero-field default
  /// for dead slots). Observability for the propagation contract above.
  core::PimSkipList::OpDeadline shard_op_deadline(u32 slot) const {
    return slots_[slot].list == nullptr ? core::PimSkipList::OpDeadline{}
                                        : slots_[slot].list->op_deadline();
  }

  // ---------------- gray-failure chaos ----------------

  /// Makes a live shard slow-but-alive: every message it handles stalls
  /// with probability 1 - 1/stall_factor (deterministic per-content
  /// draws via the per-shard FaultPlan installer), multiplying its
  /// effective per-wave round cost by ~stall_factor without tripping
  /// any fail-stop. stall_factor >= 1; 1 clears the stall.
  Status slow_shard(u32 slot, double stall_factor);
  /// Makes a live shard lossy: messages drop with `drop_prob` (retried
  /// with backoff up to the plan's budget, so the shard gets slower and
  /// occasionally faults sub-batches without dying).
  Status flaky_shard(u32 slot, double drop_prob);
  /// Restores a slot to no faults.
  Status clear_shard_chaos(u32 slot);

  /// Marks/unmarks a live group member as read-deprioritized (the gray
  /// detector's demotion): the member keeps receiving writes but read
  /// selection skips it unless no other live member remains. Rotating
  /// the primary off a deprioritized member and the mask change itself
  /// are configuration changes — the group's fence epoch bumps.
  /// kInvalidArgument when the slot is not a group member.
  Status set_read_deprioritized(u32 slot, bool on);
  bool read_deprioritized(u32 slot) const;

  // ---------------- epoch fencing ----------------

  /// Results / acks / movement steps refused because their captured
  /// epoch was stale (fleet-wide, monotonic).
  u64 fence_refusals() const { return fence_refusals_; }
  /// Waves that called at least one member (fleet-wide, monotonic).
  u64 waves() const { return waves_; }
  /// Quorum-read positions resolved from the group journal because the
  /// consulted members disagreed or faulted.
  u64 quorum_read_resolves() const { return quorum_read_resolves_; }
  /// TEST HOOK — models a zombie dispatch: the next `count` epoch
  /// captures for `group` record an epoch one behind the group's real
  /// one, exactly what a member declared dead mid-wave would present
  /// when its late results arrive. The merge path must refuse them
  /// (kFencedEpoch), journal nothing, and ack nothing.
  void test_age_dispatch(u32 group, u64 count = 1);

  // ---------------- online migration ----------------

  struct MigrationPlan {
    u32 source = 0;  // member slot the chunked copy reads from
    Key split_key = 0;
  };
  /// Carves [split_key, hi) out of the range owned by `source`'s group
  /// into a fresh spare (which becomes a new single-member group at
  /// cutover; the policy loop re-replicates it back to R afterwards).
  /// kMigrationInProgress if a migration or repair is already running,
  /// kShardDown if the source shard is dead, kInvalidArgument if the
  /// split is outside the group's range or no spare is free. Traffic
  /// keeps routing to the source group until the final migration_step
  /// cuts over.
  Status start_migration(u32 source, Key split_key);
  /// Copies the next chunk (ShardOptions::migration_chunk keys); once
  /// the copy pass is exhausted, replays the delta log onto the target
  /// and atomically cuts over (route flip + source-side range delete on
  /// every live member) in this same call. kInvalidArgument when no
  /// migration is active.
  Status migration_step();
  bool migration_active() const { return migration_.has_value(); }
  struct MigrationInfo {
    u32 source = 0;
    u32 target = 0;
    Key lo = 0;
    Key hi = 0;  // exclusive
    u64 copied = 0;
    u64 delta_records = 0;
  };
  std::optional<MigrationInfo> migration_info() const;

  /// Hottest live shard by io-share since the last reset_load_stats(),
  /// its group split at the median key of the group contents — the PR 4
  /// load statistics driving re-homing. Returns nullopt when no live
  /// shard is hot (share <= hot_share_factor / live_shards), fewer than
  /// 2 keys, or no spare is free.
  std::optional<MigrationPlan> pick_migration(double hot_share_factor = 1.5);

  // ---------------- replication: repair & anti-entropy ----------------

  /// First group that is under-replicated (a dead member, or fewer than
  /// R members after a migration carved off a new group) and has both a
  /// live member to copy from and a free spare to build on. nullopt when
  /// none, or while a migration/repair is already running.
  std::optional<u32> pick_repair() const;
  /// Starts rebuilding group `group` back to full strength onto a spare:
  /// chunked range_collect_broadcast copy from a live member plus a
  /// delta-log tee, the same machinery as migration (and mutually
  /// exclusive with it: kMigrationInProgress when either is running).
  /// Writes are never paused. kInvalidArgument when the group needs no
  /// repair, has no live member (use failover — journal replay — for a
  /// whole-group loss), or no spare is free.
  Status start_repair(u32 group);
  /// Copies the next chunk; when the copy pass is done, drains the delta
  /// log and installs the rebuilt shard as a group member (replacing the
  /// dead member, or appended when the group was short). kOk with
  /// repair_active() false afterwards means the install committed.
  Status repair_step();
  bool repair_active() const { return repair_.has_value(); }
  struct RepairInfo {
    u32 group = 0;
    u32 source = 0;      // live member the copy reads from
    u32 target = 0;      // spare being built
    u32 dead_slot = kNoSlot;  // member being replaced (kNoSlot = append)
    u64 copied = 0;
    u64 delta_records = 0;
  };
  std::optional<RepairInfo> repair_info() const;

  /// Audits up to `max_groups` groups (dirty groups first, then a
  /// rotating cursor): every live member's content digest is compared
  /// against the digest of the group journal's replay — the
  /// authoritative acked state. A divergent member is read-repaired in
  /// place (delete extra keys, upsert missing ones) or, past
  /// anti_entropy_rebuild_threshold, rebuilt offline. Digest and repair
  /// walks use the CPU-side mirrors (offline, unmetered), exactly like
  /// the PR 2 scrubber this reuses.
  AntiEntropyReport anti_entropy_step(u32 max_groups = 1);

  /// Rotates each group's primary off a dead member onto a live one
  /// (reads already retarget transparently; this makes the demotion
  /// sticky so later reads pay no probe). Returns demotions performed.
  u32 demote_dead_primaries();

  // ---------------- observability ----------------

  struct ShardLoadStats {
    u64 io_time = 0;       // since the last reset_load_stats()
    u64 pim_work = 0;      // total module work in the span
    double io_share = 0;   // fraction of all live shards' io_time
    double module_cov = 0; // CoV of per-module work within the shard
  };
  ShardLoadStats shard_load(u32 slot) const;
  void reset_load_stats();

  u32 slots() const { return static_cast<u32>(slots_.size()); }
  ShardState shard_state(u32 slot) const { return slots_[slot].state; }
  /// Owned range [lo, hi) of a group member (live or dead).
  std::pair<Key, Key> shard_range(u32 slot) const;
  /// Slot that would serve a read of `key` right now (the owning group's
  /// primary, skipping dead members; the primary itself when the whole
  /// group is dead).
  u32 route(Key key) const;
  u32 live_shards() const;
  /// Sum of size() over groups (each range counted once, via the read
  /// member; a fully-dead group contributes nothing).
  u64 size() const;
  /// The shard's machine (benches read metrics; nullptr when dead).
  const sim::Machine* shard_machine(u32 slot) const {
    return slots_[slot].machine.get();
  }
  u32 group_count() const { return static_cast<u32>(groups_.size()); }
  /// The configuration the store was built with (policy loops read
  /// modules_per_shard to normalize per-member cost observations).
  const ShardOptions& options() const { return opts_; }
  /// Group a slot belongs to (kNoGroup for spares / decommissioned).
  u32 group_of(u32 slot) const { return slots_[slot].group; }
  std::pair<Key, Key> group_range(u32 group) const {
    return {groups_[group].lo, groups_[group].hi};
  }
  const std::vector<u32>& group_members(u32 group) const {
    return groups_[group].members;
  }
  /// Slot of the preferred read replica.
  u32 group_primary(u32 group) const {
    return groups_[group].members[groups_[group].primary];
  }
  u32 group_live_members(u32 group) const;
  /// Every member live and the group at full strength R.
  bool group_fully_replicated(u32 group) const;
  /// Group-journal records since the last compaction; the record that
  /// takes the log past BatchLog::kCompactLimit folds it into the
  /// checkpoint.
  u64 group_journal_records(u32 group) const { return groups_[group].log.size(); }
  /// Content digest of one live member's structure (offline walk).
  u64 member_digest(u32 slot) const;
  /// Digest of the group journal's replay — what every member should
  /// hold (the anti-entropy reference).
  u64 group_expected_digest(u32 group) const;
  u32 free_spares() const;
  /// Full structural validation of every live shard + the route/group
  /// tables.
  void check_invariants() const;

 private:
  struct Shard {
    ShardState state = ShardState::kSpare;
    u32 group = kNoGroup;  // owning group (kNoGroup: spare/decommissioned)
    Key lo = 0, hi = 0;    // last-known owned range (mirrors the group's)
    std::unique_ptr<sim::Machine> machine;
    std::unique_ptr<core::PimSkipList> list;
    u64 generation = 0;  // bumped per (re-)provisioning; salts the list seed
    // Shard-level breaker: consecutive escaped sub-batch failures.
    u32 fail_streak = 0;
    // Load accounting baseline (reset_load_stats)
    u64 base_io = 0;
    std::vector<u64> base_work;
  };

  struct RouteEntry {
    Key lo;     // inclusive lower bound; entries sorted, first is kMinKey
    u32 group;  // owning replica group
  };

  // ----- provisioning / replay -----
  void provision(u32 slot);  // fresh Machine + empty PimSkipList
  /// Appends an acked-writes record to the group journal (and, when the
  /// group is a migration source or under repair, the relevant subset to
  /// that delta log). `epoch` is the configuration epoch the ack was
  /// earned under: a stale epoch is refused outright — nothing reaches
  /// the journal or either delta tee (the fencing gate for durability).
  /// Returns whether the record was accepted.
  bool journal_acked(u32 group, u64 epoch, core::LogRecord record);
  /// Replays a migration or repair delta log onto its target from
  /// `applied` on, advancing it; a fault leaves it at the failed record.
  void drain_delta(u32 target, const std::vector<core::LogRecord>& delta, u64& applied);
  /// Rebuilds a slot's machine+list from contents (failover / revive /
  /// anti-entropy escalation). Group journal state is the caller's
  /// business.
  void restore_into(u32 slot, const Pairs& contents);

  // ----- routing / dispatch -----
  u32 route_index(Key key) const;  // index into routes_
  Key route_top(u64 route_idx) const;  // exclusive hi of routes_[idx]
  u32 owning_group(Key key) const { return routes_[route_index(key)].group; }
  /// Member slot a read of this group should go to: the primary when
  /// live, else the next live member in rank order (wrapping); kNoSlot
  /// when every member is dead. `tried` is a bitmask of member INDEXES
  /// already attempted this batch (retargeting); pass 0 for first try.
  u32 read_member(u32 group, u32 tried = 0) const;
  /// read_member + convergence-on-switch: when the group is dirty (a
  /// live member missed an acked write) the chosen member is first
  /// converged against the journal replay, so a read never serves a
  /// value older than one the caller already observed — per-key
  /// monotonic reads survive primary demotion and retargeting.
  u32 serving_member(u32 group, u32 tried = 0);
  /// Digest-checks one live member against the group's authoritative
  /// replay and read-repairs (or rebuilds) it in place. Returns true
  /// when the member was divergent. Reports into `rep` when non-null
  /// (the anti-entropy audit shares this path).
  bool converge_member(u32 group, u32 slot, const Pairs& expected, u64 want_digest,
                       AntiEntropyReport* rep);
  /// Epoch a dispatch to `group` should capture right now (the group's
  /// fence_epoch, aged by the zombie test hook when armed).
  u64 dispatch_epoch(u32 group);

  // ----- the shard wave -----
  // Every fan-out runs as waves of one shape. The op splits its batch
  // into jobs, one per group, each capturing the group's dispatch_epoch
  // and naming the member slots it calls; run_wave runs every call at
  // once; settle_wave refuses stale jobs, hands the rest to the op's
  // merge and then feeds the shard breaker. Each op writes only its own
  // split and merge: batch_window for the point ops, and the range ops.

  /// One member call of a wave: the slot it runs on, the output it
  /// filled, and the StatusError it threw, if any.
  template <typename Out>
  struct WaveCall {
    u32 slot = 0;
    Out out{};
    std::optional<Status> failure;
  };
  /// One group's share of a wave: the group, the fence epoch captured at
  /// dispatch and its member calls (none when the op answers the job
  /// without a member). Each op derives its job type and adds its split.
  template <typename Out>
  struct WaveJob {
    using Call = WaveCall<Out>;
    u32 group = 0;
    u64 epoch = 0;
    std::vector<Call> calls;
  };
  /// Runs fn(member list, job, call output) for every call of every job
  /// at once on pool_ and records a StatusError per call. fn runs
  /// concurrently, so it may only read shared state.
  template <typename Job, typename Fn>
  void run_wave(std::vector<Job>& jobs, Fn&& fn);
  /// Settles a run wave job by job, in dispatch order. A job whose group
  /// moved its fence epoch since dispatch is a zombie: ++fence_refusals_,
  /// refuse(job, kFencedEpoch status), and its calls feed nothing. Any
  /// other job goes to merge(job), and then each call feeds the breaker.
  template <typename Job, typename Refuse, typename Merge>
  void settle_wave(std::vector<Job>& jobs, Refuse&& refuse, Merge&& merge);
  /// Post-wave health: converts machine-level verdicts (all modules
  /// down) and repeated sub-batch escapes into a shard fail-stop.
  void observe_shard_health(u32 slot, bool wave_failed);
  Status shard_down_status(u32 group) const;
  Status no_quorum_status(u32 group, u32 acked) const;
  Status fenced_status(u32 group, u64 seen, u64 current) const;

  /// Splits every query by the route table into clamped pieces, one job
  /// per serving slot (Job has a `pieces` vector of RangePiece); a piece
  /// whose group is all dead calls down(query, kShardDown status).
  template <typename Job, typename Down>
  std::vector<Job> split_ranges(std::span<const RangeQuery> queries, Down&& down);
  /// range_aggregate (batched = false: one range_count_broadcast per
  /// piece) and batch_range_aggregate (the batched engine); their model
  /// costs differ, the split and merge do not.
  std::vector<RangeResult> aggregate_ranges(std::span<const RangeQuery> queries,
                                            bool batched);

  // ----- migration / repair internals -----
  /// What a migration and a repair share: a chunked copy of a group's
  /// keys from a live member onto a spare, plus a tee of the acked
  /// writes since the start, drained before the install.
  struct Movement {
    u32 group = 0;   // group the keys are copied from
    u32 source = 0;  // member slot the chunked copy reads from
    u32 target = 0;  // spare being built
    std::vector<Key> plan_keys;  // keys present at start, sorted
    u64 cursor = 0;              // next index into plan_keys
    bool copy_done = false;
    u64 copied = 0;
    std::vector<core::LogRecord> delta;  // acked writes since start
    u64 delta_applied = 0;               // drain cursor (resumable after faults)
    u64 start_epoch = 0;  // group's fence_epoch at start; any bump since
                          // fences the movement (it aborts, never
                          // installs under a configuration it didn't see)
  };
  struct MigrationState : Movement {
    Key lo = 0;  // inclusive
    Key hi = 0;  // exclusive (source group's old top); the delta tees [lo, hi)
  };
  struct RepairState : Movement {
    u32 dead_slot = kNoSlot;  // member being replaced (kNoSlot = append)
  };
  /// kFencedEpoch, with the target recycled, when the movement's group
  /// changed configuration since it started; kOk otherwise.
  Status fence_movement(const Movement& mv);
  /// Copies the movement's next chunk onto its target and returns the
  /// step's status; nullopt once the copy pass is done.
  std::optional<Status> copy_chunk(Movement& mv);
  void abort_migration_for(u32 slot);
  void finish_migration();  // drain delta + cutover (one atomic step)
  void abort_repair_for(u32 slot);
  void finish_repair();  // drain delta + install the member
  /// Recycle a migration/repair build target back into a spare.
  void recycle_target(u32 slot);

  ShardOptions opts_;
  std::vector<Shard> slots_;
  std::vector<ReplicaGroup> groups_;
  std::vector<RouteEntry> routes_;
  /// Runs the waves: slots - 1 workers plus the calling thread, so a wave
  /// runs every member at once; no workers without parallel_dispatch.
  par::ThreadPool pool_;
  std::optional<MigrationState> migration_;
  std::optional<RepairState> repair_;
  u32 anti_entropy_cursor_ = 0;  // next group the audit visits
  core::PimSkipList::OpDeadline deadline_{};
  /// Per-group count of epoch captures the zombie test hook ages.
  std::vector<u64> aged_dispatches_;
  u64 fence_refusals_ = 0;
  u64 quorum_read_resolves_ = 0;
  u64 waves_ = 0;
};

template <typename Job, typename Fn>
void ShardedPimStore::run_wave(std::vector<Job>& jobs, Fn&& fn) {
  // A wave calls each slot at most once: a window job sends one call to
  // each live member of its group that runs writes or reads, and the
  // range ops merge a slot's pieces into one job. The pool runs
  // the calls at the same time, and two calls on one slot would drive
  // one Machine from two threads.
  std::vector<std::pair<const Job*, typename Job::Call*>> calls;
  std::vector<bool> called(slots_.size(), false);
  for (Job& j : jobs) {
    for (auto& c : j.calls) {
      PIM_CHECK(!called[c.slot], "a shard wave called one slot twice");
      called[c.slot] = true;
      calls.emplace_back(&j, &c);
    }
  }
  if (calls.empty()) return;
  ++waves_;
  pool_.run_batch(
      [&](u32 i) {
        const auto [job, call] = calls[i];
        try {
          fn(*slots_[call->slot].list, *job, call->out);
        } catch (const StatusError& e) {
          call->failure = e.status();
        }
      },
      static_cast<u32>(calls.size()));
}

template <typename Job, typename Refuse, typename Merge>
void ShardedPimStore::settle_wave(std::vector<Job>& jobs, Refuse&& refuse,
                                  Merge&& merge) {
  for (Job& j : jobs) {
    const u64 now = groups_[j.group].fence_epoch;
    if (now != j.epoch) {
      // The group changed configuration between dispatch and merge: the
      // answers come from a configuration that no longer exists.
      ++fence_refusals_;
      refuse(j, fenced_status(j.group, j.epoch, now));
      continue;
    }
    merge(j);
    // After the merge and its journal append: a breaker kill bumps the
    // group's fence epoch, and journal_acked would refuse the ack.
    for (const auto& c : j.calls) observe_shard_health(c.slot, c.failure.has_value());
  }
}

}  // namespace pim::shard
