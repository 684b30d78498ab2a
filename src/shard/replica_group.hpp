// Replica groups — the unit of ownership in the sharded tier (DESIGN.md
// §5.11).
//
// PR 6 mapped each key range to exactly ONE shard slot; a rack loss made
// the range kShardDown until a caller ran failover(). This layer
// generalizes the route target to a *group* of R bit-equivalent
// PimSkipList-on-Machine replicas:
//
//  * Writes dispatch to every live member concurrently (the members run
//    the identical sub-batch; determinism keeps their logical contents
//    converged) and a position is ACKNOWLEDGED when at least
//    ShardOptions::write_quorum live members committed it. An acked
//    write is journaled at the group level, so it survives even the
//    whole group dying.
//  * Reads are served by the member at `primary`; selection skips dead
//    members, so up to R-1 deaths in a group cause zero unavailability
//    and zero lost acks. Journal replay is the last-resort restore path
//    (R = 1, or a whole group lost).
//  * Divergence between live members (a member that missed an acked
//    write because one of its modules was down) is repaired by the
//    anti-entropy audit in replica_group.cpp, which compares member
//    content digests against the digest of the group journal's replay.
//
// The group owns the durability state that PR 6 kept per slot: the
// CPU-side checkpoint + acked-writes journal move here because they
// describe the RANGE, not any one replica of it.
#pragma once

#include <limits>
#include <vector>

#include "common/types.hpp"
#include "core/batch_log.hpp"

namespace pim::shard {

inline constexpr u32 kNoGroup = std::numeric_limits<u32>::max();
inline constexpr u32 kNoSlot = std::numeric_limits<u32>::max();

using core::Pairs;

/// A replication group: R slots serving one key range [lo, hi).
struct ReplicaGroup {
  Key lo = 0;
  Key hi = 0;  // exclusive
  /// Member slot ids, in replica-rank order. A dead member keeps its
  /// place until repair/failover replaces it (or revive restores it).
  std::vector<u32> members;
  /// Index into `members` of the preferred read replica. Reads retarget
  /// past a dead primary transparently; the policy loop makes the
  /// demotion sticky by rotating this to a live member.
  u32 primary = 0;
  /// Group-level durability (CPU-side, survives any subset of members):
  /// contents at build / last compaction plus acked writes since. Its
  /// fold is the authoritative contents of the range.
  core::BatchLog log;
  /// Set when live members disagreed on an ack (one committed a write
  /// another missed): the anti-entropy audit visits dirty groups first.
  bool dirty = false;
  /// Monotonic configuration epoch. Every change to the group's member
  /// set, primary, or read preference (kill, revive, failover, repair
  /// install, migration cutover, primary demotion, gray
  /// deprioritization) bumps it. All member-bound dispatch captures the
  /// epoch at issue time; merges, journal acks, and delta-tee appends
  /// are refused with kFencedEpoch when the captured epoch is stale, so
  /// a zombie member can never ack a write or serve a read under an old
  /// configuration. In-flight movements (migration/repair) abort when
  /// the epoch moves past the one they started under: configuration
  /// races resolve by epoch, never by timing.
  u64 fence_epoch = 0;
  /// Bitmask over member INDICES (rank order, R <= 32) of members the
  /// gray-failure detector has deprioritized for reads: slow-but-alive
  /// replicas that still receive writes (so they stay convergent) but
  /// are skipped by read selection unless no other live member remains.
  u32 deprioritized = 0;

  /// Rank (index into `members`) of member `slot`, which must be one.
  u32 rank_of(u32 slot) const {
    u32 mi = 0;
    while (members[mi] != slot) ++mi;
    return mi;
  }
};

/// Outcome of one anti-entropy invocation (store.anti_entropy_step).
struct AntiEntropyReport {
  u64 groups_audited = 0;    // groups whose members were digest-compared
  u64 divergent = 0;         // members whose digest missed the journal's
  u64 repaired_keys = 0;     // keys fixed in place via read-repair
  u64 rebuilds = 0;          // members escalated to a full offline rebuild
  /// Group ids audited this invocation (in visit order). The chaos
  /// checker uses this to retire pending-visibility windows: once a
  /// group is audited clean, refused (kNoQuorum) writes in its range
  /// can no longer be observed.
  std::vector<u32> audited_groups;
  bool clean() const { return divergent == 0; }
};

}  // namespace pim::shard
