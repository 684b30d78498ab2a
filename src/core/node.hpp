// Node and global-pointer layout of the PIM skiplist (paper §3.2, Fig. 2).
//
// A key of tower height h appears as nodes at levels 0..h. Levels below
// h_low = log2(P) are *lower-part* nodes, each placed on module
// hash(key, level); levels >= h_low are *upper-part* nodes, replicated on
// every module. Pointers are global: (module, slot). A node caches its
// right neighbor's key (right_key) so the search transition "go right
// while right.key < k" needs no extra remote read — every pointer write
// that sets `right` also writes the key, still within one constant-size
// message.
#pragma once

#include <unordered_map>
#include <vector>

#include "common/error.hpp"
#include "common/prefetch.hpp"
#include "common/types.hpp"

namespace pim::core {

/// Pseudo module id marking a replicated (upper-part) node.
inline constexpr u32 kReplicatedModule = 0xFFFFFFFE;
/// Pseudo module id of the null pointer.
inline constexpr u32 kNullModule = 0xFFFFFFFF;

/// Global node pointer: (module, slot-in-arena). Encodes to one word for
/// message payloads.
struct GPtr {
  u32 module = kNullModule;
  u32 slot = kNullSlot;

  constexpr bool is_null() const { return module == kNullModule; }
  constexpr bool is_replicated() const { return module == kReplicatedModule; }

  constexpr u64 encode() const { return (static_cast<u64>(module) << 32) | slot; }
  static constexpr GPtr decode(u64 word) {
    return GPtr{static_cast<u32>(word >> 32), static_cast<u32>(word)};
  }
  static constexpr GPtr null() { return GPtr{}; }
  static constexpr GPtr replicated(Slot slot) { return GPtr{kReplicatedModule, slot}; }

  constexpr bool operator==(const GPtr& o) const { return module == o.module && slot == o.slot; }
};

enum NodeFlags : u16 {
  kFlagDeleted = 1u << 0,
};

struct Node {
  Key key = 0;
  Value value = 0;  // meaningful at level 0
  u32 level = 0;
  u16 flags = 0;
  u16 in_use = 0;
  GPtr left;
  GPtr right;
  GPtr up;
  GPtr down;
  /// Cached key of the right neighbor (kMaxKey when right is null).
  Key right_key = kMaxKey;

  bool deleted() const { return (flags & kFlagDeleted) != 0; }
};

/// Number of machine words a Node occupies in the model's accounting.
inline constexpr u64 kNodeWords = 8;

/// Per-leaf bookkeeping the paper stores in each leaf (§4.3 step 5): the
/// addresses of the tower's lower-part nodes above the leaf, and where the
/// tower enters the upper part (if it does). Used by Delete to mark the
/// whole tower with direct messages.
struct LeafMeta {
  std::vector<GPtr> tower;        // lower-part nodes at levels 1..
  Slot upper_base = kNullSlot;    // slot of the tower's level-h_low node
  u32 upper_top_level = 0;        // top level of the tower if it has upper nodes

  u64 words() const { return 2 + tower.size(); }
};

/// Slot-addressed node storage for one module (or for the replicated upper
/// part). Freed slots are recycled; `words()` reports the accounted
/// footprint of live nodes (the model charges space for what is stored,
/// not for the simulator's backing vectors).
class NodeArena {
 public:
  Slot allocate() {
    Slot slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
      nodes_[slot] = Node{};
    } else {
      slot = static_cast<Slot>(nodes_.size());
      nodes_.emplace_back();
    }
    nodes_[slot].in_use = 1;
    words_ += kNodeWords;
    return slot;
  }

  void release(Slot slot) {
    PIM_CHECK(slot < nodes_.size() && nodes_[slot].in_use, "release of dead slot");
    if (auto it = leaf_meta_.find(slot); it != leaf_meta_.end()) {
      words_ -= it->second.words();
      leaf_meta_.erase(it);
    }
    nodes_[slot].in_use = 0;
    free_.push_back(slot);
    words_ -= kNodeWords;
  }

  Node& at(Slot slot) {
    PIM_DCHECK(slot < nodes_.size() && nodes_[slot].in_use, "access to dead slot");
    return nodes_[slot];
  }
  const Node& at(Slot slot) const {
    PIM_DCHECK(slot < nodes_.size() && nodes_[slot].in_use, "access to dead slot");
    return nodes_[slot];
  }

  /// Host cache hint for a handler's prefetch hook: starts loading the
  /// node at `slot`. A hook sees raw argument words, so an out-of-range
  /// slot is ignored; a freed slot's stale node is harmless, since nothing
  /// is read.
  void prefetch(Slot slot) const {
    if (slot < nodes_.size()) prefetch_object(&nodes_[slot]);
  }

  /// Attaches (or fetches) leaf metadata for a slot.
  LeafMeta& leaf_meta(Slot slot) {
    auto [it, inserted] = leaf_meta_.try_emplace(slot);
    if (inserted) words_ += it->second.words();
    return it->second;
  }
  const LeafMeta* find_leaf_meta(Slot slot) const {
    auto it = leaf_meta_.find(slot);
    return it == leaf_meta_.end() ? nullptr : &it->second;
  }
  /// Re-charges meta words after the caller mutated the tower vector.
  void recharge_leaf_meta(u64 old_words, Slot slot) {
    words_ -= old_words;
    words_ += leaf_meta_.at(slot).words();
  }

  u64 live_nodes() const { return nodes_.size() - free_.size(); }
  u64 words() const { return words_; }

  /// Iteration support for invariant checks / offline inspection.
  u64 capacity() const { return nodes_.size(); }
  bool live(Slot slot) const { return slot < nodes_.size() && nodes_[slot].in_use; }

 private:
  std::vector<Node> nodes_;
  std::vector<Slot> free_;
  std::unordered_map<Slot, LeafMeta> leaf_meta_;
  u64 words_ = 0;
};

}  // namespace pim::core
