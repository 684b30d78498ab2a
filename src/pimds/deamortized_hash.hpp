// Per-module hash table: key -> one machine word.
//
// The paper stores, in each PIM module, a hash table mapping the module's
// keys to their leaf nodes, citing de-amortized cuckoo hashing [16] for
// O(1) whp work per operation. This is that substrate: two-table cuckoo
// hashing with a bounded pending queue — each public operation performs
// only a constant number of eviction steps, so the worst-case work per
// operation stays constant except for (rare, whp-absent) full rehashes,
// which are charged honestly to the operation that triggers them.
//
// The table does not charge a simulator directly: every operation returns
// the number of unit-work steps it performed and the module-side caller
// charges them via ModuleCtx (keeps this substrate independent of the
// simulator).
#pragma once

#include <deque>
#include <vector>

#include "common/error.hpp"
#include "common/math_util.hpp"
#include "common/prefetch.hpp"
#include "common/types.hpp"
#include "random/hash_fn.hpp"

namespace pim::pimds {

class DeamortizedHash {
 public:
  explicit DeamortizedHash(u64 seed, u64 initial_capacity = 32);

  struct FindResult {
    bool found = false;
    u64 value = 0;
    u64 work = 0;
  };
  struct EraseResult {
    bool erased = false;
    u64 work = 0;
  };

  /// Inserts or overwrites. Returns unit-work performed.
  u64 upsert(Key key, u64 value);

  FindResult find(Key key) const;

  /// Host cache hint: starts loading the two cuckoo slots find(key) reads
  /// first. Reads no entry and does no accounted work; the slot indices are
  /// masked to the table, so any key is safe.
  void prefetch(Key key) const {
    prefetch_object(&table1_[slot1(key)]);
    prefetch_object(&table2_[slot2(key)]);
  }

  EraseResult erase(Key key);

  u64 size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Accounted footprint in machine words.
  u64 words() const { return 3 * (2 * capacity_) + 3 * pending_.size() + 8; }

  /// Pre-sizes for an expected number of keys (bulk load).
  void reserve(u64 expected);

  /// Number of full rehashes performed (tests/diagnostics).
  u64 rehash_count() const { return rehashes_; }
  u64 capacity() const { return capacity_; }

 private:
  struct Entry {
    Key key = 0;
    u64 value = 0;
    bool used = false;
  };
  struct Pending {
    Key key;
    u64 value;
  };

  u64 slot1(Key key) const { return h1_(static_cast<u64>(key)) & (capacity_ - 1); }
  u64 slot2(Key key) const { return h2_(static_cast<u64>(key)) & (capacity_ - 1); }

  /// Processes up to `steps` cuckoo moves from the pending queue. Returns
  /// work done. May trigger a rehash if the queue stays long.
  u64 settle(u64 steps);

  /// Rebuilds into a table of `new_capacity` slots with fresh hash seeds.
  /// Returns work done (O(size)). count_event: planned pre-sizing
  /// (reserve) is not reported by rehash_count().
  u64 rehash(u64 new_capacity, bool count_event = true);

  u64 max_pending() const { return 8 + 2 * floor_log2(capacity_ | 2); }

  std::vector<Entry> table1_;
  std::vector<Entry> table2_;
  std::deque<Pending> pending_;
  rnd::KeyedHash h1_;
  rnd::KeyedHash h2_;
  rnd::Xoshiro256ss seeder_;
  u64 capacity_ = 0;  // per table; power of two
  u64 size_ = 0;
  u64 rehashes_ = 0;
};

}  // namespace pim::pimds
