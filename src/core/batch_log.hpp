// BatchLog — the one write-ahead log of batch mutations (DESIGN.md §5.5).
//
// A key-sorted checkpoint plus the ordered batch records applied since.
// Replay follows the batch contract of every mutating op: records apply
// in order, and within one record the first occurrence of a key wins.
// Two owners keep one:
//  * PimSkipList, whose fault layer appends each journaled batch before
//    it executes and rebuilds from fold() when a drain dies (fold(n-1)
//    is the pre-batch state its found flags are computed from);
//  * each shard ReplicaGroup, which appends the acknowledged part of
//    every write and rebuilds members, audits replicas and cuts over
//    migrations from fold().
// Both compact the log into a fresh checkpoint once it holds more than
// kCompactLimit records. The log is CPU-side bookkeeping: folding it is
// never metered.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace pim::core {

/// Key-sorted, key-unique (key, value) pairs: a checkpoint or a fold, in
/// the format PimSkipList::build and pairs_digest take.
using Pairs = std::vector<std::pair<Key, Value>>;

/// The pair of `key` in key-sorted `pairs`, or nullptr.
const std::pair<Key, Value>* find_key(const Pairs& pairs, Key key);

/// The key of a batch item: a deleted key or a (key, value) op.
inline Key key_of(Key key) { return key; }
inline Key key_of(const std::pair<Key, Value>& op) { return op.first; }

/// One logged batch.
struct LogRecord {
  enum Kind : u8 { kUpsert, kUpdate, kDelete, kFetchAdd };
  Kind kind = kUpsert;
  Pairs ops;              // upsert / update payload, in batch order
  std::vector<Key> keys;  // delete payload
  Key lo = 0, hi = 0;     // fetch-add range (inclusive)
  u64 delta = 0;          // fetch-add operand

  /// An upsert or update record of `ops`.
  static LogRecord of(Kind kind, std::span<const std::pair<Key, Value>> ops);
  /// A delete record of `keys`.
  static LogRecord of(std::span<const Key> keys);
  /// Appends one batch item to the payload.
  void add(Key key) { keys.push_back(key); }
  void add(const std::pair<Key, Value>& op) { ops.push_back(op); }
};

class BatchLog {
 public:
  /// Records past which an owner compacts the log into a new checkpoint.
  static constexpr u64 kCompactLimit = 64;

  const Pairs& checkpoint() const { return checkpoint_; }
  /// Records since the checkpoint.
  u64 size() const { return records_.size(); }
  void append(LogRecord record) { records_.push_back(std::move(record)); }
  /// The checkpoint with the first `upto` records replayed over it.
  /// Upsert, update and delete records between two fetch-adds fold in
  /// one sort of their per-key effects and one merge; a fetch-add record
  /// applies in place to the folded pairs.
  Pairs fold(u64 upto) const;
  Pairs fold() const { return fold(records_.size()); }
  /// Starts a new log at `checkpoint` (key-sorted, key-unique).
  void reset(Pairs checkpoint);

 private:
  Pairs checkpoint_;
  std::vector<LogRecord> records_;
};

}  // namespace pim::core
