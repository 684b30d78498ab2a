// Output checking for the serve workloads.
//
// Every client op is logged as one fixed-size OpRecord: what was asked,
// what the reply said, and the serialization window (batch_seq) that
// served it. After the timed phase the logs are merged window by window
// in batch_seq order and replayed into a std::map under the front end's
// consistency contract (DESIGN.md §5.13): within a window, upserts run
// first (a duplicate key keeps its first occurrence), then deletes (found
// flags against the state after the upserts), then gets and successors
// (reading the state after the window's writes). Each client writes only
// keys of its own residue class (key % clients), so the first occurrence
// of a duplicate write is its client's first one in submission order and
// the replay is unambiguous.
#pragma once

#include <cstdio>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common.hpp"

namespace perfbench {

enum OpKind : u8 { kUpsert = 0, kErase = 1, kGet = 2, kSuccessor = 3 };

inline const char* kind_name(u8 kind) {
  static constexpr const char* kNames[] = {"upsert", "erase", "get", "successor"};
  return kind < 4 ? kNames[kind] : "?";
}

struct OpRecord {
  Key key = 0;        // request key
  u64 value = 0;      // upsert: value written; get: value read; successor: key found
  u64 t_submit = 0;   // ns on the run clock
  u64 latency = 0;    // ns from submit_* until the reply was taken
  u32 seq = 0;        // reply batch_seq; 0 = the op never reached a window
  u8 kind = kGet;
  u8 status = 0;      // pim::StatusCode of the reply
  u8 found = 0;       // get/successor found, erase erased
  u8 phase = 0;       // run phase the reply arrived in
};
static_assert(sizeof(OpRecord) == 40);

/// Appends records to a file through a fixed 1 MiB buffer, so the log
/// costs no memory that grows with the ops completed.
class OpLogWriter {
 public:
  explicit OpLogWriter(const std::string& path);
  ~OpLogWriter();
  OpLogWriter(const OpLogWriter&) = delete;
  OpLogWriter& operator=(const OpLogWriter&) = delete;
  void write(const OpRecord& r);
  /// Flushes and closes; false if any write failed.
  bool close();

 private:
  std::FILE* f_ = nullptr;
  std::unique_ptr<char[]> buf_;
  bool ok_ = true;
};

/// Reads one client's log back in order.
class OpLogReader {
 public:
  explicit OpLogReader(const std::string& path);
  ~OpLogReader();
  OpLogReader(const OpLogReader&) = delete;
  OpLogReader& operator=(const OpLogReader&) = delete;
  bool ok() const { return f_ != nullptr; }
  bool next(OpRecord& r);

 private:
  std::FILE* f_ = nullptr;
  std::unique_ptr<char[]> buf_;
};

/// The store calls the front end made for one window: per op class the
/// sorted unique keys, in the executor's serialization order.
struct WindowBatches {
  std::vector<std::pair<Key, Value>> upsert_kvs;
  std::vector<Key> del_keys;
  std::vector<u8> del_found;  // expected erase flags, aligned with del_keys
  std::vector<Key> get_keys;
  std::vector<Key> succ_keys;
  void clear() {
    upsert_kvs.clear();
    del_keys.clear();
    del_found.clear();
    get_keys.clear();
    succ_keys.clear();
  }
};

class ReplayChecker {
 public:
  explicit ReplayChecker(std::span<const std::pair<Key, Value>> initial)
      : state_(initial.begin(), initial.end()) {}

  /// Applies one window's ops (each client's in submission order) to the
  /// model and checks every reply against it. Failed replies are not
  /// checked, and their writes are taken as not applied (the clients count
  /// them). Fills `batches` with the window's store calls. Returns the
  /// mismatches.
  u64 apply(std::span<const OpRecord> window, WindowBatches& batches);

  const std::string& first_error() const { return first_error_; }
  const std::map<Key, Value>& state() const { return state_; }

  /// Records a mismatch found outside apply() (e.g. by the replay twin).
  void report(const std::string& what) {
    if (first_error_.empty()) first_error_ = what;
  }

 private:
  std::map<Key, Value> state_;
  std::unordered_map<Key, u8> seen_;  // per-window scratch
  std::string first_error_;
};

/// Merges the per-client logs window by window, in batch_seq order.
/// A client's replies are logged in submission order, which is nearly but
/// not exactly window order: the batcher drains the four class queues one
/// after another, so an op pushed to an already-drained queue waits for
/// the next window while a younger op in a later-drained queue does not.
/// Records therefore wait in a reorder buffer until every log has moved
/// kSlack windows past them; a record later than that is reported as an
/// error, never dropped.
class WindowMerger {
 public:
  static constexpr u32 kSlack = 32;

  explicit WindowMerger(const std::vector<std::string>& paths);
  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }
  /// Next window's records (each client's in submission order) and their
  /// op ids (client << 48 | ordinal in the client's log, from 1); false
  /// when every log is exhausted or one is inconsistent (see error()).
  bool next(std::vector<OpRecord>& window, std::vector<u64>& ids, u32& seq);

 private:
  struct Pending {
    std::vector<OpRecord> records;
    std::vector<u64> ids;
  };

  std::vector<std::unique_ptr<OpLogReader>> readers_;
  std::vector<u64> ordinal_;  // records read per client
  std::vector<u32> frontier_;  // highest seq read per client
  std::vector<bool> live_;
  std::map<u32, Pending> pending_;
  u32 seq_ = 0;  // last window handed out
  std::string error_;
};

}  // namespace perfbench
