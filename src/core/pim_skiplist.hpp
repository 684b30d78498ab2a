// PimSkipList — the paper's PIM-balanced batch-parallel skiplist (§3–§5).
//
// Structure (Fig. 2): the skiplist is split at height h_low = log2(P).
// Levels >= h_low (the upper part) are replicated in every PIM module;
// levels < h_low (the lower part) are distributed across modules by a
// private hash of (key, level). Each module additionally keeps
//  * a de-amortized hash table key -> leaf slot (O(1) whp point access),
//  * an ordered index over its local leaves (the paper's local-left /
//    local-right leaf list + next-leaf pointers; see DESIGN.md §2 for the
//    maintenance substitution).
//
// All mutating/querying entry points are *batch* operations executed in
// bulk-synchronous rounds on a sim::Machine, following the paper's
// PIM-balanced algorithms:
//  * Get/Update (§4.1): CPU-side semisort dedup, then hash-routed tasks.
//  * Predecessor/Successor (§4.2): two stages — pivot divide-and-conquer
//    with recorded lower-part search paths (contention <= 3 per node per
//    phase, Lemma 4.2), then all operations with start-node hints.
//  * Upsert (§4.3): update-then-insert; batch insert allocates towers,
//    runs a recorded batched predecessor, and wires horizontal pointers
//    with Algorithm 1.
//  * Delete (§4.4): hash-routed marking of whole towers via leaf-stored
//    tower addresses, then CPU-side randomized list contraction to splice
//    out arbitrary runs, then remote boundary writes.
//  * Range operations (§5): broadcast-based (Thm 5.1) and tree-based
//    batched (Thm 5.2, with the paper's §5.1 fallback for large
//    subranges).
//
// Metrics: wrap calls in sim::measure() to obtain IO time, PIM time,
// rounds, and CPU work/depth per batch.
#pragma once

#include <map>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "core/batch_log.hpp"
#include "core/node.hpp"
#include "core/scrubber.hpp"
#include "pimds/deamortized_hash.hpp"
#include "pimds/local_index.hpp"
#include "random/hash_fn.hpp"
#include "random/rng.hpp"
#include "sim/machine.hpp"

namespace pim::core {

class PimSkipList {
 public:
  struct Options {
    /// Private seed for placement hashes, tower heights, and per-module
    /// substrates. The adversary (workload) must not observe it.
    u64 seed = 0x5EEDF00Dull;
    /// Head tower cap; supports n well past 2^36.
    u32 max_level = 40;
    /// Enable the per-phase node-access probe (Lemma 4.2 / Fig. 3
    /// instrumentation). Adds bookkeeping work outside the cost model.
    bool track_contention = false;

    // ---- ablation knobs (defaults reproduce the paper's algorithms) ----
    /// Pivot spacing in the batched search (0 = the paper's log P).
    u32 pivot_spacing = 0;
    /// Disable start-node hints: every search descends from the root
    /// (isolates the hint mechanism's contribution to Lemma 4.2).
    bool disable_hints = false;
    /// Leaf-walk hop budget for the walk-engine batched range op
    /// (0 = the default 4 log^2 P).
    u64 walk_budget = 0;
    /// Skip the CPU-side semisort dedup in Get/Update (isolates dedup's
    /// role under duplicate-heavy batches).
    bool disable_dedup = false;
  };

  PimSkipList(sim::Machine& machine, Options opts);
  explicit PimSkipList(sim::Machine& machine);

  // The machine holds handler pointers that capture `this`: the structure
  // is pinned in place for its lifetime.
  PimSkipList(const PimSkipList&) = delete;
  PimSkipList& operator=(const PimSkipList&) = delete;
  PimSkipList(PimSkipList&&) = delete;
  PimSkipList& operator=(PimSkipList&&) = delete;

  // ---------------- bulk build (offline, not metered) ----------------

  /// Builds the structure from strictly-increasing unique keys. Used to
  /// reach a target size before measurement; costs are not charged.
  void build(std::span<const std::pair<Key, Value>> sorted_unique);

  // ---------------- batch point operations ----------------

  struct GetResult {
    bool found = false;
    Value value = 0;
  };
  /// Batched Get (§4.1). Duplicate keys are deduplicated on the CPU side;
  /// every position still receives its result.
  std::vector<GetResult> batch_get(std::span<const Key> keys);

  /// Batched Update (§4.1): sets value for existing keys; returns found
  /// flags. Duplicate keys: the first occurrence in the batch wins.
  std::vector<u8> batch_update(std::span<const std::pair<Key, Value>> ops);

  struct NearResult {
    bool found = false;
    Key key = 0;
    GPtr node;  // leaf of the answer (null if !found)
  };
  /// Batched Successor: smallest key >= query (§4.2, pivot-balanced).
  std::vector<NearResult> batch_successor(std::span<const Key> keys);
  /// Batched Predecessor: largest key <= query.
  std::vector<NearResult> batch_predecessor(std::span<const Key> keys);
  /// The §4.2 *unbalanced* strawman: every query runs the naive search
  /// concurrently with no pivots (kept for the Fig. 3 / §4.2 comparison).
  std::vector<NearResult> batch_successor_naive(std::span<const Key> keys);

  /// Batched Upsert (§4.3): updates existing keys, inserts the rest.
  /// Duplicate keys in the batch: first occurrence wins.
  void batch_upsert(std::span<const std::pair<Key, Value>> ops);

  /// Batched Delete (§4.4); returns per-position erased flags.
  std::vector<u8> batch_delete(std::span<const Key> keys);

  // ---------------- degraded-mode operation (DESIGN.md §5.7) ----------------
  //
  // The guarded entry points above repair the structure before serving
  // (availability through recovery). The *_partial variants make the
  // opposite trade: with modules down they serve what they can NOW —
  // per-key Status, kUnavailable for keys homed on a dead module, kOk and
  // a normal result for the rest — and never trigger recovery themselves.
  // Admitted mutations are journaled, so the next recover(m) (or any
  // guarded operation's ensure_healthy) converges the structure to the
  // same contents as if the batch had run healthy. Degraded inserts land
  // as unlinked height-0 leaves and degraded deletes leave dangling lower-
  // part links; both are healed by recovery's full lower-part relink, and
  // until then only hash-routed point access (these partial ops) is valid.
  // With no fault plan or no module down they are exactly the normal
  // batch ops with every status kOk.

  struct PartialGet {
    Status status;
    bool found = false;
    Value value = 0;
  };
  /// Degraded-tolerant Get: per-key status instead of all-or-nothing.
  std::vector<PartialGet> batch_get_partial(std::span<const Key> keys);

  struct PartialFlag {
    Status status;
    bool found = false;  // update: key existed; delete: key erased
  };
  /// Degraded-tolerant Update; admitted keys are journaled and commit.
  std::vector<PartialFlag> batch_update_partial(std::span<const std::pair<Key, Value>> ops);
  /// Degraded-tolerant Upsert; admitted inserts land as height-0 leaves
  /// until recovery relinks them.
  std::vector<Status> batch_upsert_partial(std::span<const std::pair<Key, Value>> ops);
  /// Degraded-tolerant Delete; admitted towers are freed on live modules,
  /// the replicated upper chain is spliced, and recovery heals the rest.
  std::vector<PartialFlag> batch_delete_partial(std::span<const Key> keys);

  /// Per-batch operation deadline, forwarded to Machine::set_round_budget
  /// around every guarded/partial batch: exceeding it surfaces a
  /// structured kDeadlineExceeded instead of spinning toward kDrainStuck.
  /// A journaled mutation that dies on the deadline still commits
  /// atomically (rebuild from checkpoint + journal) before the error
  /// propagates. Zero fields (the default) = no deadline. Recovery and
  /// scrubbing always run unbudgeted.
  using OpDeadline = sim::RoundBudget;
  void set_op_deadline(OpDeadline d) { deadline_ = d; }
  OpDeadline op_deadline() const { return deadline_; }

  // ---------------- range operations ----------------

  struct RangeAgg {
    u64 count = 0;
    u64 sum = 0;
  };
  /// Broadcast-based range ops (§5.1, Thm 5.1) over inclusive [lo, hi].
  RangeAgg range_count_broadcast(Key lo, Key hi);
  /// Adds delta to every value in range; returns count and sum of OLD values.
  RangeAgg range_fetch_add_broadcast(Key lo, Key hi, u64 delta);
  /// Returns all (key, value) pairs in range, sorted by key.
  std::vector<std::pair<Key, Value>> range_collect_broadcast(Key lo, Key hi);

  struct RangeQuery {
    Key lo;
    Key hi;  // inclusive
  };
  /// Tree-structure-based batched range aggregation (§5.2, Thm 5.2):
  /// count+sum per query. Overlapping queries both count shared keys.
  /// Engine: pivot-balanced successor searches + leaf walks with a hop
  /// budget, falling back to §5.1 broadcasts for oversized subranges (the
  /// paper's suggested alternative).
  std::vector<RangeAgg> batch_range_aggregate(std::span<const RangeQuery> queries);

  /// Same contract as batch_range_aggregate, different engine: the
  /// paper's *naive range search* done faithfully — per subrange, a local
  /// upper-part walk marks the in-range upper leaves, then child walks
  /// expand level by level through the lower part in parallel (each hop a
  /// constant-size task), accumulating partial aggregates along level-0
  /// segments. No broadcast fallback needed at any size. The ablation
  /// bench compares the two engines.
  std::vector<RangeAgg> batch_range_aggregate_expand(std::span<const RangeQuery> queries);

  // ---------------- fault tolerance & recovery ----------------
  //
  // With an active machine FaultPlan, every batch operation is wrapped in
  // a retry/recovery layer (see DESIGN.md "Fault model and recovery"):
  // reads restart after transient failures; mutations are write-ahead
  // journaled so a module crash mid-batch never loses committed state.
  // Crash listeners (registered in the constructor) wipe the crashed
  // module's CPU-side mirror so recovery starts from nothing, exactly as
  // fail-stop hardware would.

  /// Rebuilds a crashed module in place: the machine revives it, the upper
  /// part is re-streamed from a surviving replica, and the module's
  /// lower-part nodes are reconstructed from the checkpoint + write-ahead
  /// journal (plus surviving evidence on the other modules, so surviving
  /// tower heights are preserved). Falls back to a full rebuild when no
  /// survivor exists (P == 1) or more than one module is down. Recovery
  /// rounds/IO are folded into the machine's fault counters. No-op if the
  /// module is up.
  void recover(ModuleId m);

  /// Compacts the write-ahead journal into a fresh checkpoint (an offline
  /// level-0 walk). Requires every module to be up. Called automatically
  /// when the journal grows past a threshold; public so tests and
  /// checkpoint-policy experiments can force it.
  void checkpoint();

  /// Online integrity audit: one full scrub pass — a replica digest
  /// exchange across all modules plus a leaf audit of every module —
  /// repairing any divergence in place (see scrubber.hpp for the
  /// protocol). The incremental counterpart is core::Scrubber. Requires
  /// an active fault plan; traffic is metered through the machine and
  /// reported in ScrubReport::cost.
  ScrubReport verify_and_repair();

  /// At-rest corruption strikes actually applied to this structure's
  /// memory (test observability). The machine's mem_corruptions counter
  /// counts events *fired*; a strike on an empty module applies nothing.
  u64 mem_corruptions_applied() const { return mem_corruptions_applied_; }

  // ---------------- content digests (anti-entropy) ----------------
  //
  // The shard tier's replica groups audit replicas against each other and
  // against the store journal. These entry points expose the scrubber's
  // leaf-digest machinery one level up: all three are OFFLINE (CPU-side
  // mirror walks, no machine traffic, unmetered), so an anti-entropy pass
  // charges only for the repairs it performs, like the §5.6 scrubber.

  /// Order-sensitive digest of key-sorted (key, value) pairs — the same
  /// folding the scrubber's per-module leaf digests use, so a replica's
  /// contents_digest() is directly comparable to the digest of a journal
  /// replay of the acknowledged writes.
  static u64 pairs_digest(const std::vector<std::pair<Key, Value>>& pairs);

  /// The logical contents in key order, walked from the CPU-side leaf
  /// mirrors. A crashed module's leaves are missing (its mirror is gone),
  /// which is exactly the divergence an anti-entropy audit must flag.
  std::vector<std::pair<Key, Value>> contents_offline() const;

  /// pairs_digest(contents_offline()): one word summarizing the logical
  /// contents. Two replicas of the same range agree iff they converged.
  u64 contents_digest() const;

  // ---------------- introspection ----------------

  u64 size() const { return size_; }
  u32 modules() const { return machine_.modules(); }
  /// Hash home of a key's level-0 leaf — the module a partial-batch op
  /// needs live to serve that key (kUnavailable otherwise).
  ModuleId home_module(Key key) const { return placement_.module_of(key, 0); }
  u32 h_low() const { return h_low_; }
  sim::Machine& machine() { return machine_; }

  /// Accounted local-memory words of module m: its lower-part nodes, its
  /// replica of the upper part, its hash table and its leaf index
  /// (Theorem 3.1: O(n/P) whp).
  u64 module_space_words(ModuleId m) const;
  u64 upper_part_words() const { return upper_.words(); }
  u64 upper_part_nodes() const { return upper_.live_nodes(); }
  u64 total_words() const;

  /// Full structural validation (order, pointer symmetry, caches,
  /// placement, replication, hash/index agreement). Throws on violation.
  /// Offline — walks the structure directly.
  void check_invariants() const;

  /// Stats of the most recent batch_successor / batch_predecessor /
  /// pivot-driven range call (Lemma 4.2 instrumentation; requires
  /// Options::track_contention).
  struct PivotStats {
    u64 phases = 0;
    /// Max accesses to any single lower-part node, per stage-1 phase.
    std::vector<u64> stage1_phase_max_access;
    /// Max accesses to any single lower-part node in stage 2.
    u64 stage2_max_access = 0;
  };
  const PivotStats& last_pivot_stats() const { return pivot_stats_; }

 private:
  // ----- module-local state -----
  struct ModuleState {
    NodeArena arena;  // lower-part nodes
    pimds::DeamortizedHash key_to_leaf;
    pimds::LocalOrderedIndex leaf_index;  // key -> leaf slot, module-local order
    std::unordered_map<u64, u32> probe;   // contention probe: gptr -> accesses

    ModuleState(u64 hash_seed, u64 index_seed)
        : key_to_leaf(hash_seed), leaf_index(index_seed) {}
  };

  // ----- node access -----
  Node& node_at(GPtr p);
  const Node& node_at(GPtr p) const;
  GPtr lower_gptr(Key key, u32 level) const;

  void probe_touch(GPtr p);
  void probe_reset();
  u64 probe_max() const;

  // ----- search machinery (op_successor.cpp) -----
  struct SearchLayout;  // mailbox layout for a search wave
  void search_step(sim::ModuleCtx& ctx, std::span<const u64> args);
  void launch_search(u64 op_id, Key key, GPtr start, u32 record_max_level, u64 result_slot,
                     u64 path_slot, u64 path_cap);
  struct PathEntry {
    GPtr node;
    u32 level;
    GPtr right;
    Key right_key;
  };
  struct SearchResult {
    bool done = false;
    GPtr pred;
    Key pred_key = 0;
    Value pred_value = 0;
    GPtr succ;
    Key succ_key = 0;
    u32 path_len = 0;
  };
  SearchResult read_result(u64 result_slot) const;
  PathEntry read_path_entry(u64 slot) const;

  /// Runs the full two-stage pivot-balanced predecessor search over
  /// sorted, deduplicated keys; fills per-key SearchResult. Core of
  /// Successor/Predecessor/Upsert/tree-range. record_heights: if
  /// non-empty, per-key record ceiling for path recording (Upsert);
  /// otherwise paths are recorded (to h_low-1) only for pivots. When
  /// paths_out is non-null and recording is on, (*paths_out)[i][lv] is the
  /// level-lv predecessor entry of key i for lv <= min(record_heights[i],
  /// h_low-1), copied out of shared memory before the mailbox is reused.
  std::vector<SearchResult> pivot_batch_search(
      std::span<const Key> sorted_keys, std::span<const u32> record_heights,
      std::vector<std::vector<PathEntry>>* paths_out = nullptr);

  std::vector<NearResult> batch_near(std::span<const Key> keys, bool successor_mode);

  // ----- write / alloc handlers (skiplist.cpp) -----
  enum WriteField : u64 {
    kWRight = 1,      // a = right gptr, b = right key
    kWLeft = 2,       // a = left gptr
    kWUp = 3,         // a = up gptr
    kWDown = 4,       // a = down gptr
    kWValue = 5,      // a = value
    kWMark = 6,       // set deleted flag
    kWFree = 7,       // release node (and hash/index cleanup if leaf: no)
    kWTowerAppend = 8,  // a = tower gptr, b = 1-based tower level (leaf meta)
    kWUpperInfo = 9,    // a = upper base slot, b = top level (leaf meta)
    kWRaiseTop = 10,    // a = new top level (structure metadata)
  };
  /// Sends (or broadcasts, for replicated targets) a field write.
  void remote_write(GPtr target, WriteField field, u64 a, u64 b = 0);
  void apply_write(sim::ModuleCtx& ctx, std::span<const u64> args);

  // ----- handler wiring (one init per translation unit) -----
  void init_upsert_handlers();    // op_upsert.cpp
  void init_delete_handlers();    // op_delete.cpp
  void init_range_handlers();     // op_range_broadcast.cpp
  void init_expand_handlers();    // op_range_tree.cpp
  void init_recovery_handlers();  // recovery.cpp
  void init_scrub_handlers();     // scrubber.cpp
  void init_degraded_handlers();  // degraded.cpp

  // ----- fault tolerance (recovery.cpp) -----

  /// Crash listener body: drops the module's CPU-side mirror (arena, hash
  /// table, leaf index) so its local memory is truly gone.
  void on_module_crash(ModuleId m);
  /// Starts journaling if it is not running (fresh checkpoint via offline
  /// walk). Requires all modules up on the transition.
  void ensure_journaled();
  /// Recovers every down module (or falls back to a full rebuild).
  void ensure_healthy();
  void maybe_compact_journal();
  /// Last-resort recovery: revives all modules, wipes everything and
  /// rebuilds from log_.fold(). Used when surgical recovery is
  /// impossible (P == 1, multi-module crash) or a mutation failed
  /// mid-flight and may have partially applied.
  void rebuild_from_logical();
  /// Surgical core of recover(): reconstructs module m's nodes offline
  /// from the logical contents plus surviving evidence. Returns the number
  /// of restored nodes (for metering). A surviving leaf whose value
  /// disagrees with the journal — a silent at-rest corruption scrubbing
  /// had not reached yet — is repaired from the journal; its module is
  /// appended to `repaired_survivors` for metering.
  u64 offline_restore_module(ModuleId m, const Pairs& contents,
                             std::vector<ModuleId>& repaired_survivors);
  /// Builds the head towers (factored from the constructor; reused by
  /// rebuild_from_logical).
  void init_heads();

  // ----- integrity scrubbing (scrubber.cpp) -----

  /// Mem-corrupt listener body: applies one deterministic strike to
  /// module m's corruptible memory (a leaf value or its upper-part
  /// replica, modeled as an XOR overlay on the shared physical copy).
  void on_memory_corrupt(ModuleId m, u64 draw);
  /// Digest of the clean upper part (what an uncorrupted replica reports).
  u64 upper_digest_base() const;
  /// Module m's replica digest: the base folded with its overlay.
  u64 upper_replica_digest(ModuleId m) const;
  /// Key-ordered digest of module m's live leaves (mirror walk).
  u64 leaf_digest(ModuleId m) const;
  /// Audits `count` modules starting at `first` (plus one replica digest
  /// exchange across all modules); repairs divergence in place. Core of
  /// verify_and_repair() and Scrubber.
  ScrubReport scrub_span(ModuleId first, u32 count);
  /// One attempt of scrub_span's audit (retried on mid-scrub faults).
  void scrub_span_once(ModuleId first, u32 count, ScrubReport& report);

  // ----- degraded-mode operation (degraded.cpp) -----

  /// Converts circuit-breaker verdicts into fail-stop: every suspect
  /// module (breaker_strikes consecutive losses while up — gray failure)
  /// is crashed, so the next ensure_healthy runs surgical recover(m).
  /// Partial ops call this at entry but deliberately skip the recovery.
  void fail_stop_suspects();
  /// Partial-op entry: with a fault plan, fail-stops suspects and reports
  /// whether any module is down. False means the guarded op serves all.
  bool degraded();
  /// Degraded admission of a partial write: fills each position's home
  /// module, admits the live-homed ones, and returns their log record.
  template <typename Item>
  LogRecord admit_live(LogRecord::Kind kind, std::span<const Item> items,
                       std::vector<ModuleId>& home, std::vector<u8>& admitted);
  /// Degraded driver of a partial write: one hash-routed `handler` task
  /// per distinct admitted key, args [mailbox slot, key(, value)], drained.
  /// Returns each admitted key's mailbox slot.
  template <typename Item>
  std::unordered_map<Key, u64> send_admitted(std::span<const Item> items,
                                             const std::vector<ModuleId>& home,
                                             const std::vector<u8>& admitted,
                                             const sim::Handler* handler);
  /// Arms the machine's round budget from deadline_ (no-op if unset).
  void arm_deadline() {
    if (deadline_.max_rounds > 0 || deadline_.max_retries > 0) {
      machine_.set_round_budget(deadline_);
    }
  }

  /// Read-only ops: run, restart on transient faults. Each attempt first
  /// fail-stops suspects; with `repair_first` (the guarded reads) the
  /// structure is journaled up front and repaired before each attempt,
  /// without it (the partial get) the read goes around down modules and
  /// journals only while none is down.
  template <typename Fn>
  auto guarded_read(bool repair_first, Fn&& fn);
  /// The seven journaled mutations. Without a fault plan `run` executes
  /// unlogged. Otherwise the log is established, the structure repaired
  /// first when `repair_first` (the guarded ops; the partial ops admit
  /// around the damage instead), and `admit()`'s record is appended
  /// before `run` executes. If the drain dies, the structure is rebuilt
  /// from the log, which includes the batch, so it commits atomically,
  /// and `on_abort(pre-batch contents)` synthesizes the results. A blown
  /// deadline commits the same way, then rethrows.
  template <typename Admit, typename Run, typename OnAbort>
  auto guarded_write(bool repair_first, Admit&& admit, Run&& run, OnAbort&& on_abort);

  // Unwrapped op bodies (the public entry points add the fault layer).
  std::vector<GetResult> batch_get_impl(std::span<const Key> keys);
  std::vector<u8> batch_update_impl(std::span<const std::pair<Key, Value>> ops);
  std::vector<NearResult> batch_successor_naive_impl(std::span<const Key> keys);
  void batch_upsert_impl(std::span<const std::pair<Key, Value>> ops);
  std::vector<u8> batch_delete_impl(std::span<const Key> keys);
  RangeAgg range_count_broadcast_impl(Key lo, Key hi);
  RangeAgg range_fetch_add_broadcast_impl(Key lo, Key hi, u64 delta);
  std::vector<std::pair<Key, Value>> range_collect_broadcast_impl(Key lo, Key hi);
  std::vector<RangeAgg> batch_range_aggregate_impl(std::span<const RangeQuery> queries);
  std::vector<RangeAgg> batch_range_aggregate_expand_impl(std::span<const RangeQuery> queries);

  // ----- drivers’ helpers -----
  u32 draw_height() { return rng_.geometric_levels(opts_.max_level - 1); }
  GPtr head_at(u32 level) const;
  ModuleId random_module() { return static_cast<ModuleId>(rng_.below(machine_.modules())); }

  /// Offline leaf insertion shared by build() (direct, no messages).
  void offline_insert_tower(Key key, Value value, u32 height);

  // ----- members -----
  sim::Machine& machine_;
  Options opts_;
  u32 h_low_;
  u32 top_level_;
  u64 size_ = 0;
  rnd::PlacementHash placement_;
  rnd::Xoshiro256ss rng_;
  std::vector<ModuleState> state_;
  NodeArena upper_;                // single physical copy of the upper part
  std::vector<Slot> head_upper_;   // head slots for levels h_low..max_level
  std::vector<GPtr> head_lower_;   // head gptrs for levels 0..h_low-1

  PivotStats pivot_stats_;

  // ----- fault-tolerance state -----
  static constexpr u32 kMaxOpRestarts = 4;
  /// Deterministic per-module (hash, index) reset seeds — derived from
  /// opts_.seed, NOT drawn from rng_, so crash recovery never perturbs the
  /// main random stream.
  std::vector<std::pair<u64, u64>> module_seeds_;
  BatchLog log_;  // write-ahead log: checkpoint + journaled batches
  /// True while log_ describes the structure exactly.
  /// Mutations executed without an active fault plan clear it (they skip
  /// the journal); the next fault-mode operation re-checkpoints.
  bool journal_valid_ = true;
  /// Per-module replica-divergence overlays: slot -> pending XOR of the
  /// bits an at-rest strike flipped in that module's copy of the upper
  /// part (the physical copy is shared, so divergence is tracked, not
  /// applied). Cleared by scrub repair and by crash recovery.
  std::vector<std::map<Slot, u64>> upper_xor_;
  u64 mem_corruptions_applied_ = 0;
  OpDeadline deadline_{};  // zero = no deadline

  // handlers (implementation notes in the .cpp files)
  sim::Handler h_get_;
  sim::Handler h_update_;
  sim::Handler h_search_;
  sim::Handler h_upper_preds_;
  sim::Handler h_alloc_lower_;
  sim::Handler h_alloc_upper_;
  sim::Handler h_write_;
  sim::Handler h_delete_start_;
  sim::Handler h_delete_spread_;
  sim::Handler h_mark_;
  sim::Handler h_range_bcast_;
  sim::Handler h_range_collect_;
  sim::Handler h_range_walk_;
  sim::Handler h_range_top_;      // expansion engine: upper-part stage
  sim::Handler h_range_expand_;   // expansion engine: lower-part walks
  sim::Handler h_recover_fetch_;  // recovery: survivor streams an upper node
  sim::Handler h_restore_;        // recovery: one restored node's payload
  sim::Handler h_scrub_upper_digest_;  // scrub: replica digest reply
  sim::Handler h_scrub_leaf_digest_;   // scrub: local-leaf digest reply
  sim::Handler h_upsert_direct_;       // degraded: hash-routed upsert, no linking
  sim::Handler h_del_direct_;          // degraded: leaf + live-tower + upper removal

  friend struct SkipListTestPeer;
  friend class Scrubber;
};

template <typename Fn>
auto PimSkipList::guarded_read(bool repair_first, Fn&& fn) {
  if (!machine_.fault_active()) return fn();
  if (!repair_first) fail_stop_suspects();
  // A crash mid-read must leave us recoverable.
  if (repair_first || machine_.down_count() == 0) ensure_journaled();
  for (u32 attempt = 0;; ++attempt) {
    fail_stop_suspects();  // breaker verdicts become fail-stops ...
    if (repair_first) ensure_healthy();  // ... and surgical recoveries
    machine_.begin_fault_epoch();
    arm_deadline();
    try {
      auto result = fn();
      machine_.clear_round_budget();
      return result;
    } catch (const StatusError& e) {
      machine_.clear_round_budget();
      // kDrainStuck is a bug/config error, not a recoverable fault.
      if (e.code() == StatusCode::kDrainStuck) throw;
      // The deadline is a caller-imposed bound: retrying would spend it
      // again. Purge in-flight work and let the caller decide.
      if (e.code() == StatusCode::kDeadlineExceeded) {
        machine_.abort_pending();
        throw;
      }
      if (attempt + 1 >= kMaxOpRestarts) throw;
      machine_.abort_pending();
    }
  }
}

template <typename Admit, typename Run, typename OnAbort>
auto PimSkipList::guarded_write(bool repair_first, Admit&& admit, Run&& run,
                                OnAbort&& on_abort) {
  if (!machine_.fault_active()) {
    journal_valid_ = false;  // the batch bypasses the log
    return run();
  }
  ensure_journaled();
  if (repair_first) {
    fail_stop_suspects();  // breaker verdicts become surgical recoveries
    ensure_healthy();
  }
  log_.append(admit());
  machine_.begin_fault_epoch();
  arm_deadline();
  try {
    auto result = run();
    machine_.clear_round_budget();  // compaction/recovery run unbudgeted
    maybe_compact_journal();
    return result;
  } catch (const StatusError& err) {
    machine_.clear_round_budget();
    if (err.code() == StatusCode::kDrainStuck) throw;
    machine_.abort_pending();
    const Pairs before = log_.fold(log_.size() - 1);
    rebuild_from_logical();  // replays the log, this batch included
    // A blown deadline still commits, but reports no results.
    if (err.code() == StatusCode::kDeadlineExceeded) throw;
    return on_abort(before);
  }
}

}  // namespace pim::core
