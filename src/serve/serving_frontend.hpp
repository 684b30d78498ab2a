// ServingFrontEnd — the online serving layer over a ShardedPimStore
// (DESIGN.md §5.13).
//
// Everything below the shard tier is batch-parallel: the paper's Table 1
// ops take a batch and amortize rounds across it. A deployment does not
// receive batches — it receives thousands of independent clients each
// issuing single ops. This layer turns client streams into the batches
// the rest of the system is built around:
//
//   client threads ──▶ one submission queue (mutex-guarded MPSC, in
//                      submission order, every op class mixed)
//          batcher ──▶ group commit: harvest the queue and flush a window
//                      when it reaches max_batch ops, when the executor
//                      is idle (no reason to hold a flush back), or when
//                      the oldest queued op has waited max_delay_rounds
//                      fleet rounds. A window is the oldest queued ops, so
//                      every window is a contiguous run of submissions.
//                      Staging = one CPU-side pass over the window sorted
//                      by (op class, key): it dedups (coalesced duplicate
//                      reads answer every waiter from one batch position;
//                      duplicate writes keep the batch contract's first-
//                      occurrence-wins) and gives each op the position
//                      that routes its per-key Status back to its client.
//         executor ──▶ runs the staged window against the store as one
//                      batch_window call under the store mutex (the store
//                      runs its classes in a fixed serialization order:
//                      upserts, deletes, gets, successors), then hands
//                      the results back.
//
// Pipelining (FrontEndOptions::pipeline, the default): the batcher and
// executor are separate threads with a double-buffered handoff, so the
// CPU-side work of window k+1 — harvest, sort/dedup, and the promise
// completion of window k-1 — overlaps the shard rounds of
// window k. This is exactly the CPU–DPU communication pipelining the
// PIM-tree driver treats as the production pattern: the host-side phase
// of one batch hides behind the in-memory phase of the previous one.
// Unpipelined mode runs the same loop on one thread (stage, execute,
// distribute, repeat) — the comparison bench_serve sweeps.
//
// Composition with the machinery underneath (nothing is bypassed):
//   * deadlines / admission control / hedging (PR 3) apply per flushed
//     batch inside the store, exactly as for a hand-built batch;
//   * kNoQuorum / kFencedEpoch / kShardDown / kDeadlineExceeded
//     propagate to exactly the affected client ops through the per-key
//     Status reassembly (a coalesced read fans one status out to every
//     waiter of that key); a window call that throws as a whole fails
//     every op of that window;
//   * the ShardPolicy thread keeps running underneath: the executor
//     serializes store access behind the same mutex
//     (FrontEndOptions::store_mu = &policy.mu()), so failover, repair,
//     migration and gray demotion proceed between serving batches.
//
// Consistency contract: a window is a serialization point. Ops in window
// k observe every acked write of windows < k plus, for reads, the acked
// writes of window k itself (writes execute first). Ops of one window
// see the store's batch semantics (duplicate-key first-occurrence-wins,
// found flags against pre-batch state). Windows are contiguous runs of
// the one submission order, so any client's replies carry non-decreasing
// window numbers in its own submission order; a client that blocks on
// each future before issuing its next op gets strict program order (the
// next op lands in a strictly later window than the completion it
// observed). Replies carry the window sequence number, so an external
// checker can rebuild the exact serialization (serve_frontend_test does).
//
// Latency accounting: the front end keeps a monotonic ROUND CLOCK — the
// cumulative fleet rounds it has observed while holding the store mutex
// (batches it ran plus whatever the policy thread turned in between).
// Each op records the clock at submission; its reply carries
// latency_rounds = clock at its window's completion − clock at submit.
// That is end-to-end client latency in the paper's cost unit: queueing
// delay (group commit + pipeline depth) shows up in exactly the same
// currency as execution. bench_serve reports p50/p99/p999 over it.
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <variant>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"
#include "shard/sharded_store.hpp"

namespace pim::serve {

struct FrontEndOptions {
  /// Group-commit size knob: a window flushes as soon as this many ops
  /// are queued (and a flush never carries more; the excess stays queued
  /// for the next window).
  u64 max_batch = 512;
  /// Group-commit latency knob: while a window is already in flight, the
  /// batcher holds the next flush back until it fills OR the oldest
  /// queued op has waited this many fleet rounds. With an idle executor
  /// the flush goes out immediately — delaying would add latency and
  /// buy nothing (rounds only advance when batches run).
  u64 max_delay_rounds = 64;
  /// Overlap the CPU-side staging of window k+1 (and the reply
  /// distribution of window k-1) with the shard rounds of window k.
  /// Off = one thread does stage → execute → distribute sequentially;
  /// results are identical, only wall-clock throughput differs.
  bool pipeline = true;
  /// Admission control: total accepted-but-uncompleted ops the front end
  /// will hold (0 = unbounded). A submission past the bound completes
  /// immediately with kResourceExhausted — shed at the door, before any
  /// queue or store work, composing with the store's own per-batch
  /// admission control.
  u64 max_queue_ops = 0;
  /// External store lock, e.g. &policy.mu() when a ShardPolicy thread
  /// runs underneath — every store call the executor makes takes it.
  /// nullptr = the front end owns a private mutex (still exposed via
  /// store_mutex() so chaos/test threads can serialize against serving).
  std::mutex* store_mu = nullptr;
};

struct GetReply {
  Status status;
  bool found = false;
  Value value = 0;
  u64 batch_seq = 0;       // serialization window that served the op
  u64 latency_rounds = 0;  // end-to-end, in fleet rounds
};
struct UpsertReply {
  Status status;  // kOk == acknowledged (journaled, quorum-committed)
  u64 batch_seq = 0;
  u64 latency_rounds = 0;
};
struct EraseReply {
  Status status;
  bool erased = false;  // key existed at the window's write point
  u64 batch_seq = 0;
  u64 latency_rounds = 0;
};
struct SuccessorReply {
  Status status;
  bool found = false;
  Key key = 0;
  u64 batch_seq = 0;
  u64 latency_rounds = 0;
};

class ServingFrontEnd {
 public:
  ServingFrontEnd(shard::ShardedPimStore& store, FrontEndOptions opts);
  ~ServingFrontEnd();  // stop(): drains accepted ops, joins the threads

  ServingFrontEnd(const ServingFrontEnd&) = delete;
  ServingFrontEnd& operator=(const ServingFrontEnd&) = delete;

  // ---------------- client API (any thread) ----------------

  std::future<GetReply> submit_get(Key key);
  std::future<UpsertReply> submit_upsert(Key key, Value value);
  std::future<EraseReply> submit_erase(Key key);
  std::future<SuccessorReply> submit_successor(Key key);

  /// Blocking conveniences: submit + wait.
  GetReply get(Key key) { return submit_get(key).get(); }
  UpsertReply upsert(Key key, Value value) { return submit_upsert(key, value).get(); }
  EraseReply erase(Key key) { return submit_erase(key).get(); }
  SuccessorReply successor(Key key) { return submit_successor(key).get(); }

  // ---------------- lifecycle ----------------

  /// Blocks until every accepted op has completed (queue drained, no
  /// window staged or executing). New submissions keep being accepted.
  void drain();
  /// Stops accepting (later submissions complete immediately with
  /// kUnavailable), drains everything already accepted, joins the
  /// batcher/executor threads. Idempotent; the destructor calls it.
  void stop();

  // ---------------- observability ----------------

  /// The mutex serializing store access (the external one when
  /// FrontEndOptions::store_mu was set). Chaos / policy / test threads
  /// touching the store while serving runs must hold it per call.
  std::mutex& store_mutex() { return *store_mu_; }

  /// Monotonic serving round clock (see header comment). Reads are
  /// cheap (one atomic load) — submissions stamp themselves with it.
  u64 round_clock() const { return clock_.load(std::memory_order_relaxed); }

  struct Stats {
    u64 accepted = 0;         // ops admitted into the queue
    u64 completed = 0;        // replies delivered
    u64 rejected = 0;         // shed at the door (admission control)
    u64 windows = 0;          // batches flushed to the store
    u64 coalesced_reads = 0;  // duplicate get/successor keys folded away
    u64 coalesced_writes = 0; // duplicate upsert/delete keys folded away
    u64 flush_full = 0;       // windows flushed because max_batch was hit
    u64 flush_idle = 0;       // ... because the executor was idle
    u64 flush_delay = 0;      // ... because max_delay_rounds expired
    u64 max_window_ops = 0;   // largest window flushed
  };
  Stats stats() const;

 private:
  /// An op's class is the index of its promise, in the store's
  /// serialization order within a window.
  enum OpClass : u32 { kUpsert, kErase, kGet, kSuccessor };
  using Promise = std::variant<std::promise<UpsertReply>, std::promise<EraseReply>,
                               std::promise<GetReply>, std::promise<SuccessorReply>>;

  /// One client op, from submission to its reply.
  struct Op {
    Key key = 0;
    Value value = 0;       // upserts only
    u64 submit_clock = 0;  // round_clock() at submission
    u64 position = 0;      // index into its class's staged batch
    Promise promise;
    u32 cls() const { return static_cast<u32>(promise.index()); }
  };

  /// One serialization window: its ops in submission order, the store
  /// request they point into (one batch per class, unique keys,
  /// ascending) and, after execution, the store's per-position results.
  struct Window {
    u64 seq = 0;
    u64 clock_after = 0;  // round clock when execution finished
    std::vector<Op> ops;
    shard::ShardedPimStore::WindowRequest batches;
    shard::ShardedPimStore::WindowResult results;
    Status failed;  // set when the window's store call threw as a whole

    // A reply's fields from position i of its class's results.
    void fill(UpsertReply& r, u64 i) const { r.status = results.upserts[i]; }
    void fill(EraseReply& r, u64 i) const {
      r.status = results.deletes[i].status;
      r.erased = results.deletes[i].found;
    }
    void fill(GetReply& r, u64 i) const {
      r.status = results.gets[i].status;
      r.found = results.gets[i].found;
      r.value = results.gets[i].value;
    }
    void fill(SuccessorReply& r, u64 i) const {
      r.status = results.successors[i].status;
      r.found = results.successors[i].found;
      r.key = results.successors[i].key;
    }
  };

  template <typename Reply>
  std::future<Reply> enqueue(Key key, Value value);

  void batcher_loop();
  void executor_loop();
  /// Moves the submission queue's ops to the back of `accum`; with
  /// `close`, first marks the queue closed under its mutex, so no later
  /// submission can land after the batcher's final drain.
  void harvest(std::deque<Op>& accum, bool close);
  /// Moves the oldest max_batch ops out of the accumulator and stages
  /// them: dedup, sort and batch positions.
  std::unique_ptr<Window> stage(std::deque<Op>& accum);
  /// Runs the window as one store call (store mutex held inside),
  /// samples the round clock around it.
  void execute(Window& w);
  /// Completes every promise of the window with its mapped result.
  void distribute(Window& w);
  /// Round-clock advance; requires the store mutex.
  void sample_clock_locked();

  shard::ShardedPimStore& store_;
  FrontEndOptions opts_;
  std::mutex own_store_mu_;  // used when opts_.store_mu == nullptr
  std::mutex* store_mu_;

  // Submission side.
  std::atomic<bool> accepting_{true};
  std::atomic<u64> queued_ops_{0};   // in the submission queue
  std::atomic<u64> pending_ops_{0};  // accepted, reply not yet delivered
  std::atomic<u64> clock_{0};
  u64 fleet_rounds_seen_ = 0;  // guarded by the store mutex
  std::mutex queue_mu_;
  std::vector<Op> queue_;      // submission order (queue_mu_ serializes)
  bool queue_closed_ = false;  // set under queue_mu_ at shutdown: no push
                               // can race the final drain, so no op is lost

  // Coordination (batcher <-> executor <-> lifecycle).
  std::mutex coord_mu_;
  std::condition_variable batcher_cv_;  // arrivals, completions, stop
  std::condition_variable exec_cv_;     // staged window available / stop
  std::condition_variable drained_cv_;  // pending_ops_ hit zero
  std::unique_ptr<Window> exec_in_;     // staged, awaiting execution
  std::deque<std::unique_ptr<Window>> exec_done_;  // executed, awaiting distribution
  bool executing_ = false;
  bool stop_requested_ = false;  // flush small windows, wind down
  bool exec_stop_ = false;       // executor may exit once exec_in_ empty
  u64 next_seq_ = 1;

  // Stats (relaxed atomics: written by one thread each, read by anyone).
  std::atomic<u64> stat_accepted_{0};
  std::atomic<u64> stat_completed_{0};
  std::atomic<u64> stat_rejected_{0};
  std::atomic<u64> stat_windows_{0};
  std::atomic<u64> stat_coalesced_reads_{0};
  std::atomic<u64> stat_coalesced_writes_{0};
  std::atomic<u64> stat_flush_full_{0};
  std::atomic<u64> stat_flush_idle_{0};
  std::atomic<u64> stat_flush_delay_{0};
  std::atomic<u64> stat_max_window_{0};

  std::mutex lifecycle_mu_;  // serializes stop() callers

  std::thread batcher_;   // started last in the ctor
  std::thread executor_;  // only when opts_.pipeline
};

}  // namespace pim::serve
