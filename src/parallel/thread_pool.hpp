// A small fixed-size thread pool: the process-wide instance() runs the
// fork-join layer, and each shard::ShardedPimStore owns one more, with
// one lane per shard slot, that runs its shard waves.
//
// Scheduling here is an execution detail: the cost model (work/depth) is
// computed structurally and is identical whether a loop runs on 1 or N
// host threads. The pool exists so that large simulations exploit the
// host's cores when it has any to spare.
//
// Nested parallel regions execute inline on the worker that encounters
// them (no blocking a worker on another worker), which is deadlock-free
// and keeps the accounting unchanged. on_worker() is true on a worker of
// any pool, so a shard call's nested parallel_for runs inline on a
// store-pool worker; only the calls that the wave's calling thread claims
// itself can reach instance()'s workers.
#pragma once

#include <atomic>
#include <condition_variable>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/types.hpp"

namespace pim::par {

class ThreadPool {
 public:
  /// The process-wide pool. Size: hardware_concurrency - 1 workers (the
  /// calling thread always participates), overridable with
  /// PIM_NUM_THREADS before first use.
  static ThreadPool& instance();

  explicit ThreadPool(u32 workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total execution lanes = workers + the calling thread.
  u32 lanes() const { return static_cast<u32>(threads_.size()) + 1; }

  /// Runs tasks[0..count) across the pool and the calling thread; returns
  /// when all have completed. Reentrant calls run everything inline, and
  /// so does any batch with count <= grain: waking workers for one chunk
  /// is pure overhead, the caller would claim the whole range anyway.
  /// The pool runs one batch at a time: an external caller that arrives
  /// while another thread's batch is running drains its own inline.
  ///
  /// `grain` is the number of consecutive indices claimed per fetch_add.
  /// It is a floor, not a schedule: the pool additionally coarsens tiny
  /// chunks (count / (8 * lanes)) so a million-index batch does not pay a
  /// million atomic RMWs. Pass a larger grain for very cheap bodies —
  /// claims stay contiguous, preserving each lane's cache locality.
  ///
  /// A task that throws, on any lane, skips the rest of its chunk; the
  /// other chunks still run, and once every lane has let go of the batch
  /// the first exception is rethrown here, on the calling thread.
  ///
  /// Note this dispatch deliberately wakes ALL workers (notify_all) even
  /// when the batch has few chunks; idle workers re-check the epoch and
  /// go back to sleep. A targeted wake would need per-worker state and
  /// saves little: the expensive case (tiny batch) is now short-circuited
  /// by the inline fast path above.
  void run_batch(const std::function<void(u32)>& task, u32 count, u32 grain = 1);

  /// True if the current thread is a worker of any ThreadPool.
  static bool on_worker();

 private:
  struct Batch {
    const std::function<void(u32)>* task = nullptr;
    u32 count = 0;
    u32 grain = 1;             // indices claimed per fetch_add
    std::atomic<u32> next{0};
    std::atomic<u32> done{0};
    std::atomic<u32> refs{0};  // workers currently holding a pointer
    std::atomic<bool> failed{false};  // a task threw; `error` is set
    std::exception_ptr error;         // the first throw, for the caller
  };

  /// Claims [base, base+grain) ranges off `b.next` until the batch is
  /// exhausted. Shared by workers and the calling thread. Never throws:
  /// a task's exception is kept in the batch.
  static void drain_batch(Batch& b);

  void worker_loop();

  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  Batch* batch_ = nullptr;  // guarded by mu_ for pointer handoff
  u64 batch_epoch_ = 0;
  bool stop_ = false;
};

}  // namespace pim::par
