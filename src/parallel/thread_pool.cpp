#include "parallel/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>

namespace pim::par {
namespace {

thread_local bool tls_on_worker = false;

u32 default_workers() {
  if (const char* env = std::getenv("PIM_NUM_THREADS")) {
    const long requested = std::strtol(env, nullptr, 10);
    if (requested >= 1) return static_cast<u32>(requested - 1);
  }
  const u32 hw = std::thread::hardware_concurrency();
  return hw > 1 ? hw - 1 : 0;
}

}  // namespace

ThreadPool& ThreadPool::instance() {
  static ThreadPool pool{default_workers()};
  return pool;
}

ThreadPool::ThreadPool(u32 workers) {
  threads_.reserve(workers);
  for (u32 i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (auto& t : threads_) t.join();
}

bool ThreadPool::on_worker() { return tls_on_worker; }

void ThreadPool::drain_batch(Batch& b) {
  const u32 grain = b.grain;
  for (u32 base = b.next.fetch_add(grain); base < b.count; base = b.next.fetch_add(grain)) {
    const u32 end = b.count - base < grain ? b.count : base + grain;
    try {
      for (u32 i = base; i < end; ++i) (*b.task)(i);
    } catch (...) {
      // Keep the first exception for the caller. The chunk still counts
      // as done, or the caller would wait for it forever; its remaining
      // indices are skipped.
      if (!b.failed.exchange(true, std::memory_order_acq_rel)) {
        b.error = std::current_exception();
      }
    }
    b.done.fetch_add(end - base, std::memory_order_acq_rel);
  }
}

void ThreadPool::run_batch(const std::function<void(u32)>& task, u32 count, u32 grain) {
  if (count == 0) return;
  if (grain == 0) grain = 1;
  // Reentrant (nested) regions, pools with no workers, and batches that
  // fit in a single chunk run inline — no wake-up, no handoff.
  if (threads_.empty() || on_worker() || count <= grain) {
    for (u32 i = 0; i < count; ++i) task(i);
    return;
  }

  Batch batch;
  batch.task = &task;
  batch.count = count;
  // Coarsen tiny chunks: cap the total number of claims at ~8 per lane so
  // huge batches of cheap bodies are not serialized on the claim counter.
  batch.grain = std::max(grain, count / (8 * lanes()));
  bool slot_taken = false;
  {
    std::lock_guard lock(mu_);
    slot_taken = batch_ != nullptr;
    if (!slot_taken) {
      batch_ = &batch;
      ++batch_epoch_;
    }
  }
  // One batch slot: a second external caller drains its own batch
  // inline instead of taking the slot from the first.
  if (slot_taken) {
    for (u32 i = 0; i < count; ++i) task(i);
    return;
  }
  cv_work_.notify_all();

  // The calling thread participates.
  drain_batch(batch);

  // Wait until every task completed AND every worker has released its
  // reference to `batch` (it is a stack object).
  std::unique_lock lock(mu_);
  cv_done_.wait(lock, [&] {
    return batch.done.load(std::memory_order_acquire) == count &&
           batch.refs.load(std::memory_order_acquire) == 0;
  });
  batch_ = nullptr;
  lock.unlock();
  // Rethrown only now: no worker can touch `batch` any more, and the
  // slot is free for the next batch.
  if (batch.error) std::rethrow_exception(batch.error);
}

void ThreadPool::worker_loop() {
  tls_on_worker = true;
  u64 seen_epoch = 0;
  while (true) {
    Batch* batch = nullptr;
    {
      std::unique_lock lock(mu_);
      cv_work_.wait(lock, [&] { return stop_ || (batch_ != nullptr && batch_epoch_ != seen_epoch); });
      if (stop_) return;
      batch = batch_;
      seen_epoch = batch_epoch_;
      batch->refs.fetch_add(1, std::memory_order_acq_rel);
    }
    drain_batch(*batch);
    {
      // Under mu_: the caller's wait predicate reads refs under mu_, so
      // an unlocked decrement could land between its check and its
      // sleep and the wakeup would be lost.
      std::lock_guard lock(mu_);
      batch->refs.fetch_sub(1, std::memory_order_acq_rel);
    }
    cv_done_.notify_all();
  }
}

}  // namespace pim::par
