#include "serve/serving_frontend.hpp"

#include <algorithm>
#include <iterator>
#include <numeric>
#include <utility>

#include "common/error.hpp"

namespace pim::serve {

namespace {

u64 saturating_sub(u64 a, u64 b) { return a > b ? a - b : 0; }

}  // namespace

ServingFrontEnd::ServingFrontEnd(shard::ShardedPimStore& store,
                                 FrontEndOptions opts)
    : store_(store),
      opts_(opts),
      store_mu_(opts.store_mu != nullptr ? opts.store_mu : &own_store_mu_) {
  PIM_CHECK(opts_.max_batch > 0, "FrontEndOptions::max_batch must be >= 1");
  {
    // Baseline the round clock: fleet rounds spent building the store
    // before serving started are not serving latency.
    std::lock_guard lock(*store_mu_);
    u64 now = 0;
    for (u32 s = 0; s < store_.slots(); ++s) {
      if (const sim::Machine* m = store_.shard_machine(s)) now += m->rounds();
    }
    fleet_rounds_seen_ = now;
  }
  if (opts_.pipeline) executor_ = std::thread([this] { executor_loop(); });
  batcher_ = std::thread([this] { batcher_loop(); });
}

ServingFrontEnd::~ServingFrontEnd() { stop(); }

// ---------------- client API ----------------

template <typename Reply>
std::future<Reply> ServingFrontEnd::enqueue(Key key, Value value) {
  Op op{key, value, 0, 0, std::promise<Reply>()};
  auto& promise = std::get<std::promise<Reply>>(op.promise);
  std::future<Reply> fut = promise.get_future();
  auto reject = [&](StatusCode code, const char* why) {
    stat_rejected_.fetch_add(1, std::memory_order_relaxed);
    Reply reply;
    reply.status = Status(code, why);
    promise.set_value(std::move(reply));
    return std::move(fut);
  };

  if (!accepting_.load(std::memory_order_acquire)) {
    return reject(StatusCode::kUnavailable, "serving front end is stopped");
  }
  if (opts_.max_queue_ops > 0 &&
      pending_ops_.load(std::memory_order_relaxed) >= opts_.max_queue_ops) {
    return reject(StatusCode::kResourceExhausted,
                  "serving queue is full (max_queue_ops)");
  }
  {
    std::lock_guard lock(queue_mu_);
    if (queue_closed_) {
      // stop() won the race: the batcher has already done (or is doing)
      // its final drain — completing here keeps the "no op is ever lost"
      // invariant without reopening anything.
      return reject(StatusCode::kUnavailable, "serving front end is stopped");
    }
    // Stamped under the queue mutex, so the queue's submit clocks are
    // non-decreasing and its front is always the oldest op.
    op.submit_clock = clock_.load(std::memory_order_relaxed);
    pending_ops_.fetch_add(1, std::memory_order_relaxed);
    queued_ops_.fetch_add(1, std::memory_order_release);
    stat_accepted_.fetch_add(1, std::memory_order_relaxed);
    queue_.push_back(std::move(op));
  }
  // Empty critical section pairs with the batcher's predicate check so
  // the notify can't slip between its test and its wait.
  { std::lock_guard lock(coord_mu_); }
  batcher_cv_.notify_one();
  return fut;
}

std::future<GetReply> ServingFrontEnd::submit_get(Key key) {
  return enqueue<GetReply>(key, /*value=*/0);
}
std::future<UpsertReply> ServingFrontEnd::submit_upsert(Key key, Value value) {
  return enqueue<UpsertReply>(key, value);
}
std::future<EraseReply> ServingFrontEnd::submit_erase(Key key) {
  return enqueue<EraseReply>(key, /*value=*/0);
}
std::future<SuccessorReply> ServingFrontEnd::submit_successor(Key key) {
  return enqueue<SuccessorReply>(key, /*value=*/0);
}

// ---------------- lifecycle ----------------

void ServingFrontEnd::drain() {
  std::unique_lock lock(coord_mu_);
  drained_cv_.wait(lock, [&] {
    return pending_ops_.load(std::memory_order_acquire) == 0;
  });
}

void ServingFrontEnd::stop() {
  std::lock_guard stop_lock(lifecycle_mu_);
  accepting_.store(false, std::memory_order_release);
  {
    std::lock_guard lock(coord_mu_);
    stop_requested_ = true;
  }
  batcher_cv_.notify_all();
  if (batcher_.joinable()) batcher_.join();
  {
    std::lock_guard lock(coord_mu_);
    exec_stop_ = true;  // the batcher sets it too; keep stop() robust
  }
  exec_cv_.notify_all();
  if (executor_.joinable()) executor_.join();
}

ServingFrontEnd::Stats ServingFrontEnd::stats() const {
  Stats s;
  s.accepted = stat_accepted_.load(std::memory_order_relaxed);
  s.completed = stat_completed_.load(std::memory_order_relaxed);
  s.rejected = stat_rejected_.load(std::memory_order_relaxed);
  s.windows = stat_windows_.load(std::memory_order_relaxed);
  s.coalesced_reads = stat_coalesced_reads_.load(std::memory_order_relaxed);
  s.coalesced_writes = stat_coalesced_writes_.load(std::memory_order_relaxed);
  s.flush_full = stat_flush_full_.load(std::memory_order_relaxed);
  s.flush_idle = stat_flush_idle_.load(std::memory_order_relaxed);
  s.flush_delay = stat_flush_delay_.load(std::memory_order_relaxed);
  s.max_window_ops = stat_max_window_.load(std::memory_order_relaxed);
  return s;
}

// ---------------- batcher ----------------

void ServingFrontEnd::harvest(std::deque<Op>& accum, bool close) {
  std::vector<Op> taken;
  {
    std::lock_guard lock(queue_mu_);
    queue_closed_ = queue_closed_ || close;
    taken.swap(queue_);
  }
  if (taken.empty()) return;
  queued_ops_.fetch_sub(taken.size(), std::memory_order_release);
  std::move(taken.begin(), taken.end(), std::back_inserter(accum));
}

std::unique_ptr<ServingFrontEnd::Window> ServingFrontEnd::stage(std::deque<Op>& accum) {
  auto w = std::make_unique<Window>();
  w->seq = next_seq_++;
  // The oldest max_batch ops make the window; the rest stay queued.
  const auto cut = accum.begin() + static_cast<std::ptrdiff_t>(
                                       std::min<u64>(opts_.max_batch, accum.size()));
  w->ops.assign(std::make_move_iterator(accum.begin()), std::make_move_iterator(cut));
  accum.erase(accum.begin(), cut);

  // One pass in (class, key) order, stable on submission order: the first
  // op of each run takes the next position of its class's batch, so every
  // batch comes out unique and ascending and a duplicate write keeps its
  // first submission (the store's batch contract); the run's later ops
  // coalesce onto that position.
  std::vector<u32> order(w->ops.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), [&](u32 a, u32 b) {
    const Op& x = w->ops[a];
    const Op& y = w->ops[b];
    return x.cls() != y.cls() ? x.cls() < y.cls() : x.key < y.key;
  });
  u64 write_dups = 0;
  u64 read_dups = 0;
  const Op* run = nullptr;
  for (u32 i : order) {
    Op& op = w->ops[i];
    if (run != nullptr && run->cls() == op.cls() && run->key == op.key) {
      op.position = run->position;
      ++(op.cls() < kGet ? write_dups : read_dups);
      continue;
    }
    run = &op;
    auto& b = w->batches;
    switch (op.cls()) {
      case kUpsert:
        op.position = b.upserts.size();
        b.upserts.emplace_back(op.key, op.value);
        break;
      case kErase:
        op.position = b.deletes.size();
        b.deletes.push_back(op.key);
        break;
      case kGet:
        op.position = b.gets.size();
        b.gets.push_back(op.key);
        break;
      default:
        op.position = b.successors.size();
        b.successors.push_back(op.key);
        break;
    }
  }

  // The batcher is the only writer of these counters.
  stat_windows_.fetch_add(1, std::memory_order_relaxed);
  stat_coalesced_writes_.fetch_add(write_dups, std::memory_order_relaxed);
  stat_coalesced_reads_.fetch_add(read_dups, std::memory_order_relaxed);
  if (w->ops.size() > stat_max_window_.load(std::memory_order_relaxed)) {
    stat_max_window_.store(w->ops.size(), std::memory_order_relaxed);
  }
  return w;
}

void ServingFrontEnd::batcher_loop() {
  std::deque<Op> accum;  // harvested, not yet flushed: the group commit
  std::unique_lock lock(coord_mu_);
  for (;;) {
    batcher_cv_.wait(lock, [&] {
      // Leftover accumulated ops are wake-worthy exactly when the idle-
      // flush rule would fire for them (a flush can strand accum > max_
      // batch ops with no in-flight window to wake us on completion —
      // the unpipelined loop in particular has no other wake source).
      // While a window IS in flight, its completion re-evaluates this.
      const bool idle_flushable =
          !accum.empty() && !executing_ && exec_in_ == nullptr;
      return stop_requested_ || !exec_done_.empty() || idle_flushable ||
             queued_ops_.load(std::memory_order_acquire) > 0;
    });

    // 1. Distribute completed windows first — frees clients fastest and
    //    overlaps the executor's current batch.
    while (!exec_done_.empty()) {
      std::unique_ptr<Window> done = std::move(exec_done_.front());
      exec_done_.pop_front();
      lock.unlock();
      distribute(*done);
      lock.lock();
    }

    // 2. Harvest arrivals into the group-commit accumulator.
    lock.unlock();
    harvest(accum, /*close=*/false);
    lock.lock();

    if (accum.empty()) {
      if (stop_requested_ && exec_done_.empty() && !executing_ &&
          exec_in_ == nullptr) {
        // Close the queue so no submission can slip in after the final
        // drain, then serve whatever that drain surfaced.
        lock.unlock();
        harvest(accum, /*close=*/true);
        while (!accum.empty()) {
          std::unique_ptr<Window> w = stage(accum);
          execute(*w);
          distribute(*w);
        }
        lock.lock();
        PIM_CHECK(pending_ops_.load(std::memory_order_acquire) == 0,
                  "serving shutdown left an op unreplied");
        exec_stop_ = true;
        exec_cv_.notify_all();
        return;
      }
      continue;
    }

    // 3. Group-commit flush decision.
    const bool exec_idle = !executing_ && exec_in_ == nullptr;
    const u64 waited = saturating_sub(clock_.load(std::memory_order_relaxed),
                                      accum.front().submit_clock);
    const bool full = accum.size() >= opts_.max_batch;
    const bool delayed = waited >= opts_.max_delay_rounds;
    if (!(stop_requested_ || full || exec_idle || delayed)) continue;
    if (full) {
      stat_flush_full_.fetch_add(1, std::memory_order_relaxed);
    } else if (delayed) {
      stat_flush_delay_.fetch_add(1, std::memory_order_relaxed);
    } else {
      stat_flush_idle_.fetch_add(1, std::memory_order_relaxed);
    }

    // 4. Stage outside the lock — this is the CPU-side work that
    //    overlaps the executor's shard rounds.
    lock.unlock();
    std::unique_ptr<Window> w = stage(accum);
    if (opts_.pipeline) {
      lock.lock();
      batcher_cv_.wait(lock, [&] { return exec_in_ == nullptr; });
      exec_in_ = std::move(w);
      exec_cv_.notify_one();
    } else {
      execute(*w);
      distribute(*w);
      lock.lock();
    }
  }
}

void ServingFrontEnd::executor_loop() {
  std::unique_lock lock(coord_mu_);
  for (;;) {
    exec_cv_.wait(lock, [&] { return exec_stop_ || exec_in_ != nullptr; });
    if (exec_in_ == nullptr) return;  // exec_stop_ with nothing staged
    std::unique_ptr<Window> w = std::move(exec_in_);
    executing_ = true;
    batcher_cv_.notify_one();  // handoff slot is free again
    lock.unlock();
    execute(*w);
    lock.lock();
    exec_done_.push_back(std::move(w));
    executing_ = false;
    batcher_cv_.notify_one();
  }
}

// ---------------- execution ----------------

void ServingFrontEnd::sample_clock_locked() {
  u64 now = 0;
  for (u32 s = 0; s < store_.slots(); ++s) {
    if (const sim::Machine* m = store_.shard_machine(s)) now += m->rounds();
  }
  // Saturating delta: kill_shard destroys a Machine and its rounds with
  // it, so the raw sum can shrink. The clock never goes backwards; it
  // undercounts slightly across a kill, which only shrinks latencies.
  if (now > fleet_rounds_seen_) {
    clock_.fetch_add(now - fleet_rounds_seen_, std::memory_order_relaxed);
  }
  fleet_rounds_seen_ = now;
}

void ServingFrontEnd::execute(Window& w) {
  std::lock_guard lock(*store_mu_);
  sample_clock_locked();  // credit policy-thread rounds to queueing time
  // One store call per window. The store runs the writes before the
  // reads, so reads in window k observe window k's acked writes. A call
  // that throws as a whole fails every op of the window.
  try {
    w.results = store_.batch_window(w.batches);
  } catch (const StatusError& e) {
    w.failed = e.status();
  }
  sample_clock_locked();
  w.clock_after = clock_.load(std::memory_order_relaxed);
}

void ServingFrontEnd::distribute(Window& w) {
  for (Op& op : w.ops) {
    std::visit(
        [&]<typename Reply>(std::promise<Reply>& promise) {
          Reply r;
          if (w.failed.ok()) {
            w.fill(r, op.position);
          } else {
            r.status = w.failed;
          }
          r.batch_seq = w.seq;
          r.latency_rounds = saturating_sub(w.clock_after, op.submit_clock);
          promise.set_value(std::move(r));
        },
        op.promise);
  }
  stat_completed_.fetch_add(w.ops.size(), std::memory_order_relaxed);
  pending_ops_.fetch_sub(w.ops.size(), std::memory_order_release);
  { std::lock_guard lock(coord_mu_); }
  drained_cv_.notify_all();
}

}  // namespace pim::serve
