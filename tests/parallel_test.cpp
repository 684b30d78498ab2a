// Tests for the CPU-side runtime: thread pool, fork-join, and the
// work/depth cost model's accounting rules.
#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "parallel/cost_model.hpp"
#include "parallel/fork_join.hpp"
#include "parallel/thread_pool.hpp"

namespace pim::par {
namespace {

TEST(ThreadPool, RunsEveryTaskExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(100);
  const std::function<void(u32)> task = [&](u32 i) { hits[i].fetch_add(1); };
  pool.run_batch(task, 100);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ManyConsecutiveBatches) {
  ThreadPool pool(2);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> sum{0};
    const std::function<void(u32)> task = [&](u32 i) { sum.fetch_add(static_cast<int>(i)); };
    pool.run_batch(task, 10);
    EXPECT_EQ(sum.load(), 45);
  }
}

TEST(ThreadPool, ZeroTasksIsANoop) {
  ThreadPool pool(2);
  const std::function<void(u32)> task = [](u32) { FAIL(); };
  pool.run_batch(task, 0);
}

TEST(ThreadPool, ConcurrentExternalCallersEachCompleteTheirBatches) {
  // Four external threads share one pool of 3 workers. The pool runs one
  // batch at a time; a caller that finds it busy drains its own batch
  // inline. Every batch must still sum exactly, and no caller may sleep
  // through the completion of its own batch.
  ThreadPool pool(3);
  constexpr u64 kCallers = 4;
  constexpr u64 kBatches = 3000;
  std::atomic<u64> wrong{0};
  std::vector<std::thread> callers;
  for (u64 c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (u64 b = 0; b < kBatches; ++b) {
        const u32 n = static_cast<u32>(8 + (b + c) % 57);
        std::atomic<u64> sum{0};
        const std::function<void(u32)> task = [&](u32 i) { sum.fetch_add(i + c); };
        pool.run_batch(task, n);
        if (sum.load() != u64{n} * (n - 1) / 2 + u64{n} * c) wrong.fetch_add(1);
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(wrong.load(), 0u);
}

/// Runs 4 tasks on a ThreadPool(3). Each waits until all 4 have started,
/// so every lane (the 3 workers and the caller) runs exactly one; a task
/// for which `throws_here()` holds then throws. Returns the sum of the
/// indices of the tasks that finished.
u32 run_on_every_lane(ThreadPool& pool, const std::function<bool()>& throws_here) {
  std::barrier all_started(4);
  std::atomic<u32> sum{0};
  const std::function<void(u32)> task = [&](u32 i) {
    all_started.arrive_and_wait();
    if (throws_here()) throw std::runtime_error("task failed");
    sum.fetch_add(i);
  };
  pool.run_batch(task, 4);
  return sum.load();
}

TEST(ThreadPool, ThrowOnTheCallerReachesTheCaller) {
  ThreadPool pool(3);
  const std::thread::id caller = std::this_thread::get_id();
  EXPECT_THROW(run_on_every_lane(pool, [&] { return std::this_thread::get_id() == caller; }),
               std::runtime_error);
  // The pool is whole again: the next batch runs on every lane.
  EXPECT_EQ(run_on_every_lane(pool, [] { return false; }), 6u);
}

TEST(ThreadPool, ThrowOnAWorkerReachesTheCaller) {
  ThreadPool pool(3);
  EXPECT_THROW(run_on_every_lane(pool, [] { return ThreadPool::on_worker(); }),
               std::runtime_error);
  EXPECT_EQ(run_on_every_lane(pool, [] { return false; }), 6u);
}

TEST(ForkJoin, ParallelForCoversRange) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(1000, [&](u64 i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ForkJoin, WorkIsSumDepthIsLogPlusMax) {
  CostCounters cost;
  {
    CostScope scope(cost);
    parallel_for(64, [&](u64) { charge(3); });
  }
  // work = 64 iterations * (3 charged + 1 overhead); depth = log2(64) + 3.
  EXPECT_EQ(cost.work, 64u * 4);
  EXPECT_EQ(cost.depth, 6u + 3);
}

TEST(ForkJoin, DepthTakesTheMaxIteration) {
  CostCounters cost;
  {
    CostScope scope(cost);
    parallel_for(100, [&](u64 i) { charge(i == 42 ? 50 : 1); });
  }
  EXPECT_EQ(cost.depth, ceil_log2(100) + 50);
  EXPECT_EQ(cost.work, 100u + 99 + 50);
}

TEST(ForkJoin, NestedParallelForComposes) {
  CostCounters cost;
  {
    CostScope scope(cost);
    parallel_for(4, [&](u64) {
      parallel_for(4, [&](u64) { charge(1); });
    });
  }
  // inner: work 4*(1+1)=8, depth 2+1=3; outer: work 4*(8+1)=36, depth 2+3.
  EXPECT_EQ(cost.work, 36u);
  EXPECT_EQ(cost.depth, 5u);
}

TEST(ForkJoin, AccountingIndependentOfThreadCount) {
  // The same loop must report identical work/depth regardless of the
  // process pool; parallel_for(n=1) and big n paths both checked.
  CostCounters one;
  {
    CostScope scope(one);
    parallel_for(1, [&](u64) { charge(5); });
  }
  EXPECT_EQ(one.work, 6u);
  EXPECT_EQ(one.depth, 5u);

  CostCounters big1, big2;
  {
    CostScope scope(big1);
    parallel_for(5000, [&](u64) { charge(2); }, 1);
  }
  {
    CostScope scope(big2);
    parallel_for(5000, [&](u64) { charge(2); }, 512);
  }
  EXPECT_EQ(big1.work, big2.work);
  EXPECT_EQ(big1.depth, big2.depth);
}

TEST(CostModel, ChargedRegionUsesAnalyticDepth) {
  CostCounters cost;
  {
    CostScope scope(cost);
    const int result = charged_region(7, [&] {
      charge(1000);  // sequential inside, but primitive depth is analytic
      return 42;
    });
    EXPECT_EQ(result, 42);
  }
  EXPECT_EQ(cost.work, 1000u);
  EXPECT_EQ(cost.depth, 7u);
}

TEST(CostModel, ScopesNestAndRestore) {
  CostCounters outer;
  {
    CostScope scope(outer);
    charge(1);
    {
      CostCounters inner;
      CostScope inner_scope(inner);
      charge(100);
      EXPECT_EQ(inner.work, 100u);
    }
    charge(1);
  }
  EXPECT_EQ(outer.work, 2u);  // inner charges did not leak
}

TEST(CostModel, ChargesOutsideScopeDoNotCrash) {
  charge(3);  // lands in the thread-local sink
  charge_work(2);
  charge_depth(1);
}

}  // namespace
}  // namespace pim::par
