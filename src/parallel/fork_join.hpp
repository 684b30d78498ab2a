// Fork-join loop with structural work/depth accounting.
//
// parallel_for(n, body):  work  = Σ_i work(body(i)) + n   (spawn overhead)
//                         depth = ceil(log2 n) + max_i depth(body(i))
//
// Execution is chunked over the process thread pool; the accounting above
// is computed exactly regardless of chunking, so measured CPU work/depth
// are deterministic. Nested regions compose (a body may itself call
// parallel_for).
#pragma once

#include <algorithm>
#include <vector>

#include "common/math_util.hpp"
#include "common/types.hpp"
#include "parallel/cost_model.hpp"
#include "parallel/thread_pool.hpp"

namespace pim::par {

namespace detail {

struct ChunkCost {
  u64 work = 0;
  u64 max_iter_depth = 0;
  // Padding so per-chunk accumulators on different host threads do not
  // false-share.
  char pad[48] = {};
};

}  // namespace detail

/// Parallel loop over [0, n). Iterations must be independent.
template <typename Body>
void parallel_for(u64 n, Body&& body, u64 grain = 1) {
  if (n == 0) return;
  CostCounters& parent = current_cost();
  if (n == 1) {
    CostCounters iter;
    {
      CostScope scope(iter);
      body(u64{0});
    }
    parent.add_region(iter.work + 1, iter.depth);
    return;
  }

  ThreadPool& pool = ThreadPool::instance();
  const u64 want = std::max<u64>(grain, ceil_div(n, u64{4} * pool.lanes()));
  const u32 chunks = static_cast<u32>(ceil_div(n, want));
  if (chunks == 1) {
    // Single chunk: run inline without the pool handoff, the per-chunk
    // cost array, or the type-erased callable. Callers with tiny bodies
    // pass a grain that lands here for small n — the accounting below is
    // chunking-independent, so the numbers are identical either way.
    detail::ChunkCost cc;
    for (u64 i = 0; i < n; ++i) {
      CostCounters iter;
      {
        CostScope scope(iter);
        body(i);
      }
      cc.work += iter.work;
      cc.max_iter_depth = std::max(cc.max_iter_depth, iter.depth);
    }
    parent.add_region(n + cc.work, ceil_log2(n) + cc.max_iter_depth);
    return;
  }
  std::vector<detail::ChunkCost> costs(chunks);

  const std::function<void(u32)> run_chunk = [&](u32 c) {
    const u64 lo = c * want;
    const u64 hi = std::min<u64>(n, lo + want);
    detail::ChunkCost& cc = costs[c];
    for (u64 i = lo; i < hi; ++i) {
      CostCounters iter;
      {
        CostScope scope(iter);
        body(i);
      }
      cc.work += iter.work;
      cc.max_iter_depth = std::max(cc.max_iter_depth, iter.depth);
    }
  };
  pool.run_batch(run_chunk, chunks);

  u64 total_work = n;  // one unit of spawn/loop overhead per iteration
  u64 max_depth = 0;
  for (const auto& cc : costs) {
    total_work += cc.work;
    max_depth = std::max(max_depth, cc.max_iter_depth);
  }
  parent.add_region(total_work, ceil_log2(n) + max_depth);
}

}  // namespace pim::par
