// CPU-side work/depth cost accounting.
//
// The PIM model analyzes the CPU side with standard work-depth metrics
// under a work-stealing scheduler (paper §2.1). Wall-clock time on the
// host is not the quantity of interest — the *work* (total operations) and
// *depth* (critical path) of the algorithm are. This module measures both
// structurally:
//
//  * Sequential code calls charge(w): adds w to work and to depth.
//  * parallel_for over n iterations contributes
//        work  = sum of per-iteration work,
//        depth = ceil(log2 n)   (the binary spawn tree)
//              + max over iterations of per-iteration depth.
//
// The accounting is independent of how many host threads actually execute
// the loop, so measured work/depth are deterministic and reproducible.
//
// Mechanism: a thread-local pointer to the "current" CostCounters. Loop
// bodies run with a fresh per-iteration counter; joins combine counters per
// the rules above. A CostScope (RAII) establishes a measurement root.
#pragma once

#include <type_traits>

#include "common/types.hpp"

namespace pim::par {

struct CostCounters {
  u64 work = 0;
  u64 depth = 0;

  void add_sequential(u64 w) {
    work += w;
    depth += w;
  }
  /// Combine a completed parallel region (already reduced to work +
  /// critical-path depth) into this context: work adds, depth adds.
  void add_region(u64 region_work, u64 region_depth) {
    work += region_work;
    depth += region_depth;
  }
};

namespace detail {
CostCounters*& tls_cost_slot();
}  // namespace detail

/// The counters sequential charges currently land in. Never null: a
/// process-wide sink exists so library code can charge unconditionally.
CostCounters& current_cost();

/// Charge w units of sequential work (work += w, depth += w).
inline void charge(u64 w) { current_cost().add_sequential(w); }

/// Charge work with no depth (e.g., aggregate of known-parallel flat work).
inline void charge_work(u64 w) { current_cost().work += w; }

/// Charge depth with no work (e.g., a dependency chain of waits).
inline void charge_depth(u64 d) { current_cost().depth += d; }

/// RAII: redirect charges on this thread into `target` until destruction.
class CostScope {
 public:
  explicit CostScope(CostCounters& target) : saved_(detail::tls_cost_slot()) {
    detail::tls_cost_slot() = &target;
  }
  CostScope(const CostScope&) = delete;
  CostScope& operator=(const CostScope&) = delete;
  ~CostScope() { detail::tls_cost_slot() = saved_; }

 private:
  CostCounters* saved_;
};

/// Runs `f` as a parallel primitive whose critical-path depth is known
/// analytically (e.g., the paper's CPU-side building blocks: sort, semisort
/// and list contraction from Blelloch et al. [9] have O(log n) whp depth,
/// which our coarse-grained host execution does not exhibit structurally).
/// Work is taken from the real charges made inside `f`; depth is recorded
/// as `analytic_depth`. Returns f's value.
template <typename F>
auto charged_region(u64 analytic_depth, F&& f) {
  CostCounters child;
  if constexpr (std::is_void_v<decltype(f())>) {
    {
      CostScope scope(child);
      f();
    }
    current_cost().add_region(child.work, analytic_depth);
  } else {
    auto result = [&] {
      CostScope scope(child);
      return f();
    }();
    current_cost().add_region(child.work, analytic_depth);
    return result;
  }
}

}  // namespace pim::par
