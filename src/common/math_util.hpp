// Small integer math helpers used throughout (log2 bounds, divisions that
// round up, powers of two). All are branch-light and constexpr-friendly.
#pragma once

#include <bit>

#include "common/error.hpp"
#include "common/types.hpp"

namespace pim {

/// floor(log2(x)) for x >= 1.
constexpr u32 floor_log2(u64 x) { return 63u - static_cast<u32>(std::countl_zero(x | 1)); }

/// ceil(log2(x)) for x >= 1; ceil_log2(1) == 0.
constexpr u32 ceil_log2(u64 x) {
  if (x <= 1) return 0;
  return floor_log2(x - 1) + 1;
}

/// ceil(a / b) for b > 0.
constexpr u64 ceil_div(u64 a, u64 b) { return (a + b - 1) / b; }

constexpr u64 next_pow2(u64 x) { return x <= 1 ? 1 : u64{1} << ceil_log2(x); }

/// log2(P) rounded to at least 1; the paper's h_low and per-operation batch
/// sizes are expressed in terms of this quantity.
constexpr u32 log2_at_least1(u64 p) { return ceil_log2(p) == 0 ? 1 : ceil_log2(p); }

}  // namespace pim
