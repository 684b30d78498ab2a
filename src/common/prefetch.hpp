// Host cache hint for the round engine's prefetch hooks (sim::Handler).
#pragma once

namespace pim {

/// Starts loading *p into the host cache, both ends, as an object may
/// straddle two cache lines. Reads nothing and changes nothing.
template <typename T>
inline void prefetch_object(const T* p) {
  const char* c = reinterpret_cast<const char*>(p);
  __builtin_prefetch(c);
  __builtin_prefetch(c + sizeof(T) - 1);
  // GCC counts a prefetch as no side effect: it would prove a function
  // that only prefetches side-effect free and delete every call to it.
  // The empty volatile asm is a side effect that emits no instruction.
  asm volatile("" : : "r"(c));
}

}  // namespace pim
