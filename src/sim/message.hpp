// Message and task types for the simulated PIM network.
//
// Per the model (paper §2.1): a CPU core offloads work with a TaskSend
// instruction naming a PIM module and a task (function + arguments); each
// message carries a constant number of words; tasks write their results
// back to shared memory. A PIM module "offloads to another module" by
// returning to shared memory, which re-offloads from the CPU side — the
// simulator's `forward` models exactly that two-hop route.
//
// Checksum envelope: every task carries a 64-bit checksum of its payload
// (argument words only — never the handler pointer, which differs across
// runs). The sender seals it in make_task; the delivery layer verifies it
// when fault injection is active, so a payload corrupted in transit is
// detected at the receiver and folded into the retransmission path
// instead of being consumed as truth. The checksum is one extra word of
// the constant-size message.
#pragma once

#include <functional>
#include <span>
#include <type_traits>
#include <utility>

#include "common/error.hpp"
#include "common/types.hpp"
#include "random/hash_fn.hpp"

namespace pim::sim {

class ModuleCtx;

/// Module-side task: a body plus an optional host-only prefetch hook.
/// Handlers live in the owning data structure (typically built from
/// lambdas capturing the structure) and must outlive any machine round
/// that can still deliver them. A Handler converts from any callable with
/// the body's signature, so `Handler h = [](ModuleCtx&, auto) {...}` gives
/// a handler without a hook; `h = {body, hook}` sets both at once. Assigning
/// a bare callable replaces the whole handler, hook included, so a hooked
/// handler is assigned with its hook where its body is defined.
///
/// The hook exists for host speed only (DESIGN.md §5.9). Machine::run_round
/// calls `prefetch(module, args)` once for every task the round will
/// execute, after delivery and before the first body runs, so the host can
/// start the cache misses of a whole round at once. A hook may only issue
/// prefetches of what its body reads first, and must be safe on any
/// argument words (bounds-checked): it charges nothing, replies nothing,
/// forwards nothing, draws no randomness and writes no state, so every
/// model metric is the same with or without it. It lives on the handler,
/// not on the machine, because two structures may share one machine.
struct Handler {
  using Body = std::function<void(ModuleCtx&, std::span<const u64>)>;
  using Prefetch = std::function<void(ModuleId, std::span<const u64>)>;

  Handler() = default;
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, Handler> && std::is_constructible_v<Body, F>)
  Handler(F&& f) : body(std::forward<F>(f)) {}
  Handler(Body b, Prefetch p) : body(std::move(b)), prefetch(std::move(p)) {}

  void operator()(ModuleCtx& ctx, std::span<const u64> args) const { body(ctx, args); }

  Body body;
  Prefetch prefetch;  // empty = no hook
};

/// Maximum argument words per message. The model requires constant-size
/// messages; this is that constant. PIM_CHECKed at send time.
inline constexpr u32 kMaxTaskArgs = 8;

/// Payload checksum: a mix-chain over the argument words. Pure function of
/// the payload (and nothing else) so sender and receiver agree without
/// shared state, and identical payloads hash identically in every
/// executor.
inline u64 payload_checksum(u32 nargs, const u64* args) {
  u64 h = rnd::mix64(0xC5EC5EC5EC5EC5ECull ^ nargs);
  for (u32 i = 0; i < nargs; ++i) h = rnd::mix64(h ^ args[i]);
  return h;
}

struct Task {
  const Handler* fn = nullptr;
  u32 nargs = 0;
  u64 args[kMaxTaskArgs] = {};
  /// Envelope checksum sealed at send time (see file comment).
  u64 checksum = 0;

  // ---- hedging metadata (CPU-side bookkeeping, not part of the payload
  // and therefore outside the checksum; see Machine::send_hedged). A task
  // is hedgeable iff hedge_id != 0: its handler reads only replicated
  // state, so a copy may run on any live module and the first execution
  // wins. ----
  u64 hedge_id = 0;    // 0 = not hedgeable
  u32 stall_age = 0;   // rounds spent queued behind a straggler
  u8 is_hedge = 0;     // 1 on a rerouted copy (win/waste attribution)
  u8 hedge_fired = 0;  // this queued instance already spawned a copy

  std::span<const u64> arg_span() const { return {args, nargs}; }
  bool checksum_ok() const { return checksum == payload_checksum(nargs, args); }
};

struct Message {
  ModuleId target = 0;
  Task task;
};

inline Task make_task(const Handler* fn, std::span<const u64> args) {
  PIM_CHECK(args.size() <= kMaxTaskArgs, "task exceeds constant message size");
  Task t;
  t.fn = fn;
  t.nargs = static_cast<u32>(args.size());
  for (u32 i = 0; i < t.nargs; ++i) t.args[i] = args[i];
  t.checksum = payload_checksum(t.nargs, t.args);
  return t;
}

inline Task make_task(const Handler* fn, std::initializer_list<u64> args) {
  return make_task(fn, std::span<const u64>(args.begin(), args.size()));
}

}  // namespace pim::sim
