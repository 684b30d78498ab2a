// Scrubbing: the online integrity audit of scrubber.hpp, plus the at-rest
// corruption listener that models silent local-memory faults.
//
// Digest protocol. Each scrub invocation runs one metered exchange:
//  * every module digests its replica of the upper part and replies one
//    word (O(1) IO per module — a Theorem 5.1-shaped broadcast round);
//  * each *audited* module additionally digests its live leaves in key
//    order and replies one word (O(local leaves) PIM work, O(1) IO).
// The CPU compares replica digests against the clean replica digest and
// leaf digests against the digest of the journal's view of that module
// (checkpoint + journal replay, the same oracle recovery uses). Repair is
// in place: corrupted leaf values are rewritten (one metered message
// each), divergent replica slots are re-streamed from a clean survivor
// through the existing h_recover_fetch_ → h_restore_ path, and a module
// whose leaf *key set* diverged — structural damage scrubbing cannot
// patch word-by-word — escalates to the surgical crash-and-recover path.
//
// Replica modeling note. The simulator keeps ONE physical copy of the
// upper part (upper_), so per-module replica divergence is represented as
// an XOR overlay (upper_xor_[m]: slot -> pending bit flips). The overlay
// is latent — reads do not consult it, mirroring how a real corrupted
// replica serves wrong bytes only when the corrupted words are touched —
// and the majority vote across replicas is degenerate (the physical copy
// is the majority). Detection and repair traffic are still metered
// exactly as the distributed protocol would be.
//
// A fresh fault (crash, retry exhaustion) striking mid-scrub aborts the
// in-flight traffic; scrub_span repairs the machine (ensure_healthy) and
// re-runs the pass, bounded by kMaxOpRestarts, counting a restart in the
// report. Mirror-side repairs are idempotent, so a re-run after a partial
// pass simply finds less to fix.
#include "core/scrubber.hpp"

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "core/pim_skiplist.hpp"
#include "sim/trace.hpp"

namespace pim::core {

namespace {

constexpr u64 kDigestSeed = 0xD16E57D16E57D16Eull;

}  // namespace

// ---------------- digests ----------------

u64 PimSkipList::pairs_digest(const std::vector<std::pair<Key, Value>>& pairs) {
  // Order-sensitive digest of key-sorted (key, value) pairs.
  u64 h = rnd::mix64(kDigestSeed ^ pairs.size());
  for (const auto& [k, v] : pairs) h = rnd::mix64(h ^ rnd::mix2(k, v));
  return h;
}

std::vector<std::pair<Key, Value>> PimSkipList::contents_offline() const {
  std::vector<std::pair<Key, Value>> pairs;
  pairs.reserve(size_);
  for (const ModuleState& ms : state_) {
    const NodeArena& arena = ms.arena;
    for (Slot s = 0; s < arena.capacity(); ++s) {
      if (!arena.live(s)) continue;
      const Node& nd = arena.at(s);
      if (nd.level != 0 || nd.key == kMinKey || nd.deleted()) continue;
      pairs.emplace_back(nd.key, nd.value);
    }
  }
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

u64 PimSkipList::contents_digest() const { return pairs_digest(contents_offline()); }

u64 PimSkipList::upper_digest_base() const {
  // Digest of the (single physical) upper part: what every clean replica
  // reports. Slot order is deterministic across executors.
  u64 h = rnd::mix64(kDigestSeed ^ upper_.live_nodes());
  for (Slot s = 0; s < upper_.capacity(); ++s) {
    if (!upper_.live(s)) continue;
    const Node& nd = upper_.at(s);
    h = rnd::mix64(h ^ rnd::mix2(s, rnd::mix2(nd.key, nd.level)));
  }
  return h;
}

u64 PimSkipList::upper_replica_digest(ModuleId m) const {
  // A corrupted slot perturbs the replica's digest; folding the overlay
  // into the base digest models digesting the corrupted copy.
  u64 h = upper_digest_base();
  for (const auto& [slot, mask] : upper_xor_[m]) h ^= rnd::mix2(slot, mask);
  return h;
}

u64 PimSkipList::leaf_digest(ModuleId m) const {
  const NodeArena& arena = state_[m].arena;
  std::vector<std::pair<Key, Value>> pairs;
  for (Slot s = 0; s < arena.capacity(); ++s) {
    if (!arena.live(s)) continue;
    const Node& nd = arena.at(s);
    if (nd.level != 0 || nd.key == kMinKey || nd.deleted()) continue;
    pairs.emplace_back(nd.key, nd.value);
  }
  std::sort(pairs.begin(), pairs.end());
  return pairs_digest(pairs);
}

void PimSkipList::init_scrub_handlers() {
  // Replica audit. args: [mailbox base slot]; replies into base + id.
  h_scrub_upper_digest_ = [this](sim::ModuleCtx& ctx, std::span<const u64> a) {
    ctx.charge(upper_.live_nodes() + 1);
    ctx.reply(a[0] + ctx.id(), upper_replica_digest(ctx.id()));
  };
  // Leaf audit. args: [mailbox slot].
  h_scrub_leaf_digest_ = [this](sim::ModuleCtx& ctx, std::span<const u64> a) {
    ctx.charge(state_[ctx.id()].arena.live_nodes() + 1);
    ctx.reply(a[0], leaf_digest(ctx.id()));
  };
}

// ---------------- at-rest corruption ----------------

void PimSkipList::on_memory_corrupt(ModuleId m, u64 draw) {
  // Module m's corruptible local memory, as the fault model sees it: its
  // live leaf values plus its replica of the upper part. (Pointer-word
  // corruption is modeled by the fail-stop crash path — see DESIGN.md.)
  // Everything here is a pure function of the mirror state and the draw,
  // so all executors apply the identical flip.
  const NodeArena& arena = state_[m].arena;
  std::vector<Slot> leaves;
  for (Slot s = 0; s < arena.capacity(); ++s) {
    if (!arena.live(s)) continue;
    const Node& nd = arena.at(s);
    if (nd.level == 0 && nd.key != kMinKey && !nd.deleted()) leaves.push_back(s);
  }
  std::vector<Slot> uppers;
  for (Slot s = 0; s < upper_.capacity(); ++s) {
    if (upper_.live(s)) uppers.push_back(s);
  }
  const u64 total = leaves.size() + uppers.size();
  if (total == 0) return;  // an empty module has nothing to corrupt

  const u64 idx = draw % total;
  // Guaranteed-nonzero mask: a strike always changes the word it hits.
  const u64 mask = rnd::mix64(draw ^ 0xB17F11B17F11B17Full) | 1;
  if (idx < leaves.size()) {
    state_[m].arena.at(leaves[idx]).value ^= mask;
  } else {
    const Slot s = uppers[idx - leaves.size()];
    auto& overlay = upper_xor_[m];
    const u64 residue = overlay[s] ^ mask;
    // A second strike flipping the same bits back restores the word.
    if (residue == 0) {
      overlay.erase(s);
    } else {
      overlay[s] = residue;
    }
  }
  ++mem_corruptions_applied_;
}

// ---------------- the audit ----------------

ScrubReport PimSkipList::verify_and_repair() {
  return scrub_span(0, machine_.modules());
}

ScrubReport PimSkipList::scrub_span(ModuleId first, u32 count) {
  PIM_CHECK(machine_.fault_active(), "scrubbing requires an active fault plan");
  const u32 P = machine_.modules();
  PIM_CHECK(count >= 1, "scrub_span: must audit at least one module");
  count = std::min<u32>(count, P);
  PIM_CHECK(first < P, "scrub_span: bad start module");
  ensure_journaled();  // the journal is the leaf-audit oracle

  ScrubReport report;
  const auto before = machine_.snapshot();
  for (u32 attempt = 0;; ++attempt) {
    try {
      ensure_healthy();
      machine_.begin_fault_epoch();
      scrub_span_once(first, count, report);
      break;
    } catch (const StatusError& e) {
      if (e.code() == StatusCode::kDrainStuck || attempt + 1 >= kMaxOpRestarts) throw;
      machine_.abort_pending();
      ++report.restarts;
    }
  }
  report.cost = machine_.delta(before);
  machine_.record_scrub(report.value_repairs + report.replica_repairs);
  return report;
}

void PimSkipList::scrub_span_once(ModuleId first, u32 count, ScrubReport& report) {
  const u32 P = machine_.modules();
  // Detection numbers describe the (re-)run that converged; only the
  // restart count survives an interrupted attempt.
  const u64 restarts = report.restarts;
  report = ScrubReport{};
  report.restarts = restarts;

  // Phase A — metered digest exchange.
  sim::TraceScope trace_digest(machine_, "scrub:digest");
  auto& mbox = machine_.mailbox();
  mbox.assign(P + count, 0);
  machine_.broadcast(&h_scrub_upper_digest_, {0});
  for (u32 i = 0; i < count; ++i) {
    machine_.send((first + i) % P, &h_scrub_leaf_digest_, {static_cast<u64>(P) + i});
  }
  machine_.run_until_quiescent();
  const std::vector<u64> upper_digests(mbox.begin(), mbox.begin() + P);
  const std::vector<u64> leaf_digests(mbox.begin() + P, mbox.begin() + P + count);

  // Phase B — CPU-side comparison. Replica truth is the clean digest; a
  // clean survivor sources the re-stream. Leaf truth is the journal.
  const u64 expected_upper = upper_digest_base();
  ModuleId survivor = P;
  for (ModuleId m = 0; m < P; ++m) {
    if (upper_digests[m] == expected_upper) {
      survivor = m;
      break;
    }
  }
  std::vector<u64> replica_fixes(P, 0);  // slots to re-stream, per module
  for (ModuleId m = 0; m < P; ++m) {
    if (upper_digests[m] == expected_upper) continue;
    ++report.upper_divergent;
    PIM_CHECK(!upper_xor_[m].empty(), "replica digest diverged with no corrupted slots");
    replica_fixes[m] = upper_xor_[m].size();
    report.replica_repairs += upper_xor_[m].size();
    upper_xor_[m].clear();  // mirror repair; traffic metered in phase D
  }

  const Pairs contents = log_.fold();
  std::vector<std::vector<std::pair<Key, Value>>> expect_leaves(count);
  std::vector<u32> audit_index(P, count);
  for (u32 i = 0; i < count; ++i) audit_index[(first + i) % P] = i;
  for (const auto& [key, value] : contents) {
    const u32 i = audit_index[placement_.module_of(key, 0)];
    if (i < count) expect_leaves[i].emplace_back(key, value);
  }

  // Phase C — escalations first: recovery purges in-flight messages, so
  // structurally-damaged modules must be rebuilt before any in-place
  // repair traffic is queued. The recover path also re-streams the
  // module's replica, covering its overlay repairs (already cleared).
  std::vector<std::pair<ModuleId, u64>> value_fixes;  // (module, repaired words)
  std::vector<u8> escalated(P, 0);
  for (u32 i = 0; i < count; ++i) {
    if (leaf_digests[i] == pairs_digest(expect_leaves[i])) continue;
    ++report.leaf_divergent;
    const ModuleId m = (first + i) % P;
    std::map<Key, Slot> actual;
    const NodeArena& arena = state_[m].arena;
    for (Slot s = 0; s < arena.capacity(); ++s) {
      if (!arena.live(s)) continue;
      const Node& nd = arena.at(s);
      if (nd.level != 0 || nd.key == kMinKey || nd.deleted()) continue;
      actual.emplace(nd.key, s);
    }
    bool structural = actual.size() != expect_leaves[i].size();
    if (!structural) {
      u64 j = 0;
      for (const auto& [key, slot] : actual) {
        if (expect_leaves[i][j++].first != key) {
          structural = true;
          break;
        }
      }
    }
    if (structural) {
      ++report.escalations;
      escalated[m] = 1;
      machine_.crash_module(m);
      recover(m);
      continue;
    }
    u64 repaired = 0;
    for (const auto& [key, value] : expect_leaves[i]) {
      Node& leaf = state_[m].arena.at(actual.at(key));
      if (leaf.value != value) {
        leaf.value = value;
        ++repaired;
      }
    }
    report.value_repairs += repaired;
    if (repaired > 0) value_fixes.emplace_back(m, repaired);
  }
  report.modules_audited = count;

  // Phase D — metered repair traffic: each re-streamed replica slot is a
  // fetch → forward through a clean survivor; each rewritten leaf value
  // is one message into the repaired module.
  sim::TraceScope trace_repair(machine_, "scrub:repair");
  u64 seq = 0;
  for (ModuleId m = 0; m < P; ++m) {
    // An escalated module's replica was already re-streamed by recover().
    if (replica_fixes[m] == 0 || escalated[m]) continue;
    const ModuleId src = survivor < P ? survivor : (m + 1) % P;
    for (u64 k = 0; k < replica_fixes[m]; ++k) {
      machine_.send(src, &h_recover_fetch_, {static_cast<u64>(m), seq++});
    }
  }
  for (const auto& [m, repaired] : value_fixes) {
    for (u64 k = 0; k < repaired; ++k) {
      machine_.send(m, &h_restore_, {static_cast<u64>(m), seq++});
    }
  }
  machine_.run_until_quiescent();

  // Phase E — offline convergence check (not metered): the audited state
  // must now be clean. A divergence here means a *fresh* strike landed
  // during the scrub's own drains (after the digests were taken); surface
  // it as a retryable fault so scrub_span re-runs the pass, bounded by
  // kMaxOpRestarts.
  const auto interrupted = [] {
    throw StatusError(Status(
        StatusCode::kUnavailable,
        "scrub interrupted by a fresh strike mid-pass; restarting"));
  };
  for (ModuleId m = 0; m < P; ++m) {
    if (upper_replica_digest(m) != expected_upper) interrupted();
  }
  for (u32 i = 0; i < count; ++i) {
    if (leaf_digest((first + i) % P) != pairs_digest(expect_leaves[i])) interrupted();
  }
}

// ---------------- incremental driver ----------------

Scrubber::Scrubber(PimSkipList& list, Options opts) : list_(list), opts_(opts) {
  PIM_CHECK(opts_.modules_per_step >= 1, "Scrubber: modules_per_step must be >= 1");
}

ScrubReport Scrubber::step() {
  const u32 P = list_.modules();
  const u32 n = std::min<u32>(opts_.modules_per_step, P);
  ScrubReport r = list_.scrub_span(cursor_, n);
  cursor_ = static_cast<ModuleId>((cursor_ + n) % P);
  return r;
}

ScrubReport Scrubber::full_pass() { return list_.scrub_span(cursor_, list_.modules()); }

}  // namespace pim::core
