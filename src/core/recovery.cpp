// Fault tolerance for the PIM skiplist (DESIGN.md "Fault model and
// recovery"): checkpointing the write-ahead log (core::BatchLog),
// module-crash recovery, and the public batch entry points that wrap the
// op drivers in a retry/recovery layer (guarded_read / guarded_write).
//
// Division of labor with the machine: the machine makes transient faults
// (drops, duplicates, stalls) invisible via transparent retransmission, so
// the drivers in the op_*.cpp files only ever observe a clean drain or a
// StatusError (retry budget exhausted / module crashed). This file handles
// the StatusError side:
//  * Read-only batches write nothing, so a failed read is recovered by
//    repairing the structure (recover / rebuild) and simply re-running it.
//  * Mutating batches are logged BEFORE execution. A batch that dies
//    mid-drain may have partially applied; recovery replays
//    checkpoint + log — which already includes the failed batch — so
//    every mutation is atomic: fully applied after recovery, never torn.
//  * recover(m) is surgical when exactly one module is down: the surviving
//    modules plus the (intact, replicated) upper part pin down the shape of
//    every tower, so only m's nodes are reconstructed and surviving tower
//    heights are preserved. The upper part is re-streamed from a surviving
//    replica; the restored lower-part payload is metered as one message per
//    node, and the traffic is folded into the machine's recovery counters.
#include <algorithm>

#include "core/pim_skiplist.hpp"
#include "sim/trace.hpp"

namespace pim::core {

// ---------------- handlers ----------------

void PimSkipList::init_recovery_handlers() {
  // Survivor side: read one upper-part node from the local replica and
  // stream it to the recovering module. args: [recovering module, seq].
  h_recover_fetch_ = [this](sim::ModuleCtx& ctx, std::span<const u64> a) {
    ctx.charge(1);
    const u64 fwd[2] = {a[0], a[1]};
    ctx.forward(static_cast<ModuleId>(a[0]), &h_restore_, std::span<const u64>(fwd, 2));
  };
  // Recovering-module side: absorb one restored node's payload. The
  // physical reconstruction happens offline on the CPU mirror; this
  // message carries the model cost of shipping it. args: [module, seq].
  h_restore_ = [this](sim::ModuleCtx& ctx, std::span<const u64>) { ctx.charge(1); };
}

void PimSkipList::on_module_crash(ModuleId m) {
  // Fail-stop: the module's local memory is gone. Crashes fire between
  // rounds (never inside a handler), so replacing the mirror is safe.
  state_[m] = ModuleState(module_seeds_[m].first, module_seeds_[m].second);
  // Its replica (and any divergence it had accumulated) died with it;
  // recovery re-streams a clean copy.
  upper_xor_[m].clear();
}

// ---------------- journal ----------------

void PimSkipList::checkpoint() {
  PIM_CHECK(machine_.down_count() == 0, "checkpoint requires every module to be up");
  Pairs contents;
  contents.reserve(size_);
  GPtr leaf = node_at(head_at(0)).right;
  while (!leaf.is_null()) {
    const Node& nd = node_at(leaf);
    contents.emplace_back(nd.key, nd.value);
    leaf = nd.right;
  }
  PIM_CHECK(contents.size() == size_, "checkpoint walk disagrees with size");
  log_.reset(std::move(contents));
  journal_valid_ = true;
}

void PimSkipList::ensure_journaled() {
  if (journal_valid_) return;
  PIM_CHECK(machine_.down_count() == 0,
            "fault tolerance needs a checkpoint taken while every module is up; "
            "run one fault-mode operation (or checkpoint()) before any crash");
  checkpoint();
}

void PimSkipList::maybe_compact_journal() {
  if (log_.size() > BatchLog::kCompactLimit && machine_.down_count() == 0) {
    // Scrub-before-checkpoint: the level-0 walk would freeze any silent
    // corruption into the new checkpoint as truth, making it permanently
    // undetectable. Audit and repair first.
    verify_and_repair();
    checkpoint();
  }
}

void PimSkipList::ensure_healthy() {
  // Scheduled crash events fire at most once each, so this terminates.
  while (machine_.down_count() > 0) {
    if (machine_.down_count() > 1 || machine_.modules() == 1) {
      rebuild_from_logical();
      return;
    }
    for (ModuleId m = 0; m < machine_.modules(); ++m) {
      if (machine_.is_down(m)) {
        recover(m);
        break;
      }
    }
  }
}

// ---------------- recovery ----------------

void PimSkipList::recover(ModuleId m) {
  PIM_CHECK(m < machine_.modules(), "recover: bad module id");
  if (!machine_.is_down(m)) return;
  machine_.clear_round_budget();  // recovery is never held to an op deadline
  PIM_CHECK(journal_valid_,
            "recover without a valid checkpoint + journal (the crash predates "
            "fault-mode operation; no log of the contents exists)");
  if (machine_.modules() == 1 || machine_.down_count() > 1) {
    rebuild_from_logical();
    return;
  }

  const auto before = machine_.snapshot();
  machine_.abort_pending();  // in-flight tasks of the failed batch are stale
  machine_.revive(m);

  const Pairs contents = log_.fold();
  std::vector<ModuleId> repaired_survivors;
  const u64 restored = offline_restore_module(m, contents, repaired_survivors);

  // Metered restoration traffic: the upper part is re-streamed from a
  // surviving replica (fetch → forward), and each reconstructed lower-part
  // node costs one message into m. A fresh fault may strike during this
  // drain; the structure is already consistent offline, so we just abort
  // the cost-model traffic and let the next ensure_healthy() deal with any
  // newly-crashed module.
  try {
    sim::TraceScope trace(machine_, "recover:restore_stream");
    const ModuleId survivor = (m + 1) % machine_.modules();
    const u64 upper_live = upper_.live_nodes();
    for (u64 i = 0; i < upper_live; ++i) {
      machine_.send(survivor, &h_recover_fetch_, {static_cast<u64>(m), i});
    }
    for (u64 i = 0; i < restored; ++i) {
      machine_.send(m, &h_restore_, {static_cast<u64>(m), upper_live + i});
    }
    u64 seq = upper_live + restored;
    for (const ModuleId s : repaired_survivors) {
      machine_.send(s, &h_restore_, {static_cast<u64>(s), seq++});
    }
    machine_.run_until_quiescent();
  } catch (const StatusError&) {
    machine_.abort_pending();
  }
  const auto d = machine_.delta(before);
  machine_.record_recovery(d.rounds, d.io_time);
}

void PimSkipList::rebuild_from_logical() {
  PIM_CHECK(journal_valid_,
            "rebuild without a valid checkpoint + journal (the crash predates "
            "fault-mode operation; no log of the contents exists)");
  machine_.clear_round_budget();  // recovery is never held to an op deadline
  const auto before = machine_.snapshot();
  Pairs contents = log_.fold();
  machine_.abort_pending();
  for (ModuleId m = 0; m < machine_.modules(); ++m) {
    if (machine_.is_down(m)) machine_.revive(m);
    state_[m] = ModuleState(module_seeds_[m].first, module_seeds_[m].second);
    upper_xor_[m].clear();  // every replica is about to be rebuilt clean
  }
  upper_ = NodeArena{};
  size_ = 0;
  top_level_ = h_low_;
  init_heads();
  for (const auto& [key, value] : contents) offline_insert_tower(key, value, draw_height());
  log_.reset(std::move(contents));
  journal_valid_ = true;

  // Meter the rebuild as one message per key (shipping the payload back
  // into the machine). Tolerant to fresh faults, as in recover().
  try {
    sim::TraceScope trace(machine_, "recover:rebuild_stream");
    u64 seq = 0;
    for (const auto& [key, value] : log_.checkpoint()) {
      machine_.send(placement_.module_of(key, 0), &h_restore_,
                    {static_cast<u64>(placement_.module_of(key, 0)), seq++});
    }
    machine_.run_until_quiescent();
  } catch (const StatusError&) {
    machine_.abort_pending();
  }
  const auto d = machine_.delta(before);
  machine_.record_recovery(d.rounds, d.io_time);
}

u64 PimSkipList::offline_restore_module(ModuleId m, const Pairs& contents,
                                        std::vector<ModuleId>& repaired_survivors) {
  // Evidence: what the surviving modules + the replicated upper part say
  // about each tower. lower[lv] is the surviving (or restored) level-lv
  // node of the key's tower.
  struct Evidence {
    std::vector<GPtr> lower;
    Slot upper_base = kNullSlot;
    u32 upper_top = 0;
  };
  std::map<Key, Evidence> ev;
  auto at_key = [&](Key k) -> Evidence& {
    Evidence& e = ev[k];
    if (e.lower.empty()) e.lower.assign(h_low_, GPtr::null());
    return e;
  };

  for (ModuleId mm = 0; mm < machine_.modules(); ++mm) {
    if (mm == m) continue;
    const NodeArena& arena = state_[mm].arena;
    for (Slot slot = 0; slot < arena.capacity(); ++slot) {
      if (!arena.live(slot)) continue;
      const Node& nd = arena.at(slot);
      if (nd.key == kMinKey) continue;  // head towers handled below
      PIM_CHECK(nd.level < h_low_, "lower arena holds an upper-level node");
      at_key(nd.key).lower[nd.level] = GPtr{mm, slot};
    }
  }
  for (Slot slot = 0; slot < upper_.capacity(); ++slot) {
    if (!upper_.live(slot)) continue;
    const Node& nd = upper_.at(slot);
    if (nd.key == kMinKey) continue;
    Evidence& e = at_key(nd.key);
    if (nd.level == h_low_) e.upper_base = slot;
    e.upper_top = std::max(e.upper_top, nd.level);
  }

  // Reconcile against the logical contents: every key must exist, and any
  // level the evidence says is missing must have lived on m.
  u64 restored = 0;
  for (const auto& [key, value] : contents) {
    Evidence& e = at_key(key);
    const bool has_upper = e.upper_base != kNullSlot;
    PIM_CHECK(has_upper || e.upper_top == 0, "tower enters the upper part without a base");
    u32 want_top = 0;
    if (has_upper) {
      want_top = h_low_ - 1;  // tall towers fill every lower level
    } else {
      // Keep the surviving height; a tower that lived entirely on m is
      // rebuilt at height 0 (heights are random — any valid height
      // preserves the skiplist invariants, and this one is free).
      for (u32 lv = 0; lv < h_low_; ++lv) {
        if (!e.lower[lv].is_null()) want_top = lv;
      }
    }
    for (u32 lv = 0; lv <= want_top; ++lv) {
      if (!e.lower[lv].is_null()) continue;
      PIM_CHECK(placement_.module_of(key, lv) == m,
                "recover: missing node not owned by the crashed module");
      const Slot slot = state_[m].arena.allocate();
      Node& nd = state_[m].arena.at(slot);
      nd.key = key;
      nd.level = lv;
      e.lower[lv] = GPtr{m, slot};
      ++restored;
    }
    Node& leaf = node_at(e.lower[0]);
    if (e.lower[0].module == m) {
      leaf.value = value;  // journal-replayed payload
    } else if (leaf.value != value) {
      // A silent at-rest corruption on a survivor, surfaced by the
      // journal cross-check before scrubbing reached it. The journal is
      // the oracle: repair in place rather than let recovery freeze the
      // corrupted word back into circulation.
      leaf.value = value;
      repaired_survivors.push_back(e.lower[0].module);
    }
  }
  PIM_CHECK(ev.size() == contents.size(), "surviving nodes reference unknown keys");
  PIM_CHECK(contents.size() == size_, "journal size disagrees with structure size");

  // Head-tower nodes that lived on m.
  for (u32 lv = 0; lv < h_low_; ++lv) {
    if (head_lower_[lv].module != m) continue;
    const Slot slot = state_[m].arena.allocate();
    Node& nd = state_[m].arena.at(slot);
    nd.key = kMinKey;
    nd.level = lv;
    head_lower_[lv] = GPtr{m, slot};
    ++restored;
  }

  // Full horizontal relink of the lower part (ev iterates in key order).
  // This also heals every surviving pointer that referenced a node lost
  // with m — cheaper and simpler than tracking exactly which links broke.
  for (u32 lv = 0; lv < h_low_; ++lv) {
    GPtr prev = head_lower_[lv];
    node_at(prev).left = GPtr::null();
    for (const auto& [key, e] : ev) {
      if (e.lower[lv].is_null()) continue;
      Node& p = node_at(prev);
      p.right = e.lower[lv];
      p.right_key = key;
      node_at(e.lower[lv]).left = prev;
      prev = e.lower[lv];
    }
    Node& last = node_at(prev);
    last.right = GPtr::null();
    last.right_key = kMaxKey;
  }

  // Vertical links: head tower first, then every key tower (including the
  // seam into the replicated upper part).
  node_at(head_lower_[0]).down = GPtr::null();
  for (u32 lv = 1; lv < h_low_; ++lv) {
    node_at(head_lower_[lv]).down = head_lower_[lv - 1];
    node_at(head_lower_[lv - 1]).up = head_lower_[lv];
  }
  node_at(head_lower_[h_low_ - 1]).up = GPtr::replicated(head_upper_[h_low_]);
  upper_.at(head_upper_[h_low_]).down = head_lower_[h_low_ - 1];
  for (const auto& [key, e] : ev) {
    u32 top = 0;
    for (u32 lv = 0; lv < h_low_; ++lv) {
      if (!e.lower[lv].is_null()) top = lv;
    }
    node_at(e.lower[0]).down = GPtr::null();
    for (u32 lv = 1; lv <= top; ++lv) {
      node_at(e.lower[lv]).down = e.lower[lv - 1];
      node_at(e.lower[lv - 1]).up = e.lower[lv];
    }
    if (e.upper_base != kNullSlot) {
      node_at(e.lower[top]).up = GPtr::replicated(e.upper_base);
      upper_.at(e.upper_base).down = e.lower[top];
    } else {
      node_at(e.lower[top]).up = GPtr::null();
    }
  }

  // Leaf bookkeeping: hash/index entries for leaves that now live on m,
  // and leaf-meta reconstruction wherever the tower changed shape. Metas
  // are only created for leaves that actually have towers (the invariant
  // checker rejects gratuitous empty metas... they are permitted, but
  // avoiding them keeps space accounting tight).
  for (const auto& [key, e] : ev) {
    const GPtr leaf = e.lower[0];
    ModuleState& st = state_[leaf.module];
    if (leaf.module == m) {
      st.key_to_leaf.upsert(key, leaf.slot);
      st.leaf_index.upsert(key, leaf.slot);
    }
    u32 top = 0;
    for (u32 lv = 0; lv < h_low_; ++lv) {
      if (!e.lower[lv].is_null()) top = lv;
    }
    const bool needs_meta = top >= 1 || e.upper_base != kNullSlot;
    if (!needs_meta) {
      // A surviving leaf whose tower levels all lived on m keeps a meta
      // that now points at dead nodes: the tower was rebuilt at height 0,
      // so clear it (empty metas are valid, just space-accounted).
      const LeafMeta* existing = st.arena.find_leaf_meta(leaf.slot);
      if (existing != nullptr &&
          (!existing->tower.empty() || existing->upper_base != kNullSlot)) {
        LeafMeta& meta = st.arena.leaf_meta(leaf.slot);
        const u64 old_words = meta.words();
        meta.tower.clear();
        meta.upper_base = kNullSlot;
        meta.upper_top_level = 0;
        st.arena.recharge_leaf_meta(old_words, leaf.slot);
      }
      continue;
    }
    LeafMeta& meta = st.arena.leaf_meta(leaf.slot);
    const u64 old_words = meta.words();
    meta.tower.assign(e.lower.begin() + 1, e.lower.begin() + 1 + top);
    meta.upper_base = e.upper_base;
    meta.upper_top_level = e.upper_base != kNullSlot ? e.upper_top : 0;
    st.arena.recharge_leaf_meta(old_words, leaf.slot);
  }
  return restored;
}

// ---------------- read entry points ----------------

std::vector<PimSkipList::GetResult> PimSkipList::batch_get(std::span<const Key> keys) {
  return guarded_read(/*repair_first=*/true, [&] { return batch_get_impl(keys); });
}

std::vector<PimSkipList::NearResult> PimSkipList::batch_successor(std::span<const Key> keys) {
  return guarded_read(/*repair_first=*/true,
                      [&] { return batch_near(keys, /*successor_mode=*/true); });
}

std::vector<PimSkipList::NearResult> PimSkipList::batch_predecessor(std::span<const Key> keys) {
  return guarded_read(/*repair_first=*/true,
                      [&] { return batch_near(keys, /*successor_mode=*/false); });
}

std::vector<PimSkipList::NearResult> PimSkipList::batch_successor_naive(
    std::span<const Key> keys) {
  return guarded_read(/*repair_first=*/true, [&] { return batch_successor_naive_impl(keys); });
}

PimSkipList::RangeAgg PimSkipList::range_count_broadcast(Key lo, Key hi) {
  return guarded_read(/*repair_first=*/true, [&] { return range_count_broadcast_impl(lo, hi); });
}

std::vector<std::pair<Key, Value>> PimSkipList::range_collect_broadcast(Key lo, Key hi) {
  return guarded_read(/*repair_first=*/true, [&] { return range_collect_broadcast_impl(lo, hi); });
}

std::vector<PimSkipList::RangeAgg> PimSkipList::batch_range_aggregate(
    std::span<const RangeQuery> queries) {
  return guarded_read(/*repair_first=*/true, [&] { return batch_range_aggregate_impl(queries); });
}

std::vector<PimSkipList::RangeAgg> PimSkipList::batch_range_aggregate_expand(
    std::span<const RangeQuery> queries) {
  return guarded_read(/*repair_first=*/true,
                      [&] { return batch_range_aggregate_expand_impl(queries); });
}

// ---------------- mutating entry points ----------------
//
// guarded_write (pim_skiplist.hpp) adds the log and the recovery layer;
// an aborted batch reports its results against the pre-batch contents.

namespace {
template <typename Item>
std::vector<u8> found_flags(const Pairs& before, std::span<const Item> items) {
  std::vector<u8> found(items.size());
  for (u64 i = 0; i < items.size(); ++i) found[i] = find_key(before, key_of(items[i])) ? 1 : 0;
  return found;
}
}  // namespace

std::vector<u8> PimSkipList::batch_update(std::span<const std::pair<Key, Value>> ops) {
  return guarded_write(
      /*repair_first=*/true, [&] { return LogRecord::of(LogRecord::kUpdate, ops); },
      [&] { return batch_update_impl(ops); },
      [&](const Pairs& before) { return found_flags(before, ops); });
}

void PimSkipList::batch_upsert(std::span<const std::pair<Key, Value>> ops) {
  guarded_write(
      /*repair_first=*/true, [&] { return LogRecord::of(LogRecord::kUpsert, ops); },
      [&] {
        batch_upsert_impl(ops);
        return true;
      },
      [](const Pairs&) { return true; });
}

std::vector<u8> PimSkipList::batch_delete(std::span<const Key> keys) {
  return guarded_write(
      /*repair_first=*/true, [&] { return LogRecord::of(keys); },
      [&] { return batch_delete_impl(keys); },
      [&](const Pairs& before) { return found_flags(before, keys); });
}

PimSkipList::RangeAgg PimSkipList::range_fetch_add_broadcast(Key lo, Key hi, u64 delta) {
  return guarded_write(
      /*repair_first=*/true,
      [&] {
        PIM_CHECK(lo <= hi, "range_fetch_add_broadcast: lo > hi");  // log only valid ranges
        LogRecord r;
        r.kind = LogRecord::kFetchAdd;
        r.lo = lo;
        r.hi = hi;
        r.delta = delta;
        return r;
      },
      [&] { return range_fetch_add_broadcast_impl(lo, hi, delta); },
      [&](const Pairs& before) {
        RangeAgg agg;
        for (auto it = std::ranges::lower_bound(before, lo, {}, &Pairs::value_type::first);
             it != before.end() && it->first <= hi; ++it) {
          ++agg.count;
          agg.sum += it->second;
        }
        return agg;
      });
}

}  // namespace pim::core
