// Degraded-mode operation (DESIGN.md §5.7): partial-batch entry points
// that keep serving while modules are down.
//
// The guarded entry points (recovery.cpp) buy availability by repairing
// first: ensure_healthy() recovers every down module before the batch
// runs. The *_partial variants make the opposite trade — with modules
// down they serve what they can NOW, per key:
//  * a key homed on a dead module gets Status kUnavailable;
//  * every other key is served through its normal hash route and gets
//    kOk plus the usual result.
// Admitted mutations are journaled (admitted sub-batch only, original
// order), so replaying checkpoint + journal still reproduces the logical
// contents exactly; the next recover(m) — or any guarded operation's
// ensure_healthy() — converges the physical structure.
//
// Structural debt, by design: a degraded upsert lands a new key as an
// UNLINKED height-0 leaf (arena + hash + index only), and a degraded
// delete frees the leaf and its live tower nodes without splicing the
// lower lists (neighbors keep dangling pointers). Both are healed by
// recovery's full lower-part relink (offline_restore_module), which
// rebuilds every lower-level link from the journal plus surviving
// evidence. Until then only hash-routed point access — i.e. these
// partial ops — is valid; the guarded ops repair before touching links.
// The replicated upper chain of a deleted tower IS spliced eagerly (it
// is readable locally and recovery re-streams rather than rebuilds it).
//
// Mid-batch failure escalates exactly like the guarded mutations, through
// the same guarded_write: abort, rebuild from checkpoint + log (the
// admitted sub-batch commits atomically), synthesize results on the CPU.
// A kDeadlineExceeded still commits first, then propagates.
#include <string>
#include <type_traits>
#include <unordered_map>

#include "common/math_util.hpp"
#include "core/pim_skiplist.hpp"
#include "parallel/cost_model.hpp"
#include "sim/trace.hpp"

namespace pim::core {

namespace {
constexpr u64 kGetStride = 2;  // h_get_ reply layout: [found, value]

Status unavailable(ModuleId m) {
  return Status(StatusCode::kUnavailable,
                "module " + std::to_string(m) + " is down (degraded mode; recover it "
                                                "or run a guarded operation to heal)");
}
}  // namespace

void PimSkipList::init_degraded_handlers() {
  // Hash-routed upsert that performs NO pointer linking: an existing leaf
  // is updated in place; a new key lands as an unlinked height-0 leaf.
  // args: [res_slot, key, value]; reply: 1 if inserted, 0 if updated.
  h_upsert_direct_ = [this](sim::ModuleCtx& ctx, std::span<const u64> a) {
    const u64 res_slot = a[0];
    const Key key = static_cast<Key>(a[1]);
    const Value value = a[2];
    auto& st = state_[ctx.id()];
    const auto hit = st.key_to_leaf.find(key);
    ctx.charge(hit.work);
    if (hit.found) {
      st.arena.at(static_cast<Slot>(hit.value)).value = value;
      ctx.charge(1);
      ctx.reply(res_slot, 0);
      return;
    }
    const Slot slot = st.arena.allocate();
    Node& node = st.arena.at(slot);
    node.key = key;
    node.value = value;
    node.level = 0;
    ctx.charge(1);
    ctx.charge(st.key_to_leaf.upsert(key, slot));
    ctx.charge(st.leaf_index.upsert(key, slot));
    ctx.reply(res_slot, 1);
  };

  // Hash-routed delete: releases the leaf, frees its lower tower nodes on
  // LIVE modules (dead ones died with their module), and splices + frees
  // the replicated upper chain locally — the physical copy is shared, so
  // one application repairs every replica. Lower-part neighbors keep
  // dangling pointers until recovery's relink. args: [res_slot, key];
  // reply: 1 if the key existed.
  h_del_direct_ = [this](sim::ModuleCtx& ctx, std::span<const u64> a) {
    const u64 res_slot = a[0];
    const Key key = static_cast<Key>(a[1]);
    auto& st = state_[ctx.id()];
    const auto hit = st.key_to_leaf.find(key);
    ctx.charge(hit.work);
    if (!hit.found) {
      ctx.reply(res_slot, 0);
      return;
    }
    const Slot leaf = static_cast<Slot>(hit.value);
    std::vector<GPtr> tower;
    Slot upper_base = kNullSlot;
    if (const LeafMeta* meta = st.arena.find_leaf_meta(leaf); meta != nullptr) {
      tower = meta->tower;
      upper_base = meta->upper_base;
    }
    ctx.charge(st.key_to_leaf.erase(key).work);
    bool erased = false;
    ctx.charge(st.leaf_index.erase(key, &erased));
    PIM_CHECK(erased, "leaf missing from local index");
    st.arena.release(leaf);
    ctx.charge(1);
    for (const GPtr& t : tower) {
      if (t.is_null() || machine_.is_down(t.module)) continue;
      const u64 args[4] = {t.encode(), static_cast<u64>(kWFree), 0, 0};
      ctx.forward(t.module, &h_write_, std::span<const u64>(args, 4));
    }
    GPtr up = upper_base == kNullSlot ? GPtr::null() : GPtr::replicated(upper_base);
    while (!up.is_null()) {
      const Node& un = upper_.at(up.slot);
      ctx.charge(1);
      if (!un.left.is_null()) {
        Node& left = node_at(un.left);
        left.right = un.right;
        left.right_key = un.right_key;
      }
      if (!un.right.is_null()) node_at(un.right).left = un.left;
      const GPtr next = un.up;
      upper_.release(up.slot);
      up = next;
    }
    ctx.reply(res_slot, 1);
  };
}

bool PimSkipList::degraded() {
  if (!machine_.fault_active()) return false;
  fail_stop_suspects();
  return machine_.down_count() > 0;
}

void PimSkipList::fail_stop_suspects() {
  if (machine_.suspect_count() == 0) return;
  for (ModuleId m = 0; m < machine_.modules(); ++m) {
    if (!machine_.is_suspect(m)) continue;
    machine_.clear_suspect(m);
    // Gray failure becomes fail-stop: the next ensure_healthy() runs a
    // surgical recover(m) instead of every batch re-losing messages into
    // a module that never answers.
    if (!machine_.is_down(m)) machine_.crash_module(m);
  }
}

// ---------------- degraded drivers ----------------
//
// Dedup here is a plain first-occurrence map, not the semisort dedup of
// the healthy drivers: degraded batches are off the cost-model golden
// path and the simple form keeps the filtered/admitted bookkeeping
// readable. CPU work is still charged per position.

std::vector<PimSkipList::PartialGet> PimSkipList::batch_get_partial(std::span<const Key> keys) {
  const u64 n = keys.size();
  sim::TraceScope trace(machine_, "partial:get");
  return guarded_read(/*repair_first=*/false, [&] {
    std::vector<PartialGet> out(n);
    if (!degraded()) {
      auto r = batch_get_impl(keys);
      for (u64 i = 0; i < n; ++i) out[i] = PartialGet{Status(), r[i].found, r[i].value};
      return out;
    }
    // Admit live-homed keys only; one message per distinct admitted key.
    std::unordered_map<Key, u64> slot_of;
    std::vector<Key> distinct;
    for (u64 i = 0; i < n; ++i) {
      if (slot_of.try_emplace(keys[i], distinct.size()).second) distinct.push_back(keys[i]);
      par::charge_work(1);
    }
    const u64 d = distinct.size();
    std::vector<ModuleId> home(d);
    std::vector<u8> dead(d, 0);
    machine_.mailbox().assign(d * kGetStride, 0);
    par::charge_work(d * kGetStride);
    par::charged_region(ceil_log2(d + 2), [&] {
      for (u64 g = 0; g < d; ++g) {
        home[g] = placement_.module_of(distinct[g], 0);
        if (machine_.is_down(home[g])) {
          dead[g] = 1;
          continue;
        }
        const u64 args[2] = {g * kGetStride, static_cast<u64>(distinct[g])};
        machine_.send(home[g], &h_get_, std::span<const u64>(args, 2));
        par::charge_work(1);
      }
    });
    machine_.run_until_quiescent();
    const auto& mail = machine_.mailbox();
    for (u64 i = 0; i < n; ++i) {
      const u64 g = slot_of.at(keys[i]);
      if (dead[g]) {
        out[i] = PartialGet{unavailable(home[g]), false, 0};
      } else {
        out[i] = PartialGet{Status(), mail[g * kGetStride] != 0, mail[g * kGetStride + 1]};
      }
      par::charge_work(1);
    }
    return out;
  });
}

template <typename Item>
LogRecord PimSkipList::admit_live(LogRecord::Kind kind, std::span<const Item> items,
                                  std::vector<ModuleId>& home, std::vector<u8>& admitted) {
  // Admit live-homed positions; log the admitted sub-batch in order.
  LogRecord rec;
  rec.kind = kind;
  for (u64 i = 0; i < items.size(); ++i) {
    home[i] = placement_.module_of(key_of(items[i]), 0);
    if (!machine_.is_down(home[i])) {
      admitted[i] = 1;
      rec.add(items[i]);
    }
    par::charge_work(1);
  }
  return rec;
}

template <typename Item>
std::unordered_map<Key, u64> PimSkipList::send_admitted(std::span<const Item> items,
                                                        const std::vector<ModuleId>& home,
                                                        const std::vector<u8>& admitted,
                                                        const sim::Handler* handler) {
  // First occurrence wins on duplicates, matching the log's replay.
  std::unordered_map<Key, u64> slot_of;
  std::vector<u64> rep;  // position of each distinct admitted key
  for (u64 i = 0; i < items.size(); ++i) {
    if (!admitted[i]) continue;
    if (slot_of.try_emplace(key_of(items[i]), rep.size()).second) rep.push_back(i);
    par::charge_work(1);
  }
  const u64 d = rep.size();
  machine_.mailbox().assign(d, 0);
  par::charge_work(d);
  par::charged_region(ceil_log2(d + 2), [&] {
    for (u64 g = 0; g < d; ++g) {
      const Item& item = items[rep[g]];
      if constexpr (std::is_same_v<Item, Key>) {
        const u64 args[2] = {g, static_cast<u64>(item)};
        machine_.send(home[rep[g]], handler, std::span<const u64>(args, 2));
      } else {
        const u64 args[3] = {g, static_cast<u64>(item.first), item.second};
        machine_.send(home[rep[g]], handler, std::span<const u64>(args, 3));
      }
      par::charge_work(1);
    }
  });
  machine_.run_until_quiescent();
  machine_.clear_round_budget();
  return slot_of;
}

std::vector<PimSkipList::PartialFlag> PimSkipList::batch_update_partial(
    std::span<const std::pair<Key, Value>> ops) {
  const u64 n = ops.size();
  sim::TraceScope trace(machine_, "partial:update");
  std::vector<PartialFlag> out(n);
  if (!degraded()) {
    auto f = batch_update(ops);
    for (u64 i = 0; i < n; ++i) out[i] = PartialFlag{Status(), f[i] != 0};
    return out;
  }
  std::vector<u8> admitted(n, 0);
  std::vector<ModuleId> home(n);
  return guarded_write(
      /*repair_first=*/false, [&] { return admit_live(LogRecord::kUpdate, ops, home, admitted); },
      [&] {
        const auto slot_of = send_admitted(ops, home, admitted, &h_update_);
        const auto& mail = machine_.mailbox();
        for (u64 i = 0; i < n; ++i) {
          out[i] = admitted[i] ? PartialFlag{Status(), mail[slot_of.at(ops[i].first)] != 0}
                               : PartialFlag{unavailable(home[i]), false};
          par::charge_work(1);
        }
        return std::move(out);
      },
      [&](const Pairs& before) {
        for (u64 i = 0; i < n; ++i) {
          out[i] = admitted[i] ? PartialFlag{Status(), find_key(before, ops[i].first) != nullptr}
                               : PartialFlag{unavailable(home[i]), false};
        }
        return std::move(out);
      });
}

std::vector<Status> PimSkipList::batch_upsert_partial(
    std::span<const std::pair<Key, Value>> ops) {
  const u64 n = ops.size();
  sim::TraceScope trace(machine_, "partial:upsert");
  std::vector<Status> out(n);
  if (!degraded()) {
    batch_upsert(ops);  // the guarded op: fully linked inserts
    return out;
  }
  std::vector<u8> admitted(n, 0);
  std::vector<ModuleId> home(n);
  return guarded_write(
      /*repair_first=*/false, [&] { return admit_live(LogRecord::kUpsert, ops, home, admitted); },
      [&] {
        (void)send_admitted(ops, home, admitted, &h_upsert_direct_);
        for (const u64 inserted : machine_.mailbox()) size_ += inserted;
        for (u64 i = 0; i < n; ++i) {
          if (!admitted[i]) out[i] = unavailable(home[i]);
          par::charge_work(1);
        }
        return std::move(out);
      },
      [&](const Pairs&) {
        for (u64 i = 0; i < n; ++i) {
          if (!admitted[i]) out[i] = unavailable(home[i]);
        }
        return std::move(out);
      });
}

std::vector<PimSkipList::PartialFlag> PimSkipList::batch_delete_partial(
    std::span<const Key> keys) {
  const u64 n = keys.size();
  sim::TraceScope trace(machine_, "partial:delete");
  std::vector<PartialFlag> out(n);
  if (!degraded()) {
    auto f = batch_delete(keys);
    for (u64 i = 0; i < n; ++i) out[i] = PartialFlag{Status(), f[i] != 0};
    return out;
  }
  std::vector<u8> admitted(n, 0);
  std::vector<ModuleId> home(n);
  return guarded_write(
      /*repair_first=*/false, [&] { return admit_live(LogRecord::kDelete, keys, home, admitted); },
      [&] {
        const auto slot_of = send_admitted(keys, home, admitted, &h_del_direct_);
        const auto& mail = machine_.mailbox();
        for (const u64 erased : mail) size_ -= erased;
        for (u64 i = 0; i < n; ++i) {
          out[i] = admitted[i] ? PartialFlag{Status(), mail[slot_of.at(keys[i])] != 0}
                               : PartialFlag{unavailable(home[i]), false};
          par::charge_work(1);
        }
        return std::move(out);
      },
      [&](const Pairs& before) {
        for (u64 i = 0; i < n; ++i) {
          out[i] = admitted[i] ? PartialFlag{Status(), find_key(before, keys[i]) != nullptr}
                               : PartialFlag{unavailable(home[i]), false};
        }
        return std::move(out);
      });
}

}  // namespace pim::core
