// Core structure: construction, offline build, Get/Update (§4.1), the
// remote-write/alloc handler set shared by all mutating batch operations,
// space accounting (Theorem 3.1) and the structural invariant checker.
#include <algorithm>
#include <iterator>

#include "common/math_util.hpp"
#include "core/pim_skiplist.hpp"
#include "parallel/fork_join.hpp"
#include "parallel/semisort.hpp"
#include "sim/trace.hpp"

namespace pim::core {

namespace {
/// Result strides in the mailbox.
constexpr u64 kGetStride = 2;
}  // namespace

PimSkipList::PimSkipList(sim::Machine& machine) : PimSkipList(machine, Options{}) {}

PimSkipList::PimSkipList(sim::Machine& machine, Options opts)
    : machine_(machine),
      opts_(opts),
      h_low_(std::max<u32>(1, ceil_log2(machine.modules()))),
      top_level_(std::max<u32>(1, ceil_log2(machine.modules()))),
      placement_(rnd::mix64(opts.seed ^ 0x9E3779B97F4A7C15ull), machine.modules()),
      rng_(opts.seed) {
  PIM_CHECK(opts_.max_level > h_low_ + 1, "max_level must exceed h_low");
  state_.reserve(machine.modules());
  for (ModuleId m = 0; m < machine.modules(); ++m) {
    state_.emplace_back(rng_(), rng_());
    // Reset seeds for crash recovery: pure functions of opts_.seed so
    // rebuilding a module does not advance rng_ (zero-fault runs stay
    // bit-identical whether or not recovery code exists).
    module_seeds_.emplace_back(rnd::mix64(opts.seed ^ (2 * static_cast<u64>(m) + 1)),
                               rnd::mix64(opts.seed ^ (2 * static_cast<u64>(m) + 2)));
  }
  upper_xor_.resize(machine.modules());
  machine_.add_crash_listener([this](ModuleId m) { on_module_crash(m); });
  machine_.add_mem_corrupt_listener([this](ModuleId m, u64 draw) { on_memory_corrupt(m, draw); });

  // ---- handlers ----

  h_get_ = [this](sim::ModuleCtx& ctx, std::span<const u64> a) {
    const u64 res_slot = a[0];
    const Key key = static_cast<Key>(a[1]);
    auto& st = state_[ctx.id()];
    const auto hit = st.key_to_leaf.find(key);
    ctx.charge(hit.work);
    if (hit.found) {
      const Node& leaf = st.arena.at(static_cast<Slot>(hit.value));
      ctx.charge(1);
      const u64 out[kGetStride] = {1, leaf.value};
      ctx.reply_block(res_slot, out);
    } else {
      const u64 out[kGetStride] = {0, 0};
      ctx.reply_block(res_slot, out);
    }
  };

  h_update_ = [this](sim::ModuleCtx& ctx, std::span<const u64> a) {
    const u64 res_slot = a[0];
    const Key key = static_cast<Key>(a[1]);
    const Value value = a[2];
    auto& st = state_[ctx.id()];
    const auto hit = st.key_to_leaf.find(key);
    ctx.charge(hit.work);
    if (hit.found) {
      st.arena.at(static_cast<Slot>(hit.value)).value = value;
      ctx.charge(1);
    }
    ctx.reply(res_slot, hit.found ? 1 : 0);
  };

  h_alloc_lower_ = [this](sim::ModuleCtx& ctx, std::span<const u64> a) {
    const u64 ret_slot = a[0];
    const Key key = static_cast<Key>(a[1]);
    const u32 level = static_cast<u32>(a[2]);
    const Value value = a[3];
    auto& st = state_[ctx.id()];
    const Slot slot = st.arena.allocate();
    Node& node = st.arena.at(slot);
    node.key = key;
    node.value = value;
    node.level = level;
    ctx.charge(1);
    if (level == 0) {
      ctx.charge(st.key_to_leaf.upsert(key, slot));
      ctx.charge(st.leaf_index.upsert(key, slot));
    }
    ctx.reply(ret_slot, slot);
  };

  h_alloc_upper_ = [this](sim::ModuleCtx& ctx, std::span<const u64> a) {
    // Broadcast: every replica allocates (same slot); physically applied
    // once, charged everywhere.
    ctx.charge(1);
    if (ctx.id() != 0) return;
    const u64 ret_slot = a[0];
    const Key key = static_cast<Key>(a[1]);
    const u32 level = static_cast<u32>(a[2]);
    const Slot slot = upper_.allocate();
    Node& node = upper_.at(slot);
    node.key = key;
    node.level = level;
    ctx.reply(ret_slot, slot);
  };

  h_write_ = [this](sim::ModuleCtx& ctx, std::span<const u64> a) { apply_write(ctx, a); };

  h_search_ = [this](sim::ModuleCtx& ctx, std::span<const u64> a) { search_step(ctx, a); };

  init_upsert_handlers();
  init_delete_handlers();
  init_range_handlers();
  init_expand_handlers();
  init_recovery_handlers();
  init_scrub_handlers();
  init_degraded_handlers();

  init_heads();
}

// Head tower (the paper's -inf node at every level). Also used by
// rebuild_from_logical after wiping the arenas.
void PimSkipList::init_heads() {
  head_upper_.assign(opts_.max_level + 1, kNullSlot);
  head_lower_.assign(h_low_, GPtr::null());
  for (u32 level = 0; level < h_low_; ++level) {
    const GPtr p = lower_gptr(kMinKey, level);
    auto& st = state_[p.module];
    const Slot slot = st.arena.allocate();
    Node& node = st.arena.at(slot);
    node.key = kMinKey;
    node.level = level;
    head_lower_[level] = GPtr{p.module, slot};
    if (level > 0) {
      node.down = head_lower_[level - 1];
      node_at(head_lower_[level - 1]).up = head_lower_[level];
    }
  }
  for (u32 level = h_low_; level <= opts_.max_level; ++level) {
    const Slot slot = upper_.allocate();
    Node& node = upper_.at(slot);
    node.key = kMinKey;
    node.level = level;
    head_upper_[level] = slot;
    if (level == h_low_) {
      node.down = head_lower_[h_low_ - 1];
      node_at(head_lower_[h_low_ - 1]).up = GPtr::replicated(slot);
    } else {
      node.down = GPtr::replicated(head_upper_[level - 1]);
      upper_.at(head_upper_[level - 1]).up = GPtr::replicated(slot);
    }
  }
}

GPtr PimSkipList::head_at(u32 level) const {
  if (level < h_low_) return head_lower_[level];
  return GPtr::replicated(head_upper_[level]);
}

GPtr PimSkipList::lower_gptr(Key key, u32 level) const {
  return GPtr{placement_.module_of(key, level), 0};
}

Node& PimSkipList::node_at(GPtr p) {
  PIM_DCHECK(!p.is_null(), "deref of null GPtr");
  if (p.is_replicated()) return upper_.at(p.slot);
  return state_[p.module].arena.at(p.slot);
}

const Node& PimSkipList::node_at(GPtr p) const {
  PIM_DCHECK(!p.is_null(), "deref of null GPtr");
  if (p.is_replicated()) return upper_.at(p.slot);
  return state_[p.module].arena.at(p.slot);
}

// ---------------- remote writes ----------------

void PimSkipList::remote_write(GPtr target, WriteField field, u64 a, u64 b) {
  const u64 args[4] = {target.encode(), static_cast<u64>(field), a, b};
  if (target.is_replicated()) {
    machine_.broadcast(&h_write_, std::span<const u64>(args, 4));
  } else {
    machine_.send(target.module, &h_write_, std::span<const u64>(args, 4));
  }
}

void PimSkipList::apply_write(sim::ModuleCtx& ctx, std::span<const u64> args) {
  const GPtr target = GPtr::decode(args[0]);
  const auto field = static_cast<WriteField>(args[1]);
  const u64 a = args[2];
  const u64 b = args[3];
  ctx.charge(1);
  if (target.is_replicated() && ctx.id() != 0) return;  // replica charge only
  if (!target.is_replicated()) {
    PIM_CHECK(target.module == ctx.id(), "write routed to wrong module");
  }

  if (field == kWRaiseTop) {
    top_level_ = std::max(top_level_, static_cast<u32>(a));
    return;
  }
  if (field == kWFree) {
    if (target.is_replicated()) {
      upper_.release(target.slot);
    } else {
      state_[ctx.id()].arena.release(target.slot);
    }
    return;
  }

  Node& node = node_at(target);
  switch (field) {
    case kWRight:
      node.right = GPtr::decode(a);
      node.right_key = static_cast<Key>(b);
      break;
    case kWLeft:
      node.left = GPtr::decode(a);
      break;
    case kWUp:
      node.up = GPtr::decode(a);
      break;
    case kWDown:
      node.down = GPtr::decode(a);
      break;
    case kWValue:
      node.value = a;
      break;
    case kWMark:
      node.flags |= kFlagDeleted;
      break;
    case kWTowerAppend: {
      // Level-indexed (b = 1-based tower level): retransmitted messages may
      // arrive out of FIFO order under fault injection, so the write names
      // its position instead of relying on arrival order.
      const u32 tower_level = static_cast<u32>(b);
      PIM_CHECK(tower_level >= 1, "tower write needs a 1-based level");
      auto& arena = target.is_replicated() ? upper_ : state_[ctx.id()].arena;
      LeafMeta& meta = arena.leaf_meta(target.slot);
      const u64 old_words = meta.words();
      if (meta.tower.size() < tower_level) meta.tower.resize(tower_level, GPtr::null());
      meta.tower[tower_level - 1] = GPtr::decode(a);
      arena.recharge_leaf_meta(old_words, target.slot);
      break;
    }
    case kWUpperInfo: {
      auto& arena = target.is_replicated() ? upper_ : state_[ctx.id()].arena;
      LeafMeta& meta = arena.leaf_meta(target.slot);
      meta.upper_base = static_cast<Slot>(a);
      meta.upper_top_level = static_cast<u32>(b);
      break;
    }
    default:
      PIM_CHECK(false, "unknown write field");
  }
}

// ---------------- contention probe ----------------

void PimSkipList::probe_touch(GPtr p) {
  if (!opts_.track_contention || p.is_replicated() || p.is_null()) return;
  ++state_[p.module].probe[p.encode()];
}

void PimSkipList::probe_reset() {
  if (!opts_.track_contention) return;
  for (auto& st : state_) st.probe.clear();
}

u64 PimSkipList::probe_max() const {
  u64 max_access = 0;
  for (const auto& st : state_) {
    for (const auto& [ptr, count] : st.probe) max_access = std::max<u64>(max_access, count);
  }
  return max_access;
}

// ---------------- offline bulk build ----------------

void PimSkipList::offline_insert_tower(Key key, Value value, u32 height) {
  // Direct, unmetered insert used only by build().
  const u32 top = std::min(height, opts_.max_level);
  if (top > top_level_) top_level_ = top;

  // Predecessor at every level <= top.
  std::vector<GPtr> preds(top + 1);
  GPtr cur = head_at(top_level_);
  for (i32 level = static_cast<i32>(top_level_); level >= 0; --level) {
    while (node_at(cur).right_key < key) cur = node_at(cur).right;
    if (level <= static_cast<i32>(top)) preds[level] = cur;
    if (level > 0) cur = node_at(cur).down;
  }

  // Allocate tower nodes bottom-up.
  std::vector<GPtr> tower(top + 1);
  for (u32 level = 0; level <= top; ++level) {
    if (level < h_low_) {
      const ModuleId m = placement_.module_of(key, level);
      auto& st = state_[m];
      const Slot slot = st.arena.allocate();
      tower[level] = GPtr{m, slot};
    } else {
      tower[level] = GPtr::replicated(upper_.allocate());
    }
    Node& node = node_at(tower[level]);
    node.key = key;
    node.level = level;
    if (level == 0) node.value = value;
    if (level > 0) {
      node.down = tower[level - 1];
      node_at(tower[level - 1]).up = tower[level];
    }
  }

  // Horizontal links.
  for (u32 level = 0; level <= top; ++level) {
    Node& pred = node_at(preds[level]);
    Node& fresh = node_at(tower[level]);
    fresh.right = pred.right;
    fresh.right_key = pred.right_key;
    fresh.left = preds[level];
    if (!pred.right.is_null()) node_at(pred.right).left = tower[level];
    pred.right = tower[level];
    pred.right_key = key;
  }

  // Leaf-side bookkeeping.
  const GPtr leaf = tower[0];
  auto& st = state_[leaf.module];
  st.key_to_leaf.upsert(key, leaf.slot);
  st.leaf_index.upsert(key, leaf.slot);
  LeafMeta& meta = st.arena.leaf_meta(leaf.slot);
  const u64 old_words = meta.words();
  for (u32 level = 1; level <= std::min(top, h_low_ - 1); ++level) meta.tower.push_back(tower[level]);
  if (top >= h_low_) {
    meta.upper_base = tower[h_low_].slot;
    meta.upper_top_level = top;
  }
  st.arena.recharge_leaf_meta(old_words, leaf.slot);
  ++size_;
}

void PimSkipList::build(std::span<const std::pair<Key, Value>> sorted_unique) {
  PIM_CHECK(machine_.down_count() == 0, "build with a crashed module");
  for (u64 i = 0; i < sorted_unique.size(); ++i) {
    if (i > 0) {
      PIM_CHECK(sorted_unique[i - 1].first < sorted_unique[i].first,
                "build input must be sorted and unique");
    }
    PIM_CHECK(sorted_unique[i].first != kMinKey, "kMinKey is reserved");
  }
  for (const auto& [key, value] : sorted_unique) {
    offline_insert_tower(key, value, draw_height());
  }
  // Keep the recovery checkpoint in step: build bypasses the log, so
  // merge its keys into the checkpoint directly. If journaled mutations are
  // already queued the ordering is ambiguous — invalidate and let the next
  // fault-mode operation re-checkpoint from the structure.
  if (log_.size() == 0) {
    Pairs contents;
    contents.reserve(log_.checkpoint().size() + sorted_unique.size());
    std::ranges::merge(log_.checkpoint(), sorted_unique, std::back_inserter(contents), {},
                       &Pairs::value_type::first, &Pairs::value_type::first);
    log_.reset(std::move(contents));
  } else {
    journal_valid_ = false;
  }
}

// ---------------- Get / Update (§4.1) ----------------

namespace {

/// Identity grouping used by the dedup-ablation mode.
par::DedupResult identity_groups(u64 n) {
  par::DedupResult dd;
  dd.representatives.resize(n);
  dd.group_of.resize(n);
  par::parallel_for(n, [&](u64 i) {
    dd.representatives[i] = i;
    dd.group_of[i] = i;
    par::charge_work(1);
  }, /*grain=*/256);
  return dd;
}

}  // namespace

std::vector<PimSkipList::GetResult> PimSkipList::batch_get_impl(std::span<const Key> keys) {
  const u64 n = keys.size();
  std::vector<GetResult> results(n);
  if (n == 0) return results;
  sim::TraceScope trace(machine_, "get:dedup+route");

  // CPU: semisort-based dedup (expected O(n) work).
  const auto dd = opts_.disable_dedup ? identity_groups(n)
                                      : par::dedup_keys(keys, rnd::KeyedHash(rng_()));
  const u64 distinct = dd.representatives.size();

  machine_.mailbox().assign(distinct * kGetStride, 0);
  par::charge_work(distinct * kGetStride);

  // TaskSend one Get per distinct key to its hash module. Sends are
  // issued sequentially by the simulator but are independent TaskSends by
  // parallel CPU cores; charged as flat work + log depth. Routed through
  // the admission layer so bounded ingress queues (max_queue_depth > 0)
  // can spill overflow into backoff waves; with the default unbounded
  // queues this is exactly the plain send loop.
  par::charged_region(ceil_log2(distinct + 2), [&] {
    std::vector<sim::Message> msgs;
    msgs.reserve(distinct);
    for (u64 d = 0; d < distinct; ++d) {
      const Key key = keys[dd.representatives[d]];
      const u64 args[2] = {d * kGetStride, static_cast<u64>(key)};
      msgs.push_back(sim::Message{placement_.module_of(key, 0),
                                  sim::make_task(&h_get_, std::span<const u64>(args, 2))});
      par::charge_work(1);
    }
    machine_.send_all_admitted(msgs);
  });

  machine_.run_until_quiescent();

  // Scatter results back to every (possibly duplicate) position.
  const auto& mail = machine_.mailbox();
  par::parallel_for(n, [&](u64 i) {
    const u64 base = dd.group_of[i] * kGetStride;
    results[i].found = mail[base] != 0;
    results[i].value = mail[base + 1];
    par::charge_work(1);
  }, /*grain=*/256);
  return results;
}

std::vector<u8> PimSkipList::batch_update_impl(std::span<const std::pair<Key, Value>> ops) {
  const u64 n = ops.size();
  std::vector<u8> found(n, 0);
  if (n == 0) return found;
  sim::TraceScope trace(machine_, "update:dedup+route");

  std::vector<Key> keys(n);
  par::parallel_for(n, [&](u64 i) {
    keys[i] = ops[i].first;
    par::charge_work(1);
  }, /*grain=*/256);
  const auto dd = opts_.disable_dedup
                      ? identity_groups(n)
                      : par::dedup_keys(std::span<const Key>(keys), rnd::KeyedHash(rng_()));
  const u64 distinct = dd.representatives.size();

  machine_.mailbox().assign(distinct, 0);
  par::charge_work(distinct);
  par::charged_region(ceil_log2(distinct + 2), [&] {
    std::vector<sim::Message> msgs;
    msgs.reserve(distinct);
    for (u64 d = 0; d < distinct; ++d) {
      const auto& [key, value] = ops[dd.representatives[d]];
      const u64 args[3] = {d, static_cast<u64>(key), value};
      msgs.push_back(sim::Message{placement_.module_of(key, 0),
                                  sim::make_task(&h_update_, std::span<const u64>(args, 3))});
      par::charge_work(1);
    }
    machine_.send_all_admitted(msgs);
  });

  machine_.run_until_quiescent();

  const auto& mail = machine_.mailbox();
  par::parallel_for(n, [&](u64 i) {
    found[i] = static_cast<u8>(mail[dd.group_of[i]]);
    par::charge_work(1);
  }, /*grain=*/256);
  return found;
}

// ---------------- space accounting (Theorem 3.1) ----------------

u64 PimSkipList::module_space_words(ModuleId m) const {
  PIM_CHECK(m < state_.size(), "bad module id");
  const auto& st = state_[m];
  // Every module stores a full replica of the upper part.
  return st.arena.words() + upper_.words() + st.key_to_leaf.words() + st.leaf_index.words();
}

u64 PimSkipList::total_words() const {
  u64 total = 0;
  for (ModuleId m = 0; m < state_.size(); ++m) total += module_space_words(m);
  return total;
}

// ---------------- invariant checker ----------------

void PimSkipList::check_invariants() const {
  const u32 modules = machine_.modules();

  // Per-level walk: order, link symmetry, key cache, placement, vertical
  // consistency, subsequence property.
  std::vector<u64> level_count(opts_.max_level + 1, 0);
  for (u32 level = 0; level <= top_level_; ++level) {
    GPtr cur = head_at(level);
    Key prev_key = kMinKey;
    bool first = true;
    u64 count = 0;
    while (!cur.is_null()) {
      const Node& node = node_at(cur);
      PIM_CHECK(node.level == level, "node level mismatch");
      PIM_CHECK(!node.deleted(), "deleted node still linked");
      PIM_CHECK(first || node.key > prev_key, "keys not strictly ascending");
      first = false;
      prev_key = node.key;
      // placement
      if (level < h_low_) {
        PIM_CHECK(!cur.is_replicated(), "lower-part node marked replicated");
        PIM_CHECK(cur.module == placement_.module_of(node.key, level),
                  "lower-part node on wrong module");
      } else {
        PIM_CHECK(cur.is_replicated(), "upper-part node not replicated");
      }
      // right link symmetry and key cache
      if (!node.right.is_null()) {
        const Node& right = node_at(node.right);
        PIM_CHECK(right.left == cur, "left/right symmetry violated");
        PIM_CHECK(node.right_key == right.key, "right_key cache stale");
      } else {
        PIM_CHECK(node.right_key == kMaxKey, "null right must cache kMaxKey");
      }
      // vertical
      if (!node.up.is_null()) {
        const Node& up = node_at(node.up);
        PIM_CHECK(up.key == node.key && up.level == level + 1, "up pointer broken");
        PIM_CHECK(up.down == cur, "up/down symmetry violated");
      }
      if (level > 0) {
        PIM_CHECK(!node.down.is_null(), "non-leaf without down pointer");
        const Node& down = node_at(node.down);
        PIM_CHECK(down.key == node.key && down.level == level - 1, "down pointer broken");
      }
      ++count;
      cur = node.right;
    }
    level_count[level] = count;
    if (level > 0) {
      PIM_CHECK(level_count[level] <= level_count[level - 1],
                "level population must shrink going up");
    }
  }
  PIM_CHECK(level_count[0] == size_ + 1, "leaf count != size (+head)");

  // Hash tables and leaf indexes agree with the leaves on each module.
  u64 hashed_total = 0;
  for (ModuleId m = 0; m < modules; ++m) {
    const auto& st = state_[m];
    u64 local_leaves = 0;
    for (Slot slot = 0; slot < st.arena.capacity(); ++slot) {
      if (!st.arena.live(slot)) continue;
      const Node& node = st.arena.at(slot);
      if (node.level != 0 || node.key == kMinKey) continue;
      ++local_leaves;
      const auto hit = st.key_to_leaf.find(node.key);
      PIM_CHECK(hit.found && hit.value == slot, "hash table does not map key to its leaf");
      const auto idx = st.leaf_index.find(node.key);
      PIM_CHECK(idx.found && idx.value == slot, "leaf index does not map key to its leaf");
    }
    PIM_CHECK(st.key_to_leaf.size() == local_leaves, "hash table size mismatch");
    PIM_CHECK(st.leaf_index.size() == local_leaves, "leaf index size mismatch");
    hashed_total += local_leaves;
  }
  PIM_CHECK(hashed_total == size_, "sum of module leaves != size");

  // Leaf metadata matches the true tower.
  GPtr leaf = head_at(0);
  leaf = node_at(leaf).right;  // skip head
  while (!leaf.is_null()) {
    const Node& node = node_at(leaf);
    const LeafMeta* meta = state_[leaf.module].arena.find_leaf_meta(leaf.slot);
    // Walk the real tower.
    std::vector<GPtr> chain;
    GPtr up = node.up;
    while (!up.is_null() && !up.is_replicated()) {
      chain.push_back(up);
      up = node_at(up).up;
    }
    const bool has_upper = !up.is_null();
    if (chain.empty() && !has_upper) {
      PIM_CHECK(meta == nullptr || (meta->tower.empty() && meta->upper_base == kNullSlot),
                "leaf meta records a tower that does not exist");
    } else {
      PIM_CHECK(meta != nullptr, "leaf with tower lacks meta");
      PIM_CHECK(meta->tower.size() == chain.size(), "leaf meta tower length mismatch");
      for (u64 i = 0; i < chain.size(); ++i) {
        PIM_CHECK(meta->tower[i] == chain[i], "leaf meta tower entry mismatch");
      }
      if (has_upper) {
        PIM_CHECK(meta->upper_base == up.slot, "leaf meta upper base mismatch");
      } else {
        PIM_CHECK(meta->upper_base == kNullSlot, "leaf meta claims upper part wrongly");
      }
    }
    leaf = node.right;
  }
}

}  // namespace pim::core
