// ShardedPimStore core: provisioning, the route table, the two-phase
// batch split/merge dispatcher with R-way replica groups, and the
// group-level write-ahead journal that makes shard failover lossless
// for acknowledged writes.
#include "shard/sharded_store.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/error.hpp"
#include "random/hash_fn.hpp"

namespace pim::shard {

Status validate_shard_options(const ShardOptions& opts) {
  auto bad = [](std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  };
  if (opts.shards == 0) return bad("shards must be >= 1");
  if (opts.modules_per_shard == 0) return bad("modules_per_shard must be >= 1");
  if (opts.replication == 0) return bad("replication must be >= 1");
  if (opts.replication > 32) {
    return bad("replication must be <= 32 (read retarget tracks members in a bitmask)");
  }
  if (opts.write_quorum == 0 || opts.write_quorum > opts.replication) {
    return bad("write_quorum must be in [1, replication]");
  }
  if (opts.spares + opts.shards < opts.replication) {
    return bad("spares + shards must be >= replication (a group must be buildable)");
  }
  if (opts.migration_chunk == 0) return bad("migration_chunk must be > 0");
  if (opts.domain_hi <= opts.domain_lo) return bad("empty key domain");
  if (static_cast<u64>(opts.domain_hi - opts.domain_lo) / opts.shards < 1) {
    return bad("domain narrower than the shard count");
  }
  return Status{};
}

namespace {

ShardOptions validated(ShardOptions opts) {
  if (Status v = validate_shard_options(opts); !v.ok()) throw StatusError(v);
  return opts;
}

/// items[positions[0]], items[positions[1]], ...: one group's sub-batch.
template <typename T>
std::vector<T> gather(std::span<const T> items, const std::vector<u64>& positions) {
  std::vector<T> sub;
  sub.reserve(positions.size());
  for (const u64 pos : positions) sub.push_back(items[pos]);
  return sub;
}

}  // namespace

// The slot count is fixed for the store's lifetime (migration grows
// groups_, never slots_), and so is the pool sized from it.
ShardedPimStore::ShardedPimStore(ShardOptions opts)
    : opts_(validated(std::move(opts))),
      slots_(size_t{opts_.shards} * opts_.replication + opts_.spares),
      pool_(opts_.parallel_dispatch ? static_cast<u32>(slots_.size()) - 1 : 0) {
  const u32 r = opts_.replication;
  const u64 span =
      static_cast<u64>(opts_.domain_hi - opts_.domain_lo) / opts_.shards;
  groups_.resize(opts_.shards);
  for (u32 gi = 0; gi < opts_.shards; ++gi) {
    ReplicaGroup& g = groups_[gi];
    // The edge groups own the open ends of the key space, so every key
    // routes somewhere.
    g.lo = gi == 0 ? kMinKey : opts_.domain_lo + static_cast<Key>(span * gi);
    g.hi = gi + 1 == opts_.shards
               ? kMaxKey
               : opts_.domain_lo + static_cast<Key>(span * (gi + 1));
    for (u32 m = 0; m < r; ++m) {
      const u32 slot = gi * r + m;
      Shard& s = slots_[slot];
      provision(slot);
      s.state = ShardState::kLive;
      s.group = gi;
      s.lo = g.lo;
      s.hi = g.hi;
      g.members.push_back(slot);
    }
    routes_.push_back(RouteEntry{g.lo, gi});
  }
  for (u32 i = opts_.shards * r; i < slots_.size(); ++i) {
    provision(i);
    slots_[i].state = ShardState::kSpare;
  }
}

ShardedPimStore::~ShardedPimStore() = default;

void ShardedPimStore::provision(u32 slot) {
  Shard& s = slots_[slot];
  ++s.generation;
  s.machine = std::make_unique<sim::Machine>(opts_.modules_per_shard,
                                             opts_.machine_options);
  auto lopts = opts_.list_options;
  lopts.seed = rnd::mix2(rnd::mix2(opts_.seed, slot), s.generation);
  s.list = std::make_unique<core::PimSkipList>(*s.machine, lopts);
  s.list->set_op_deadline(deadline_);
  s.fail_streak = 0;
  s.base_io = 0;
  s.base_work.assign(opts_.modules_per_shard, 0);
}

// ---------------- group-level journal ----------------

bool ShardedPimStore::journal_acked(u32 group, u64 epoch, core::LogRecord record) {
  if (groups_[group].fence_epoch != epoch) {
    // The ack was earned under a configuration that no longer exists (a
    // member died / was installed / cut over since dispatch). Refuse it
    // wholesale: nothing reaches the journal or the delta tees, so a
    // zombie configuration can never make a write durable.
    ++fence_refusals_;
    return false;
  }
  if (migration_.has_value() && group == migration_->group) {
    // Writes landing in the moving range are double-entried into the
    // migration delta log; the drain replays them onto the target before
    // cutover. Replay over already-copied values is idempotent (same
    // write, same order), so a write racing the copy pass is safe.
    core::LogRecord d;
    d.kind = record.kind;
    for (const auto& op : record.ops) {
      if (op.first >= migration_->lo && op.first < migration_->hi) d.ops.push_back(op);
    }
    for (const Key k : record.keys) {
      if (k >= migration_->lo && k < migration_->hi) d.keys.push_back(k);
    }
    if (!d.ops.empty() || !d.keys.empty()) migration_->delta.push_back(std::move(d));
  }
  if (repair_.has_value() && group == repair_->group) {
    // Re-replication tees the whole record: the rebuilt member covers
    // the group's entire range.
    repair_->delta.push_back(record);
  }
  core::BatchLog& log = groups_[group].log;
  log.append(std::move(record));
  if (log.size() > core::BatchLog::kCompactLimit) log.reset(log.fold());
  return true;
}

void ShardedPimStore::drain_delta(u32 target, const std::vector<core::LogRecord>& delta,
                                  u64& applied) {
  core::PimSkipList& list = *slots_[target].list;
  for (; applied < delta.size(); ++applied) {
    const core::LogRecord& rec = delta[applied];
    try {
      switch (rec.kind) {
        case core::LogRecord::kUpsert:
          list.batch_upsert(rec.ops);
          break;
        case core::LogRecord::kUpdate:
          (void)list.batch_update(rec.ops);
          break;
        case core::LogRecord::kDelete:
          (void)list.batch_delete(rec.keys);
          break;
        case core::LogRecord::kFetchAdd:
          (void)list.range_fetch_add_broadcast(rec.lo, rec.hi, rec.delta);
          break;
      }
    } catch (const StatusError&) {
      observe_shard_health(target, true);
      throw;  // the movement stays active; its next step resumes here
    }
  }
}

void ShardedPimStore::restore_into(u32 slot, const Pairs& contents) {
  provision(slot);
  slots_[slot].list->build(contents);
}

// ---------------- routing ----------------

u32 ShardedPimStore::route_index(Key key) const {
  // Last entry with lo <= key. routes_[0].lo == kMinKey, so this always
  // resolves.
  auto it = std::upper_bound(routes_.begin(), routes_.end(), key,
                             [](Key k, const RouteEntry& e) { return k < e.lo; });
  PIM_CHECK(it != routes_.begin(), "route table does not cover kMinKey");
  return static_cast<u32>(std::distance(routes_.begin(), it) - 1);
}

Key ShardedPimStore::route_top(u64 route_idx) const {
  return route_idx + 1 < routes_.size() ? routes_[route_idx + 1].lo : kMaxKey;
}

u32 ShardedPimStore::read_member(u32 group, u32 tried) const {
  const ReplicaGroup& g = groups_[group];
  const u32 r = static_cast<u32>(g.members.size());
  // First pass honors the gray detector: skip deprioritized members.
  for (u32 i = 0; i < r; ++i) {
    const u32 mi = (g.primary + i) % r;
    if (tried & (1u << mi)) continue;
    if (g.deprioritized & (1u << mi)) continue;
    const u32 slot = g.members[mi];
    if (slots_[slot].state == ShardState::kLive) return slot;
  }
  // A slow-but-alive member still beats kNoSlot: fall back to anyone live.
  if (g.deprioritized != 0) {
    for (u32 i = 0; i < r; ++i) {
      const u32 mi = (g.primary + i) % r;
      if (tried & (1u << mi)) continue;
      const u32 slot = g.members[mi];
      if (slots_[slot].state == ShardState::kLive) return slot;
    }
  }
  return kNoSlot;
}

u32 ShardedPimStore::serving_member(u32 group, u32 tried) {
  for (;;) {
    const u32 slot = read_member(group, tried);
    if (slot == kNoSlot || !groups_[group].dirty) return slot;
    // The group is known-divergent (a live member missed an acked write).
    // Converge the chosen member against the journal replay BEFORE
    // serving from it: a retargeted or demoted-onto member can otherwise
    // answer with a value older than one the caller already observed
    // from the previous primary — breaking per-key monotonic reads.
    const Pairs want = groups_[group].log.fold();
    converge_member(group, slot, want, core::PimSkipList::pairs_digest(want), nullptr);
    if (slots_[slot].state == ShardState::kLive) return slot;
    // Convergence tripped the member's breaker; pick the next live one.
  }
}

u64 ShardedPimStore::dispatch_epoch(u32 group) {
  const u64 e = groups_[group].fence_epoch;
  if (group < aged_dispatches_.size() && aged_dispatches_[group] > 0) {
    --aged_dispatches_[group];
    return e - 1;  // the zombie hook: present a config one change behind
  }
  return e;
}

void ShardedPimStore::test_age_dispatch(u32 group, u64 count) {
  if (aged_dispatches_.size() < groups_.size()) {
    aged_dispatches_.resize(groups_.size(), 0);
  }
  aged_dispatches_[group] += count;
}

u32 ShardedPimStore::route(Key key) const {
  const u32 g = owning_group(key);
  const u32 slot = read_member(g);
  return slot == kNoSlot ? group_primary(g) : slot;
}

Status ShardedPimStore::shard_down_status(u32 group) const {
  return Status(StatusCode::kShardDown,
                "shard " + std::to_string(group) +
                    " is down (failover to a spare or revive it)");
}

Status ShardedPimStore::no_quorum_status(u32 group, u32 acked) const {
  return Status(StatusCode::kNoQuorum,
                "group " + std::to_string(group) + " write reached " +
                    std::to_string(acked) + " replicas, quorum is " +
                    std::to_string(opts_.write_quorum) + " (not acknowledged)");
}

Status ShardedPimStore::fenced_status(u32 group, u64 seen, u64 current) const {
  return Status(StatusCode::kFencedEpoch,
                "group " + std::to_string(group) +
                    " configuration changed under the operation (epoch " +
                    std::to_string(seen) + " -> " + std::to_string(current) +
                    "); result refused, retry observes the new configuration");
}

// ---------------- dispatch ----------------

void ShardedPimStore::observe_shard_health(u32 slot, bool wave_failed) {
  Shard& s = slots_[slot];
  if (s.state == ShardState::kDead || s.machine == nullptr) return;
  // Machine-level verdict: every module down means the rack is gone —
  // there is nothing left for module recovery to run on. Applies to
  // spares too (a migration target can die mid-copy).
  if (s.machine->down_count() == s.machine->modules()) {
    kill_shard(slot);
    return;
  }
  if (s.state != ShardState::kLive) return;  // spares carry no fail streak
  if (wave_failed) {
    if (++s.fail_streak >= opts_.shard_breaker_strikes) kill_shard(slot);
  } else {
    s.fail_streak = 0;
  }
}

// ---------------- bulk build ----------------

void ShardedPimStore::build(std::span<const std::pair<Key, Value>> sorted_unique) {
  // Gather per-group slices in route order: a group's routes are
  // contiguous and ascending, so the concatenation stays sorted. Every
  // member gets the identical slice (replicas differ only in layout).
  std::vector<std::vector<std::pair<Key, Value>>> per_group(groups_.size());
  for (const auto& kv : sorted_unique) {
    per_group[owning_group(kv.first)].push_back(kv);
  }
  for (u32 gi = 0; gi < groups_.size(); ++gi) {
    if (per_group[gi].empty()) continue;
    ReplicaGroup& g = groups_[gi];
    for (const u32 slot : g.members) {
      Shard& s = slots_[slot];
      PIM_CHECK(s.state == ShardState::kLive, "build routed keys to a non-live shard");
      s.list->build(per_group[gi]);
    }
    g.log.reset(std::move(per_group[gi]));
  }
}

// ---------------- batch point operations ----------------

std::vector<ShardedPimStore::GetResult> ShardedPimStore::batch_get(
    std::span<const Key> keys) {
  if (opts_.quorum_reads && opts_.write_quorum > 1) return quorum_batch_get(keys);
  const u64 n = keys.size();
  std::vector<GetResult> out(n);

  // Reads retarget: each pending job remembers which member indexes it
  // already tried; a wave that fails (whole sub-batch or per-key) moves
  // to the next live member until none are left. With R = 1 this
  // degenerates to exactly the single-attempt PR 6 path.
  struct Job : WaveJob<std::vector<core::PimSkipList::PartialGet>> {
    u32 tried = 0;  // bitmask of member indexes attempted
    std::vector<u64> positions;
    u32 fence_retries = 0;  // re-dispatches after a configuration change
  };
  std::vector<Job> pending;
  for (auto& [group, positions] :
       split_by_group(n, [&](u64 i) { return owning_group(keys[i]); })) {
    Job j;
    j.group = group;
    j.positions = std::move(positions);
    pending.push_back(std::move(j));
  }

  while (!pending.empty()) {
    std::vector<Job> jobs;
    for (Job& j : pending) {
      const u32 slot = serving_member(j.group, j.tried);
      if (slot == kNoSlot) {  // no live member left to try
        const Status down = shard_down_status(j.group);
        for (u64 pos : j.positions) out[pos].status = down;
        continue;
      }
      j.epoch = dispatch_epoch(j.group);
      j.calls = {{slot, {}, {}}};
      jobs.push_back(std::move(j));
    }
    run_wave(jobs, [&](core::PimSkipList& list, const Job& j) {
      return list.batch_get_partial(gather(keys, j.positions));
    });

    pending.clear();
    settle_wave(
        jobs,
        [&](Job& j, const Status& fenced) {
          // Re-dispatch a zombie job once, from the primary, at the new
          // epoch.
          if (j.fence_retries++ == 0) {
            j.tried = 0;
            pending.push_back(std::move(j));
          } else {
            for (u64 pos : j.positions) out[pos] = GetResult{fenced};
          }
        },
        [&](Job& j) {
          const auto& c = j.calls.front();
          Job retry;
          retry.group = j.group;
          retry.tried = j.tried | (1u << groups_[j.group].rank_of(c.slot));
          for (u64 k = 0; k < j.positions.size(); ++k) {
            const u64 pos = j.positions[k];
            if (c.failure.has_value()) {
              out[pos].status = *c.failure;
              retry.positions.push_back(pos);
              continue;
            }
            const auto& r = c.out[k];
            out[pos] = GetResult{r.status, r.found, r.value};
            if (!r.status.ok()) retry.positions.push_back(pos);
          }
          if (!retry.positions.empty()) pending.push_back(std::move(retry));
        });
    // A retry needs a live member it has not tried yet, counted after
    // this wave fed the breaker.
    std::erase_if(pending, [&](const Job& j) {
      return j.tried != 0 && read_member(j.group, j.tried) == kNoSlot;
    });
  }
  return out;
}

std::vector<ShardedPimStore::GetResult> ShardedPimStore::quorum_batch_get(
    std::span<const Key> keys) {
  // Read-your-quorum: consult max(write_quorum, R - write_quorum + 1)
  // live members per group. Agreement of that many members implies the
  // value is the latest ACKED state: the consult set intersects every
  // write quorum (so no acked write can be missed by all of them), and
  // is at least write_quorum wide (so a refused write, applied on fewer
  // members, can never reach agreement). Any disagreement — and any
  // per-key fault, and a group with too few live members — resolves
  // from the group journal's replay, which is authoritative by
  // construction.
  const u64 n = keys.size();
  std::vector<GetResult> out(n);

  struct Job : WaveJob<std::vector<core::PimSkipList::PartialGet>> {
    std::vector<u64> positions;
    std::vector<Key> sub;
  };
  std::vector<Job> jobs;
  for (auto& [group, positions] :
       split_by_group(n, [&](u64 i) { return owning_group(keys[i]); })) {
    const ReplicaGroup& g = groups_[group];
    const u32 r = static_cast<u32>(g.members.size());
    const u32 wq = opts_.write_quorum;
    const u32 want = std::max(wq, r >= wq ? r - wq + 1 : 1u);
    Job j;
    j.group = group;
    j.epoch = dispatch_epoch(group);
    j.positions = std::move(positions);
    for (u32 i = 0; i < r && j.calls.size() < want; ++i) {
      const u32 slot = g.members[(g.primary + i) % r];
      if (slots_[slot].state == ShardState::kLive) j.calls.push_back({slot, {}, {}});
    }
    if (j.calls.empty()) {
      const Status down = shard_down_status(group);
      for (u64 pos : j.positions) out[pos].status = down;
      continue;
    }
    if (j.calls.size() < want) {
      j.calls.clear();  // a partial consult can neither agree nor refuse
    } else {
      j.sub = gather(keys, j.positions);
    }
    jobs.push_back(std::move(j));
  }
  run_wave(jobs, [](core::PimSkipList& list, const Job& j) {
    return list.batch_get_partial(j.sub);
  });

  settle_wave(
      jobs,
      [&](Job& j, const Status& fenced) {
        for (u64 pos : j.positions) out[pos] = GetResult{fenced};
      },
      [&](Job& j) {
        ReplicaGroup& g = groups_[j.group];
        std::optional<Pairs> replay;
        for (u64 k = 0; k < j.positions.size(); ++k) {
          // A job with no calls (too few live members) resolves every key.
          bool agree = !j.calls.empty();
          const core::PimSkipList::PartialGet* first = nullptr;
          for (const auto& c : j.calls) {
            if (c.failure.has_value() || !c.out[k].status.ok()) {
              agree = false;
              break;
            }
            if (first == nullptr) {
              first = &c.out[k];
            } else if (c.out[k].found != first->found ||
                       (first->found && c.out[k].value != first->value)) {
              agree = false;
            }
          }
          const u64 pos = j.positions[k];
          if (agree) {
            out[pos] = GetResult{first->status, first->found, first->value};
            continue;
          }
          if (!replay.has_value()) replay = g.log.fold();
          ++quorum_read_resolves_;
          const auto* hit = core::find_key(*replay, keys[pos]);
          out[pos] = hit == nullptr ? GetResult{} : GetResult{Status{}, true, hit->second};
          if (!j.calls.empty()) g.dirty = true;  // a consulted member lagged or faulted
        }
      });
  return out;
}

template <typename Sub, typename Partial, typename Run, typename StatusOf,
          typename Emit>
void ShardedPimStore::replicated_write(std::span<const Sub> items,
                                       core::LogRecord::Kind kind, Run&& run,
                                       StatusOf&& status_of, Emit&& emit) {
  struct Job : WaveJob<std::vector<Partial>> {
    std::vector<u64> positions;
    std::vector<Sub> sub;
  };
  std::vector<Job> jobs;
  for (auto& [group, positions] : split_by_group(
           items.size(), [&](u64 i) { return owning_group(core::key_of(items[i])); })) {
    Job j;
    j.group = group;
    j.epoch = dispatch_epoch(group);
    j.positions = std::move(positions);
    for (const u32 slot : groups_[group].members) {
      if (slots_[slot].state == ShardState::kLive) j.calls.push_back({slot, {}, {}});
    }
    if (j.calls.empty()) {
      const Status down = shard_down_status(group);
      for (u64 p : j.positions) emit(p, down, nullptr);
      continue;
    }
    j.sub = gather(items, j.positions);
    jobs.push_back(std::move(j));
  }
  run_wave(jobs, [&](core::PimSkipList& list, const Job& j) { return run(list, j.sub); });

  const u32 quorum = opts_.write_quorum;
  settle_wave(
      jobs,
      [&](Job& j, const Status& fenced) {
        // Zombie wave: nothing is acked, nothing is journaled. (The
        // caller retries and observes the new configuration; survivors
        // holding the un-acked application are rolled back by
        // anti-entropy, exactly like a kNoQuorum refusal.)
        for (u64 p : j.positions) emit(p, fenced, nullptr);
        groups_[j.group].dirty = true;
      },
      [&](Job& j) {
        ReplicaGroup& g = groups_[j.group];
        core::LogRecord rec;
        rec.kind = kind;
        for (u64 k = 0; k < j.positions.size(); ++k) {
          u32 acked = 0;
          const Partial* sample = nullptr;
          Status first_err;
          bool any_err = false;
          for (const auto& c : j.calls) {
            const Status& st = c.failure.has_value() ? *c.failure : status_of(c.out[k]);
            if (st.ok()) {
              ++acked;
              if (sample == nullptr) sample = &c.out[k];
            } else if (!any_err) {
              first_err = st;
              any_err = true;
            }
          }
          if (acked >= quorum) {
            emit(j.positions[k], status_of(*sample), sample);
            rec.add(j.sub[k]);
            // A live member missed a write the group acked: its contents
            // now lag the journal until anti-entropy repairs it.
            if (any_err) g.dirty = true;
          } else if (acked > 0) {
            emit(j.positions[k], no_quorum_status(j.group, acked), nullptr);
            g.dirty = true;
          } else {
            emit(j.positions[k], first_err, nullptr);
          }
        }
        if (!rec.ops.empty() || !rec.keys.empty()) {
          const bool accepted = journal_acked(j.group, j.epoch, std::move(rec));
          PIM_CHECK(accepted, "journal refused an ack the merge just fenced-checked");
        }
      });
}

std::vector<Status> ShardedPimStore::batch_upsert(
    std::span<const std::pair<Key, Value>> ops) {
  std::vector<Status> out(ops.size());
  replicated_write<std::pair<Key, Value>, Status>(
      ops, core::LogRecord::kUpsert,
      [](core::PimSkipList& list, const std::vector<std::pair<Key, Value>>& sub) {
        return list.batch_upsert_partial(sub);
      },
      [](const Status& st) -> const Status& { return st; },
      [&](u64 pos, const Status& st, const Status*) { out[pos] = st; });
  return out;
}

std::vector<ShardedPimStore::FlagResult> ShardedPimStore::batch_update(
    std::span<const std::pair<Key, Value>> ops) {
  std::vector<FlagResult> out(ops.size());
  replicated_write<std::pair<Key, Value>, core::PimSkipList::PartialFlag>(
      ops, core::LogRecord::kUpdate,
      [](core::PimSkipList& list, const std::vector<std::pair<Key, Value>>& sub) {
        return list.batch_update_partial(sub);
      },
      [](const core::PimSkipList::PartialFlag& r) -> const Status& { return r.status; },
      [&](u64 pos, const Status& st, const core::PimSkipList::PartialFlag* r) {
        out[pos] = FlagResult{st, r != nullptr && r->found};
      });
  return out;
}

std::vector<ShardedPimStore::FlagResult> ShardedPimStore::batch_delete(
    std::span<const Key> keys) {
  std::vector<FlagResult> out(keys.size());
  replicated_write<Key, core::PimSkipList::PartialFlag>(
      keys, core::LogRecord::kDelete,
      [](core::PimSkipList& list, const std::vector<Key>& sub) {
        return list.batch_delete_partial(sub);
      },
      [](const core::PimSkipList::PartialFlag& r) -> const Status& { return r.status; },
      [&](u64 pos, const Status& st, const core::PimSkipList::PartialFlag* r) {
        out[pos] = FlagResult{st, r != nullptr && r->found};
      });
  return out;
}

// ---------------- observability ----------------

ShardedPimStore::ShardLoadStats ShardedPimStore::shard_load(u32 slot) const {
  ShardLoadStats stats;
  const Shard& s = slots_[slot];
  if (s.machine == nullptr) return stats;
  stats.io_time = s.machine->io_time() - s.base_io;
  const u32 p = s.machine->modules();
  double sum = 0, sq = 0;
  for (u32 m = 0; m < p; ++m) {
    const u64 base = m < s.base_work.size() ? s.base_work[m] : 0;
    const double w = static_cast<double>(s.machine->module_work(m) - base);
    stats.pim_work += static_cast<u64>(w);
    sum += w;
    sq += w * w;
  }
  if (sum > 0) {
    const double mean = sum / p;
    const double var = sq / p - mean * mean;
    stats.module_cov = mean > 0 ? std::sqrt(std::max(0.0, var)) / mean : 0.0;
  }
  u64 total_io = 0;
  for (const Shard& other : slots_) {
    if (other.state == ShardState::kLive && other.machine != nullptr) {
      total_io += other.machine->io_time() - other.base_io;
    }
  }
  stats.io_share =
      total_io > 0 ? static_cast<double>(stats.io_time) / static_cast<double>(total_io)
                   : 0.0;
  return stats;
}

void ShardedPimStore::reset_load_stats() {
  for (Shard& s : slots_) {
    if (s.machine == nullptr) continue;
    s.base_io = s.machine->io_time();
    s.base_work.resize(s.machine->modules());
    for (u32 m = 0; m < s.machine->modules(); ++m) s.base_work[m] = s.machine->module_work(m);
  }
}

std::pair<Key, Key> ShardedPimStore::shard_range(u32 slot) const {
  const Shard& s = slots_[slot];
  if (s.group != kNoGroup) return {groups_[s.group].lo, groups_[s.group].hi};
  return {s.lo, s.hi};
}

u32 ShardedPimStore::live_shards() const {
  u32 n = 0;
  for (const Shard& s : slots_) n += s.state == ShardState::kLive ? 1 : 0;
  return n;
}

u64 ShardedPimStore::size() const {
  u64 n = 0;
  for (u32 g = 0; g < groups_.size(); ++g) {
    const u32 slot = read_member(g);
    if (slot != kNoSlot) n += slots_[slot].list->size();
  }
  return n;
}

u32 ShardedPimStore::group_live_members(u32 group) const {
  u32 n = 0;
  for (const u32 slot : groups_[group].members) {
    n += slots_[slot].state == ShardState::kLive ? 1 : 0;
  }
  return n;
}

bool ShardedPimStore::group_fully_replicated(u32 group) const {
  const ReplicaGroup& g = groups_[group];
  return g.members.size() == opts_.replication &&
         group_live_members(group) == g.members.size();
}

u64 ShardedPimStore::member_digest(u32 slot) const {
  const Shard& s = slots_[slot];
  PIM_CHECK(s.list != nullptr, "member_digest on a dead shard");
  return s.list->contents_digest();
}

u64 ShardedPimStore::group_expected_digest(u32 group) const {
  return core::PimSkipList::pairs_digest(groups_[group].log.fold());
}

u32 ShardedPimStore::free_spares() const {
  u32 n = 0;
  for (u32 i = 0; i < slots(); ++i) {
    if (slots_[i].state != ShardState::kSpare) continue;
    if (migration_.has_value() && migration_->target == i) continue;
    if (repair_.has_value() && repair_->target == i) continue;
    ++n;
  }
  return n;
}

void ShardedPimStore::check_invariants() const {
  PIM_CHECK(!routes_.empty() && routes_.front().lo == kMinKey,
            "route table must cover the key space from kMinKey");
  for (u64 i = 0; i + 1 < routes_.size(); ++i) {
    PIM_CHECK(routes_[i].lo < routes_[i + 1].lo, "route table out of order");
  }
  std::vector<u32> entries_of(groups_.size(), 0);
  for (u64 i = 0; i < routes_.size(); ++i) {
    const RouteEntry& e = routes_[i];
    PIM_CHECK(e.group < groups_.size(), "route names a missing group");
    ++entries_of[e.group];
    PIM_CHECK(groups_[e.group].lo == e.lo && groups_[e.group].hi == route_top(i),
              "route entry disagrees with its group's range");
  }
  for (u32 gi = 0; gi < groups_.size(); ++gi) {
    const ReplicaGroup& g = groups_[gi];
    PIM_CHECK(entries_of[gi] == 1, "each group owns exactly one route entry");
    PIM_CHECK(!g.members.empty(), "a group must have at least one member");
    PIM_CHECK(g.members.size() <= opts_.replication,
              "a group cannot exceed R members");
    PIM_CHECK(g.primary < g.members.size(), "group primary out of range");
    for (const u32 slot : g.members) {
      PIM_CHECK(slot < slots_.size(), "group member names a missing slot");
      PIM_CHECK(slots_[slot].group == gi, "member's group back-pointer is wrong");
      PIM_CHECK(slots_[slot].state != ShardState::kSpare,
                "a spare cannot be a group member");
      if (slots_[slot].state == ShardState::kLive) {
        slots_[slot].list->check_invariants();
      }
    }
    // Every journaled key must lie inside the owned range (migration
    // cutover rewrites the log when ownership moves).
    for (const auto& [k, v] : g.log.fold()) {
      PIM_CHECK(k >= g.lo && k < g.hi, "journaled key outside the group's range");
    }
  }
  for (u32 i = 0; i < slots(); ++i) {
    if (slots_[i].state == ShardState::kSpare) {
      PIM_CHECK(slots_[i].group == kNoGroup, "a spare cannot belong to a group");
    }
  }
}

}  // namespace pim::shard
