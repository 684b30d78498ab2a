// ShardedPimStore core: provisioning, the route table, the point-op
// window (one fan-out for the six point classes over R-way replica
// groups), and the group-level write-ahead journal that makes shard
// failover lossless for acknowledged writes.
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
std::vector<T> gather(const std::vector<T>& items, const std::vector<u64>& positions) {
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

namespace {

// The six point classes, in the order a member runs its share.
enum PointClass : u32 { kUpsert, kUpdate, kDelete, kGet, kSuccessor, kPredecessor, kClasses };
constexpr u32 kWriteClasses = (1u << kUpsert) | (1u << kUpdate) | (1u << kDelete);
constexpr u32 kNearClasses = (1u << kSuccessor) | (1u << kPredecessor);

const Status& status_of(const Status& st) { return st; }
const Status& status_of(const core::PimSkipList::PartialFlag& r) { return r.status; }

void set_write(Status& out, const Status& st, const Status*) { out = st; }
void set_write(ShardedPimStore::FlagResult& out, const Status& st,
               const core::PimSkipList::PartialFlag* r) {
  out = ShardedPimStore::FlagResult{st, r != nullptr && r->found};
}

}  // namespace

ShardedPimStore::WindowResult ShardedPimStore::batch_window(const WindowRequest& req) {
  WindowResult res;
  res.upserts.resize(req.upserts.size());
  res.updates.resize(req.updates.size());
  res.deletes.resize(req.deletes.size());
  res.gets.resize(req.gets.size());
  res.successors.resize(req.successors.size());
  res.predecessors.resize(req.predecessors.size());
  auto status_at = [&](u32 cls, u64 pos) -> Status& {
    switch (cls) {
      case kUpsert: return res.upserts[pos];
      case kUpdate: return res.updates[pos].status;
      case kDelete: return res.deletes[pos].status;
      case kGet: return res.gets[pos].status;
      case kSuccessor: return res.successors[pos].status;
      default: return res.predecessors[pos].status;
    }
  };

  // Every op still to run: its class, its window position and the group
  // it asks. The first wave holds the whole window in class order; the
  // follow-up waves hold reads only. Successor and predecessor answers
  // are oracle-exact across groups by two rules. Clamping: a group's
  // answer counts only inside its owned range [lo, hi), so leftovers a
  // faulted post-cutover cleanup left behind are never served. Spilling:
  // a clamped miss asks the next group in key order in the next wave
  // (each spill advances the route cursor, so the loop ends), and a spill
  // onto a dead group answers kShardDown, since the answer could live
  // there.
  struct Ask {
    u32 cls = 0;
    u64 pos = 0;
    u32 group = 0;
  };
  std::vector<Ask> asks;
  auto enqueue = [&](u32 cls, const auto& items) {
    for (u64 pos = 0; pos < items.size(); ++pos) {
      asks.push_back(Ask{cls, pos, owning_group(core::key_of(items[pos]))});
    }
  };
  enqueue(kUpsert, req.upserts);
  enqueue(kUpdate, req.updates);
  enqueue(kDelete, req.deletes);
  enqueue(kGet, req.gets);
  enqueue(kSuccessor, req.successors);
  enqueue(kPredecessor, req.predecessors);

  // One member call's share: the classes it may run (a bit per class;
  // it runs those with positions) and each class's results, or the
  // StatusError that class threw.
  struct Share {
    u32 runs = 0;
    std::vector<Status> upserted;
    std::vector<core::PimSkipList::PartialFlag> updated, deleted;
    std::vector<core::PimSkipList::PartialGet> got;
    std::vector<core::PimSkipList::NearResult> succ, pred;
    std::optional<Status> failed[kClasses];
  };
  struct Job : WaveJob<Share> {
    std::vector<u64> pos[kClasses];  // this group's window positions per class
    bool has(u32 cls) const { return !pos[cls].empty(); }
    bool writes() const { return has(kUpsert) || has(kUpdate) || has(kDelete); }
    /// The call that runs `cls`; gets (unless quorum) and the ordered
    /// reads have exactly one.
    const Call& reader(u32 cls) const {
      return *std::find_if(calls.begin(), calls.end(),
                           [&](const auto& c) { return (c.out.runs >> cls & 1) != 0; });
    }
  };
  const bool quorum = opts_.quorum_reads && opts_.write_quorum > 1;
  std::vector<u32> tried(groups_.size(), 0);  // member indexes a group's gets failed on
  std::vector<bool> refenced(groups_.size(), false);  // reads re-asked after a fence

  while (!asks.empty()) {
    // One job per group, in first-asked order; positions stay ascending
    // per class, the order journal records take.
    std::vector<Job> jobs;
    std::vector<u32> job_of(groups_.size(), kNoGroup);
    for (const Ask& a : asks) {
      if (job_of[a.group] == kNoGroup) {
        job_of[a.group] = static_cast<u32>(jobs.size());
        jobs.emplace_back().group = a.group;
      }
      jobs[job_of[a.group]].pos[a.cls].push_back(a.pos);
    }
    asks.clear();  // refilled by the settle: retargets, re-serves, spills
    for (Job& j : jobs) {
      const u32 group = j.group;
      auto down = [&](u32 cls) {
        if (!j.has(cls)) return;
        const Status st = shard_down_status(group);
        for (const u64 pos : j.pos[cls]) status_at(cls, pos) = st;
        j.pos[cls].clear();
      };
      auto call_on = [&](u32 slot, u32 classes) {
        for (auto& c : j.calls) {
          if (c.slot == slot) {
            c.out.runs |= classes;
            return;
          }
        }
        j.calls.emplace_back().slot = slot;
        j.calls.back().out.runs = classes;
      };
      // Readers first: serving_member may converge (or fail-stop) the
      // member it picks. Every member a read picks is live, so a job with
      // writes already calls it.
      const bool plain_gets = j.has(kGet) && !quorum;
      const bool near = j.has(kSuccessor) || j.has(kPredecessor);
      const u32 get_reader = plain_gets ? serving_member(group, tried[group]) : kNoSlot;
      u32 near_reader = kNoSlot;
      if (near) near_reader = plain_gets && tried[group] == 0 ? get_reader : serving_member(group);
      if (j.writes() || (j.has(kGet) && quorum) || get_reader != kNoSlot ||
          near_reader != kNoSlot) {
        j.epoch = dispatch_epoch(group);
      }
      const ReplicaGroup& g = groups_[group];
      if (j.writes()) {
        for (const u32 slot : g.members) {
          if (slots_[slot].state == ShardState::kLive) call_on(slot, kWriteClasses);
        }
        if (j.calls.empty()) {
          for (u32 cls = kUpsert; cls < kGet; ++cls) down(cls);
        }
      }
      if (j.has(kGet) && quorum) {
        // Read-your-quorum: consult max(write_quorum, R - write_quorum +
        // 1) live members. Agreement of that many implies the latest
        // ACKED state: the set meets every write quorum (no acked write
        // is missed by all of them) and is write_quorum wide (a refused
        // write, applied on fewer members, never reaches agreement).
        const u32 r = static_cast<u32>(g.members.size());
        const u32 wq = opts_.write_quorum;
        const u32 want = std::max(wq, r >= wq ? r - wq + 1 : 1u);
        std::vector<u32> consult;
        for (u32 i = 0; i < r && consult.size() < want; ++i) {
          const u32 slot = g.members[(g.primary + i) % r];
          if (slots_[slot].state == ShardState::kLive) consult.push_back(slot);
        }
        if (consult.empty()) {
          down(kGet);
        } else if (consult.size() == want) {
          for (const u32 slot : consult) call_on(slot, 1u << kGet);
        }  // else a partial consult can neither agree nor refuse: the
           // merge resolves every key from the journal
      }
      if (plain_gets) {
        if (get_reader == kNoSlot) down(kGet);
        else call_on(get_reader, 1u << kGet);
      }
      if (near) {
        if (near_reader == kNoSlot) {
          down(kSuccessor);
          down(kPredecessor);
        } else {
          call_on(near_reader, kNearClasses);
        }
      }
    }
    // A job with no call left answered at dispatch, unless it holds
    // quorum gets that resolve from the journal.
    std::erase_if(jobs, [](const Job& j) { return j.calls.empty() && !j.has(kGet); });

    run_wave(jobs, [&req](core::PimSkipList& list, const Job& j, Share& s) {
      auto run = [&](u32 cls, const auto& items, auto&& call) {
        if ((s.runs >> cls & 1) == 0 || !j.has(cls)) return;
        try {
          call(gather(items, j.pos[cls]));
        } catch (const StatusError& e) {
          s.failed[cls] = e.status();
        }
      };
      run(kUpsert, req.upserts, [&](auto&& b) { s.upserted = list.batch_upsert_partial(b); });
      run(kUpdate, req.updates, [&](auto&& b) { s.updated = list.batch_update_partial(b); });
      run(kDelete, req.deletes, [&](auto&& b) { s.deleted = list.batch_delete_partial(b); });
      run(kGet, req.gets, [&](auto&& b) { s.got = list.batch_get_partial(b); });
      run(kSuccessor, req.successors, [&](auto&& b) { s.succ = list.batch_successor(b); });
      run(kPredecessor, req.predecessors, [&](auto&& b) { s.pred = list.batch_predecessor(b); });
      // The call reports its first failed class, so the breaker counts a
      // call with any failed class as one strike.
      for (const auto& f : s.failed) {
        if (f.has_value()) throw StatusError(*f);
      }
    });

    auto reask = [&](const Job& j) {
      for (u32 cls = kGet; cls < kClasses; ++cls) {
        for (const u64 pos : j.pos[cls]) asks.push_back(Ask{cls, pos, j.group});
      }
    };
    // One class of writes: quorum merge per position, then one journal
    // record of the acked positions. Returns whether a live member
    // missed an acked write or applied a refused one.
    auto settle_writes = [&]<typename Partial>(const Job& j, u32 cls, core::LogRecord::Kind kind,
                                               const auto& items,
                                               std::vector<Partial> Share::*part, auto& out) {
      bool dirtied = false;
      core::LogRecord rec;
      rec.kind = kind;
      for (u64 k = 0; k < j.pos[cls].size(); ++k) {
        u32 acked = 0;
        const Partial* sample = nullptr;
        Status first_err;
        bool any_err = false;
        for (const auto& c : j.calls) {
          const Status& st = c.out.failed[cls].has_value() ? *c.out.failed[cls]
                                                           : status_of((c.out.*part)[k]);
          if (st.ok()) {
            ++acked;
            if (sample == nullptr) sample = &(c.out.*part)[k];
          } else if (!any_err) {
            first_err = st;
            any_err = true;
          }
        }
        const u64 pos = j.pos[cls][k];
        if (acked >= opts_.write_quorum) {
          set_write(out[pos], status_of(*sample), sample);
          rec.add(items[pos]);
          dirtied |= any_err;
        } else if (acked > 0) {
          set_write(out[pos], no_quorum_status(j.group, acked), nullptr);
          dirtied = true;
        } else {
          set_write(out[pos], first_err, nullptr);
        }
      }
      if (!rec.ops.empty() || !rec.keys.empty()) {
        const bool accepted = journal_acked(j.group, j.epoch, std::move(rec));
        PIM_CHECK(accepted, "journal refused an ack the merge just fenced-checked");
      }
      return dirtied;
    };

    settle_wave(
        jobs,
        [&](Job& j, const Status& fenced) {
          // Zombie wave: nothing is acked or journaled (anti-entropy rolls
          // back the members that applied the writes, exactly like a
          // kNoQuorum refusal), and the reads ask once more per call, at
          // the new epoch, from the primary.
          const bool again = !refenced[j.group];
          refenced[j.group] = true;
          tried[j.group] = 0;
          for (u32 cls = kUpsert; cls < kClasses; ++cls) {
            for (const u64 pos : j.pos[cls]) {
              if (cls >= kGet && again) asks.push_back(Ask{cls, pos, j.group});
              else status_at(cls, pos) = fenced;
            }
          }
          if (j.writes()) groups_[j.group].dirty = true;
        },
        [&](Job& j) {
          ReplicaGroup& g = groups_[j.group];
          bool dirtied = false;
          if (j.writes()) {
            dirtied |= settle_writes(j, kUpsert, core::LogRecord::kUpsert, req.upserts,
                                     &Share::upserted, res.upserts);
            dirtied |= settle_writes(j, kUpdate, core::LogRecord::kUpdate, req.updates,
                                     &Share::updated, res.updates);
            dirtied |= settle_writes(j, kDelete, core::LogRecord::kDelete, req.deletes,
                                     &Share::deleted, res.deletes);
          }
          if (dirtied) {
            // This wave's reads may have seen a write the group did not
            // ack, or missed one it did: serve them again.
            g.dirty = true;
            tried[j.group] = 0;
            reask(j);
            return;
          }
          if (j.has(kGet) && quorum) {
            // Any disagreement, per-key fault or missing consult resolves
            // from the group journal's replay, the acked state.
            std::optional<Pairs> replay;
            bool consulted = false;
            for (const auto& c : j.calls) consulted |= (c.out.runs >> kGet & 1) != 0;
            for (u64 k = 0; k < j.pos[kGet].size(); ++k) {
              bool agree = consulted;
              const core::PimSkipList::PartialGet* first = nullptr;
              for (const auto& c : j.calls) {
                if ((c.out.runs >> kGet & 1) == 0) continue;
                if (c.out.failed[kGet].has_value() || !c.out.got[k].status.ok()) {
                  agree = false;
                  break;
                }
                if (first == nullptr) {
                  first = &c.out.got[k];
                } else if (c.out.got[k].found != first->found ||
                           (first->found && c.out.got[k].value != first->value)) {
                  agree = false;
                }
              }
              const u64 pos = j.pos[kGet][k];
              if (agree) {
                res.gets[pos] = GetResult{first->status, first->found, first->value};
                continue;
              }
              if (!replay.has_value()) replay = g.log.fold();
              ++quorum_read_resolves_;
              const auto* hit = core::find_key(*replay, req.gets[pos]);
              res.gets[pos] = hit == nullptr ? GetResult{} : GetResult{Status{}, true, hit->second};
              if (consulted) g.dirty = true;  // a consulted member lagged or faulted
            }
          } else if (j.has(kGet)) {
            // A get the serving member failed retargets to a member it
            // has not tried.
            const auto& c = j.reader(kGet);
            tried[j.group] |= 1u << g.rank_of(c.slot);
            for (u64 k = 0; k < j.pos[kGet].size(); ++k) {
              const u64 pos = j.pos[kGet][k];
              if (c.out.failed[kGet].has_value()) {
                res.gets[pos].status = *c.out.failed[kGet];
              } else {
                const auto& r = c.out.got[k];
                res.gets[pos] = GetResult{r.status, r.found, r.value};
                if (r.status.ok()) continue;
              }
              asks.push_back(Ask{kGet, pos, j.group});
            }
          }
          const auto [lo, hi] = group_range(j.group);  // the clamp bounds
          for (const bool forward : {true, false}) {
            const u32 cls = forward ? kSuccessor : kPredecessor;
            if (!j.has(cls)) continue;
            const auto& c = j.reader(cls);
            const auto& got = forward ? c.out.succ : c.out.pred;
            auto& out = forward ? res.successors : res.predecessors;
            // A miss spills to the neighbouring group, unless this group
            // owns the end of the key space in the direction of travel.
            const bool edge = forward ? hi == kMaxKey : lo == kMinKey;
            for (u64 k = 0; k < j.pos[cls].size(); ++k) {
              const u64 pos = j.pos[cls][k];
              if (c.out.failed[cls].has_value()) {
                out[pos].status = *c.out.failed[cls];
              } else if (got[k].found && (forward ? edge || got[k].key < hi : got[k].key >= lo)) {
                out[pos] = NearResult{Status(), true, got[k].key};
              } else if (edge) {
                out[pos] = NearResult{};  // no key beyond this end
              } else {
                asks.push_back(Ask{cls, pos, owning_group(forward ? hi : lo - 1)});
              }
            }
          }
        });
    // A retargeted get needs a live member it has not tried yet, counted
    // after this wave fed the breaker; without one it keeps its failure.
    std::erase_if(asks, [&](const Ask& a) {
      return a.cls == kGet && tried[a.group] != 0 &&
             read_member(a.group, tried[a.group]) == kNoSlot;
    });
  }
  return res;
}

std::vector<ShardedPimStore::GetResult> ShardedPimStore::batch_get(std::span<const Key> keys) {
  return batch_window({.gets = {keys.begin(), keys.end()}}).gets;
}

std::vector<Status> ShardedPimStore::batch_upsert(
    std::span<const std::pair<Key, Value>> ops) {
  return batch_window({.upserts = {ops.begin(), ops.end()}}).upserts;
}

std::vector<ShardedPimStore::FlagResult> ShardedPimStore::batch_update(
    std::span<const std::pair<Key, Value>> ops) {
  return batch_window({.updates = {ops.begin(), ops.end()}}).updates;
}

std::vector<ShardedPimStore::FlagResult> ShardedPimStore::batch_delete(
    std::span<const Key> keys) {
  return batch_window({.deletes = {keys.begin(), keys.end()}}).deletes;
}

std::vector<ShardedPimStore::NearResult> ShardedPimStore::batch_successor(
    std::span<const Key> keys) {
  return batch_window({.successors = {keys.begin(), keys.end()}}).successors;
}

std::vector<ShardedPimStore::NearResult> ShardedPimStore::batch_predecessor(
    std::span<const Key> keys) {
  return batch_window({.predecessors = {keys.begin(), keys.end()}}).predecessors;
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
