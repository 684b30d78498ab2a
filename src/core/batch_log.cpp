#include "core/batch_log.hpp"

#include <algorithm>

namespace pim::core {

namespace {

/// Replays `records` (none of them a fetch-add) in order over `base`. One
/// effect per logged op; `seq` counts along the log, so sorting by
/// (key, seq) lines each key's effects up in replay order, and one merge
/// with `base` applies them.
Pairs merge_records(const Pairs& base, std::span<const LogRecord> records) {
  struct Effect {
    Key key;
    u64 seq;
    u32 rec;
    Value value;
  };
  std::vector<Effect> effects;
  u64 seq = 0;
  for (u32 ri = 0; ri < records.size(); ++ri) {
    for (const auto& [k, v] : records[ri].ops) effects.push_back({k, seq++, ri, v});
    for (const Key k : records[ri].keys) effects.push_back({k, seq++, ri, 0});
  }
  std::sort(effects.begin(), effects.end(), [](const Effect& a, const Effect& b) {
    return a.key != b.key ? a.key < b.key : a.seq < b.seq;
  });

  Pairs out;
  out.reserve(base.size() + effects.size());
  auto it = base.begin();
  for (u64 i = 0; i < effects.size();) {
    const Key k = effects[i].key;
    while (it != base.end() && it->first < k) out.push_back(*it++);
    bool present = it != base.end() && it->first == k;
    Value v = present ? it->second : 0;
    if (present) ++it;
    for (const u64 first = i; i < effects.size() && effects[i].key == k; ++i) {
      const Effect& e = effects[i];
      // First occurrence wins within a record.
      if (i > first && effects[i - 1].rec == e.rec) continue;
      const LogRecord::Kind kind = records[e.rec].kind;
      if (kind == LogRecord::kDelete) {
        present = false;
      } else if (kind == LogRecord::kUpsert || present) {  // update: present keys only
        present = true;
        v = e.value;
      }
    }
    if (present) out.emplace_back(k, v);
  }
  out.insert(out.end(), it, base.end());
  return out;
}

}  // namespace

const std::pair<Key, Value>* find_key(const Pairs& pairs, Key key) {
  const auto it = std::ranges::lower_bound(pairs, key, {}, &Pairs::value_type::first);
  return it != pairs.end() && it->first == key ? &*it : nullptr;
}

LogRecord LogRecord::of(Kind kind, std::span<const std::pair<Key, Value>> ops) {
  LogRecord r;
  r.kind = kind;
  r.ops.assign(ops.begin(), ops.end());
  return r;
}

LogRecord LogRecord::of(std::span<const Key> keys) {
  LogRecord r;
  r.kind = kDelete;
  r.keys.assign(keys.begin(), keys.end());
  return r;
}

Pairs BatchLog::fold(u64 upto) const {
  const std::span<const LogRecord> log(records_.data(), std::min<u64>(upto, records_.size()));
  const auto is_fetch_add = [](const LogRecord& r) { return r.kind == LogRecord::kFetchAdd; };
  auto run_end = std::find_if(log.begin(), log.end(), is_fetch_add);
  Pairs out = merge_records(checkpoint_, {log.begin(), run_end});
  while (run_end != log.end()) {
    const LogRecord& add = *run_end;
    for (auto it = std::ranges::lower_bound(out, add.lo, {}, &Pairs::value_type::first);
         it != out.end() && it->first <= add.hi; ++it) {
      it->second += add.delta;
    }
    const auto run_begin = run_end + 1;
    run_end = std::find_if(run_begin, log.end(), is_fetch_add);
    if (run_begin != run_end) out = merge_records(out, {run_begin, run_end});
  }
  return out;
}

void BatchLog::reset(Pairs checkpoint) {
  checkpoint_ = std::move(checkpoint);
  records_.clear();
}

}  // namespace pim::core
