#include "checker.hpp"

#include <algorithm>
#include <cinttypes>

#include "common/status.hpp"

namespace perfbench {
namespace {

constexpr size_t kLogBuffer = 1u << 20;

std::string describe(const OpRecord& r, const char* what) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "window %" PRIu32 ": %s(%" PRId64 ") replied found=%u value=%" PRIu64 ", %s",
                r.seq, kind_name(r.kind), static_cast<int64_t>(r.key), r.found, r.value, what);
  return buf;
}

}  // namespace

OpLogWriter::OpLogWriter(const std::string& path)
    : f_(std::fopen(path.c_str(), "wb")), buf_(new char[kLogBuffer]) {
  if (f_ == nullptr) {
    ok_ = false;
    return;
  }
  std::setvbuf(f_, buf_.get(), _IOFBF, kLogBuffer);
}

OpLogWriter::~OpLogWriter() { close(); }

void OpLogWriter::write(const OpRecord& r) {
  if (f_ != nullptr && std::fwrite(&r, sizeof r, 1, f_) != 1) ok_ = false;
}

bool OpLogWriter::close() {
  if (f_ != nullptr) {
    if (std::fclose(f_) != 0) ok_ = false;
    f_ = nullptr;
  }
  return ok_;
}

OpLogReader::OpLogReader(const std::string& path)
    : f_(std::fopen(path.c_str(), "rb")), buf_(new char[kLogBuffer]) {
  if (f_ != nullptr) std::setvbuf(f_, buf_.get(), _IOFBF, kLogBuffer);
}

OpLogReader::~OpLogReader() {
  if (f_ != nullptr) std::fclose(f_);
}

bool OpLogReader::next(OpRecord& r) { return f_ != nullptr && std::fread(&r, sizeof r, 1, f_) == 1; }

u64 ReplayChecker::apply(std::span<const OpRecord> window, WindowBatches& batches) {
  batches.clear();
  u64 mismatches = 0;
  auto mismatch = [&](const OpRecord& r, const char* what) {
    ++mismatches;
    if (first_error_.empty()) first_error_ = describe(r, what);
  };
  auto ok = [](const OpRecord& r) { return r.status == static_cast<u8>(pim::StatusCode::kOk); };

  // Upserts: the first occurrence of a key wins.
  seen_.clear();
  for (const OpRecord& r : window) {
    if (r.kind != kUpsert || !ok(r)) continue;
    if (seen_.emplace(r.key, 1).second) batches.upsert_kvs.emplace_back(r.key, r.value);
  }
  for (const auto& [k, v] : batches.upsert_kvs) state_[k] = v;

  // Deletes: every waiter of a key sees one flag, taken after the upserts.
  seen_.clear();
  std::vector<std::pair<Key, u8>> dels;
  for (const OpRecord& r : window) {
    if (r.kind != kErase || !ok(r)) continue;
    auto [it, inserted] = seen_.emplace(r.key, state_.count(r.key) ? 1 : 0);
    if (inserted) dels.emplace_back(r.key, it->second);
    if (r.found != it->second) mismatch(r, it->second ? "expected erased=1" : "expected erased=0");
  }
  std::sort(dels.begin(), dels.end());
  for (const auto& [k, found] : dels) {
    batches.del_keys.push_back(k);
    batches.del_found.push_back(found);
    state_.erase(k);
  }

  // Reads observe the window's writes.
  seen_.clear();
  for (const OpRecord& r : window) {
    if (r.kind != kGet || !ok(r)) continue;
    if (seen_.emplace(r.key, 1).second) batches.get_keys.push_back(r.key);
    const auto it = state_.find(r.key);
    if (it == state_.end()) {
      if (r.found) mismatch(r, "expected not found");
    } else if (!r.found || r.value != it->second) {
      mismatch(r, "expected the stored value");
    }
  }
  seen_.clear();
  for (const OpRecord& r : window) {
    if (r.kind != kSuccessor || !ok(r)) continue;
    if (seen_.emplace(r.key, 1).second) batches.succ_keys.push_back(r.key);
    const auto it = state_.lower_bound(r.key);
    if (it == state_.end()) {
      if (r.found) mismatch(r, "expected no successor");
    } else if (!r.found || static_cast<Key>(r.value) != it->first) {
      mismatch(r, "expected the smallest stored key >= the query");
    }
  }

  std::sort(batches.upsert_kvs.begin(), batches.upsert_kvs.end());
  std::sort(batches.get_keys.begin(), batches.get_keys.end());
  std::sort(batches.succ_keys.begin(), batches.succ_keys.end());
  return mismatches;
}

WindowMerger::WindowMerger(const std::vector<std::string>& paths)
    : ordinal_(paths.size(), 0), frontier_(paths.size(), 0), live_(paths.size(), true) {
  for (const auto& p : paths) {
    readers_.push_back(std::make_unique<OpLogReader>(p));
    if (!readers_.back()->ok()) error_ = "cannot open op log " + p;
  }
}

bool WindowMerger::next(std::vector<OpRecord>& window, std::vector<u64>& ids, u32& seq) {
  window.clear();
  ids.clear();
  if (!error_.empty()) return false;
  const u32 target = seq_ + 1;
  for (size_t c = 0; c < readers_.size(); ++c) {
    OpRecord r;
    while (live_[c] && frontier_[c] < target + kSlack) {
      if (!readers_[c]->next(r)) {
        live_[c] = false;
        break;
      }
      ++ordinal_[c];
      if (r.seq == 0) continue;  // refused at the door: no window to check
      if (r.seq <= seq_) {
        error_ = "client " + std::to_string(c) + " logged a reply of window " +
                 std::to_string(r.seq) + " more than " + std::to_string(kSlack) +
                 " windows late";
        return false;
      }
      Pending& p = pending_[r.seq];
      p.records.push_back(r);
      p.ids.push_back(static_cast<u64>(c) << 48 | ordinal_[c]);
      frontier_[c] = std::max(frontier_[c], r.seq);
    }
  }
  if (pending_.empty()) return false;
  auto first = pending_.begin();
  if (first->first != target) {
    error_ = "window " + std::to_string(target) + " has no replies (next is " +
             std::to_string(first->first) + ")";
    return false;
  }
  window = std::move(first->second.records);
  ids = std::move(first->second.ids);
  pending_.erase(first);
  seq_ = target;
  seq = target;
  return true;
}

}  // namespace perfbench
