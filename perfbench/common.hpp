// Shared pieces of the perfbench harness: the run configuration, the
// result a workload hands back, the benchmark's own input generators,
// fixed-size latency histograms and small output helpers.
//
// The generators live here rather than in the library's src/random and
// src/workload so that a change to the library can never change the
// benchmark's inputs: the same --seed gives the same keys on every commit.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace perfbench {

using pim::Key;
using pim::u32;
using pim::u64;
using pim::u8;
using pim::Value;

/// Keys of every workload fall inside the shard tier's default domain
/// [0, 1e9), so the four groups' equal ranges split the load evenly.
inline constexpr Key kKeyDomain = 1'000'000'000;

struct RunConfig {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Short run with every output check on (the benchmark's own tests).
  bool smoke = false;
  /// Lanes of the process pool (par::ThreadPool), applied through
  /// PIM_NUM_THREADS before the pool is first used.
  u32 pool_lanes = 1;
  /// Where spans (traced run) and the serve op logs are written.
  std::string out_dir;
};

/// Where a traced run writes its spans (one JSON object per line).
inline std::string trace_path(const RunConfig& cfg) {
  return cfg.out_dir + "/trace-" + cfg.workload + "-seed" + std::to_string(cfg.seed) + ".jsonl";
}

/// One metric as printed: name, value, unit.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  u64 attempted = 0;
  u64 failed = 0;  // failed + refused + never replied
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the JSON result ("# " prefixed).
  std::vector<std::string> notes;
};

// ---------------------------------------------------------------- clocks

using Clock = std::chrono::steady_clock;

inline u64 now_ns() {
  return static_cast<u64>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
          .count());
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

inline double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Peak resident set (VmHWM) since the last reset_peak_rss(), in MiB.
double peak_rss_mib();
/// Returns freed heap to the system and restarts the peak-RSS count, so a
/// trial's peak does not include an earlier trial's leftovers.
void reset_peak_rss();

/// Host-wide CPU time counters (/proc/stat), to report the share of CPU
/// time the hypervisor gave to other guests (steal) during a phase.
struct CpuTimes {
  u64 steal = 0;
  u64 total = 0;
};
CpuTimes cpu_times();
inline double steal_share(const CpuTimes& a, const CpuTimes& b) {
  return ratio(static_cast<double>(b.steal - a.steal), static_cast<double>(b.total - a.total));
}

/// Shortest decimal text that reads back as exactly `v` (all its digits).
inline std::string num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, ec == std::errc() ? end : buf);
}

// ---------------------------------------------------------------- inputs

/// xoshiro256** seeded through splitmix64.
class Rng {
 public:
  explicit Rng(u64 seed) {
    for (auto& w : s_) {
      seed += 0x9E3779B97F4A7C15ull;
      u64 z = seed;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
      w = z ^ (z >> 31);
    }
  }
  u64 operator()() {
    const u64 r = std::rotl(s_[1] * 5, 7) * 9;
    const u64 t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return r;
  }
  /// Uniform in [0, n) (Lemire's multiply-shift; bias < n / 2^64).
  u64 below(u64 n) {
    return static_cast<u64>((static_cast<unsigned __int128>((*this)()) * n) >> 64);
  }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>((*this)() >> 11) * 0x1.0p-53; }

 private:
  std::array<u64, 4> s_{};
};

/// Derives an independent stream seed for one purpose of one run.
inline u64 stream_seed(u64 run_seed, u64 purpose) {
  return Rng(run_seed * 0x100000001B3ull + purpose)();
}

/// `n` distinct keys, uniform over [0, kKeyDomain), sorted.
inline std::vector<Key> distinct_keys(u64 n, Rng& rng) {
  std::unordered_set<Key> seen;
  seen.reserve(n * 2);
  std::vector<Key> keys;
  keys.reserve(n);
  while (keys.size() < n) {
    const Key k = static_cast<Key>(rng.below(kKeyDomain));
    if (seen.insert(k).second) keys.push_back(k);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

/// Zipf(theta) over ranks [0, n): an inverse-CDF table, plus a seeded
/// permutation mapping each rank to an index into a sorted key array
/// (rank hashed to key), so the hot keys spread over every shard range.
class ZipfKeys {
 public:
  ZipfKeys(u64 n, double theta, Rng& rng) : cdf_(n), rank_to_index_(n) {
    double total = 0;
    for (u64 r = 0; r < n; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), theta);
      cdf_[r] = total;
    }
    for (auto& c : cdf_) c /= total;
    for (u64 i = 0; i < n; ++i) rank_to_index_[i] = static_cast<u32>(i);
    for (u64 i = n - 1; i > 0; --i) std::swap(rank_to_index_[i], rank_to_index_[rng.below(i + 1)]);
  }
  /// Index into the sorted key array.
  u64 sample(Rng& rng) const {
    const double u = rng.unit();
    const u64 rank = static_cast<u64>(std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return rank_to_index_[std::min<u64>(rank, cdf_.size() - 1)];
  }

 private:
  std::vector<double> cdf_;
  std::vector<u32> rank_to_index_;
};

// ---------------------------------------------------------------- histograms

/// Log-linear histogram of non-negative integer samples (nanoseconds,
/// rounds): 128 sub-buckets per power of two, so a bucket is at most
/// 0.8% wide. Fixed size: memory does not grow with the samples taken.
/// Each bucket also keeps the sum of its samples, and a percentile reads
/// the mean of the bucket holding the rank, so reported values are not
/// snapped to bucket edges.
class Histogram {
 public:
  static constexpr u32 kSubBits = 7;
  static constexpr u32 kSub = 1u << kSubBits;
  static constexpr u32 kBuckets = (64 - kSubBits + 1) * kSub;

  void add(u64 v) {
    const u32 i = index(v);
    ++count_[i];
    sum_[i] += static_cast<double>(v);
    ++total_;
  }
  void merge(const Histogram& o) {
    for (u32 i = 0; i < kBuckets; ++i) {
      count_[i] += o.count_[i];
      sum_[i] += o.sum_[i];
    }
    total_ += o.total_;
  }
  u64 count() const { return total_; }
  /// Nearest-rank percentile: the bucket holding the ceil(p * n)-th
  /// smallest sample, read as the mean of that bucket's samples.
  double percentile(double p) const {
    if (total_ == 0) return 0;
    u64 rank = static_cast<u64>(std::ceil(p * static_cast<double>(total_)));
    rank = std::clamp<u64>(rank, 1, total_);
    u64 seen = 0;
    for (u32 i = 0; i < kBuckets; ++i) {
      seen += count_[i];
      if (seen >= rank) return sum_[i] / static_cast<double>(count_[i]);
    }
    return 0;
  }
  /// Samples strictly above the bucket holding percentile p.
  u64 beyond(double p) const {
    if (total_ == 0) return 0;
    const u64 rank = std::clamp<u64>(
        static_cast<u64>(std::ceil(p * static_cast<double>(total_))), 1, total_);
    u64 seen = 0;
    for (u32 i = 0; i < kBuckets; ++i) {
      seen += count_[i];
      if (seen >= rank) return total_ - seen;
    }
    return 0;
  }

 private:
  static u32 index(u64 v) {
    if (v < kSub) return static_cast<u32>(v);
    const u32 shift = static_cast<u32>(std::bit_width(v)) - 1 - kSubBits;
    return (shift + 1) * kSub + static_cast<u32>(v >> shift) - kSub;
  }

  std::array<u64, kBuckets> count_{};
  std::array<double, kBuckets> sum_{};
  u64 total_ = 0;
};

// ---------------------------------------------------------------- progress

/// Set-up and checking steps completed; the stall watchdog (main.cpp)
/// reads it together with the per-thread request counters below.
std::atomic<u64>& progress();

/// Request counters of one load thread, on their own cache line so the
/// threads never share one. A stall report sums them.
struct alignas(64) LiveCounts {
  std::atomic<u64> attempted{0};
  std::atomic<u64> completed{0};
  std::atomic<u64> failed{0};
};
inline constexpr u32 kMaxLoadThreads = 8;
LiveCounts& live_counts(u32 thread);

/// One per-layer metric as BENCHMARK.json lists it.
struct LayerMetricSpec {
  std::string name;
  std::string unit;
};
/// Every per-layer metric, in output order. A traced run prints all of
/// them; a layer that is not on a workload's path reads 0 there.
const std::vector<LayerMetricSpec>& per_layer_specs();
/// Phase labels of the library's sim::Tracer, as they appear in the
/// sim.phase.<label>.{rounds,io} metric names ("search:pivot_dnc" ->
/// "search.pivot_dnc"); unlabeled rounds and any label not listed here
/// are counted as "other".
const std::vector<std::string>& phase_labels();
std::string phase_metric_label(const std::string& tracer_label);

RunResult run_serve(const RunConfig& cfg);
RunResult run_engine(const RunConfig& cfg);

}  // namespace perfbench
