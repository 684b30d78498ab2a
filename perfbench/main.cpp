// perfbench: one command for the repository benchmark.
//
//   pimbench --workload serve_read|serve_write|engine_read --seed N
//            --seconds S --trace 0|1 [--smoke] [--pool-lanes L] [--out-dir D]
//
// Prints "# "-prefixed report lines (host shape, every metric by name with
// its unit and sample counts, check results), then one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
// Exit status: 0 when every output checked out, 1 when a check failed,
// 2 on bad arguments, 3 when the run stalled (see Watchdog).
#include <malloc.h>
#include <unistd.h>

#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>

#include "common.hpp"
#include "parallel/thread_pool.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_OPT_FLAGS
#define PERFBENCH_OPT_FLAGS ""
#endif

namespace perfbench {

/// Lanes of the process pool (par::ThreadPool) the benchmark runs with.
/// Pinned to one: with any more lanes the pool deadlocks within seconds on
/// a multi-core host (ThreadPool::worker_loop decrements the batch's refs
/// and notifies cv_done_ without holding mu_, so a caller that has just
/// checked its wait predicate can miss the wakeup forever). Once that is
/// fixed, this becomes the host's core count.
constexpr u32 kPoolLanes = 1;

/// A run whose completed work stops moving for this long is stuck.
constexpr double kStallSeconds = 20;

std::atomic<u64>& progress() {
  static std::atomic<u64> p{0};
  return p;
}

LiveCounts& live_counts(u32 thread) {
  static LiveCounts counts[kMaxLoadThreads];
  return counts[thread % kMaxLoadThreads];
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  return 0;
}

CpuTimes cpu_times() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  CpuTimes t;
  u64 field = 0;
  stat >> cpu;  // "cpu": user nice system idle iowait irq softirq steal ...
  for (int i = 0; i < 8 && stat >> field; ++i) {
    t.total += field;
    if (i == 7) t.steal = field;
  }
  return t;
}

void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

const std::vector<std::string>& phase_labels() {
  static const std::vector<std::string> labels = {
      "get.dedup_route",      "search.pivot_extremes", "search.pivot_dnc",
      "search.hinted",        "upsert.update",         "upsert.alloc",
      "upsert.wire_vertical", "upsert.upper_preds",    "upsert.splice",
      "delete.probe",         "delete.mark_spread",    "delete.contract_splice",
      "other"};
  return labels;
}

std::string phase_metric_label(const std::string& tracer_label) {
  std::string s = tracer_label;
  for (char& ch : s) {
    if (ch == ':') ch = '.';
    if (ch == '+') ch = '_';
  }
  const auto& known = phase_labels();
  return std::find(known.begin(), known.end(), s) == known.end() ? "other" : s;
}

const std::vector<LayerMetricSpec>& per_layer_specs() {
  static const std::vector<LayerMetricSpec> specs = [] {
    std::vector<LayerMetricSpec> v = {
        {"serve.windows_per_kop", "1/kop"},
        {"serve.coalesced_frac", "ratio"},
        {"serve.flush_full_frac", "ratio"},
        {"serve.flush_idle_frac", "ratio"},
        {"serve.flush_delay_frac", "ratio"},
        {"serve.lat_rounds_p50", "rounds"},
        {"serve.lat_rounds_p99", "rounds"},
        {"serve.self_us_p50", "us"},
        {"serve.self_us_p99", "us"},
        {"shard.window_us_p50", "us"},
        {"shard.window_us_p99", "us"},
        {"shard.read_us_per_key", "us"},
        {"shard.write_us_per_key", "us"},
        {"shard.write_call_us_p99", "us"},
        {"shard.load_imbalance", "ratio"},
        {"core.get_us_per_key", "us"},
        {"core.successor_us_per_key", "us"},
        {"sim.ns_per_round", "ns"},
        {"sim.rounds_per_op", "rounds"},
        {"sim.io_per_op", "msgs"},
        {"sim.pim_per_op", "work"},
        {"sim.msgs_per_op", "msgs"},
        {"par.cpu_work_per_op", "work"},
        {"par.cpu_depth_per_call", "work"},
        {"trace.overhead_frac", "ratio"},
    };
    for (const auto& label : phase_labels()) {
      v.push_back({"sim.phase." + label + ".rounds", "rounds"});
      v.push_back({"sim.phase." + label + ".io", "msgs"});
    }
    return v;
  }();
  return specs;
}

namespace {

void print_json(const RunResult& r) {
  std::string s = std::string("{\"correct\": ") + (r.correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(r.attempted) +
                  ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    s += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + num(m.value) + ", \"unit\": \"" +
         m.unit + "\"}";
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
  std::fflush(stdout);
}

/// Ends a run that stops completing work: after kStallSeconds without
/// progress it reports the unfinished ops as failed, names the workload
/// and seed, and exits with status 3. The stuck threads cannot be joined,
/// so the process ends with _exit.
class Watchdog {
 public:
  explicit Watchdog(const RunConfig& cfg) : cfg_(cfg), thread_([this] { loop(); }) {}
  ~Watchdog() {
    {
      std::lock_guard lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  static u64 total_progress() {
    u64 p = progress().load();
    for (u32 t = 0; t < kMaxLoadThreads; ++t) p += live_counts(t).completed.load();
    return p;
  }

  void loop() {
    std::unique_lock lock(mu_);
    u64 last = total_progress();
    auto last_change = Clock::now();
    while (!cv_.wait_for(lock, std::chrono::milliseconds(250), [this] { return done_; })) {
      const u64 now = total_progress();
      if (now != last) {
        last = now;
        last_change = Clock::now();
      } else if (Clock::now() - last_change > std::chrono::duration<double>(kStallSeconds)) {
        stall();
      }
    }
  }

  [[noreturn]] void stall() {
    RunResult r;
    r.correct = false;
    u64 completed = 0;
    for (u32 t = 0; t < kMaxLoadThreads; ++t) {
      r.attempted += live_counts(t).attempted.load();
      completed += live_counts(t).completed.load();
      r.failed += live_counts(t).failed.load();
    }
    const u64 unfinished = r.attempted > completed ? r.attempted - completed : 0;
    r.failed += unfinished;
    std::fprintf(stderr,
                 "perfbench: STALL: workload=%s seed=%llu pool_lanes=%u: no progress for %.0f s; "
                 "attempted=%llu completed=%llu unfinished=%llu failed_frac=%s\n",
                 cfg_.workload.c_str(), static_cast<unsigned long long>(cfg_.seed),
                 cfg_.pool_lanes, kStallSeconds, static_cast<unsigned long long>(r.attempted),
                 static_cast<unsigned long long>(completed),
                 static_cast<unsigned long long>(unfinished),
                 num(ratio(static_cast<double>(r.failed), static_cast<double>(r.attempted))).c_str());
    std::printf("# STALL: workload=%s seed=%llu; %llu ops unfinished\n", cfg_.workload.c_str(),
                static_cast<unsigned long long>(cfg_.seed),
                static_cast<unsigned long long>(unfinished));
    print_json(r);
    std::fflush(stderr);
    _exit(3);
  }

  const RunConfig& cfg_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;  // last: started once the members above exist
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "pimbench: %s\nusage: pimbench --workload serve_read|serve_write|engine_read "
               "--seed N --seconds S --trace 0|1 [--smoke] [--pool-lanes L] [--out-dir D]\n",
               why);
  std::exit(2);
}

RunConfig parse(int argc, char** argv) {
  RunConfig cfg;
  cfg.pool_lanes = kPoolLanes;
  cfg.out_dir = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    try {
      if (a == "--workload") cfg.workload = value();
      else if (a == "--seed") cfg.seed = std::stoull(value());
      else if (a == "--seconds") cfg.seconds = std::stod(value());
      else if (a == "--trace") cfg.trace = std::stoi(value()) != 0;
      else if (a == "--smoke") cfg.smoke = true;
      else if (a == "--pool-lanes") cfg.pool_lanes = static_cast<u32>(std::stoul(value()));
      else if (a == "--out-dir") cfg.out_dir = value();
      else usage(("unknown argument " + a).c_str());
    } catch (const std::exception&) {
      usage(("bad value for " + a).c_str());
    }
  }
  if (cfg.workload != "serve_read" && cfg.workload != "serve_write" &&
      cfg.workload != "engine_read") {
    usage("unknown workload");
  }
  if (!(cfg.seconds > 0 && cfg.seconds <= 120)) usage("--seconds must be in (0, 120]");
  if (cfg.pool_lanes < 1) usage("--pool-lanes must be >= 1");
  if (cfg.smoke) cfg.seconds = std::min(cfg.seconds, 1.0);
  return cfg;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const RunConfig cfg = parse(argc, argv);
  // The pool reads PIM_NUM_THREADS once, when it is first used.
  setenv("PIM_NUM_THREADS", std::to_string(cfg.pool_lanes).c_str(), 1);
  const u32 lanes = pim::par::ThreadPool::instance().lanes();

  std::printf("# perfbench workload=%s seed=%llu seconds=%s trace=%d%s\n", cfg.workload.c_str(),
              static_cast<unsigned long long>(cfg.seed), num(cfg.seconds).c_str(),
              cfg.trace ? 1 : 0, cfg.smoke ? " smoke" : "");
  std::printf("# host: nproc=%ld pool_lanes=%u (PIM_NUM_THREADS=%u; pinned to %u: multi-lane "
              "pools deadlock, see README) build=%s opt=\"%s\" compiler=\"%s\"\n",
              sysconf(_SC_NPROCESSORS_ONLN), lanes, cfg.pool_lanes, kPoolLanes,
              PERFBENCH_BUILD_TYPE, PERFBENCH_OPT_FLAGS, __VERSION__);
  std::fflush(stdout);

  RunResult r;
  {
    Watchdog watchdog(cfg);
    r = cfg.workload == "engine_read" ? run_engine(cfg) : run_serve(cfg);
  }
  for (const auto& n : r.notes) std::printf("# %s\n", n.c_str());
  for (const auto& m : r.metrics) {
    std::printf("# %s = %s %s\n", m.name.c_str(), num(m.value).c_str(), m.unit.c_str());
  }
  print_json(r);
  return !r.correct ? 1 : 0;
}
