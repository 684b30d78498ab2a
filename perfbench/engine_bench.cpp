// engine_read: one PimSkipList on sim::Machine(256) holding 2^18 keys,
// driven from one thread; no serve or shard code runs. It uses core and
// sim differently from the serve workloads (P = 256 and sparse rounds
// instead of P = 8), and it is the no-change control for every serve or
// shard optimisation.
//
// The calls repeat a cycle of one dense batch_get of 4096 Zipf keys and
// two sparse batch_successor calls of 128 uniform probes; on a 4-vCPU x86
// host the get takes about 1.6 ms and each successor call about 1 ms, so
// each side takes about half the time. A pass is a fixed list of cycles
// generated at set-up, and runs measure whole passes.
//
// Model counts (sim.*, par.*) come from the first traced pass only. The
// traced phase runs right after a one-pass warm-up, so that pass is the
// same call sequence from the same structure state in every run of a
// seed, and its counts repeat exactly; later passes depend on how many
// calls came before them.
#include <fstream>
#include <map>
#include <memory>

#include "common.hpp"
#include "core/pim_skiplist.hpp"
#include "sim/machine.hpp"
#include "sim/measure.hpp"
#include "sim/trace.hpp"

namespace perfbench {
namespace {

constexpr pim::u32 kModules = 256;
constexpr u64 kKeys = u64{1} << 18;
constexpr u64 kDenseKeys = 4096;
constexpr u32 kSparseCalls = 2;
constexpr u64 kSparseKeys = 128;
constexpr u32 kCyclesPerPass = 64;
constexpr int kSegments = 10;

struct Cycle {
  std::vector<Key> dense;
  std::vector<std::vector<Key>> sparse;
};

struct Engine {
  std::vector<std::pair<Key, Value>> pairs;
  std::unique_ptr<pim::sim::Machine> machine;
  std::unique_ptr<pim::core::PimSkipList> list;
  std::vector<Cycle> pass;
};

std::unique_ptr<Engine> set_up(u64 seed) {
  auto e = std::make_unique<Engine>();
  Rng rng(stream_seed(seed, 2));
  const std::vector<Key> keys = distinct_keys(kKeys, rng);
  e->pairs.reserve(keys.size());
  for (Key k : keys) e->pairs.emplace_back(k, rng());
  e->machine = std::make_unique<pim::sim::Machine>(kModules);
  e->list = std::make_unique<pim::core::PimSkipList>(*e->machine);
  e->list->build(e->pairs);
  const ZipfKeys zipf(keys.size(), 0.99, rng);
  e->pass.resize(kCyclesPerPass);
  for (Cycle& c : e->pass) {
    c.dense.resize(kDenseKeys);
    for (Key& k : c.dense) k = keys[zipf.sample(rng)];
    c.sparse.resize(kSparseCalls);
    for (auto& probes : c.sparse) {
      probes.resize(kSparseKeys);
      for (Key& k : probes) k = static_cast<Key>(rng.below(kKeyDomain));
    }
  }
  return e;
}

/// Totals of one measured phase.
struct PhaseStats {
  Histogram call_ns;
  double ns = 0;  // time inside batch calls
  u64 keys = 0;
  double get_ns = 0, succ_ns = 0;
  u64 get_keys = 0, succ_keys = 0;
  u64 rounds = 0;  // every traced call (for host ns per round)
  // Model counts of the first traced pass.
  u64 model_keys = 0, model_calls = 0;
  u64 model_rounds = 0, io = 0, pim = 0, msgs = 0, cpu_work = 0, cpu_depth = 0;
  std::map<std::string, std::pair<u64, u64>> phases;  // metric label -> rounds, io
};

struct CoreSpan {
  u64 id;
  const char* name;
  double start_us, dur_us;
  u64 keys, rounds, io, msgs, pim, cpu_work, cpu_depth;
};

class EngineRun {
 public:
  explicit EngineRun(Engine& e) : e_(e), origin_(now_ns()) {}

  /// Runs whole passes until `seconds` of wall time have gone by. With a
  /// tracer, every call is also measured (machine delta, CPU work/depth,
  /// per-phase rounds) and becomes a core span.
  void run(double seconds, PhaseStats* st, pim::sim::Tracer* tracer, std::vector<CoreSpan>* spans) {
    e_.machine->set_tracer(tracer);
    const u64 end = now_ns() + static_cast<u64>(seconds * 1e9);
    bool first = true;
    do {
      for (const Cycle& c : e_.pass) {
        call(st, tracer, spans, first, true, c.dense);
        for (const auto& probes : c.sparse) call(st, tracer, spans, first, false, probes);
      }
      first = false;
    } while (now_ns() < end);
    e_.machine->set_tracer(nullptr);
  }

  u64 mismatches() const { return mismatches_; }
  const std::string& first_error() const { return first_error_; }

 private:
  void call(PhaseStats* st, pim::sim::Tracer* tracer, std::vector<CoreSpan>* spans,
            bool model_pass, bool get, const std::vector<Key>& keys) {
    pim::sim::OpMetrics m;
    std::vector<pim::core::PimSkipList::GetResult> gets;
    std::vector<pim::core::PimSkipList::NearResult> succs;
    const u64 t0 = now_ns();
    if (tracer != nullptr) {
      m = pim::sim::measure(*e_.machine, [&] {
        if (get) gets = e_.list->batch_get(keys);
        else succs = e_.list->batch_successor(keys);
      });
    } else if (get) {
      gets = e_.list->batch_get(keys);
    } else {
      succs = e_.list->batch_successor(keys);
    }
    const u64 dt = now_ns() - t0;
    progress().fetch_add(1, std::memory_order_relaxed);
    check(keys, gets, succs);
    if (st == nullptr) return;
    st->call_ns.add(dt);
    st->ns += static_cast<double>(dt);
    st->keys += keys.size();
    (get ? st->get_ns : st->succ_ns) += static_cast<double>(dt);
    (get ? st->get_keys : st->succ_keys) += keys.size();
    if (tracer == nullptr) return;
    st->rounds += m.machine.rounds;
    if (model_pass) {
      ++st->model_calls;
      st->model_keys += keys.size();
      st->model_rounds += m.machine.rounds;
      st->io += m.machine.io_time;
      st->pim += m.machine.pim_time;
      st->msgs += m.machine.messages;
      st->cpu_work += m.cpu_work;
      st->cpu_depth += m.cpu_depth;
      for (const auto& ph : m.phases) {
        auto& acc = st->phases[phase_metric_label(ph.name)];
        acc.first += ph.rounds;
        acc.second += ph.io_time;
      }
    }
    tracer->clear();
    spans->push_back(CoreSpan{spans->size() + 1, get ? "batch_get" : "batch_successor",
                              static_cast<double>(t0 - origin_) / 1e3,
                              static_cast<double>(dt) / 1e3, keys.size(), m.machine.rounds,
                              m.machine.io_time, m.machine.messages, m.machine.pim_time,
                              m.cpu_work, m.cpu_depth});
  }

  /// Results must match the sorted key array.
  void check(const std::vector<Key>& keys,
             const std::vector<pim::core::PimSkipList::GetResult>& gets,
             const std::vector<pim::core::PimSkipList::NearResult>& succs) {
    const auto& pairs = e_.pairs;
    auto lower = [&](Key k) {
      return std::lower_bound(pairs.begin(), pairs.end(), k,
                              [](const auto& p, Key key) { return p.first < key; });
    };
    auto fail = [&](const char* what, Key k) {
      ++mismatches_;
      if (first_error_.empty()) first_error_ = std::string(what) + " for key " + std::to_string(k);
    };
    if (gets.size() + succs.size() != keys.size()) return fail("result count differs", 0);
    for (size_t i = 0; i < gets.size(); ++i) {
      const auto it = lower(keys[i]);
      const bool stored = it != pairs.end() && it->first == keys[i];
      if (gets[i].found != stored || (stored && gets[i].value != it->second)) {
        fail("batch_get result differs", keys[i]);
      }
    }
    for (size_t i = 0; i < succs.size(); ++i) {
      const auto it = lower(keys[i]);
      const bool exists = it != pairs.end();
      if (succs[i].found != exists || (exists && succs[i].key != it->first)) {
        fail("batch_successor result differs", keys[i]);
      }
    }
  }

  Engine& e_;
  u64 origin_;
  u64 mismatches_ = 0;
  std::string first_error_;
};

}  // namespace

RunResult run_engine(const RunConfig& cfg) {
  RunResult res;
  const int reps = cfg.smoke ? 1 : 5;
  std::vector<double> setup_s;
  std::unique_ptr<Engine> engine;
  for (int r = 0; r < reps; ++r) {
    engine.reset();
    reset_peak_rss();
    const u64 t0 = now_ns();
    engine = set_up(cfg.seed);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    progress().fetch_add(1);
  }

  EngineRun run(*engine);
  run.run(0, nullptr, nullptr, nullptr);  // warm-up: one pass, checked, not measured
  PhaseStats a, b;
  std::vector<CoreSpan> spans;
  pim::sim::Tracer tracer;
  if (cfg.trace) run.run(cfg.seconds / 2, &b, &tracer, &spans);
  // The untimed phase runs as kSegments segments; the end-to-end metrics
  // are medians over them, steady against stretches of a busy host.
  const int segments = cfg.trace || cfg.smoke ? 1 : kSegments;
  std::vector<double> seg_ops, seg_p50, seg_p99;
  for (int i = 0; i < segments; ++i) {
    auto seg = std::make_unique<PhaseStats>();
    run.run((cfg.trace ? cfg.seconds / 2 : cfg.seconds) / segments, seg.get(), nullptr, nullptr);
    seg_ops.push_back(ratio(static_cast<double>(seg->keys), seg->ns / 1e9));
    seg_p50.push_back(seg->call_ns.percentile(0.50) / 1e3);
    seg_p99.push_back(seg->call_ns.percentile(0.99) / 1e3);
    a.call_ns.merge(seg->call_ns);
    a.ns += seg->ns;
    a.keys += seg->keys;
    a.get_ns += seg->get_ns;
  }
  const double rss = peak_rss_mib();

  res.attempted = a.keys + b.keys;
  res.correct = run.mismatches() == 0;
  if (!res.correct) {
    res.notes.push_back("CHECK FAILED: " + std::to_string(run.mismatches()) +
                        " results differ from the sorted key array; first: " + run.first_error());
  }
  res.notes.push_back("structure: PimSkipList on Machine(" + std::to_string(kModules) + ") with " +
                      std::to_string(kKeys) + " keys; cycle = 1 batch_get of " +
                      std::to_string(kDenseKeys) + " Zipf keys + " + std::to_string(kSparseCalls) +
                      " batch_successor of " + std::to_string(kSparseKeys) + " uniform probes");
  const double ops_a = ratio(static_cast<double>(a.keys), a.ns / 1e9);
  if (!cfg.trace) {
    res.notes.push_back("failed_frac = 0 ratio (attempted " + std::to_string(res.attempted) +
                        " keys; batch calls have no per-key failure)");
    res.notes.push_back("latency samples = " + std::to_string(a.call_ns.count()) +
                        " batch calls (beyond p99: " + std::to_string(a.call_ns.beyond(0.99)) +
                        "); get time share " + num(ratio(a.get_ns, a.ns)));
    res.notes.push_back("pooled over segments: ops_per_s " + num(ops_a) + ", p50 " +
                        num(a.call_ns.percentile(0.50) / 1e3) + " us, p99 " +
                        num(a.call_ns.percentile(0.99) / 1e3) + " us");
    res.metrics = {
        {"ops_per_s", median(seg_ops), "ops/s"},
        {"lat_p50_us", median(seg_p50), "us"},
        {"lat_p99_us", median(seg_p99), "us"},
        {"setup_s", median(setup_s), "s"},
        {"rss_mb", rss, "MiB"},
    };
    return res;
  }

  const double ops_b = ratio(static_cast<double>(b.keys), b.ns / 1e9);
  const double keys = static_cast<double>(b.model_keys);
  std::map<std::string, double> m = {
      {"core.get_us_per_key", ratio(b.get_ns / 1e3, static_cast<double>(b.get_keys))},
      {"core.successor_us_per_key", ratio(b.succ_ns / 1e3, static_cast<double>(b.succ_keys))},
      {"sim.ns_per_round", ratio(b.ns, static_cast<double>(b.rounds))},
      {"sim.rounds_per_op", ratio(static_cast<double>(b.model_rounds), keys)},
      {"sim.io_per_op", ratio(static_cast<double>(b.io), keys)},
      {"sim.pim_per_op", ratio(static_cast<double>(b.pim), keys)},
      {"sim.msgs_per_op", ratio(static_cast<double>(b.msgs), keys)},
      {"par.cpu_work_per_op", ratio(static_cast<double>(b.cpu_work), keys)},
      {"par.cpu_depth_per_call",
       ratio(static_cast<double>(b.cpu_depth), static_cast<double>(b.model_calls))},
      {"trace.overhead_frac", ratio(ops_a - ops_b, ops_a)},
  };
  for (const auto& [label, ri] : b.phases) {
    m["sim.phase." + label + ".rounds"] += ratio(static_cast<double>(ri.first), keys);
    m["sim.phase." + label + ".io"] += ratio(static_cast<double>(ri.second), keys);
  }
  for (const auto& spec : per_layer_specs()) {
    res.metrics.push_back({spec.name, m.count(spec.name) ? m[spec.name] : 0.0, spec.unit});
  }
  res.notes.push_back("traced phase: " + std::to_string(b.call_ns.count()) + " calls, " +
                      std::to_string(b.keys) + " keys; sim.* and par.* counts are exact, over "
                      "its first pass (" + std::to_string(b.model_calls) + " calls)");
  res.notes.push_back("tracing overhead: ops_per_s untraced half " + num(ops_a) +
                      ", traced half " + num(ops_b));
  res.notes.push_back("not on this workload's path (read 0): serve.*, shard.*");
  const std::string path = trace_path(cfg);
  std::ofstream out(path);
  for (const CoreSpan& s : spans) {
    out << "{\"id\":" << s.id << ",\"layer\":\"core\",\"name\":\"" << s.name
        << "\",\"start_us\":" << num(s.start_us) << ",\"dur_us\":" << num(s.dur_us)
        << ",\"keys\":" << s.keys << ",\"rounds\":" << s.rounds << ",\"io\":" << s.io
        << ",\"msgs\":" << s.msgs << ",\"pim\":" << s.pim << ",\"cpu_work\":" << s.cpu_work
        << ",\"cpu_depth\":" << s.cpu_depth << "}\n";
  }
  if (out) res.notes.push_back("spans: " + path + " (" + std::to_string(spans.size()) + ")");
  return res;
}

}  // namespace perfbench
