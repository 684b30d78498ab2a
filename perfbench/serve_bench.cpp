// serve_read and serve_write: closed-loop clients through ServingFrontEnd
// over a ShardedPimStore.
//
// Four client threads keep 64 ops in flight each and wait on the oldest
// future before issuing the next op. The loop is closed because the front
// end's callers hold futures and wait, and its consistency contract is
// built for clients that block; a closed loop also stays steady on a
// shared host, where an open loop near capacity would not.
//
// Every reply is logged (checker.hpp) and checked after the timed phase.
// The traced run also replays each window's store calls onto a twin store
// built from the same inputs, timing each call: the front end's executor
// makes the real calls, so the benchmark cannot time them from outside
// while serving. The replay runs without client or batcher threads, so
// its times are a lower bound on the served ones.
#include <unistd.h>

#include <deque>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <thread>

#include "checker.hpp"
#include "common.hpp"
#include "serve/serving_frontend.hpp"
#include "shard/sharded_store.hpp"
#include "sim/trace.hpp"

namespace perfbench {
namespace {

using pim::serve::FrontEndOptions;
using pim::serve::ServingFrontEnd;
using pim::shard::ShardedPimStore;
using pim::shard::ShardOptions;

constexpr u32 kClients = 4;
constexpr u32 kInflight = 64;
constexpr u64 kStored = u64{1} << 17;
/// Serve spans written to the trace file: the ops of this many windows
/// of the traced phase (the per-layer metrics use every window).
constexpr u32 kSpanWindows = 256;
/// An untraced run splits its timed phase over this many independent
/// trials, each on fresh inputs, store and front end, and reports the
/// median over trials of ops/s, p50 and p99. A serving run settles early
/// into one of several regimes that then last for the whole run (for
/// example whether the four groups' journal compactions land in the same
/// store call or in different ones), and single runs of one seed differed
/// by up to 2x in ops/s and p99; a busy host also slows stretches of a
/// run. The median over trials is steady against both.
constexpr u64 kTrials = 10;
constexpr double kWarmupSeconds = 0.3;

enum Phase : u8 { kWarm = 0, kPhaseA = 1, kPhaseB = 2, kDrain = 3 };

struct ServeSpec {
  u32 replication;
  u32 write_quorum;
  u64 domain_keys;  // keys the ops draw from; the first kStored are stored
  u32 pct_get;
  u32 pct_successor;
  u32 pct_upsert;  // the rest are erases
  bool zipf_gets;
};

ServeSpec spec_for(const std::string& workload) {
  // serve_read: Zipf gets over the stored keys, uniform successor probes,
  // upserts of existing keys; one replica per group.
  if (workload == "serve_read") return {1, 1, kStored, 80, 15, 5, true};
  // serve_write: uniform upserts and erases over a domain twice the stored
  // size (so the store stays near 2^17 keys), R = 2 with write quorum 2.
  return {2, 2, 2 * kStored, 20, 0, 40, false};
}

struct Inputs {
  std::vector<std::pair<Key, Value>> pairs;  // initially stored, sorted
  std::vector<Key> domain;                   // keys ops draw from
  std::array<std::vector<Key>, kClients> own;  // domain keys client c may write
  std::unique_ptr<ZipfKeys> zipf;              // over `domain`
};

Inputs make_inputs(const ServeSpec& spec, u64 seed) {
  Inputs in;
  Rng rng(stream_seed(seed, 1));
  in.domain = distinct_keys(spec.domain_keys, rng);
  std::vector<Key> stored = in.domain;
  for (u64 i = stored.size() - 1; i > 0; --i) std::swap(stored[i], stored[rng.below(i + 1)]);
  stored.resize(kStored);
  std::sort(stored.begin(), stored.end());
  in.pairs.reserve(stored.size());
  for (Key k : stored) in.pairs.emplace_back(k, rng());
  // Each client writes only keys of its own residue class, so the checker
  // knows which of two same-window writes of a key came first.
  for (Key k : in.domain) in.own[static_cast<u64>(k) % kClients].push_back(k);
  if (spec.zipf_gets) in.zipf = std::make_unique<ZipfKeys>(in.domain.size(), 0.99, rng);
  return in;
}

struct Pending {
  OpRecord rec;
  std::future<pim::serve::GetReply> get;
  std::future<pim::serve::UpsertReply> upsert;
  std::future<pim::serve::EraseReply> erase;
  std::future<pim::serve::SuccessorReply> successor;

  bool ready() const {
    auto is_ready = [](const auto& f) {
      return f.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
    };
    switch (rec.kind) {
      case kUpsert: return is_ready(upsert);
      case kErase: return is_ready(erase);
      case kGet: return is_ready(get);
      default: return is_ready(successor);
    }
  }
};

struct Client {
  Client(u32 id_, u64 seed, const std::string& log_path)
      : id(id_), rng(stream_seed(seed, 100 + id_)), log(log_path) {}
  u32 id;
  Rng rng;
  OpLogWriter log;
  Histogram latency[2];  // ns, phases A and B
  Histogram rounds;      // reply latency_rounds, phase B
  u64 ok[2] = {0, 0};
  u64 attempted = 0;
  u64 failed = 0;
};

class ServeRun {
 public:
  ServeRun(const ServeSpec& spec, const Inputs& in, ServingFrontEnd& fe,
           const std::atomic<u8>& phase)
      : spec_(spec), in_(in), fe_(fe), phase_(phase) {}

  void client_loop(Client& c) {
    LiveCounts& live = live_counts(c.id);
    std::deque<Pending> inflight;
    while (phase_.load(std::memory_order_acquire) != kDrain) {
      while (inflight.size() < kInflight) {
        inflight.push_back(submit(c));
        ++c.attempted;
        live.attempted.fetch_add(1, std::memory_order_relaxed);
      }
      settle(c, inflight.front());
      inflight.pop_front();
      // Take every reply that is already there before issuing more, so
      // an op's latency is not stretched by the submissions in between.
      while (!inflight.empty() && inflight.front().ready()) {
        settle(c, inflight.front());
        inflight.pop_front();
      }
    }
    while (!inflight.empty()) {
      settle(c, inflight.front());
      inflight.pop_front();
    }
  }

 private:
  Pending submit(Client& c) {
    Pending p;
    OpRecord& r = p.rec;
    const u64 dice = c.rng.below(100);
    const auto& own = in_.own[c.id];
    if (dice < spec_.pct_get) {
      r.kind = kGet;
      r.key = in_.domain[in_.zipf ? in_.zipf->sample(c.rng) : c.rng.below(in_.domain.size())];
    } else if (dice < spec_.pct_get + spec_.pct_successor) {
      r.kind = kSuccessor;
      r.key = static_cast<Key>(c.rng.below(kKeyDomain));
    } else if (dice < spec_.pct_get + spec_.pct_successor + spec_.pct_upsert) {
      r.kind = kUpsert;
      r.key = own[c.rng.below(own.size())];
      r.value = c.rng();
    } else {
      r.kind = kErase;
      r.key = own[c.rng.below(own.size())];
    }
    r.t_submit = now_ns();
    switch (r.kind) {
      case kUpsert: p.upsert = fe_.submit_upsert(r.key, r.value); break;
      case kErase: p.erase = fe_.submit_erase(r.key); break;
      case kGet: p.get = fe_.submit_get(r.key); break;
      default: p.successor = fe_.submit_successor(r.key); break;
    }
    return p;
  }

  void settle(Client& c, Pending& p) {
    OpRecord& r = p.rec;
    pim::Status status;
    u64 seq = 0;
    u64 rounds = 0;
    switch (r.kind) {
      case kUpsert: {
        auto reply = p.upsert.get();
        status = reply.status;
        seq = reply.batch_seq;
        rounds = reply.latency_rounds;
        break;
      }
      case kErase: {
        auto reply = p.erase.get();
        status = reply.status;
        r.found = reply.erased;
        seq = reply.batch_seq;
        rounds = reply.latency_rounds;
        break;
      }
      case kGet: {
        auto reply = p.get.get();
        status = reply.status;
        r.found = reply.found;
        r.value = reply.value;
        seq = reply.batch_seq;
        rounds = reply.latency_rounds;
        break;
      }
      default: {
        auto reply = p.successor.get();
        status = reply.status;
        r.found = reply.found;
        r.value = static_cast<u64>(reply.key);
        seq = reply.batch_seq;
        rounds = reply.latency_rounds;
        break;
      }
    }
    r.latency = now_ns() - r.t_submit;
    r.seq = static_cast<u32>(seq);
    r.status = static_cast<u8>(status.code());
    r.phase = phase_.load(std::memory_order_relaxed);
    LiveCounts& live = live_counts(c.id);
    if (status.ok()) {
      if (r.phase == kPhaseA || r.phase == kPhaseB) {
        const int i = r.phase - kPhaseA;
        c.latency[i].add(r.latency);
        if (r.phase == kPhaseB) c.rounds.add(rounds);
        ++c.ok[i];
      }
    } else {
      ++c.failed;
      live.failed.fetch_add(1, std::memory_order_relaxed);
    }
    c.log.write(r);
    live.completed.fetch_add(1, std::memory_order_relaxed);
  }

  const ServeSpec& spec_;
  const Inputs& in_;
  ServingFrontEnd& fe_;
  const std::atomic<u8>& phase_;
};

// ------------------------------------------------------------------ replay

/// Per-layer accumulators of the traced phase (phase B).
struct LayerStats {
  Histogram window_ns;      // replayed store time per window
  Histogram write_call_ns;  // replayed upsert / delete calls
  Histogram self_ns;        // op latency minus its window's store time
  double read_ns = 0, write_ns = 0;
  u64 read_keys = 0, write_keys = 0;
  u64 ops = 0, windows = 0;
  u64 rounds = 0, io = 0, pim = 0, msgs = 0;
  std::map<std::string, std::pair<u64, u64>> phases;  // metric label -> rounds, io
  double load_imbalance = 0;
};

struct Span {
  u64 id;  // the window's batch_seq: shared by every span of its requests
  u64 op;  // client << 48 | op ordinal within the client (serve spans)
  const char* layer;
  const char* name;
  double start_us;
  double dur_us;
  u64 keys;
};

/// Twin store the traced run replays windows onto.
class Twin {
 public:
  Twin(const ShardOptions& opts, const Inputs& in) : store_(opts) {
    store_.build(in.pairs);
    for (u32 s = 0; s < store_.slots(); ++s) {
      const pim::sim::Machine* m = store_.shard_machine(s);
      if (m == nullptr) continue;
      tracers_.push_back(std::make_unique<pim::sim::Tracer>());
      // The store hands its machines out read-only; attaching a tracer only
      // installs an observer (model metrics stay bit-identical), and this
      // store is the benchmark's own twin, never the one that served.
      const_cast<pim::sim::Machine*>(m)->set_tracer(tracers_.back().get());
      machines_.push_back(m);
    }
    origin_ = now_ns();
  }

  /// Re-issues one window's store calls in the executor's order and checks
  /// each result against the model. Returns the store time in ns.
  u64 replay(const WindowBatches& b, ReplayChecker& check, u64& mismatches, bool measured,
             u32 seq, LayerStats& st, std::vector<Span>& spans) {
    std::vector<pim::sim::Snapshot> before;
    before.reserve(machines_.size());
    for (const auto* m : machines_) before.push_back(m->snapshot());
    u64 total = 0;
    auto timed = [&](const char* name, u64 keys, bool write, auto&& call) {
      if (keys == 0) return;
      const u64 t0 = now_ns();
      call();
      const u64 dt = now_ns() - t0;
      total += dt;
      if (!measured) return;
      (write ? st.write_ns : st.read_ns) += static_cast<double>(dt);
      (write ? st.write_keys : st.read_keys) += keys;
      if (write) st.write_call_ns.add(dt);
      spans.push_back(Span{seq, 0, "shard", name, static_cast<double>(t0 - origin_) / 1e3,
                           static_cast<double>(dt) / 1e3, keys});
    };
    auto expect = [&](bool good, const char* what) {
      if (good) return;
      ++mismatches;
      check.report(std::string("replay twin: ") + what + " in window " + std::to_string(seq));
    };

    // Results are checked after each timed call, outside its span.
    std::vector<pim::Status> ups;
    std::vector<ShardedPimStore::FlagResult> dels;
    std::vector<ShardedPimStore::GetResult> gets;
    std::vector<ShardedPimStore::NearResult> succs;
    timed("batch_upsert", b.upsert_kvs.size(), true, [&] { ups = store_.batch_upsert(b.upsert_kvs); });
    timed("batch_delete", b.del_keys.size(), true, [&] { dels = store_.batch_delete(b.del_keys); });
    timed("batch_get", b.get_keys.size(), false, [&] { gets = store_.batch_get(b.get_keys); });
    timed("batch_successor", b.succ_keys.size(), false,
          [&] { succs = store_.batch_successor(b.succ_keys); });
    for (const auto& s : ups) expect(s.ok(), "upsert failed");
    for (size_t i = 0; i < dels.size(); ++i) {
      expect(dels[i].status.ok() && dels[i].found == (b.del_found[i] != 0), "erase flag differs");
    }
    const auto& state = check.state();
    for (size_t i = 0; i < gets.size(); ++i) {
      const auto it = state.find(b.get_keys[i]);
      expect(gets[i].status.ok() && gets[i].found == (it != state.end()) &&
                 (!gets[i].found || gets[i].value == it->second),
             "get result differs");
    }
    for (size_t i = 0; i < succs.size(); ++i) {
      const auto it = state.lower_bound(b.succ_keys[i]);
      expect(succs[i].status.ok() && succs[i].found == (it != state.end()) &&
                 (!succs[i].found || succs[i].key == it->first),
             "successor result differs");
    }

    for (size_t i = 0; i < machines_.size(); ++i) {
      if (measured) {
        const pim::sim::MachineDelta d = machines_[i]->delta(before[i]);
        st.rounds += d.rounds;
        st.io += d.io_time;
        st.pim += d.pim_time;
        st.msgs += d.messages;
        for (const auto& ph : tracers_[i]->phase_breakdown()) {
          auto& acc = st.phases[phase_metric_label(ph.name)];
          acc.first += ph.rounds;
          acc.second += ph.io_time;
        }
      }
      tracers_[i]->clear();
    }
    return total;
  }

  ShardedPimStore& store() { return store_; }

 private:
  ShardedPimStore store_;
  std::vector<std::unique_ptr<pim::sim::Tracer>> tracers_;
  std::vector<const pim::sim::Machine*> machines_;
  u64 origin_ = 0;
};

double load_imbalance(const ShardedPimStore& store) {
  double max_share = 0;
  for (u32 s = 0; s < store.slots(); ++s) {
    if (store.shard_machine(s) == nullptr) continue;
    max_share = std::max(max_share, store.shard_load(s).io_share);
  }
  return max_share * store.live_shards();
}

bool write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  for (const Span& s : spans) {
    out << "{\"id\":" << s.id << ",\"layer\":\"" << s.layer << "\",\"name\":\"" << s.name
        << "\",\"start_us\":" << num(s.start_us) << ",\"dur_us\":" << num(s.dur_us);
    if (s.op != 0) out << ",\"op\":" << s.op;
    out << ",\"keys\":" << s.keys << "}\n";
  }
  return static_cast<bool>(out);
}

/// Everything the trials of one run add up.
struct Totals {
  std::vector<double> setup_s;
  std::vector<double> rss_mib;  // peak from set-up to the end of the drain
  std::vector<double> trial_ops, trial_p50, trial_p99;  // phase A of each trial
  std::vector<double> trial_steal;                      // host CPU steal share, phase A
  Histogram latency[2];  // ns, phases A and B
  Histogram rounds;      // reply latency_rounds, phase B
  u64 ok[2] = {0, 0};
  double seconds[2] = {0, 0};
  u64 attempted = 0, failed = 0, never_replied = 0;
  u64 windows = 0, mismatches = 0;
  std::vector<std::string> errors;
  // Traced run only (one trial).
  ServingFrontEnd::Stats b0, b1;
  LayerStats layers;
  std::vector<Span> spans;
};

/// One trial: fresh inputs, store and front end; warm-up, phase A, phase
/// B (traced run), drain; then the untimed check (and, traced, the replay).
void run_trial(const RunConfig& cfg, const ServeSpec& spec, const ShardOptions& so, u64 trial,
               double warm_s, double a_s, double b_s, Totals& tot) {
  const u64 trial_seed = stream_seed(cfg.seed, 1000 + trial);
  reset_peak_rss();
  const u64 t_setup = now_ns();
  Inputs in = make_inputs(spec, trial_seed);
  auto store = std::make_unique<ShardedPimStore>(so);
  store->build(in.pairs);
  auto fe = std::make_unique<ServingFrontEnd>(*store, FrontEndOptions{});
  tot.setup_s.push_back(static_cast<double>(now_ns() - t_setup) / 1e9);
  progress().fetch_add(1);

  std::atomic<u8> phase{kWarm};
  std::vector<std::string> log_paths;
  std::vector<std::unique_ptr<Client>> clients;
  for (u32 c = 0; c < kClients; ++c) {
    log_paths.push_back(cfg.out_dir + "/oplog-" + cfg.workload + "-" + std::to_string(getpid()) +
                        "-" + std::to_string(c) + ".bin");
    clients.push_back(std::make_unique<Client>(c, trial_seed, log_paths.back()));
  }
  ServeRun run(spec, in, *fe, phase);
  std::vector<std::thread> threads;
  for (auto& c : clients) threads.emplace_back([&run, &c] { run.client_loop(*c); });
  auto sleep_s = [](double s) { std::this_thread::sleep_for(std::chrono::duration<double>(s)); };
  sleep_s(warm_s);
  const u64 t_a = now_ns();
  const CpuTimes cpu_a = cpu_times();
  phase.store(kPhaseA, std::memory_order_release);
  sleep_s(a_s);
  const u64 t_b = now_ns();
  tot.trial_steal.push_back(steal_share(cpu_a, cpu_times()));
  tot.b0 = fe->stats();
  phase.store(kPhaseB, std::memory_order_release);
  sleep_s(b_s);
  const u64 t_end = now_ns();
  tot.b1 = fe->stats();
  phase.store(kDrain, std::memory_order_release);
  for (auto& t : threads) t.join();
  fe->stop();
  const auto final_stats = fe->stats();
  tot.rss_mib.push_back(peak_rss_mib());
  fe.reset();
  store.reset();

  bool logs_ok = true;
  u64 attempted = 0;
  auto trial_latency = std::make_unique<Histogram>();
  u64 trial_ok = 0;
  for (auto& c : clients) {
    trial_latency->merge(c->latency[0]);
    trial_ok += c->ok[0];
    for (int i = 0; i < 2; ++i) {
      tot.latency[i].merge(c->latency[i]);
      tot.ok[i] += c->ok[i];
    }
    tot.rounds.merge(c->rounds);
    logs_ok = c->log.close() && logs_ok;
    attempted += c->attempted;
    tot.failed += c->failed;
  }
  clients.clear();
  tot.attempted += attempted;
  const u64 replied = final_stats.completed + final_stats.rejected;
  const u64 never_replied = attempted > replied ? attempted - replied : 0;
  tot.never_replied += never_replied;
  tot.failed += never_replied;
  tot.seconds[0] += static_cast<double>(t_b - t_a) / 1e9;
  tot.seconds[1] += static_cast<double>(t_end - t_b) / 1e9;
  tot.trial_ops.push_back(ratio(static_cast<double>(trial_ok), static_cast<double>(t_b - t_a) / 1e9));
  tot.trial_p50.push_back(trial_latency->percentile(0.50) / 1e3);
  tot.trial_p99.push_back(trial_latency->percentile(0.99) / 1e3);

  // ---- untimed: merge the logs, check every reply, replay (traced run).
  std::unique_ptr<Twin> twin;
  if (cfg.trace) twin = std::make_unique<Twin>(so, in);
  ReplayChecker check(in.pairs);
  WindowMerger merger(log_paths);
  std::vector<OpRecord> window;
  std::vector<u64> ids;
  WindowBatches batches;
  u64 mismatches = 0;
  u32 seq = 0;
  LayerStats& st = tot.layers;
  bool load_reset = false, load_read = false;
  u32 span_windows = 0;
  while (merger.next(window, ids, seq)) {
    ++tot.windows;
    mismatches += check.apply(window, batches);
    progress().fetch_add(1);
    if (!twin) continue;
    const bool measured = std::any_of(window.begin(), window.end(),
                                      [](const OpRecord& r) { return r.phase == kPhaseB; });
    if (measured && !load_reset) {
      twin->store().reset_load_stats();
      load_reset = true;
    }
    if (!measured && load_reset && !load_read) {
      st.load_imbalance = load_imbalance(twin->store());
      load_read = true;
    }
    const u64 store_ns = twin->replay(batches, check, mismatches, measured, seq, st, tot.spans);
    if (!measured) continue;
    ++st.windows;
    st.ops += window.size();
    st.window_ns.add(store_ns);
    const bool keep_spans = span_windows++ < kSpanWindows;
    for (size_t i = 0; i < window.size(); ++i) {
      const OpRecord& r = window[i];
      st.self_ns.add(r.latency > store_ns ? r.latency - store_ns : 0);
      if (keep_spans) {
        tot.spans.push_back(Span{seq, ids[i], "serve", kind_name(r.kind),
                                 static_cast<double>(r.t_submit) / 1e3,
                                 static_cast<double>(r.latency) / 1e3, 1});
      }
    }
  }
  if (load_reset && !load_read) st.load_imbalance = load_imbalance(twin->store());
  for (const auto& p : log_paths) std::remove(p.c_str());

  tot.mismatches += mismatches;
  const std::string where = "trial " + std::to_string(trial) + ": ";
  if (!logs_ok) tot.errors.push_back(where + "op log write failed");
  if (!merger.ok()) tot.errors.push_back(where + "op log inconsistent: " + merger.error());
  if (mismatches != 0) {
    tot.errors.push_back(where + std::to_string(mismatches) +
                         " replies differ from the replay; first: " + check.first_error());
  }
}

}  // namespace

RunResult run_serve(const RunConfig& cfg) {
  RunResult res;
  const ServeSpec spec = spec_for(cfg.workload);
  ShardOptions so;  // 4 groups, 1 spare, P = 8, parallel dispatch on
  so.replication = spec.replication;
  so.write_quorum = spec.write_quorum;

  // Untraced runs split the timed phase over kTrials independent trials
  // and pool their samples (see kTrials); the traced run is one trial
  // whose halves run untraced (A) and traced (B).
  const u64 trials = cfg.trace || cfg.smoke ? 1 : kTrials;
  const double warm_s = cfg.smoke ? 0.2 : kWarmupSeconds;
  const double slice = cfg.seconds / static_cast<double>(trials);
  Totals tot;
  for (u64 t = 0; t < trials; ++t) {
    run_trial(cfg, spec, so, t, warm_s, cfg.trace ? slice / 2 : slice, cfg.trace ? slice / 2 : 0,
              tot);
  }
  res.attempted = tot.attempted;
  res.failed = tot.failed;
  res.correct = tot.errors.empty();
  for (const auto& e : tot.errors) res.notes.push_back("CHECK FAILED: " + e);
  res.notes.push_back("checked " + std::to_string(tot.windows) + " windows over " +
                      std::to_string(trials) + " trial(s): " + std::to_string(tot.mismatches) +
                      " mismatches, " + std::to_string(tot.failed - tot.never_replied) +
                      " failed replies, " + std::to_string(tot.never_replied) + " never replied");
  res.notes.push_back("structure: " + std::to_string(so.shards) + " groups x R=" +
                      std::to_string(so.replication) + " (write quorum " +
                      std::to_string(so.write_quorum) + "), P=" +
                      std::to_string(so.modules_per_shard) + " per shard, " +
                      std::to_string(kStored) + " stored keys of a " +
                      std::to_string(spec.domain_keys) + "-key domain; " +
                      std::to_string(kClients) + " clients x " + std::to_string(kInflight) +
                      " in flight");
  const double ops_a = ratio(static_cast<double>(tot.ok[0]), tot.seconds[0]);
  const double ops_b = ratio(static_cast<double>(tot.ok[1]), tot.seconds[1]);

  if (!cfg.trace) {
    const double failed_frac =
        ratio(static_cast<double>(res.failed), static_cast<double>(res.attempted));
    res.notes.push_back("failed_frac = " + num(failed_frac) + " ratio (attempted " +
                        std::to_string(res.attempted) + ")");
    res.notes.push_back("latency samples = " + std::to_string(tot.latency[0].count()) + " over " +
                        std::to_string(trials) + " trials (beyond each trial's p99: about " +
                        std::to_string(tot.latency[0].beyond(0.99) / trials) +
                        "); pooled: ops_per_s " + num(ops_a) + ", p50 " +
                        num(tot.latency[0].percentile(0.50) / 1e3) + " us, p99 " +
                        num(tot.latency[0].percentile(0.99) / 1e3) + " us");
    auto list = [](const std::vector<double>& v) {
      std::string out;
      for (double x : v) out += (out.empty() ? "" : " ") + std::to_string(static_cast<long long>(x));
      return out;
    };
    std::vector<double> steal_pct;
    for (double x : tot.trial_steal) steal_pct.push_back(100 * x);
    res.notes.push_back("per trial: ops_per_s [" + list(tot.trial_ops) + "] lat_p50_us [" +
                        list(tot.trial_p50) + "] lat_p99_us [" + list(tot.trial_p99) +
                        "] host steal % [" + list(steal_pct) + "]");
    res.metrics = {
        {"ops_per_s", median(tot.trial_ops), "ops/s"},
        {"lat_p50_us", median(tot.trial_p50), "us"},
        {"lat_p99_us", median(tot.trial_p99), "us"},
        {"setup_s", median(tot.setup_s), "s"},
        {"rss_mb", median(tot.rss_mib), "MiB"},
    };
    return res;
  }

  // ---- per-layer metrics of phase B.
  const LayerStats& st = tot.layers;
  const auto& b0 = tot.b0;
  const auto& b1 = tot.b1;
  const double done = static_cast<double>(b1.completed - b0.completed);
  const double win = static_cast<double>(b1.windows - b0.windows);
  const double ops = static_cast<double>(st.ops);
  std::map<std::string, double> m = {
      {"serve.windows_per_kop", ratio(win, done / 1e3)},
      {"serve.coalesced_frac",
       ratio(static_cast<double>((b1.coalesced_reads - b0.coalesced_reads) +
                                 (b1.coalesced_writes - b0.coalesced_writes)),
             done)},
      {"serve.flush_full_frac", ratio(static_cast<double>(b1.flush_full - b0.flush_full), win)},
      {"serve.flush_idle_frac", ratio(static_cast<double>(b1.flush_idle - b0.flush_idle), win)},
      {"serve.flush_delay_frac", ratio(static_cast<double>(b1.flush_delay - b0.flush_delay), win)},
      {"serve.lat_rounds_p50", tot.rounds.percentile(0.50)},
      {"serve.lat_rounds_p99", tot.rounds.percentile(0.99)},
      {"serve.self_us_p50", st.self_ns.percentile(0.50) / 1e3},
      {"serve.self_us_p99", st.self_ns.percentile(0.99) / 1e3},
      {"shard.window_us_p50", st.window_ns.percentile(0.50) / 1e3},
      {"shard.window_us_p99", st.window_ns.percentile(0.99) / 1e3},
      {"shard.read_us_per_key", ratio(st.read_ns / 1e3, static_cast<double>(st.read_keys))},
      {"shard.write_us_per_key", ratio(st.write_ns / 1e3, static_cast<double>(st.write_keys))},
      {"shard.write_call_us_p99", st.write_call_ns.percentile(0.99) / 1e3},
      {"shard.load_imbalance", st.load_imbalance},
      {"sim.ns_per_round", ratio(st.read_ns + st.write_ns, static_cast<double>(st.rounds))},
      {"sim.rounds_per_op", ratio(static_cast<double>(st.rounds), ops)},
      {"sim.io_per_op", ratio(static_cast<double>(st.io), ops)},
      {"sim.pim_per_op", ratio(static_cast<double>(st.pim), ops)},
      {"sim.msgs_per_op", ratio(static_cast<double>(st.msgs), ops)},
      {"trace.overhead_frac", ratio(ops_a - ops_b, ops_a)},
  };
  for (const auto& [label, ri] : st.phases) {
    m["sim.phase." + label + ".rounds"] += ratio(static_cast<double>(ri.first), ops);
    m["sim.phase." + label + ".io"] += ratio(static_cast<double>(ri.second), ops);
  }
  for (const auto& spec_m : per_layer_specs()) {
    res.metrics.push_back({spec_m.name, m.count(spec_m.name) ? m[spec_m.name] : 0.0, spec_m.unit});
  }
  res.notes.push_back("traced phase: " + std::to_string(st.windows) + " windows, " +
                      std::to_string(st.ops) + " ops; serve latency samples = " +
                      std::to_string(tot.latency[1].count()) + ", rounds samples = " +
                      std::to_string(tot.rounds.count()));
  res.notes.push_back("tracing overhead: ops_per_s untraced half " + num(ops_a) +
                      ", traced half " + num(ops_b));
  res.notes.push_back(
      "shard.* and sim.* come from replaying each window onto a twin store after the run, "
      "without client or batcher threads: a lower bound on the served store time");
  res.notes.push_back("not on this workload's path (read 0): core.*, par.*");
  const std::string path = trace_path(cfg);
  if (write_spans(path, tot.spans)) {
    res.notes.push_back("spans: " + path + " (" + std::to_string(tot.spans.size()) +
                        "; serve spans for the first " + std::to_string(kSpanWindows) +
                        " traced windows)");
  }
  return res;
}

}  // namespace perfbench
