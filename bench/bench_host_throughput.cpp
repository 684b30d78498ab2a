// HOSTPERF — wall-clock throughput of the simulator host engine.
//
// Every other bench in this directory reports *model* metrics (IO time,
// rounds, PIM time), which are deterministic and independent of host
// speed. This bench is the opposite: it measures how fast the host
// engine turns bulk-synchronous rounds in real time — rounds/sec and
// batch-ops/sec for the Table 1 operations across P ∈ {16, 64, 256} and
// all three executors. This is the number ROADMAP's "as fast as the
// hardware allows" north star cares about: simulator overhead (per-round
// allocations, O(P) scans over idle modules, thread-pool wake storms)
// caps every experiment's iteration rate.
//
// Counters:
//   rounds_per_sec        simulated bulk-synchronous rounds per wall second
//   ops_per_sec           batch operations (keys) per wall second
//   speedup_vs_sequential wall-clock of a kSequential twin running the
//                         same workload, divided by this executor's
//                         wall-clock (== 1.0 for the seq variants, by
//                         construction measured not assumed)
//   rounds, batch, P      scale context for the rates
//
// CI runs this in Release with --benchmark_out=BENCH_host.json, then runs
// host_get/256/par again with --benchmark_repetitions=5 and fails if the
// median speedup_vs_sequential drops below 1.0 — a deliberately generous
// floor (noisy shared runners), meant to catch the parallel executor
// regressing into a correctness-testing-only mode, not to pin an exact
// speedup.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"

namespace pim::bench {
namespace {

enum class HostOp { kGet, kSuccessor, kSuccessorSparse, kUpsertDelete };

const char* op_name(HostOp op) {
  switch (op) {
    case HostOp::kGet: return "get";
    case HostOp::kSuccessor: return "successor";
    case HostOp::kSuccessorSparse: return "successor_sparse";
    case HostOp::kUpsertDelete: return "upsert_delete";
  }
  return "?";
}

const char* exec_name(sim::ExecOrder e) {
  switch (e) {
    case sim::ExecOrder::kSequential: return "seq";
    case sim::ExecOrder::kShuffled: return "shuf";
    case sim::ExecOrder::kParallel: return "par";
  }
  return "?";
}

struct HostFixture {
  std::unique_ptr<sim::Machine> machine;
  std::unique_ptr<core::PimSkipList> list;
};

HostFixture make_host_fixture(u32 p, sim::ExecOrder order, const workload::Dataset& data) {
  HostFixture f;
  sim::MachineOptions mo;
  mo.order = order;
  f.machine = std::make_unique<sim::Machine>(p, mo);
  f.list = std::make_unique<core::PimSkipList>(*f.machine);
  f.list->build(data.pairs);
  return f;
}

/// Batch size: large enough that a round carries real per-module work (the
/// parallel executor needs meat to amortize its wake-up), scaled with P so
/// per-module load stays comparable across the sweep.
u64 host_batch(u32 p, HostOp op) {
  // The sparse variant deliberately under-fills the machine: a small
  // successor batch turns into long pipelined traversals where only a
  // handful of modules are active per round — the regime where per-round
  // engine overhead (idle-module scans, allocations) dominates.
  if (op == HostOp::kSuccessorSparse) return std::max<u64>(u64{64}, p / 2);
  return std::max<u64>(u64{4096}, u64{8} * p * logp(p));
}

/// One timed unit of work. Mutating ops run as an upsert+delete pair of
/// the same keys so the structure returns to its base size every
/// iteration (steady-state, no monotonic growth skewing later runs).
void run_host_op(HostFixture& f, HostOp op, const std::vector<Key>& get_keys,
                 const std::vector<Key>& succ_keys,
                 const std::vector<std::pair<Key, Value>>& fresh_pairs,
                 const std::vector<Key>& fresh_keys) {
  switch (op) {
    case HostOp::kGet:
      benchmark::DoNotOptimize(f.list->batch_get(get_keys));
      break;
    case HostOp::kSuccessor:
    case HostOp::kSuccessorSparse:
      benchmark::DoNotOptimize(f.list->batch_successor(succ_keys));
      break;
    case HostOp::kUpsertDelete:
      f.list->batch_upsert(fresh_pairs);
      benchmark::DoNotOptimize(f.list->batch_delete(fresh_keys));
      break;
  }
}

void bm_host_throughput(benchmark::State& state, HostOp op, u32 p, sim::ExecOrder order) {
  using clock = std::chrono::steady_clock;
  const u64 n = default_n(p);
  const u64 batch = host_batch(p, op);
  const workload::Dataset data = workload::make_uniform_dataset(n, /*seed=*/p * 7919 + 13);

  // Keys: stored hits for Get, probes uniform over the data's domain for
  // Successor (so searches end all along the leaf level, not on the two
  // boundary paths), and a fresh disjoint key range for the Upsert+Delete
  // pair (stored keys lie in [domain_lo, domain_hi]; the fresh range sits
  // above it).
  const auto get_keys = stored_keys_sample(data, batch, /*seed=*/41);
  rnd::Xoshiro256ss rng(43);
  std::vector<Key> succ_keys(batch);
  for (auto& k : succ_keys) k = rng.range(data.domain_lo, data.domain_hi);
  std::vector<std::pair<Key, Value>> fresh_pairs(batch);
  std::vector<Key> fresh_keys(batch);
  for (u64 i = 0; i < batch; ++i) {
    fresh_keys[i] = (u64{1} << 41) + i * 3 + 1;
    fresh_pairs[i] = {fresh_keys[i], i};
  }

  HostFixture f = make_host_fixture(p, order, data);
  // Warm-up: one untimed batch primes the scratch pools and thread pool.
  run_host_op(f, op, get_keys, succ_keys, fresh_pairs, fresh_keys);

  const u64 rounds0 = f.machine->rounds();
  double my_best = 0.0;
  u64 iterations = 0;
  for (auto _ : state) {
    const auto t0 = clock::now();
    run_host_op(f, op, get_keys, succ_keys, fresh_pairs, fresh_keys);
    const auto t1 = clock::now();
    const double dt = std::chrono::duration<double>(t1 - t0).count();
    state.SetIterationTime(dt);
    if (iterations == 0 || dt < my_best) my_best = dt;
    ++iterations;
  }
  const u64 rounds_done = f.machine->rounds() - rounds0;

  // Sequential reference for the speedup counter, measured (not assumed)
  // on a twin machine running the identical workload. Best-of-3 against
  // the best timed iteration above — best-vs-best, so a one-off
  // scheduling hiccup on either side does not skew the ratio.
  double seq_batch = 0.0;
  {
    HostFixture s = make_host_fixture(p, sim::ExecOrder::kSequential, data);
    run_host_op(s, op, get_keys, succ_keys, fresh_pairs, fresh_keys);  // warm-up
    double best = 0.0;
    for (int r = 0; r < 3; ++r) {
      const auto t0 = clock::now();
      run_host_op(s, op, get_keys, succ_keys, fresh_pairs, fresh_keys);
      const double dt = std::chrono::duration<double>(clock::now() - t0).count();
      if (r == 0 || dt < best) best = dt;
    }
    seq_batch = best;
  }
  const double my_batch = my_best;

  state.counters["rounds_per_sec"] =
      benchmark::Counter(static_cast<double>(rounds_done), benchmark::Counter::kIsRate);
  state.counters["ops_per_sec"] = benchmark::Counter(
      static_cast<double>(batch * iterations * (op == HostOp::kUpsertDelete ? 2 : 1)),
      benchmark::Counter::kIsRate);
  state.counters["speedup_vs_sequential"] = my_batch > 0.0 ? seq_batch / my_batch : 0.0;
  state.counters["rounds"] = static_cast<double>(rounds_done);
  state.counters["batch"] = static_cast<double>(batch);
  state.counters["P"] = static_cast<double>(p);
}

void register_all() {
  for (const HostOp op : {HostOp::kGet, HostOp::kSuccessor, HostOp::kSuccessorSparse,
                          HostOp::kUpsertDelete}) {
    for (const u32 p : {16u, 64u, 256u}) {
      for (const sim::ExecOrder e :
           {sim::ExecOrder::kSequential, sim::ExecOrder::kShuffled, sim::ExecOrder::kParallel}) {
        const std::string name =
            std::string("host_") + op_name(op) + "/" + std::to_string(p) + "/" + exec_name(e);
        benchmark::RegisterBenchmark(name.c_str(), bm_host_throughput, op, p, e)
            ->UseManualTime()
            ->Unit(benchmark::kMillisecond)
            ->Iterations(6);
      }
    }
  }
}

}  // namespace
}  // namespace pim::bench

int main(int argc, char** argv) {
  pim::bench::register_all();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
