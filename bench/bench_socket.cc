// Loopback throughput benchmarks for the real-socket multi-process
// runtime: one OS process per node, MessageFrame over TCP, epoll event
// loops, batched frame I/O (see src/cluster/socket_node.h).
//
// Each iteration boots a SocketCluster, warms it up, then measures the
// committed-transaction delta over a fixed window polled over the control
// plane, so `items_per_second` is cluster throughput on the wire. The
// EC/2PC/3PC n=4/n=8 points land next to bench_threaded's in-process
// numbers in BENCH_engine.json — the gap between the two is the price of
// real sockets. BM_SocketYcsbECUncoalesced is the batching ablation: the
// same cluster at a frame cap of one with writev gathering off, paying
// one syscall per message (the perf gate expects coalescing ON to win by
// >= 1.3x at n=8).
//
// NOTE: this binary is its own node executable — the supervisor re-execs
// argv[0] with the --ecdb-socket-node marker — so it provides main()
// itself instead of BENCHMARK_MAIN().

#include <benchmark/benchmark.h>

#include <chrono>

#include "cluster/socket_cluster.h"

namespace {

using namespace ecdb;
using Clock = std::chrono::steady_clock;

void SocketYcsb(benchmark::State& state, CommitProtocol protocol,
                bool coalesce) {
  const uint32_t nodes = static_cast<uint32_t>(state.range(0));

  SocketClusterConfig cfg;
  cfg.num_nodes = nodes;
  // Enough concurrency to saturate the loopback transport: at low client
  // counts both coalesced and uncoalesced runs are protocol-bound and the
  // batching ablation measures nothing.
  cfg.clients_per_node = 64;
  cfg.protocol = protocol;
  cfg.coalesce = coalesce;
  cfg.seed = 7;
  // Failure-free run on a loopback wire: timeouts exist to detect crashes,
  // so park them far above scheduling noise (node processes outnumber
  // cores) — a spurious expiry would measure the termination path.
  cfg.timeout_us = 1'000'000;
  cfg.termination_window_us = 200'000;
  // In-memory WAL: both arms flush the WAL once per loop iteration, so an
  // in-memory log keeps the ablation on the transport batching alone.
  // FileWal recovery is exercised by tests/socket_cluster_test.cc and
  // tools/socket_cluster.
  cfg.wal_dir.clear();
  cfg.rows_per_partition = 16384;
  cfg.partitions_per_txn = 2;
  cfg.theta = 0.6;

  uint64_t committed = 0;
  double p50 = 0, p99 = 0, p999 = 0;
  double frames_per_writev = 0, msgs_per_frame = 0, syscalls_per_txn = 0;
  uint64_t eagain = 0, reconnects = 0, overflow = 0;
  for (auto _ : state) {
    SocketCluster cluster(cfg);
    if (!cluster.Start()) {
      state.SkipWithError("socket cluster failed to start");
      cluster.Stop();
      return;
    }
    cluster.RunFor(0.3);  // warm-up: mesh established, caches hot
    const uint64_t before = cluster.TotalCommitted();
    const auto t0 = Clock::now();
    cluster.RunFor(1.0);
    const uint64_t after = cluster.TotalCommitted();
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - t0).count();
    SocketRunStats run = cluster.Stop();

    committed += after - before;
    state.SetIterationTime(elapsed);
    // Latency percentiles over the whole run (merged per-process bucket
    // counts; percentiles cannot be averaged, buckets merge exactly).
    p50 = static_cast<double>(run.latency.Percentile(0.50));
    p99 = static_cast<double>(run.latency.Percentile(0.99));
    p999 = static_cast<double>(run.latency.Percentile(0.999));
    const SocketIoStats io = run.Io();
    frames_per_writev =
        io.writev_calls ? static_cast<double>(io.frames_out) /
                              static_cast<double>(io.writev_calls)
                        : 0;
    msgs_per_frame = io.frames_out ? static_cast<double>(io.messages_out) /
                                         static_cast<double>(io.frames_out)
                                   : 0;
    syscalls_per_txn =
        run.Committed() ? static_cast<double>(io.Syscalls()) /
                              static_cast<double>(run.Committed())
                        : 0;
    eagain += io.eagain_stalls;
    reconnects += io.reconnects;
    overflow += io.overflow_drops;
  }
  state.SetItemsProcessed(static_cast<int64_t>(committed));
  state.counters["p50_us"] = benchmark::Counter(p50);
  state.counters["p99_us"] = benchmark::Counter(p99);
  state.counters["p999_us"] = benchmark::Counter(p999);
  // Batching yield on the wire: frames shipped per gather syscall, and
  // messages amortized into each frame. The ablation run pins both at 1.
  state.counters["frames_per_writev"] = benchmark::Counter(frames_per_writev);
  state.counters["msgs_per_frame"] = benchmark::Counter(msgs_per_frame);
  // Transport syscalls (read + writev + epoll_wait + eventfd) per
  // committed transaction — the number batching exists to shrink.
  state.counters["syscalls_per_txn"] = benchmark::Counter(syscalls_per_txn);
  // Health: a loopback run should neither stall on full socket buffers nor
  // drop frames nor re-dial anyone after the initial mesh build.
  state.counters["eagain_stalls"] =
      benchmark::Counter(static_cast<double>(eagain));
  state.counters["overflow_drops"] =
      benchmark::Counter(static_cast<double>(overflow));
  state.counters["reconnects"] =
      benchmark::Counter(static_cast<double>(reconnects));
}

void BM_SocketYcsb2PC(benchmark::State& state) {
  SocketYcsb(state, CommitProtocol::kTwoPhase, /*coalesce=*/true);
}
void BM_SocketYcsb3PC(benchmark::State& state) {
  SocketYcsb(state, CommitProtocol::kThreePhase, /*coalesce=*/true);
}
void BM_SocketYcsbEC(benchmark::State& state) {
  SocketYcsb(state, CommitProtocol::kEasyCommit, /*coalesce=*/true);
}
// The writev-batching ablation: same cluster, no message coalescing, no
// gather writes — one frame per message, one write syscall per frame.
void BM_SocketYcsbECUncoalesced(benchmark::State& state) {
  SocketYcsb(state, CommitProtocol::kEasyCommit, /*coalesce=*/false);
}

BENCHMARK(BM_SocketYcsb2PC)
    ->Arg(4)->Arg(8)->UseManualTime()->Iterations(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SocketYcsb3PC)
    ->Arg(4)->Arg(8)->UseManualTime()->Iterations(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SocketYcsbEC)
    ->Arg(4)->Arg(8)->UseManualTime()->Iterations(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SocketYcsbECUncoalesced)
    ->Arg(8)->UseManualTime()->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  // Node-process entry: when re-exec'd by a SocketCluster this runs one
  // node to completion and never touches the benchmark harness.
  if (ecdb::MaybeRunSocketNodeChild(argc, argv)) return 0;
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
