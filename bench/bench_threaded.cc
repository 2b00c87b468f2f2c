// Wall-clock throughput benchmarks for the threaded runtime: real OS
// threads, real futexes, real time. Two layers are measured:
//
//   1. MessageChannel — mailbox burst drain, the per-message cost of the
//                       node event loop's input path.
//   2. End to end     — committed transactions per wall-clock second for
//                       2PC / 3PC / EC on 4- and 8-node YCSB clusters
//                       (one node thread per partition, as in the paper's
//                       partition-per-server deployment).
//
// The cluster benchmarks use manual timing: each iteration boots a
// cluster, lets it warm up, then measures the committed-transaction delta
// over a fixed window, so `items_per_second` is cluster throughput rather
// than 1/boot-time. `scripts/bench_to_json.py` runs this binary alongside
// bench_engine and appends both to BENCH_engine.json.
//
// The mailbox drain below compiles against both the batched mailbox
// (PopAll) and its one-at-a-time predecessor, so the same file can be
// dropped into the pre-change tree for an apples-to-apples baseline.

#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "cluster/thread_node.h"
#include "net/channel.h"
#include "workload/ycsb.h"

namespace {

using namespace ecdb;
using Clock = std::chrono::steady_clock;

// --------------------------------------------------------------------------
// 1. Mailbox
// --------------------------------------------------------------------------

// Drains everything currently queued in `ch`. Templated so the branch the
// current tree lacks is discarded, not type-checked.
template <typename Channel>
size_t Drain(Channel& ch, std::vector<Message>& buf) {
  if constexpr (requires { ch.PopAll(&buf, std::chrono::microseconds(0)); }) {
    ch.PopAll(&buf, std::chrono::microseconds(0));
    return buf.size();
  } else {
    size_t n = 0;
    Message msg;
    while (ch.TryPop(&msg)) ++n;
    return n;
  }
}

// Push a burst of `range(0)` messages, then drain the mailbox — the shape
// of one event-loop turn under load. The batched mailbox pays one lock and
// one swap for the whole drain; the one-at-a-time path pays a lock (and a
// front-erase) per message.
void BM_MailboxBurst(benchmark::State& state) {
  const size_t burst = static_cast<size_t>(state.range(0));
  MessageChannel ch;
  std::vector<Message> buf;
  Message msg;
  msg.type = MsgType::kRemoteExecOk;
  msg.src = 1;
  msg.dst = 0;
  size_t drained = 0;
  for (auto _ : state) {
    for (size_t i = 0; i < burst; ++i) {
      msg.txn = static_cast<TxnId>(i);
      ch.Push(msg);
    }
    drained += Drain(ch, buf);
  }
  state.SetItemsProcessed(static_cast<int64_t>(drained));
}
BENCHMARK(BM_MailboxBurst)->Arg(16)->Arg(256);

// --------------------------------------------------------------------------
// 2. End-to-end cluster throughput
// --------------------------------------------------------------------------

void ThreadedYcsb(benchmark::State& state, CommitProtocol protocol,
                  uint32_t workers = 0, bool telemetry = false) {
  const uint32_t nodes = static_cast<uint32_t>(state.range(0));

  ThreadClusterConfig cfg;
  cfg.num_nodes = nodes;
  cfg.clients_per_node = 16;
  cfg.protocol = protocol;
  cfg.worker_threads = workers;  // 0 = historical thread-per-node
  cfg.telemetry.enabled = telemetry;
  cfg.seed = 7;
  // Failure-free run: protocol timeouts exist to detect crashes, so set
  // them far above worst-case scheduling delay (node threads outnumber
  // cores). A spuriously expired timeout would measure the termination
  // path, not throughput.
  cfg.commit.timeout_us = 1'000'000;
  cfg.commit.termination_window_us = 200'000;
  // Measure the coalesced transport: one SendBatch per destination per
  // event-loop iteration, WAL group-flushed at the same boundary.
  cfg.coalesce_transport = true;

  YcsbConfig ycsb;
  ycsb.num_partitions = nodes;
  ycsb.rows_per_partition = 16384;  // modest: keeps bootstrap fast
  ycsb.partitions_per_txn = 2;
  ycsb.theta = 0.6;

  uint64_t committed = 0;
  uint64_t termination_rounds = 0;
  uint64_t acceptor_rounds = 0;
  uint64_t ballots_promoted = 0;
  uint64_t quorum_lost_rounds = 0;
  uint64_t dropped_at_crashed = 0;
  uint64_t frames_sent = 0;
  uint64_t messages_coalesced = 0;
  uint64_t duplicate_decisions = 0;
  uint64_t wal_group_flushes = 0;
  uint64_t mailbox_msgs = 0;
  uint64_t local_msgs = 0;
  for (auto _ : state) {
    ThreadCluster cluster(cfg, std::make_unique<YcsbWorkload>(ycsb));
    cluster.Start();
    std::this_thread::sleep_for(std::chrono::milliseconds(300));  // warm-up
    const uint64_t before = cluster.TotalCommitted();
    const auto t0 = Clock::now();
    std::this_thread::sleep_for(std::chrono::milliseconds(1000));
    const uint64_t after = cluster.TotalCommitted();
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - t0).count();
    cluster.Stop();
    const ClusterStats stats = cluster.CollectStats(elapsed);
    termination_rounds += stats.total.termination_rounds;
    acceptor_rounds += stats.total.acceptor_rounds;
    ballots_promoted += stats.total.ballots_promoted;
    quorum_lost_rounds += stats.total.quorum_lost_rounds;
    dropped_at_crashed += stats.net_messages_to_crashed;
    frames_sent += stats.net_frames_sent;
    messages_coalesced += stats.net_messages_coalesced;
    duplicate_decisions += stats.duplicate_decisions_suppressed;
    wal_group_flushes += stats.wal_group_flushes;
    mailbox_msgs += stats.worker_mailbox_messages;
    local_msgs += stats.worker_local_messages;
    committed += after - before;
    state.SetIterationTime(elapsed);
  }
  state.SetItemsProcessed(static_cast<int64_t>(committed));
  // Failure-free runs should keep both pinned at zero; nonzero values
  // mean the measurement window caught the termination path.
  state.counters["termination_rounds"] =
      static_cast<double>(termination_rounds);
  state.counters["dropped_at_crashed"] =
      static_cast<double>(dropped_at_crashed);
  if (protocol == CommitProtocol::kThreePhaseE3PC ||
      protocol == CommitProtocol::kPaxosCommit) {
    // Quorum accounting: failure-free runs should show Paxos acceptor
    // rounds tracking commits, with no ballot promotions and no rounds
    // abandoned for lack of a quorum.
    state.counters["acceptor_rounds"] = static_cast<double>(acceptor_rounds);
    state.counters["ballots_promoted"] =
        static_cast<double>(ballots_promoted);
    state.counters["quorum_lost_rounds"] =
        static_cast<double>(quorum_lost_rounds);
  }
  // Coalescing yield for the run: frames on the wire, messages that rode
  // behind another in the same frame, redundant Global-* receipts
  // short-circuited, and WAL flushes covering grouped appends.
  state.counters["frames_sent"] = static_cast<double>(frames_sent);
  state.counters["messages_coalesced"] =
      static_cast<double>(messages_coalesced);
  state.counters["duplicate_decisions_suppressed"] =
      static_cast<double>(duplicate_decisions);
  state.counters["wal_group_flushes"] =
      static_cast<double>(wal_group_flushes);
  if (workers > 0) {
    // Worker-pool delivery split: messages that crossed a worker mailbox
    // vs. same-worker sends that skipped the channel entirely.
    state.counters["worker_mailbox_msgs"] = static_cast<double>(mailbox_msgs);
    state.counters["worker_local_msgs"] = static_cast<double>(local_msgs);
  }
}

void BM_ThreadedYcsb2PC(benchmark::State& state) {
  ThreadedYcsb(state, CommitProtocol::kTwoPhase);
}
void BM_ThreadedYcsb3PC(benchmark::State& state) {
  ThreadedYcsb(state, CommitProtocol::kThreePhase);
}
void BM_ThreadedYcsbEC(benchmark::State& state) {
  ThreadedYcsb(state, CommitProtocol::kEasyCommit);
}
// Quorum-hardened variants (PR 9): the wall-clock cost of the quorum
// machinery against the 3PC/EC baselines above — E3PC failure-free is
// 3PC plus epoch bookkeeping; Paxos Commit pays the per-vote acceptor
// broadcast on every transaction.
void BM_ThreadedYcsbE3PC(benchmark::State& state) {
  ThreadedYcsb(state, CommitProtocol::kThreePhaseE3PC);
}
void BM_ThreadedYcsbPaxos(benchmark::State& state) {
  ThreadedYcsb(state, CommitProtocol::kPaxosCommit);
}
BENCHMARK(BM_ThreadedYcsb2PC)
    ->Arg(4)->Arg(8)->UseManualTime()->Iterations(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ThreadedYcsb3PC)
    ->Arg(4)->Arg(8)->UseManualTime()->Iterations(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ThreadedYcsbEC)
    ->Arg(4)->Arg(8)->UseManualTime()->Iterations(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ThreadedYcsbE3PC)
    ->Arg(4)->Arg(8)->UseManualTime()->Iterations(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ThreadedYcsbPaxos)
    ->Arg(4)->Arg(8)->UseManualTime()->Iterations(1)
    ->Unit(benchmark::kMillisecond);

// Shard-per-core worker pool: the same closed-loop EC workload hosted M:N
// on 4 event-loop workers. At n=8 this measures the pool against the
// thread-per-node baseline above; at n=64 it measures a cluster size the
// thread-per-node runtime cannot sensibly host.
void BM_ThreadedYcsbECPool(benchmark::State& state) {
  ThreadedYcsb(state, CommitProtocol::kEasyCommit, /*workers=*/4);
}
BENCHMARK(BM_ThreadedYcsbECPool)
    ->Arg(8)->Arg(64)->UseManualTime()->Iterations(1)
    ->Unit(benchmark::kMillisecond);

// The sampler overhead gate: the same EC cluster as BM_ThreadedYcsbEC/8
// with the 100ms telemetry sampler thread live. The metrics record path is
// always on, so the committed-per-second delta against BM_ThreadedYcsbEC/8
// is the cost of the sampler thread alone; BENCH_engine.json keeps both so
// regressions show up.
void BM_ThreadedYcsbECTelemetry(benchmark::State& state) {
  ThreadedYcsb(state, CommitProtocol::kEasyCommit, /*workers=*/0,
               /*telemetry=*/true);
}
BENCHMARK(BM_ThreadedYcsbECTelemetry)
    ->Arg(8)->UseManualTime()->Iterations(1)
    ->Unit(benchmark::kMillisecond);

// --------------------------------------------------------------------------
// 3. Open-loop rate sweep on the worker pool (n=256)
// --------------------------------------------------------------------------

// The acceptance curve for the shard-per-core runtime: 256 nodes hosted on
// 4 workers under wall-clock Poisson arrivals at range(0) txns/s/node.
// As the offered rate climbs, committed_per_sec tracks it until the pool
// saturates, then p99 takes off — the same signature bench_open_loop shows
// for the simulator, now on real threads.
void BM_ThreadedOpenLoopEC(benchmark::State& state) {
  const uint32_t nodes = 256;
  const double rate = static_cast<double>(state.range(0));

  ThreadClusterConfig cfg;
  cfg.num_nodes = nodes;
  cfg.protocol = CommitProtocol::kEasyCommit;
  cfg.worker_threads = 4;
  cfg.coalesce_transport = true;
  cfg.commit.timeout_us = 1'000'000;
  cfg.commit.termination_window_us = 200'000;
  cfg.open_loop.enabled = true;
  cfg.open_loop.arrivals_per_sec_per_node = rate;
  cfg.open_loop.max_in_flight_per_node = 16;
  cfg.seed = 7;

  YcsbConfig ycsb;
  ycsb.num_partitions = nodes;
  ycsb.rows_per_partition = 2048;
  ycsb.partitions_per_txn = 2;
  ycsb.theta = 0.6;

  double offered_rate = 0, committed_rate = 0, rejected_rate = 0;
  double p50 = 0, p99 = 0, p999 = 0;
  uint64_t mailbox_msgs = 0, local_msgs = 0;
  for (auto _ : state) {
    ThreadCluster cluster(cfg, std::make_unique<YcsbWorkload>(ycsb));
    cluster.Start();
    std::this_thread::sleep_for(std::chrono::milliseconds(300));  // warm-up
    // No BeginMeasurement on the threaded cluster: measure the whole run
    // and subtract nothing — the warm-up share shrinks the reported rates
    // by a constant factor identical across sweep points.
    const auto t0 = Clock::now();
    std::this_thread::sleep_for(std::chrono::milliseconds(1000));
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - t0).count();
    cluster.Quiesce();
    cluster.Stop();
    const double total_seconds = elapsed + 0.3;
    const ClusterStats stats = cluster.CollectStats(total_seconds);
    offered_rate = stats.OfferedRate();
    committed_rate = stats.Throughput();
    rejected_rate =
        static_cast<double>(stats.total.open_loop_rejected) / total_seconds;
    p50 = static_cast<double>(stats.total.latency.Percentile(0.50));
    p99 = static_cast<double>(stats.total.latency.Percentile(0.99));
    p999 = static_cast<double>(stats.total.latency.Percentile(0.999));
    mailbox_msgs = stats.worker_mailbox_messages;
    local_msgs = stats.worker_local_messages;
    state.SetIterationTime(elapsed);
    state.SetItemsProcessed(
        static_cast<int64_t>(stats.total.txns_committed));
  }
  state.counters["offered_per_sec"] = benchmark::Counter(offered_rate);
  state.counters["committed_per_sec"] = benchmark::Counter(committed_rate);
  state.counters["rejected_per_sec"] = benchmark::Counter(rejected_rate);
  state.counters["p50_us"] = benchmark::Counter(p50);
  state.counters["p99_us"] = benchmark::Counter(p99);
  state.counters["p999_us"] = benchmark::Counter(p999);
  state.counters["worker_mailbox_msgs"] =
      benchmark::Counter(static_cast<double>(mailbox_msgs));
  state.counters["worker_local_msgs"] =
      benchmark::Counter(static_cast<double>(local_msgs));
}
BENCHMARK(BM_ThreadedOpenLoopEC)
    ->Arg(10)->Arg(20)->Arg(40)->Arg(80)->Arg(160)
    ->UseManualTime()->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
