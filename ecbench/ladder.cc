// Per-layer pass (--trace 1), measured from outside the program:
//  1. host passes: a short untraced run on each host for per-transaction
//     counts, and a traced rerun (sim and threaded hosts) whose JSONL
//     export feeds the critical-path analyzer;
//  2. the ladder: each layer's unit of work timed alone through its public
//     API;
//  3. the budget: layer cost x occurrences per committed transaction on
//     each host, next to that host's measured CPU per transaction.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cc/lock_table.h"
#include "cluster/socket_node.h"
#include "commit/testbed.h"
#include "common.h"
#include "hosts.h"
#include "net/channel.h"
#include "net/frame.h"
#include "obs/metrics_registry.h"
#include "sim/scheduler.h"
#include "trace/trace_recorder.h"
#include "wal/wal.h"

namespace ecbench {

using namespace ecdb;

namespace {

/// Runs `batch` (which times its own inner loop and returns ns per
/// operation) until `seconds` have passed and at least five batches ran,
/// and returns the median.
double MedianNs(const std::function<double()>& batch, double seconds = 0.25) {
  std::vector<double> per_op;
  const double t0 = WallSec();
  while (per_op.size() < 5 || WallSec() - t0 < seconds) {
    per_op.push_back(batch());
  }
  return Median(per_op);
}

double NsSince(double t0, uint64_t ops) {
  return (WallSec() - t0) * 1e9 / static_cast<double>(ops);
}

double Ratio(double a, double b) { return b > 0 ? a / b : 0; }

// --------------------------------------------------------------------------
// The ladder: one layer at a time
// --------------------------------------------------------------------------

/// One EC commit round on a ProtocolTestbed (engines over the simulated
/// scheduler and network, no storage or locks).
struct RoundCost {
  double ns = 0;
  double messages = 0;
  double wal_records = 0;
  double events = 0;
};

RoundCost MeasureRound(uint32_t n) {
  constexpr int kRounds = 256;
  RoundCost c;
  std::vector<double> msgs, wal, events;
  bool decided = true;
  c.ns = MedianNs([&] {
    testbed::ProtocolTestbed bed(CommitProtocol::kEasyCommit, n);
    uint64_t ev = 0;
    TxnId last = kInvalidTxn;
    const double t0 = WallSec();
    for (int i = 0; i < kRounds; ++i) {
      last = bed.StartAll();
      ev += bed.Settle();
    }
    const double ns = NsSince(t0, kRounds);
    decided &= bed.AllActiveDecided(last) && bed.monitor().Violations().empty();
    uint64_t records = 0;
    for (NodeId id = 0; id < n; ++id) records += bed.host(id).wal().Size();
    msgs.push_back(static_cast<double>(bed.network().stats().messages_sent) /
                   kRounds);
    wal.push_back(static_cast<double>(records) / kRounds);
    events.push_back(static_cast<double>(ev) / kRounds);
    return ns;
  });
  EmitCheck("ladder.testbed_n" + std::to_string(n), decided,
            "every round decided, no violation");
  c.messages = Median(msgs);
  c.wal_records = Median(wal);
  c.events = Median(events);
  return c;
}

/// Schedule + fire of one event with a few thousand pending.
double MeasureSchedulerEvent() {
  return MedianNs([] {
    constexpr int kEvents = 4096;
    Scheduler scheduler;
    uint64_t fired = 0;
    uint64_t x = 0x9E3779B97F4A7C15ULL;
    const double t0 = WallSec();
    for (int i = 0; i < kEvents; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      scheduler.ScheduleAfter(static_cast<Micros>(x % 1000),
                              [&fired] { ++fired; });
    }
    scheduler.RunAll();
    return NsSince(t0, fired);
  });
}

Message MakeMessage(MsgType type, NodeId src, NodeId dst, uint64_t seq) {
  Message m;
  m.type = type;
  m.src = src;
  m.dst = dst;
  m.txn = MakeTxnId(src, seq);
  return m;
}

/// MessageChannel::PushBatch of a burst + PopAll, per message.
double MeasureMailbox(size_t burst) {
  return MedianNs([burst] {
    constexpr int kBursts = 4096;
    MessageChannel channel;
    std::vector<Message> out, batch;
    uint64_t drained = 0;
    const double t0 = WallSec();
    for (int i = 0; i < kBursts; ++i) {
      for (size_t j = 0; j < burst; ++j) {
        batch.push_back(MakeMessage(MsgType::kVoteCommit, 1, 0, j + 1));
      }
      channel.PushBatch(&batch);
      channel.PopAll(&out, std::chrono::microseconds(0));
      drained += out.size();
    }
    return NsSince(t0, drained);
  });
}

/// CPU cost of one cross-thread mailbox hand-off to a consumer blocked in
/// PopAll: two threads ping-pong one message over two channels, and the
/// process CPU per hand-off (push, futex wake, pop on the other side) is
/// what an idle worker pays per message it is woken for.
double MeasureMailboxWakeNs(double seconds) {
  MessageChannel to_echo, to_main;
  std::thread echo([&] {
    std::vector<Message> in;
    while (to_echo.PopAll(&in, std::chrono::seconds(1))) {
      for (const Message& m : in) to_main.Push(m);
    }
  });
  std::vector<Message> in;
  uint64_t handoffs = 0;
  const double cpu0 = CpuSec(false);
  const double t0 = WallSec();
  while (handoffs < 2000 || WallSec() - t0 < seconds) {
    to_echo.Push(MakeMessage(MsgType::kPrepare, 0, 1, handoffs + 1));
    if (!to_main.PopAll(&in, std::chrono::seconds(1))) break;
    handoffs += 2;
  }
  const double cpu_ns = (CpuSec(false) - cpu0) * 1e9;
  to_echo.Close();
  echo.join();
  return Ratio(cpu_ns, handoffs);
}

MessageFrame MakeFrame(size_t messages) {
  MessageFrame frame;
  frame.src = 0;
  frame.dst = 1;
  for (size_t i = 0; i < messages; ++i) {
    frame.messages.push_back(MakeMessage(MsgType::kGlobalCommit, 0, 1, i + 1));
  }
  return frame;
}

/// EncodeFrameToStream per message, on frames of `messages` messages.
double MeasureEncode(size_t messages) {
  const MessageFrame frame = MakeFrame(messages);
  return MedianNs([&] {
    constexpr int kFrames = 4096;
    std::vector<uint8_t> out;
    const double t0 = WallSec();
    for (int i = 0; i < kFrames; ++i) {
      out.clear();
      EncodeFrameToStream(frame, &out);
    }
    return NsSince(t0, kFrames * messages);
  });
}

/// FrameStreamDecoder Feed + Next per message, on the same frames.
double MeasureDecode(size_t messages) {
  constexpr int kFrames = 4096;
  const MessageFrame frame = MakeFrame(messages);
  std::vector<uint8_t> stream;
  for (int i = 0; i < kFrames; ++i) EncodeFrameToStream(frame, &stream);
  bool complete = true;
  const double ns = MedianNs([&] {
    FrameStreamDecoder decoder;
    MessageFrame got;
    uint64_t decoded = 0;
    const double t0 = WallSec();
    decoder.Feed(stream.data(), stream.size());
    while (decoder.Next(&got)) decoded += got.messages.size();
    complete &= decoded == kFrames * messages;
    return NsSince(t0, kFrames * messages);
  });
  EmitCheck("ladder.decode_" + std::to_string(messages), complete,
            "every encoded message decoded");
  return ns;
}

LogRecord ReadyRecord(uint64_t seq, const CowVector<NodeId>& participants) {
  LogRecord r;
  r.txn = MakeTxnId(0, seq);
  r.type = LogRecordType::kReady;
  r.participants = participants;
  return r;
}

CowVector<NodeId> TwoParticipants() {
  CowVector<NodeId> p;
  p.push_back(0);
  p.push_back(1);
  return p;
}

double MeasureMemAppend() {
  const CowVector<NodeId> participants = TwoParticipants();
  return MedianNs([&] {
    constexpr int kAppends = 8192;
    MemoryWal wal;
    const double t0 = WallSec();
    for (int i = 0; i < kAppends; ++i) {
      wal.Append(ReadyRecord(i + 1, participants));
    }
    return NsSince(t0, kAppends);
  });
}

/// FileWal::AppendBatch of `group` records + Flush, microseconds per flush.
double MeasureFileFlushUs(const std::string& dir, size_t group) {
  const CowVector<NodeId> participants = TwoParticipants();
  int file_seq = 0;
  bool ok = true;
  const double ns = MedianNs([&] {
    constexpr int kFlushes = 256;
    const std::string path =
        dir + "/ladder" + std::to_string(file_seq++) + ".wal";
    double per_flush = 0;
    {
      auto opened = FileWal::Open(path);
      if (!opened.ok()) {
        ok = false;
        return 0.0;
      }
      std::unique_ptr<FileWal> wal = std::move(opened).value();
      std::vector<LogRecord> batch;
      uint64_t seq = 0;
      const double t0 = WallSec();
      for (int i = 0; i < kFlushes; ++i) {
        for (size_t j = 0; j < group; ++j) {
          batch.push_back(ReadyRecord(++seq, participants));
        }
        wal->AppendBatch(&batch);
        ok &= wal->Flush().ok();
      }
      per_flush = NsSince(t0, kFlushes);
    }
    std::filesystem::remove(path);
    return per_flush;
  });
  EmitCheck("ladder.file_wal", ok, "open, append and flush succeeded");
  return ns / 1000.0;
}

/// LockTable: one YCSB transaction's 10 Acquires + ReleaseAll.
double MeasureLockTxn() {
  return MedianNs([] {
    constexpr int kTxns = 2048;
    LockTable locks(CcPolicy::kNoWait);
    uint64_t x = 0x2545F4914F6CDD1DULL;
    const double t0 = WallSec();
    for (int t = 0; t < kTxns; ++t) {
      const TxnId txn = MakeTxnId(0, t + 1);
      for (int i = 0; i < 10; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        locks.Acquire(txn, t, 0, (x >> 33) % 16384,
                      i % 2 ? LockMode::kExclusive : LockMode::kShared);
      }
      locks.ReleaseAll(txn);
    }
    return NsSince(t0, kTxns);
  });
}

/// One counter add or histogram observe through a MetricsHandle.
double MeasureObsRecord() {
  MetricsRegistry registry;
  const CoreMetrics ids = RegisterCoreMetrics(&registry);
  registry.Activate(1);
  const MetricsHandle handle{&registry, &ids, 0};
  return MedianNs([&] {
    constexpr int kPairs = 1 << 15;
    const double t0 = WallSec();
    for (int i = 0; i < kPairs; ++i) {
      if (handle.on()) {
        handle.registry->Add(handle.shard, handle.ids->txns_committed);
        handle.registry->Observe(handle.shard, handle.ids->latency_us,
                                 40 + (i & 1023));
      }
    }
    return NsSince(t0, 2 * kPairs);
  });
}

double MeasureTraceRecord() {
  TraceRecorder recorder(0);
  recorder.Enable();
  return MedianNs([&] {
    constexpr int kRecords = 1 << 16;
    const double t0 = WallSec();
    for (int i = 0; i < kRecords; ++i) {
      recorder.Record(TraceEventType::kMsgSend, i, MakeTxnId(0, i + 1),
                      recorder.NextSeq(), 1);
    }
    return NsSince(t0, kRecords);
  });
}

/// Two in-process SocketNetworks ping-ponging one-message frames.
struct PingPong {
  bool ok = false;
  double rtt_us = 0;
  double cpu_us_per_rtt = 0;
  double syscalls_per_rtt = 0;
};

PingPong MeasurePingPong(double seconds) {
  PingPong r;
  SocketNetwork a(0, 2), b(1, 2);
  const uint16_t port_a = a.Listen();
  const uint16_t port_b = b.Listen();
  a.SetPeerPort(1, port_b);
  b.SetPeerPort(0, port_a);
  a.StartIo();
  b.StartIo();
  const double t0 = WallSec();
  while (!(a.Connected(1) && b.Connected(0)) && WallSec() - t0 < 5) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (a.Connected(1) && b.Connected(0)) {
    std::vector<Message> in;
    std::vector<double> rtts;
    const auto recv = [&](SocketNetwork& net, NodeId self) {
      return net.channel(self).PopAll(&in, std::chrono::seconds(1));
    };
    const uint64_t sys0 = a.io_stats().Syscalls() + b.io_stats().Syscalls();
    const double cpu0 = CpuSec(false);
    const double w0 = WallSec();
    r.ok = true;
    for (uint64_t i = 1;
         r.ok && (rtts.size() < 200 || WallSec() - w0 < seconds); ++i) {
      const double s = WallSec();
      a.Send(MakeMessage(MsgType::kPrepare, 0, 1, i));
      r.ok = recv(b, 1);
      if (!r.ok) break;
      b.Send(MakeMessage(MsgType::kVoteCommit, 1, 0, i));
      r.ok = recv(a, 0);
      rtts.push_back((WallSec() - s) * 1e6);
    }
    const double n = static_cast<double>(rtts.size());
    r.rtt_us = Median(rtts);
    r.cpu_us_per_rtt = (CpuSec(false) - cpu0) * 1e6 / n;
    r.syscalls_per_rtt =
        (a.io_stats().Syscalls() + b.io_stats().Syscalls() - sys0) / n;
  }
  a.StopIo();
  b.StopIo();
  EmitCheck("ladder.ping_pong", r.ok, "loopback mesh up, every ping answered");
  return r;
}

// --------------------------------------------------------------------------
// Per-transaction counts from the host passes
// --------------------------------------------------------------------------

struct HostCounts {
  std::string host;
  double cpu_us_per_txn = 0;
  double msgs_per_txn = 0;       // protocol + execution messages sent
  double mailbox_per_txn = 0;    // messages through a MessageChannel
  double wakes_per_txn = 0;      // thread only: mailbox drains that got work
  double wal_records_per_txn = 0;
  double flushes_per_txn = 0;
  double aborts_per_commit = 0;
  double msgs_per_frame = 0;
  double events_per_txn = 0;     // sim only
  double syscalls_per_txn = 0;   // sock only
};

HostCounts SimCounts(const SimLeg& leg) {
  HostCounts c;
  c.host = "sim";
  const double commits = static_cast<double>(leg.commits);
  c.cpu_us_per_txn = Ratio(leg.cpu_s * 1e6, commits);
  c.msgs_per_txn = Ratio(leg.messages, commits);
  c.wal_records_per_txn = Ratio(leg.wal_records, commits);
  c.flushes_per_txn = Ratio(leg.wal_flushes, commits);
  c.aborts_per_commit = leg.stats.AbortRate();
  c.msgs_per_frame = Ratio(leg.messages, leg.frames);
  c.events_per_txn = Ratio(leg.events, commits);
  return c;
}

HostCounts ThreadCounts(const ThreadRun& run) {
  HostCounts c;
  c.host = "thread";
  const double commits = static_cast<double>(run.stats.total.txns_committed);
  uint64_t mailbox = 0, local = 0, batches = 0;
  for (const WorkerStats& w : run.workers) {
    mailbox += w.mailbox_messages;
    local += w.local_messages;
    batches += w.mailbox_batches;
  }
  c.cpu_us_per_txn = run.CpuUsPerTxn();
  c.msgs_per_txn = Ratio(mailbox + local, commits);
  c.mailbox_per_txn = Ratio(mailbox, commits);
  c.wakes_per_txn = Ratio(batches, commits);
  c.wal_records_per_txn = Ratio(run.wal_records, commits);
  c.flushes_per_txn = Ratio(run.stats.wal_group_flushes, commits);
  c.aborts_per_commit = run.stats.AbortRate();
  c.msgs_per_frame =
      Ratio(run.stats.net_frames_sent + run.stats.net_messages_coalesced,
            run.stats.net_frames_sent);
  return c;
}

HostCounts SocketCounts(const SocketRun& run) {
  HostCounts c;
  c.host = "sock";
  const double commits = static_cast<double>(run.stats.Committed());
  const SocketIoStats io = run.stats.Io();
  uint64_t records = 0, flushes = 0, aborted = 0;
  for (const SocketNodeReport& n : run.stats.nodes) {
    records += n.wal_records;
    flushes += n.wal_group_flushes;
    aborted += n.attempts_aborted;
  }
  c.cpu_us_per_txn = run.CpuUsPerTxn();
  c.msgs_per_txn = Ratio(io.messages_out, commits);
  c.mailbox_per_txn = Ratio(io.messages_in, commits);
  c.wal_records_per_txn = Ratio(records, commits);
  c.flushes_per_txn = Ratio(flushes, commits);
  c.aborts_per_commit = Ratio(aborted, commits);
  c.msgs_per_frame = Ratio(io.messages_out, io.frames_out);
  c.syscalls_per_txn = Ratio(io.Syscalls(), commits);
  return c;
}

// --------------------------------------------------------------------------
// Budget
// --------------------------------------------------------------------------

struct LadderCosts {
  RoundCost round_n8, round_n2;
  double event_ns = 0;
  double mailbox_ns_b2 = 0, mailbox_ns_b16 = 0, wake_ns = 0;
  double encode_ns_1 = 0, encode_ns_8 = 0, decode_ns_1 = 0, decode_ns_8 = 0;
  double mem_append_ns = 0, file_flush_us = 0;
  double lock_ns = 0, obs_ns = 0, trace_ns = 0;
  PingPong ping;

  double SyscallNs() const {
    return Ratio(ping.cpu_us_per_rtt * 1e3, ping.syscalls_per_rtt);
  }
  /// Engine-only cost of one two-participant round: the testbed round
  /// minus the scheduler events it fired.
  double EngineNs() const {
    return std::max(0.0, round_n2.ns - round_n2.events * event_ns);
  }
};

/// Picks the measured point nearer (on a log scale) to `size`.
double Nearer(double size, double small_size, double small_value,
              double large_size, double large_value) {
  return size * size <= small_size * large_size ? small_value : large_value;
}

/// Prints the per-transaction budget of one host and returns the share
/// of its measured CPU per transaction the summed layers explain.
double PrintBudget(const HostCounts& c, const LadderCosts& l,
                   double worker_batch) {
  struct Row {
    const char* layer;
    double unit_cost;  // ns
    double per_txn;
  };
  std::vector<Row> rows = {
      {"engine (testbed round, n=2)", l.EngineNs(), 1.0},
      {"lock table (10 locks)", l.lock_ns, 1.0 + c.aborts_per_commit},
      {"wal append", l.mem_append_ns, c.wal_records_per_txn},
  };
  if (c.host == "sim") {
    rows.push_back({"scheduler event", l.event_ns, c.events_per_txn});
  }
  if (c.host == "thread") {
    rows.push_back({"mailbox message",
                    Nearer(worker_batch, 2, l.mailbox_ns_b2, 16,
                           l.mailbox_ns_b16),
                    c.mailbox_per_txn});
    rows.push_back({"mailbox wake-up", l.wake_ns, c.wakes_per_txn});
  }
  if (c.host == "sock") {
    rows.push_back({"mailbox message (inbound)", l.mailbox_ns_b2,
                    c.mailbox_per_txn});
    rows.push_back({"frame encode+decode",
                    Nearer(c.msgs_per_frame, 1, l.encode_ns_1 + l.decode_ns_1,
                           8, l.encode_ns_8 + l.decode_ns_8),
                    c.msgs_per_txn});
    rows.push_back({"transport syscall", l.SyscallNs(), c.syscalls_per_txn});
    rows.push_back({"file wal flush", l.file_flush_us * 1e3,
                    c.flushes_per_txn});
  }
  Note("budget host=%s measured cpu_us_per_txn=%.2f", c.host.c_str(),
       c.cpu_us_per_txn);
  Note("  %-28s %12s %10s %10s", "layer", "cost_ns", "per_txn", "us/txn");
  double sum = 0;
  for (const Row& r : rows) {
    const double us = r.unit_cost * r.per_txn / 1e3;
    sum += us;
    Note("  %-28s %12.1f %10.3f %10.3f", r.layer, r.unit_cost, r.per_txn, us);
  }
  const double explained = Ratio(sum, c.cpu_us_per_txn);
  Note("  %-28s %12s %10s %10.3f  ladder.explained_frac=%.3f", "sum", "", "",
       sum, explained);
  return explained;
}

void EmitPath(const CriticalPathReport& report) {
  const double txns = static_cast<double>(report.txns_analyzed);
  for (const char* category :
       {"network", "transmit", "wal", "queueing", "execution"}) {
    const auto it = report.by_category.find(category);
    const double us = it == report.by_category.end() ? 0.0 : it->second;
    EmitMetric(std::string("path.") + category + "_us_per_txn",
               Ratio(us, txns), "us", report.txns_analyzed);
  }
  EmitMetric("path.coverage", report.Coverage(), "ratio",
             report.txns_analyzed);
  Note("critical path (%s): %llu txns analyzed, %llu complete, %llu "
       "truncated, %llu trace events dropped",
       report.runtime.c_str(),
       static_cast<unsigned long long>(report.txns_analyzed),
       static_cast<unsigned long long>(report.txns_complete),
       static_cast<unsigned long long>(report.txns_truncated),
       static_cast<unsigned long long>(report.trace_events_dropped));
}

}  // namespace

void RunLayers(const Options& opt) {
  const bool sim_host = opt.workload == "sim-sweep";
  const bool sock_host = opt.workload == "sock-open";
  const bool closed = opt.workload == "thr-closed";
  if (!sim_host && !sock_host && !closed && opt.workload != "thr-open") {
    EmitCheck("workload", false, "unknown workload " + opt.workload);
    return;
  }
  const ThreadClusterConfig tcfg = ThreadConfig(opt.seed, !closed);
  WarmThread(tcfg);

  // Host passes. Traced windows are short: the rings must not wrap, and
  // the export is parsed back in memory.
  const SimLeg sim = RunSimLeg(CommitProtocol::kEasyCommit, opt.seed,
                               kSimWarmSimSec, 0.05, false);
  const SimLeg sim_traced = RunSimLeg(CommitProtocol::kEasyCommit, opt.seed,
                                      kSimWarmSimSec, 0.02, true);
  CheckSim("layers.sim", sim);
  CheckSim("layers.sim_traced", sim_traced);
  const ThreadRun thr = RunThreadCluster(tcfg, 0.2, 1.0, false);
  const ThreadRun thr_traced = RunThreadCluster(tcfg, 0.2, 0.15, true);
  CheckThread("layers.thread", thr, !closed);
  CheckThread("layers.thread_traced", thr_traced, !closed);
  const std::string wal_root =
      std::filesystem::absolute(opt.scratch + "/layers-wal").string();
  const SocketClusterConfig scfg = SocketConfig(opt.seed, true, wal_root);
  const SocketRun sock = RunSocketCluster(scfg, 0.2, 1.5);
  CheckSocket("layers.sock", sock, scfg.num_nodes);

  const HostCounts sim_c = SimCounts(sim);
  const HostCounts thr_c = ThreadCounts(thr);
  const HostCounts sock_c = SocketCounts(sock);

  // The ladder.
  LadderCosts l;
  l.round_n8 = MeasureRound(8);
  l.round_n2 = MeasureRound(2);
  l.event_ns = MeasureSchedulerEvent();
  l.mailbox_ns_b2 = MeasureMailbox(2);
  l.mailbox_ns_b16 = MeasureMailbox(16);
  l.wake_ns = MeasureMailboxWakeNs(0.25);
  l.encode_ns_1 = MeasureEncode(1);
  l.encode_ns_8 = MeasureEncode(8);
  l.decode_ns_1 = MeasureDecode(1);
  l.decode_ns_8 = MeasureDecode(8);
  l.mem_append_ns = MeasureMemAppend();
  std::filesystem::create_directories(wal_root);
  const double group = std::max(1.0, std::round(Ratio(
      sock_c.wal_records_per_txn, sock_c.flushes_per_txn)));
  l.file_flush_us = MeasureFileFlushUs(wal_root, static_cast<size_t>(group));
  std::filesystem::remove_all(wal_root);
  l.lock_ns = MeasureLockTxn();
  l.obs_ns = MeasureObsRecord();
  l.trace_ns = MeasureTraceRecord();
  l.ping = MeasurePingPong(0.5);
  Note("testbed EC n=8: %.1f msgs/txn, %.1f wal records/txn, %.1f events; "
       "n=2: %.0f ns, %.1f msgs, %.1f events",
       l.round_n8.messages, l.round_n8.wal_records, l.round_n8.events,
       l.round_n2.ns, l.round_n2.messages, l.round_n2.events);
  Note("file wal group: %.0f records per flush", group);

  // Worker loop counters of the threaded pass.
  uint64_t busy = 0, wall = 0, batches = 0, mailbox = 0, local = 0;
  for (const WorkerStats& w : thr.workers) {
    busy += w.busy_us;
    wall += w.wall_us;
    batches += w.mailbox_batches;
    mailbox += w.mailbox_messages;
    local += w.local_messages;
  }
  const double worker_batch = Ratio(mailbox, batches);

  const double sim_explained = PrintBudget(sim_c, l, worker_batch);
  const double thr_explained = PrintBudget(thr_c, l, worker_batch);
  const double sock_explained = PrintBudget(sock_c, l, worker_batch);

  // Generic counts and attribution come from the workload's own host; the
  // socket host exports no traces, so sock-open is attributed with the
  // threaded trace (same node and worker code, in-process transport).
  const HostCounts& own = sim_host ? sim_c : sock_host ? sock_c : thr_c;
  const double explained =
      sim_host ? sim_explained : sock_host ? sock_explained : thr_explained;
  const double overhead =
      sim_host ? Ratio(sim_traced.cpu_s / sim_traced.commits,
                       sim.cpu_s / sim.commits) - 1
               : Ratio(thr_traced.CpuUsPerTxn(), thr.CpuUsPerTxn()) - 1;

  EmitMetric("commit.round_ns", l.round_n8.ns, "ns", 1);
  EmitMetric("commit.msgs_per_txn", own.msgs_per_txn, "count", 1);
  EmitMetric("commit.wal_records_per_txn", own.wal_records_per_txn, "count",
             1);
  EmitMetric("sim.event_ns", l.event_ns, "ns", 1);
  EmitMetric("sim.events_per_txn", sim_c.events_per_txn, "count", 1);
  EmitMetric("net.mailbox_ns_per_msg", l.mailbox_ns_b16, "ns", 1);
  EmitMetric("net.mailbox_ns_per_msg_burst2", l.mailbox_ns_b2, "ns", 1);
  EmitMetric("net.mailbox_wake_ns", l.wake_ns, "ns", 1);
  EmitMetric("net.encode_ns_per_msg", l.encode_ns_8, "ns", 1);
  EmitMetric("net.encode_ns_per_msg_single", l.encode_ns_1, "ns", 1);
  EmitMetric("net.decode_ns_per_msg", l.decode_ns_8, "ns", 1);
  EmitMetric("net.decode_ns_per_msg_single", l.decode_ns_1, "ns", 1);
  EmitMetric("net.msgs_per_frame", own.msgs_per_frame, "count", 1);
  EmitMetric("wal.mem_append_ns", l.mem_append_ns, "ns", 1);
  EmitMetric("wal.file_flush_us", l.file_flush_us, "us", 1);
  EmitMetric("wal.flushes_per_txn", own.flushes_per_txn, "count", 1);
  EmitMetric("cc.lock_ns", l.lock_ns, "ns", 1);
  EmitMetric("cc.aborts_per_commit", own.aborts_per_commit, "ratio", 1);
  EmitMetric("worker.occupancy", Ratio(busy, wall), "ratio",
             thr.workers.size());
  EmitMetric("worker.batch_msgs", worker_batch, "count", batches);
  EmitMetric("worker.local_frac", Ratio(local, local + mailbox), "ratio",
             local + mailbox);
  const SocketIoStats io = sock.stats.Io();
  EmitMetric("sock.rtt_us", l.ping.rtt_us, "us", 1);
  EmitMetric("sock.syscall_ns", l.SyscallNs(), "ns", 1);
  EmitMetric("sock.syscalls_per_txn", sock_c.syscalls_per_txn, "count", 1);
  EmitMetric("sock.frames_per_writev", Ratio(io.frames_out, io.writev_calls),
             "count", io.writev_calls);
  EmitMetric("sock.bytes_per_txn", Ratio(io.bytes_out, sock.stats.Committed()),
             "B", 1);
  EmitMetric("obs.record_ns", l.obs_ns, "ns", 1);
  EmitMetric("trace.record_ns", l.trace_ns, "ns", 1);
  EmitPath(sim_host ? *sim_traced.path : *thr_traced.path);
  EmitMetric("trace.overhead_frac", overhead, "ratio", 1);
  EmitMetric("ladder.explained_frac", explained, "ratio", 1);

  const NodeStats& t = thr.stats.total;
  const NodeStats& tt = thr_traced.stats.total;
  const uint64_t attempted =
      sim.commits + sim_traced.commits +
      (closed ? t.txns_committed + tt.txns_committed
              : t.open_loop_offered + tt.open_loop_offered) +
      sock.stats.Offered();
  const uint64_t failed = t.open_loop_rejected + t.open_loop_aborted +
                          tt.open_loop_rejected + tt.open_loop_aborted +
                          sock.stats.Rejected() + sock.stats.TerminalAborted();
  EmitCount(attempted, failed);
}

}  // namespace ecbench
