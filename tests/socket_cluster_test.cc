// Multi-process socket runtime tests: a real loopback TCP mesh of node
// processes. NOTE: this binary is its own supervisor AND its own node
// executable — the cluster re-execs argv[0] with the --ecdb-socket-node
// marker — so it links gtest without gtest_main and provides the main()
// below.

#include "cluster/socket_cluster.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <stdlib.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "net/frame.h"
#include "wal/wal.h"

namespace ecdb {
namespace {

std::string MakeTempDir() {
  char tmpl[] = "/tmp/ecdb_socket_test_XXXXXX";
  const char* dir = mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir ? dir : "";
}

TEST(SocketClusterTest, LoopbackOpenLoopConservation) {
  // n=4 open loop on loopback TCP: after quiesce + drain the aggregated
  // ledger must balance exactly — every arrival that entered a process
  // left it as committed, rejected, or terminally aborted, across real
  // sockets and real process boundaries.
  SocketClusterConfig cfg;
  cfg.num_nodes = 4;
  cfg.open_loop = true;
  cfg.arrivals_per_sec_per_node = 1500;
  cfg.coalesce = true;
  cfg.seed = 11;

  SocketCluster cluster(cfg);
  ASSERT_TRUE(cluster.Start());
  cluster.RunFor(1.5);
  EXPECT_GT(cluster.TotalCommitted(), 0u);  // live poll over control plane
  cluster.Quiesce(/*drain_seconds=*/1.0);
  SocketRunStats run = cluster.Stop();

  ASSERT_EQ(run.nodes.size(), 4u);
  EXPECT_GT(run.Committed(), 0u);
  EXPECT_TRUE(run.ConservationHolds())
      << "offered=" << run.Offered() << " committed=" << run.Committed()
      << " rejected=" << run.Rejected()
      << " taborted=" << run.TerminalAborted();
  // One latency sample per commit, both recorded at the commit itself.
  EXPECT_EQ(run.latency.count(), run.Committed());
  // Each STATS report is the node's whole registry snapshot.
  MetricsRegistry core;
  RegisterCoreMetrics(&core);
  for (const SocketNodeReport& n : run.nodes) {
    for (const std::string& name : core.counter_names()) {
      EXPECT_EQ(n.metrics.count(name), 1u) << "node " << n.id << ": " << name;
    }
    for (const SocketIoGauge& g : kSocketIoGauges) {
      EXPECT_EQ(n.metrics.count(g.name), 1u) << "node " << n.id << ": "
                                             << g.name;
    }
  }

  const SocketIoStats io = run.Io();
  // Coalescing must actually batch: frames carried more messages than
  // there were frames, and the gather path put them on the wire.
  EXPECT_GT(io.frames_out, 0u);
  EXPECT_GT(io.messages_out, io.frames_out);
  EXPECT_GT(io.writev_calls, 0u);
  // Framing stayed intact end to end across every split the kernel chose.
  EXPECT_EQ(io.corrupt_resets, 0u);
  EXPECT_EQ(io.overflow_drops, 0u);
  // Latency percentiles merged from per-process histogram buckets.
  EXPECT_GT(run.latency.Percentile(0.50), 0u);
}

TEST(SocketClusterTest, CrashDuringDecisionFloodAndRecovery) {
  // Kill a node process (SIGKILL, no flush — peers see a TCP reset) while
  // the closed-loop EC traffic keeps the decision flood dense, then
  // restart it over the same WAL. The survivors must keep committing
  // through the crash, the replacement must recover from its log and
  // commit new transactions, and EC's duplicate-decision suppression must
  // show the flood was actually redundant end to end.
  const std::string wal_dir = MakeTempDir();
  ASSERT_FALSE(wal_dir.empty());

  SocketClusterConfig cfg;
  cfg.num_nodes = 4;
  cfg.clients_per_node = 8;
  cfg.coalesce = true;
  cfg.wal_dir = wal_dir;
  cfg.seed = 23;
  // Failure-detection timeouts sized to the outage: a client stuck on the
  // dead node must abort, retry and commit a transaction that avoids it
  // within the survivor-progress window below (exec waits time out at 5x
  // the protocol timeout: 600 ms).
  cfg.timeout_us = 120'000;
  cfg.termination_window_us = 60'000;

  SocketCluster cluster(cfg);
  ASSERT_TRUE(cluster.Start());
  cluster.RunFor(1.0);

  EXPECT_GT(cluster.TotalCommitted(), 0u);
  ASSERT_TRUE(cluster.Kill(2));
  // Survivors keep making progress while node 2 is a black hole (its
  // transactions time out; everything else flows around it). Both polls
  // exclude the dead process, so the delta is survivor-only progress.
  cluster.RunFor(0.3);
  const uint64_t outage_early = cluster.TotalCommitted();
  cluster.RunFor(1.0);
  const uint64_t outage_late = cluster.TotalCommitted();
  EXPECT_GT(outage_late, outage_early);

  ASSERT_TRUE(cluster.Restart(2));
  cluster.RunFor(1.2);
  cluster.Quiesce(/*drain_seconds=*/1.0);
  SocketRunStats run = cluster.Stop();

  ASSERT_EQ(run.nodes.size(), 4u);
  const SocketNodeReport* restarted = nullptr;
  for (const SocketNodeReport& n : run.nodes) {
    if (n.id == 2) restarted = &n;
  }
  ASSERT_NE(restarted, nullptr);
  // The replacement process's counters start at zero, so committed > 0
  // here means NEW transactions committed after recovery — the node
  // converged back into the mesh.
  EXPECT_GT(restarted->committed, 0u);
  // It recovered over a non-empty log: the WAL replay saw the pre-crash
  // history (group commit flushed it before the kill).
  EXPECT_GT(restarted->wal_records, restarted->committed);
  // The initiator sides re-dialed the new port: more attaches than the
  // initial mesh build alone would produce.
  SocketIoStats io = run.Io();
  EXPECT_GT(io.reconnects, 2u * 6u /* initial mesh, both endpoints */);
  // EC's redundancy did its job across the wire.
  EXPECT_GT(run.DuplicateDecisionsSuppressed(), 0u);
  // TCP kept the byte streams intact through resets: every connection
  // either delivered whole frames or died cleanly — no framing damage.
  EXPECT_EQ(io.corrupt_resets, 0u);
  std::filesystem::remove_all(wal_dir);
}

TEST(SocketClusterTest, UncoalescedRestartReplaysPreKillLog) {
  // At a frame cap of one the WAL group flush still precedes every send,
  // so a SIGKILLed node leaves its pre-kill history on disk and the
  // replacement process replays it.
  const std::string wal_dir = MakeTempDir();
  ASSERT_FALSE(wal_dir.empty());

  SocketClusterConfig cfg;
  cfg.num_nodes = 4;
  cfg.clients_per_node = 8;
  cfg.coalesce = false;
  cfg.wal_dir = wal_dir;
  cfg.seed = 23;
  cfg.timeout_us = 120'000;
  cfg.termination_window_us = 60'000;

  SocketCluster cluster(cfg);
  ASSERT_TRUE(cluster.Start());
  cluster.RunFor(1.0);
  const uint64_t committed_before_kill = cluster.TotalCommitted();
  ASSERT_TRUE(cluster.Kill(2));
  // Node 2's log exactly as the kill left it: what the restart replays.
  uint64_t on_disk_at_kill = 0;
  {
    auto wal = FileWal::Open(wal_dir + "/node2.wal");
    ASSERT_TRUE(wal.ok());
    on_disk_at_kill = wal.value()->Size();
  }
  // Node 2 coordinates about a quarter of the committed transactions and
  // logs several records for each of them.
  EXPECT_GT(committed_before_kill, 0u);
  EXPECT_GE(on_disk_at_kill, committed_before_kill / cfg.num_nodes);

  ASSERT_TRUE(cluster.Restart(2));
  cluster.RunFor(0.5);
  SocketRunStats run = cluster.Stop();
  const SocketNodeReport* restarted = nullptr;
  for (const SocketNodeReport& n : run.nodes) {
    if (n.id == 2) restarted = &n;
  }
  ASSERT_NE(restarted, nullptr);
  // The replacement's log holds the replayed history plus whatever it
  // wrote since.
  EXPECT_GE(restarted->wal_records, on_disk_at_kill);
  std::filesystem::remove_all(wal_dir);
}

TEST(SocketClusterTest, TornTailBetweenKillsKeepsLaterRecords) {
  // A SIGKILL mid group flush can leave a torn record at the end of the
  // log. The replacement process must cut it off before appending, or
  // everything it logs hides behind the torn bytes from the next restart.
  const std::string wal_dir = MakeTempDir();
  ASSERT_FALSE(wal_dir.empty());
  const std::string wal_path = wal_dir + "/node2.wal";

  SocketClusterConfig cfg;
  cfg.num_nodes = 4;
  cfg.clients_per_node = 8;
  cfg.wal_dir = wal_dir;
  cfg.seed = 29;
  cfg.timeout_us = 120'000;
  cfg.termination_window_us = 60'000;

  SocketCluster cluster(cfg);
  ASSERT_TRUE(cluster.Start());
  cluster.RunFor(1.0);
  ASSERT_TRUE(cluster.Kill(2));
  uint64_t on_disk_at_first_kill = 0;
  {
    auto wal = FileWal::Open(wal_path);
    ASSERT_TRUE(wal.ok());
    on_disk_at_first_kill = wal.value()->Size();
  }
  EXPECT_GT(on_disk_at_first_kill, 0u);
  {
    std::ofstream torn(wal_path, std::ios::binary | std::ios::app);
    torn.write("\xDB\xEC\x01\x02\x03\x04\x05", 7);
    ASSERT_TRUE(torn.good());
  }

  ASSERT_TRUE(cluster.Restart(2));
  cluster.RunFor(0.5);
  ASSERT_TRUE(cluster.Kill(2));
  {
    auto wal = FileWal::Open(wal_path);
    ASSERT_TRUE(wal.ok());
    EXPECT_GT(wal.value()->Size(), on_disk_at_first_kill);
  }
  cluster.Stop();
  std::filesystem::remove_all(wal_dir);
}

TEST(SocketClusterTest, UncoalescedPathStillConverges) {
  // The ablation baseline (per-message frames, one write syscall each) is
  // slower but must be just as correct.
  SocketClusterConfig cfg;
  cfg.num_nodes = 3;
  cfg.clients_per_node = 4;
  cfg.coalesce = false;
  cfg.seed = 5;

  SocketCluster cluster(cfg);
  ASSERT_TRUE(cluster.Start());
  cluster.RunFor(1.0);
  cluster.Quiesce(/*drain_seconds=*/0.5);
  SocketRunStats run = cluster.Stop();

  EXPECT_GT(run.Committed(), 0u);
  const SocketIoStats io = run.Io();
  // One message per frame, one syscall per frame: no batching anywhere.
  EXPECT_EQ(io.frames_out, io.messages_out);
  EXPECT_EQ(io.corrupt_resets, 0u);
}

TEST(SocketClusterTest, RejectsPathsWithWhitespace) {
  // The fan-out config is one space-separated line, so a path with
  // whitespace would reach the node processes cut short. Start refuses it
  // before forking anything.
  for (const bool wal : {true, false}) {
    SocketClusterConfig cfg;
    cfg.num_nodes = 2;
    (wal ? cfg.wal_dir : cfg.telemetry_dir) = "/tmp/ecdb socket test";
    cfg.telemetry = !wal;
    EXPECT_FALSE(PathsFitChildConfig(cfg));
    SocketCluster cluster(cfg);
    EXPECT_FALSE(cluster.Start()) << (wal ? "wal_dir" : "telemetry_dir");
    EXPECT_TRUE(cluster.Stop().nodes.empty());
  }
  SocketClusterConfig tab;
  tab.wal_dir = "/tmp/ecdb\tsocket";
  EXPECT_FALSE(PathsFitChildConfig(tab));
  EXPECT_TRUE(PathsFitChildConfig(SocketClusterConfig{}));
}

MessageFrame FrameFrom(NodeId src, NodeId dst) {
  MessageFrame frame;
  frame.src = src;
  frame.dst = dst;
  Message msg;
  msg.src = src;
  msg.dst = dst;
  msg.txn = MakeTxnId(src, 1);
  frame.messages.push_back(msg);
  return frame;
}

// The hello fixes who is on a data connection: a frame on it that names
// another sender is dropped, and only the peer's own frame reaches the
// node's mailbox.
TEST(SocketNetworkTest, DropsFramesFromAForeignSender) {
  SocketNetwork net(/*self=*/2, /*num_nodes=*/3);
  const uint16_t port = net.Listen();
  net.StartIo();
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  // Hello [magic u32][node id u32]: this connection is node 0's. The
  // forged frame goes first, so once the good one is in, the forged one
  // has been decoded too.
  const uint32_t hello[2] = {0xEC5C1A10, 0};
  std::vector<uint8_t> bytes(sizeof(hello));
  std::memcpy(bytes.data(), hello, sizeof(hello));
  EncodeFrameToStream(FrameFrom(/*src=*/1, /*dst=*/2), &bytes);
  EncodeFrameToStream(FrameFrom(/*src=*/0, /*dst=*/2), &bytes);
  ASSERT_EQ(write(fd, bytes.data(), bytes.size()),
            static_cast<ssize_t>(bytes.size()));
  std::vector<Message> got;
  std::vector<Message> batch;
  while (got.empty() &&
         net.channel(2).PopAll(&batch, std::chrono::seconds(5))) {
    got.insert(got.end(), batch.begin(), batch.end());
  }
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].src, 0u);
  EXPECT_EQ(net.io_stats().frames_in, 1u);
  close(fd);
  net.StopIo();
}

bool WaitReadable(int fd, int timeout_ms) {
  pollfd pfd{fd, POLLIN, 0};
  return poll(&pfd, 1, timeout_ms) == 1;
}

// The test plays node 1 to a SocketNetwork playing node 0: a listener with
// a 4 KiB receive buffer whose accepted connection has read node 0's hello
// and reads nothing more until the test says so.
struct SlowReader {
  int listen_fd = -1;
  int fd = -1;
  ~SlowReader() {
    if (fd >= 0) close(fd);
    if (listen_fd >= 0) close(listen_fd);
  }
};

void ConnectSlowReader(SocketNetwork* net, SlowReader* reader) {
  net->Listen();
  reader->listen_fd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(reader->listen_fd, 0);
  // Set before listen() so the accepted socket inherits it.
  const int rcvbuf = 4096;
  setsockopt(reader->listen_fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf,
             sizeof(rcvbuf));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(bind(reader->listen_fd, reinterpret_cast<sockaddr*>(&addr), len),
            0);
  ASSERT_EQ(listen(reader->listen_fd, 1), 0);
  ASSERT_EQ(getsockname(reader->listen_fd, reinterpret_cast<sockaddr*>(&addr),
                        &len),
            0);
  net->SetPeerPort(1, ntohs(addr.sin_port));
  net->StartIo();
  ASSERT_TRUE(WaitReadable(reader->listen_fd, 5000));
  reader->fd = accept(reader->listen_fd, nullptr, nullptr);
  ASSERT_GE(reader->fd, 0);
  uint8_t hello[8];
  size_t have = 0;
  while (have < sizeof(hello) && WaitReadable(reader->fd, 5000)) {
    const ssize_t got = read(reader->fd, hello + have, sizeof(hello) - have);
    if (got <= 0) break;
    have += static_cast<size_t>(got);
  }
  ASSERT_EQ(have, sizeof(hello));
}

// Sends one one-message frame toward node 1; its txn id carries its number.
void SendNumbered(SocketNetwork* net, uint64_t number) {
  Message msg;
  msg.src = 0;
  msg.dst = 1;
  msg.txn = MakeTxnId(0, number);
  net->Send(std::move(msg));
}

uint64_t Stalls(const SocketNetwork& net) {
  const SocketIoStats io = net.io_stats();
  return io.eagain_stalls + io.partial_writes;
}

// Sends until the writer is left with unsent bytes (a short write or an
// EAGAIN, after which it waits for EPOLLOUT) or 30 s pass. Returns how many
// it sent.
uint64_t SendUntilStalled(SocketNetwork* net) {
  uint64_t sent = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (Stalls(*net) == 0 && std::chrono::steady_clock::now() < deadline) {
    for (int i = 0; i < 64; ++i) SendNumbered(net, ++sent);
  }
  return sent;
}

struct Received {
  uint64_t messages = 0;
  bool increasing = true;  // txn numbers strictly increase
  bool consecutive = true;  // ... and each is its predecessor + 1
  bool corrupt = false;
  size_t buffered_bytes = 0;
};

// Reads until `expect` messages have arrived or the connection goes quiet.
Received ReadNumbered(int fd, uint64_t expect) {
  Received r;
  FrameStreamDecoder decoder;
  MessageFrame frame;
  std::vector<uint8_t> buf(64 * 1024);
  uint64_t last = 0;
  while (r.messages < expect && WaitReadable(fd, 5000)) {
    const ssize_t got = read(fd, buf.data(), buf.size());
    if (got <= 0) break;
    decoder.Feed(buf.data(), static_cast<size_t>(got));
    while (decoder.Next(&frame)) {
      for (const Message& m : frame.messages) {
        const uint64_t number = TxnSequence(m.txn);
        r.increasing = r.increasing && number > last;
        r.consecutive = r.consecutive && number == last + 1;
        last = number;
        ++r.messages;
      }
    }
  }
  r.corrupt = decoder.corrupt();
  r.buffered_bytes = decoder.buffered_bytes();
  return r;
}

// The socket writer under backpressure: node 1 stops reading after the
// hello, so node 0's writes come up short and park unsent bytes; once the
// test reads again, every message must arrive once and in order.
void CheckWriterUnderBackpressure(bool batched) {
  SocketNetwork net(/*self=*/0, /*num_nodes=*/2);
  net.SetWritevBatching(batched);
  SlowReader reader;
  ASSERT_NO_FATAL_FAILURE(ConnectSlowReader(&net, &reader));
  const uint64_t sent = SendUntilStalled(&net);
  ASSERT_GT(Stalls(net), 0u);

  const Received got = ReadNumbered(reader.fd, sent);
  EXPECT_FALSE(got.corrupt);
  EXPECT_TRUE(got.consecutive);
  EXPECT_EQ(got.messages, sent);
  EXPECT_EQ(got.buffered_bytes, 0u);
  const SocketIoStats io = net.io_stats();
  EXPECT_EQ(io.overflow_drops, 0u);
  EXPECT_EQ(io.messages_out, sent);
  net.StopIo();
}

TEST(SocketNetworkTest, BatchedWriterSurvivesBackpressure) {
  CheckWriterUnderBackpressure(/*batched=*/true);
}

TEST(SocketNetworkTest, PerFrameWriterSurvivesBackpressure) {
  CheckWriterUnderBackpressure(/*batched=*/false);
}

// A peer that stops reading costs its sender no syscalls and bounded
// memory: once the writer has parked bytes it issues no write until the
// kernel reports the socket writable, and frames past the per-peer cap are
// dropped whole. The frames that were kept arrive intact and in order.
void CheckStalledPeerIsBounded(bool batched) {
  SocketNetwork net(/*self=*/0, /*num_nodes=*/2);
  net.SetWritevBatching(batched);
  SlowReader reader;
  ASSERT_NO_FATAL_FAILURE(ConnectSlowReader(&net, &reader));
  uint64_t sent = SendUntilStalled(&net);
  ASSERT_GT(Stalls(net), 0u);
  // Let the writes already in flight settle before taking the baseline.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const uint64_t writes_at_stall = net.io_stats().writev_calls;

  // 256k one-message frames, several times the per-peer cap.
  for (int i = 0; i < 256 * 1024; ++i) SendNumbered(&net, ++sent);
  const SocketIoStats stalled = net.io_stats();
  EXPECT_EQ(stalled.writev_calls, writes_at_stall);
  EXPECT_GT(stalled.overflow_drops, 0u);

  const Received got = ReadNumbered(reader.fd, stalled.messages_out);
  EXPECT_FALSE(got.corrupt);
  EXPECT_TRUE(got.increasing);
  EXPECT_EQ(got.messages, stalled.messages_out);
  net.StopIo();
}

TEST(SocketNetworkTest, StalledPeerIsBoundedAndLeftAlone) {
  for (const bool batched : {true, false}) {
    SCOPED_TRACE(batched ? "batched" : "per-frame");
    CheckStalledPeerIsBounded(batched);
  }
}

// A socket bound to a loopback port (listening or not) and that port.
int BindLoopback(uint16_t* port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  if (fd < 0) return -1;
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), len) != 0 ||
      getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    close(fd);
    return -1;
  }
  *port = ntohs(addr.sin_port);
  return fd;
}

// A restarted peer's new port is dialed as soon as it is announced, not
// after the backoff that node 0 earned against the dead one (up to 200 ms).
TEST(SocketNetworkTest, NewPeerPortIsDialedWithoutBackoff) {
  for (int round = 0; round < 5; ++round) {
    SCOPED_TRACE(round);
    SocketNetwork net(/*self=*/0, /*num_nodes=*/2);
    net.Listen();
    // Bound but not listening: every dial is refused.
    uint16_t dead_port = 0;
    const int dead = BindLoopback(&dead_port);
    ASSERT_GE(dead, 0);
    net.SetPeerPort(1, dead_port);
    net.StartIo();
    // The backoff doubles from 1 ms and reaches its 200 ms cap after
    // 255 ms of refused dials. The rounds announce the live port at five
    // points spread over one 200 ms retry cycle: waiting out the backoff,
    // some of them would wait 100-200 ms for the next dial.
    std::this_thread::sleep_for(std::chrono::milliseconds(400 + 40 * round));
    ASSERT_FALSE(net.Connected(1));

    uint16_t live_port = 0;
    const int live = BindLoopback(&live_port);
    ASSERT_GE(live, 0);
    ASSERT_EQ(listen(live, 1), 0);
    const auto announced = std::chrono::steady_clock::now();
    net.SetPeerPort(1, live_port);
    while (!net.Connected(1) &&
           std::chrono::steady_clock::now() - announced <
               std::chrono::seconds(1)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const auto waited = std::chrono::steady_clock::now() - announced;
    EXPECT_TRUE(net.Connected(1));
    EXPECT_LT(waited, std::chrono::milliseconds(100));
    net.StopIo();
    close(live);
    close(dead);
  }
}

}  // namespace
}  // namespace ecdb

int main(int argc, char** argv) {
  // Node-process entry: the supervisor re-execs this binary with a marker
  // flag; such invocations run one node and never reach gtest.
  if (ecdb::MaybeRunSocketNodeChild(argc, argv)) return 0;
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
