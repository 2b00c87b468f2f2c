#ifndef ECDB_CLUSTER_SOCKET_NODE_H_
#define ECDB_CLUSTER_SOCKET_NODE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iterator>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cluster/thread_node.h"
#include "cluster/worker.h"
#include "commit/invariants.h"
#include "net/channel.h"
#include "net/frame.h"
#include "obs/telemetry.h"
#include "workload/workload.h"
#include "workload/ycsb.h"

namespace ecdb {

/// Cumulative transport counters of one process's socket I/O. All sources
/// are relaxed atomics owned by the network; io_stats() snapshots them, so
/// reading is safe from any thread at any time (supervisor STATS polls,
/// the telemetry poll hook).
struct SocketIoStats {
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  uint64_t read_calls = 0;
  uint64_t writev_calls = 0;     ///< write syscalls on data connections
  uint64_t partial_writes = 0;   ///< a write came up short; EPOLLOUT armed
  uint64_t eagain_stalls = 0;    ///< a write hit EAGAIN; EPOLLOUT armed
  uint64_t epoll_waits = 0;
  uint64_t eventfd_wakes = 0;    ///< sender-side wake syscalls issued
  uint64_t reconnects = 0;       ///< connections (re)established, either side
  uint64_t frames_out = 0;       ///< frames staged toward remote peers
  uint64_t messages_out = 0;     ///< messages inside those frames
  uint64_t frames_in = 0;        ///< complete frames reassembled from reads
  uint64_t messages_in = 0;
  uint64_t overflow_drops = 0;   ///< frames dropped: peer send queue full
  uint64_t corrupt_resets = 0;   ///< connections dropped on broken framing

  /// Transport syscalls issued (the numerator of the bench's
  /// syscalls-per-txn counter). Connection management is excluded: it is
  /// O(peers), not O(traffic).
  uint64_t Syscalls() const {
    return read_calls + writev_calls + epoll_waits + eventfd_wakes;
  }
};

/// Every SocketIoStats field under its gauge name: a socket node polls them
/// into its registry; the supervisor reads them out of STATS by name.
struct SocketIoGauge {
  const char* name;
  uint64_t SocketIoStats::*field;
};
inline constexpr SocketIoGauge kSocketIoGauges[] = {
    {"sock_bytes_in", &SocketIoStats::bytes_in},
    {"sock_bytes_out", &SocketIoStats::bytes_out},
    {"sock_read_calls", &SocketIoStats::read_calls},
    {"sock_writev_calls", &SocketIoStats::writev_calls},
    {"sock_partial_writes", &SocketIoStats::partial_writes},
    {"sock_eagain_stalls", &SocketIoStats::eagain_stalls},
    {"sock_epoll_waits", &SocketIoStats::epoll_waits},
    {"sock_eventfd_wakes", &SocketIoStats::eventfd_wakes},
    {"sock_reconnects", &SocketIoStats::reconnects},
    {"sock_frames_out", &SocketIoStats::frames_out},
    {"sock_messages_out", &SocketIoStats::messages_out},
    {"sock_frames_in", &SocketIoStats::frames_in},
    {"sock_messages_in", &SocketIoStats::messages_in},
    {"sock_overflow_drops", &SocketIoStats::overflow_drops},
    {"sock_corrupt_resets", &SocketIoStats::corrupt_resets},
};

/// The real-wire third backend's transport: a ThreadNetwork whose remote
/// destinations go over TCP instead of an in-process mailbox. One instance
/// per node *process*; the base class still provides the local mailbox the
/// hosting ThreadWorker drains (self-addressed traffic and inbound frames
/// land there), the crash bookkeeping, and the counters, so ThreadNode and
/// ThreadWorker run on top of it completely unchanged, and every frame
/// reaches it after the sending node's WAL group flush.
///
/// Send-side shape (the perf-critical path):
///  - The worker thread encodes a length-prefixed MessageFrame per
///    destination per send call — under coalescing one frame carries a
///    whole event-loop iteration's messages for that peer — appends it to
///    the peer's staged buffer under a short mutex, and issues one eventfd
///    wake. Coalescing therefore amortizes the mutex, the frame header,
///    the checksum and the wake over the batch; with it off every message
///    pays all four (the bench's ablation).
///  - The I/O thread runs level-triggered epoll and owns one outbound
///    buffer per peer. Once that buffer is fully written it takes the
///    staged bytes whole (a swap) and writes them with one write — Nagle
///    is disabled (TCP_NODELAY) and this explicit batching replaces it.
///    A short write arms EPOLLOUT, and from then on the peer is written
///    only when the kernel reports it writable: a stalled peer costs no
///    syscalls, and only its staged buffer grows, up to a cap past which
///    whole frames are dropped.
///  - Reads go through one reusable 64 KiB buffer into a per-peer
///    FrameStreamDecoder; every reassembled frame's messages are pushed
///    into the local mailbox as one batch (one lock, at most one wake),
///    which is exactly where a ThreadWorker expects traffic to appear.
///
/// Mesh: the lower node id initiates the connection (non-blocking connect
/// + an 8-byte hello naming the caller); the higher id accepts. A dead
/// connection (peer process killed) is dropped — losing, like a real TCP
/// reset, everything buffered on it — and the initiator side retries with
/// backoff against the latest port map, so a restarted peer (new port,
/// announced by the supervisor) is re-absorbed without restarting anyone
/// else.
class SocketNetwork : public ThreadNetwork {
 public:
  SocketNetwork(NodeId self, uint32_t num_nodes);
  ~SocketNetwork() override;

  /// Binds the listening socket on 127.0.0.1 (ephemeral port) and returns
  /// the port. Call once, before StartIo().
  uint16_t Listen();

  /// Installs/updates a peer's data port (supervisor PEERS lines; may
  /// arrive again after a peer restart with a fresh port). Thread-safe.
  /// The I/O thread dials a port that differs from the one it last dialed
  /// at once, with the reconnect backoff reset.
  void SetPeerPort(NodeId node, uint16_t port);

  /// Write batching (on by default). Off is the bench's ablation
  /// baseline: the I/O thread issues one write syscall per staged frame —
  /// at a frame cap of one, that is one syscall per message,
  /// the cost the batched path amortizes away. Call before StartIo().
  void SetWritevBatching(bool on) { batch_writes_ = on; }

  /// Starts the epoll I/O thread (after Listen and the first port map).
  void StartIo();

  /// Stops and joins the I/O thread and closes every socket.
  void StopIo();

  // --- ThreadNetwork override: the wire hook ---
  void SendBatch(NodeId src, NodeId dst, std::vector<Message>* msgs) override;

  SocketIoStats io_stats() const;
  NodeId self() const { return self_; }

  /// True once a data connection to `node` is established (test hook).
  bool Connected(NodeId node) const;

 private:
  struct Peer {
    // -- shared: worker thread stages, I/O thread drains --
    std::mutex mu;
    std::vector<uint8_t> staged;  // complete length-prefixed frames
    uint16_t port = 0;            // latest announced data port
    // Hello done (accept) / connect done. Written by the I/O thread only;
    // Connected() reads it from any thread.
    std::atomic<bool> connected{false};

    // -- I/O thread only --
    int fd = -1;
    bool connecting = false;       // non-blocking connect in flight
    bool want_write = false;       // `out` has unsent bytes; EPOLLOUT armed
    std::vector<uint8_t> out;      // the bytes being written: one staged swap
    size_t out_off = 0;            // bytes of `out` written
    size_t frame_end = 0;          // per-frame writes: end of the current frame
    FrameStreamDecoder decoder;
    std::chrono::steady_clock::time_point next_connect{};
    uint32_t backoff_ms = 1;
    uint16_t dialed_port = 0;  // the port TryConnect last dialed
  };

  /// A freshly accepted connection whose hello has not fully arrived.
  struct PendingAccept {
    uint8_t hello[8];
    size_t have = 0;
  };

  void WakeIo();

  // I/O thread internals.
  void IoLoop();
  void FlushPeer(NodeId id);
  void ReadPeer(NodeId id);
  void Disconnect(NodeId id, bool count_drop);
  void TryConnect(NodeId id);
  void FinishConnect(NodeId id);
  void RetryLater(NodeId id);
  void AcceptAll();
  void ReadHello(int fd);
  void AttachPeer(NodeId id, int fd);

  const NodeId self_;
  const uint32_t n_;
  std::vector<std::unique_ptr<Peer>> peers_;

  int epoll_fd_ = -1;
  int event_fd_ = -1;
  int listen_fd_ = -1;
  std::unordered_map<int, PendingAccept> accepts_;  // by fd; I/O thread only
  std::thread io_thread_;
  std::atomic<bool> io_running_{false};
  bool batch_writes_ = true;

  // Worker-thread-only encode scratch (ThreadNode sends from exactly one
  // thread, so no lock: the buffer's capacity is the recycled hot-path
  // allocation).
  std::vector<uint8_t> encode_scratch_;
  MessageFrame frame_scratch_;

  // I/O-thread-only receive scratch.
  std::vector<uint8_t> read_buf_;
  MessageFrame rx_frame_;

  // Counters (relaxed atomics; see SocketIoStats).
  std::atomic<uint64_t> bytes_in_{0}, bytes_out_{0};
  std::atomic<uint64_t> read_calls_{0}, writev_calls_{0};
  std::atomic<uint64_t> partial_writes_{0}, eagain_stalls_{0};
  std::atomic<uint64_t> epoll_waits_{0}, eventfd_wakes_{0};
  std::atomic<uint64_t> reconnects_{0};
  std::atomic<uint64_t> frames_out_{0}, messages_out_{0};
  std::atomic<uint64_t> frames_in_{0}, messages_in_{0};
  std::atomic<uint64_t> overflow_drops_{0}, corrupt_resets_{0};
};

/// Per-process host configuration: the node's identity plus the same
/// cluster config every other process received (all processes must agree
/// on num_nodes, protocol, seed, ... for the run to make sense — the
/// supervisor serializes one config and fans it out).
struct SocketNodeConfig {
  NodeId id = 0;
  ThreadClusterConfig cluster;
  YcsbConfig ycsb;

  /// True when this process replaces a killed one: the node replays its
  /// WAL (recovery analysis + decision-ledger seeding, as after an
  /// in-process Recover()) and reseeds its TxnId allocator past every
  /// logged self-coordinated id before serving.
  bool restarted = false;

  /// Telemetry export paths written at Stop() ("" = skip). Per-process:
  /// each node exports its own JSONL/Prometheus files, tagged with its id.
  std::string telemetry_jsonl;
  std::string telemetry_prom;
};

/// One node of the multi-process runtime: exactly the threaded runtime's
/// host stack — one ThreadNode on one ThreadWorker — wired to a
/// SocketNetwork instead of a purely in-process ThreadNetwork. The commit
/// engine, WAL group commit (flushed before the network flush, so the
/// write-ahead order holds on the real wire too), trace recorder and
/// telemetry sampler are all reused unchanged.
class SocketNode {
 public:
  explicit SocketNode(SocketNodeConfig config);
  ~SocketNode();

  SocketNode(const SocketNode&) = delete;
  SocketNode& operator=(const SocketNode&) = delete;

  uint16_t Listen() { return network_.Listen(); }
  void SetPeerPort(NodeId node, uint16_t port) {
    network_.SetPeerPort(node, port);
  }

  /// Starts I/O, bootstraps (and, for a restarted process, recovers) the
  /// node, and launches the hosting worker + telemetry sampler.
  void Start();

  void Quiesce() { node_->Quiesce(); }

  /// Stops the worker, folds the node's thread-confined ledgers into the
  /// registry, then stops the sampler (exporting telemetry files, if
  /// configured) and the I/O thread. After this the node's state (trace,
  /// WAL) and the registry's complete snapshot are safe to read.
  void Stop();

  ThreadNode& node() { return *node_; }
  SocketNetwork& network() { return network_; }
  const MetricsRegistry& metrics() const { return metrics_registry_; }

 private:
  /// Copies the network's and the socket transport's cumulative counters
  /// into their gauges (the sampler's poll hook).
  void PollGauges();

  SocketNodeConfig config_;
  SafetyMonitor monitor_;
  YcsbWorkload workload_;
  SocketNetwork network_;

  // Single-shard registry (the node runs on the one worker), laid out as
  // in ThreadCluster plus a gauge per kSocketIoGauges entry and the WAL
  // size a STATS report carries, folded in at Stop.
  MetricsRegistry metrics_registry_;
  CoreMetrics core_metrics_;
  GaugeId io_gauges_[std::size(kSocketIoGauges)] = {};
  GaugeId wal_records_ = 0;

  std::unique_ptr<ThreadNode> node_;
  std::unique_ptr<ThreadWorker> worker_;
  bool started_ = false;
  bool stopped_ = false;

  std::unique_ptr<TelemetrySampler> sampler_;
  WallClockSampler sampling_;
};

}  // namespace ecdb

#endif  // ECDB_CLUSTER_SOCKET_NODE_H_
