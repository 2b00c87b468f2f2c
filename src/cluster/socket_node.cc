#include "cluster/socket_node.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/logging.h"
#include "common/rng.h"

namespace ecdb {
namespace {

// Bound on one peer's un-flushed outbound bytes (staged + pending). A peer
// that stops reading (or died and nobody noticed yet) must not absorb
// unbounded memory; whole frames past the cap are dropped and counted,
// which the commit protocols tolerate exactly like message loss.
constexpr size_t kMaxQueuedBytes = 4u << 20;

// 8-byte data-connection hello: [magic u32][node id u32], sent by the
// initiating (lower-id) side so the acceptor knows which peer this is.
constexpr uint32_t kHelloMagic = 0xEC5C1A10;

constexpr uint64_t kEventFdTag = ~0ull;        // epoll user-data sentinels
constexpr uint64_t kListenFdTag = ~0ull - 1;
constexpr uint64_t kAcceptTagBase = 1ull << 32;

void SetNoDelay(int fd) {
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

sockaddr_in LoopbackAddr(uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  return addr;
}

}  // namespace

SocketNetwork::SocketNetwork(NodeId self, uint32_t num_nodes)
    : ThreadNetwork(num_nodes, num_nodes),
      self_(self),
      n_(num_nodes),
      connected_flags_(num_nodes) {
  peers_.reserve(n_);
  for (uint32_t i = 0; i < n_; ++i) {
    peers_.push_back(std::make_unique<Peer>());
    connected_flags_[i].store(false, std::memory_order_relaxed);
  }
  read_buf_.resize(64 * 1024);
}

SocketNetwork::~SocketNetwork() { StopIo(); }

uint16_t SocketNetwork::Listen() {
  ECDB_CHECK(listen_fd_ < 0);
  listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  ECDB_CHECK(listen_fd_ >= 0);
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = LoopbackAddr(0);
  ECDB_CHECK(bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                  sizeof(addr)) == 0);
  ECDB_CHECK(listen(listen_fd_, 64) == 0);
  socklen_t len = sizeof(addr);
  ECDB_CHECK(getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                         &len) == 0);
  return ntohs(addr.sin_port);
}

void SocketNetwork::SetPeerPort(NodeId node, uint16_t port) {
  if (node >= n_ || node == self_) return;
  Peer& p = *peers_[node];
  {
    std::lock_guard<std::mutex> lock(p.mu);
    p.port = port;
  }
  // A fresh port usually means the peer restarted: wake the I/O thread so
  // the initiator side retries promptly instead of riding out its backoff.
  if (io_running_.load(std::memory_order_acquire)) WakeIo();
}

void SocketNetwork::StartIo() {
  ECDB_CHECK(listen_fd_ >= 0);
  ECDB_CHECK(!io_running_.load());
  epoll_fd_ = epoll_create1(0);
  ECDB_CHECK(epoll_fd_ >= 0);
  event_fd_ = eventfd(0, EFD_NONBLOCK);
  ECDB_CHECK(event_fd_ >= 0);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kEventFdTag;
  epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, event_fd_, &ev);
  ev.data.u64 = kListenFdTag;
  epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  io_running_.store(true, std::memory_order_release);
  io_thread_ = std::thread([this] { IoLoop(); });
}

void SocketNetwork::StopIo() {
  if (io_running_.exchange(false)) {
    WakeIo();
    if (io_thread_.joinable()) io_thread_.join();
  }
  for (uint32_t i = 0; i < n_; ++i) {
    Peer& p = *peers_[i];
    if (p.fd >= 0) close(p.fd);
    p.fd = -1;
    p.connected = p.connecting = false;
    connected_flags_[i].store(false, std::memory_order_relaxed);
  }
  for (PendingAccept& a : accepts_) close(a.fd);
  accepts_.clear();
  if (event_fd_ >= 0) close(event_fd_);
  if (epoll_fd_ >= 0) close(epoll_fd_);
  if (listen_fd_ >= 0) close(listen_fd_);
  event_fd_ = epoll_fd_ = listen_fd_ = -1;
}

bool SocketNetwork::Connected(NodeId node) const {
  return node < n_ && connected_flags_[node].load(std::memory_order_acquire);
}

SocketIoStats SocketNetwork::io_stats() const {
  SocketIoStats s;
  s.bytes_in = bytes_in_.load(std::memory_order_relaxed);
  s.bytes_out = bytes_out_.load(std::memory_order_relaxed);
  s.read_calls = read_calls_.load(std::memory_order_relaxed);
  s.writev_calls = writev_calls_.load(std::memory_order_relaxed);
  s.partial_writes = partial_writes_.load(std::memory_order_relaxed);
  s.eagain_stalls = eagain_stalls_.load(std::memory_order_relaxed);
  s.epoll_waits = epoll_waits_.load(std::memory_order_relaxed);
  s.eventfd_wakes = eventfd_wakes_.load(std::memory_order_relaxed);
  s.reconnects = reconnects_.load(std::memory_order_relaxed);
  s.frames_out = frames_out_.load(std::memory_order_relaxed);
  s.messages_out = messages_out_.load(std::memory_order_relaxed);
  s.frames_in = frames_in_.load(std::memory_order_relaxed);
  s.messages_in = messages_in_.load(std::memory_order_relaxed);
  s.overflow_drops = overflow_drops_.load(std::memory_order_relaxed);
  s.corrupt_resets = corrupt_resets_.load(std::memory_order_relaxed);
  return s;
}

// --------------------------------------------------------------------------
// Send side (worker thread)
// --------------------------------------------------------------------------

void SocketNetwork::Send(Message msg) {
  if (msg.dst == self_ || msg.dst >= n_) {
    // Self-addressed traffic (and out-of-range drops) keep the in-process
    // semantics: the base class routes into the local mailbox with the
    // usual crash checks.
    ThreadNetwork::Send(std::move(msg));
    return;
  }
  frame_scratch_.messages.clear();
  frame_scratch_.messages.push_back(std::move(msg));
  StageFrame(frame_scratch_.messages[0].dst, frame_scratch_.messages);
}

void SocketNetwork::SendBatch(NodeId src, NodeId dst,
                              std::vector<Message>* msgs) {
  if (dst == self_ || dst >= n_) {
    ThreadNetwork::SendBatch(src, dst, msgs);
    return;
  }
  if (msgs->empty()) return;
  StageFrame(dst, *msgs);
  msgs->clear();
}

void SocketNetwork::StageFrame(NodeId dst, const std::vector<Message>& msgs) {
  // One frame per send call: ThreadNode ships one per destination per
  // event-loop iteration, or one per message at a frame cap of one.
  frame_scratch_.src = self_;
  frame_scratch_.dst = dst;
  if (&msgs != &frame_scratch_.messages) {
    frame_scratch_.messages.assign(msgs.begin(), msgs.end());
  }
  encode_scratch_.clear();
  EncodeFrameToStream(frame_scratch_, &encode_scratch_);
  Peer& p = *peers_[dst];
  {
    std::lock_guard<std::mutex> lock(p.mu);
    if (p.staged.size() + encode_scratch_.size() > kMaxQueuedBytes) {
      overflow_drops_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    p.staged.insert(p.staged.end(), encode_scratch_.begin(),
                    encode_scratch_.end());
  }
  frames_out_.fetch_add(1, std::memory_order_relaxed);
  messages_out_.fetch_add(msgs.size(), std::memory_order_relaxed);
  // One wake per send call. This syscall is exactly what the coalescing
  // knob amortizes: a whole iteration's frame costs one wake instead of
  // one per message.
  WakeIo();
}

void SocketNetwork::WakeIo() {
  uint64_t one = 1;
  ssize_t rc = write(event_fd_, &one, sizeof(one));
  (void)rc;
  eventfd_wakes_.fetch_add(1, std::memory_order_relaxed);
}

// --------------------------------------------------------------------------
// I/O thread
// --------------------------------------------------------------------------

void SocketNetwork::UpdateEpoll(int fd, uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = 0;
  // Data fds are identified by scanning peers_ (n is small); only the
  // sentinels ride in data.u64. Re-derive the tag so accept-pending fds
  // keep theirs.
  for (size_t i = 0; i < accepts_.size(); ++i) {
    if (accepts_[i].fd == fd) ev.data.u64 = kAcceptTagBase + i;
  }
  for (uint32_t i = 0; i < n_; ++i) {
    if (peers_[i]->fd == fd) ev.data.u64 = i;
  }
  epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev);
}

void SocketNetwork::IoLoop() {
  epoll_event events[64];
  while (io_running_.load(std::memory_order_acquire)) {
    // Sleep until traffic, a peer event, or the earliest reconnect retry.
    int timeout_ms = 200;
    const auto now = std::chrono::steady_clock::now();
    for (uint32_t i = 0; i < n_; ++i) {
      if (i <= self_) continue;  // we initiate only toward higher ids
      Peer& p = *peers_[i];
      if (p.connected || p.connecting) continue;
      const auto wait = std::chrono::duration_cast<std::chrono::milliseconds>(
                            p.next_connect - now)
                            .count();
      timeout_ms = std::min<int>(timeout_ms, std::max<int>(0, (int)wait));
    }
    const int nev = epoll_wait(epoll_fd_, events, 64, timeout_ms);
    epoll_waits_.fetch_add(1, std::memory_order_relaxed);
    if (nev < 0 && errno != EINTR) break;
    for (int e = 0; e < nev; ++e) {
      const uint64_t tag = events[e].data.u64;
      const uint32_t flags = events[e].events;
      if (tag == kEventFdTag) {
        uint64_t drain;
        while (read(event_fd_, &drain, sizeof(drain)) > 0) {
        }
        continue;
      }
      if (tag == kListenFdTag) {
        AcceptAll();
        continue;
      }
      if (tag >= kAcceptTagBase) {
        ReadHello(static_cast<size_t>(tag - kAcceptTagBase));
        continue;
      }
      const NodeId id = static_cast<NodeId>(tag);
      if (id >= n_) continue;
      Peer& p = *peers_[id];
      if (p.connecting && (flags & (EPOLLOUT | EPOLLERR | EPOLLHUP))) {
        FinishConnect(id);
        continue;
      }
      if (flags & (EPOLLERR | EPOLLHUP)) {
        Disconnect(id, /*count_drop=*/true);
        continue;
      }
      if (flags & EPOLLIN) ReadPeer(id);
      if (peers_[id]->fd >= 0 && (flags & EPOLLOUT)) FlushPeer(id);
    }
    // Initiate/retry due connections, then flush every peer with staged or
    // pending output — one writev per destination per loop turn.
    const auto after = std::chrono::steady_clock::now();
    for (uint32_t i = 0; i < n_; ++i) {
      if (i == self_) continue;
      Peer& p = *peers_[i];
      if (self_ < i && !p.connected && !p.connecting &&
          after >= p.next_connect) {
        TryConnect(i);
      }
      if (p.connected) FlushPeer(i);
    }
  }
}

void SocketNetwork::AcceptAll() {
  for (;;) {
    int fd = accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
    if (fd < 0) return;
    SetNoDelay(fd);
    PendingAccept a;
    a.fd = fd;
    accepts_.push_back(a);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kAcceptTagBase + (accepts_.size() - 1);
    epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
  }
}

void SocketNetwork::ReadHello(size_t pending_index) {
  if (pending_index >= accepts_.size()) return;
  PendingAccept& a = accepts_[pending_index];
  if (a.fd < 0) return;
  const ssize_t got =
      read(a.fd, a.hello + a.have, sizeof(a.hello) - a.have);
  if (got <= 0) {
    if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    close(a.fd);
    a.fd = -1;
    return;
  }
  a.have += static_cast<size_t>(got);
  if (a.have < sizeof(a.hello)) return;
  uint32_t magic, id;
  std::memcpy(&magic, a.hello, 4);
  std::memcpy(&id, a.hello + 4, 4);
  const int fd = a.fd;
  a.fd = -1;  // consumed (slot stays; indices are positional tags)
  // The lower id always initiates, so a legitimate hello names a peer with
  // a smaller id than ours; anything else is a stray connection.
  if (magic != kHelloMagic || id >= self_) {
    close(fd);
    return;
  }
  AttachPeer(id, fd);
}

void SocketNetwork::AttachPeer(NodeId id, int fd) {
  Peer& p = *peers_[id];
  if (p.fd >= 0) {
    // Replacing a live (or half-dead) connection: the old one's in-flight
    // bytes are gone, and the new byte stream starts at a frame boundary.
    epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, p.fd, nullptr);
    close(p.fd);
  }
  p.fd = fd;
  p.connected = true;
  p.connecting = false;
  p.want_write = false;
  p.pending.clear();
  p.pending_off = 0;
  p.fresh.clear();
  p.decoder.Reset();
  p.backoff_ms = 1;
  connected_flags_[id].store(true, std::memory_order_release);
  reconnects_.fetch_add(1, std::memory_order_relaxed);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = id;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) != 0) {
    epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
  }
}

void SocketNetwork::TryConnect(NodeId id) {
  Peer& p = *peers_[id];
  uint16_t port;
  {
    std::lock_guard<std::mutex> lock(p.mu);
    port = p.port;
  }
  const auto backoff = [&] {
    p.next_connect = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(p.backoff_ms);
    p.backoff_ms = std::min<uint32_t>(p.backoff_ms * 2, 200);
  };
  if (port == 0) {
    backoff();
    return;
  }
  int fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd < 0) {
    backoff();
    return;
  }
  SetNoDelay(fd);
  sockaddr_in addr = LoopbackAddr(port);
  const int rc =
      connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc == 0 || errno == EINPROGRESS) {
    p.fd = fd;
    p.connecting = true;
    epoll_event ev{};
    ev.events = EPOLLOUT;
    ev.data.u64 = id;
    epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
    if (rc == 0) FinishConnect(id);
    return;
  }
  close(fd);
  backoff();
}

void SocketNetwork::FinishConnect(NodeId id) {
  Peer& p = *peers_[id];
  int err = 0;
  socklen_t len = sizeof(err);
  getsockopt(p.fd, SOL_SOCKET, SO_ERROR, &err, &len);
  if (err != 0) {
    epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, p.fd, nullptr);
    close(p.fd);
    p.fd = -1;
    p.connecting = false;
    p.next_connect = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(p.backoff_ms);
    p.backoff_ms = std::min<uint32_t>(p.backoff_ms * 2, 200);
    return;
  }
  // The hello rides the normal pending-buffer path: it is just the first
  // eight bytes of the connection's byte stream.
  const int fd = p.fd;
  p.fd = -1;  // AttachPeer treats an existing fd as stale; avoid closing fd
  AttachPeer(id, fd);
  Peer& q = *peers_[id];
  q.pending.resize(8);
  std::memcpy(q.pending.data(), &kHelloMagic, 4);
  std::memcpy(q.pending.data() + 4, &self_, 4);
  FlushPeer(id);
}

void SocketNetwork::Disconnect(NodeId id, bool count_drop) {
  Peer& p = *peers_[id];
  if (p.fd >= 0) {
    epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, p.fd, nullptr);
    close(p.fd);
  }
  p.fd = -1;
  p.connected = false;
  p.connecting = false;
  p.want_write = false;
  connected_flags_[id].store(false, std::memory_order_release);
  // Everything buffered toward (or half-read from) the dead connection is
  // lost, exactly like a TCP reset: a fresh connection must start at a
  // frame boundary on both sides.
  p.pending.clear();
  p.pending_off = 0;
  p.fresh.clear();
  {
    std::lock_guard<std::mutex> lock(p.mu);
    if (!p.staged.empty()) {
      if (count_drop) overflow_drops_.fetch_add(1, std::memory_order_relaxed);
      p.staged.clear();
    }
  }
  p.decoder.Reset();
  // Initiator side retries (a restarted peer announces a new port via
  // SetPeerPort; until then attempts fail fast and back off).
  p.backoff_ms = 1;
  p.next_connect =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(1);
}

void SocketNetwork::FlushPeer(NodeId id) {
  if (!batch_writes_) {
    FlushPeerPerFrame(id);
    return;
  }
  Peer& p = *peers_[id];
  if (p.fd < 0 || !p.connected) return;
  // Swap the staged buffer out behind the partially-written tail and ship
  // both as one gather write.
  if (p.fresh.empty()) {
    std::lock_guard<std::mutex> lock(p.mu);
    p.staged.swap(p.fresh);
  }
  const size_t tail = p.pending.size() - p.pending_off;
  if (tail == 0 && p.fresh.empty()) return;
  iovec iov[2];
  int iovcnt = 0;
  if (tail > 0) {
    iov[iovcnt++] = {p.pending.data() + p.pending_off, tail};
  }
  if (!p.fresh.empty()) {
    iov[iovcnt++] = {p.fresh.data(), p.fresh.size()};
  }
  const ssize_t wrote = writev(p.fd, iov, iovcnt);
  writev_calls_.fetch_add(1, std::memory_order_relaxed);
  if (wrote < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      eagain_stalls_.fetch_add(1, std::memory_order_relaxed);
      // Park everything in pending and arm EPOLLOUT.
      if (p.pending_off > 0) {
        p.pending.erase(p.pending.begin(),
                        p.pending.begin() +
                            static_cast<ptrdiff_t>(p.pending_off));
        p.pending_off = 0;
      }
      p.pending.insert(p.pending.end(), p.fresh.begin(), p.fresh.end());
      p.fresh.clear();
      if (!p.want_write) {
        p.want_write = true;
        UpdateEpoll(p.fd, EPOLLIN | EPOLLOUT);
      }
      return;
    }
    Disconnect(id, /*count_drop=*/true);
    return;
  }
  bytes_out_.fetch_add(static_cast<uint64_t>(wrote),
                       std::memory_order_relaxed);
  size_t left = static_cast<size_t>(wrote);
  const size_t offered = tail + p.fresh.size();
  if (left < offered) {
    partial_writes_.fetch_add(1, std::memory_order_relaxed);
  }
  // Consume from the tail first, then from fresh.
  const size_t from_tail = std::min(left, tail);
  p.pending_off += from_tail;
  left -= from_tail;
  if (p.pending_off == p.pending.size()) {
    p.pending.clear();
    p.pending_off = 0;
  }
  if (left >= p.fresh.size()) {
    p.fresh.clear();
  } else if (left > 0 || !p.fresh.empty()) {
    // Unwritten fresh bytes become the new tail.
    p.pending.insert(p.pending.end(), p.fresh.begin() + left, p.fresh.end());
    p.fresh.clear();
  }
  const bool blocked = !p.pending.empty();
  if (blocked != p.want_write) {
    p.want_write = blocked;
    UpdateEpoll(p.fd, blocked ? (EPOLLIN | EPOLLOUT) : EPOLLIN);
  }
}

void SocketNetwork::FlushPeerPerFrame(NodeId id) {
  // Ablation baseline (SetWritevBatching(false)): one write syscall per
  // staged frame, never a gather. At a frame cap of one each frame is one
  // message, so this is the per-message-send cost the batched path
  // exists to amortize — one packet's worth of TCP/IP work per message on
  // both ends of the loopback.
  Peer& p = *peers_[id];
  if (p.fd < 0 || !p.connected) return;
  if (p.fresh.empty()) {
    std::lock_guard<std::mutex> lock(p.mu);
    p.staged.swap(p.fresh);
  }
  // A previously unfinished write's remainder goes first; the stream must
  // stay in order.
  while (p.pending_off < p.pending.size()) {
    const size_t tail = p.pending.size() - p.pending_off;
    const ssize_t wrote = write(p.fd, p.pending.data() + p.pending_off, tail);
    writev_calls_.fetch_add(1, std::memory_order_relaxed);
    if (wrote < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        eagain_stalls_.fetch_add(1, std::memory_order_relaxed);
        if (!p.want_write) {
          p.want_write = true;
          UpdateEpoll(p.fd, EPOLLIN | EPOLLOUT);
        }
        return;
      }
      if (errno == EINTR) continue;
      Disconnect(id, /*count_drop=*/true);
      return;
    }
    bytes_out_.fetch_add(static_cast<uint64_t>(wrote),
                         std::memory_order_relaxed);
    if (static_cast<size_t>(wrote) < tail) {
      partial_writes_.fetch_add(1, std::memory_order_relaxed);
    }
    p.pending_off += static_cast<size_t>(wrote);
  }
  p.pending.clear();
  p.pending_off = 0;
  size_t off = 0;
  while (off < p.fresh.size()) {
    // Each staged unit is a length-prefixed frame; the prefix tells us
    // where this write must stop.
    uint32_t frame_len = 0;
    size_t unit = p.fresh.size() - off;
    if (unit >= 4) {
      std::memcpy(&frame_len, p.fresh.data() + off, 4);
      unit = std::min<size_t>(unit, 4u + frame_len);
    }
    const ssize_t wrote = write(p.fd, p.fresh.data() + off, unit);
    writev_calls_.fetch_add(1, std::memory_order_relaxed);
    if (wrote < 0 && errno == EINTR) continue;
    if (wrote < 0) {
      if (errno != EAGAIN && errno != EWOULDBLOCK) {
        Disconnect(id, /*count_drop=*/true);
        return;
      }
      eagain_stalls_.fetch_add(1, std::memory_order_relaxed);
      break;  // park the rest below; EPOLLOUT armed by the blocked check
    }
    bytes_out_.fetch_add(static_cast<uint64_t>(wrote),
                         std::memory_order_relaxed);
    if (static_cast<size_t>(wrote) < unit) {
      partial_writes_.fetch_add(1, std::memory_order_relaxed);
      off += static_cast<size_t>(wrote);
      break;
    }
    off += unit;
  }
  if (off < p.fresh.size()) {
    // Park the unwritten remainder (stream order preserved) and wait for
    // writability.
    p.pending.assign(p.fresh.begin() + static_cast<ptrdiff_t>(off),
                     p.fresh.end());
    p.pending_off = 0;
  }
  p.fresh.clear();
  const bool blocked = !p.pending.empty();
  if (blocked != p.want_write) {
    p.want_write = blocked;
    UpdateEpoll(p.fd, blocked ? (EPOLLIN | EPOLLOUT) : EPOLLIN);
  }
}

void SocketNetwork::ReadPeer(NodeId id) {
  Peer& p = *peers_[id];
  for (;;) {
    const ssize_t got = read(p.fd, read_buf_.data(), read_buf_.size());
    if (got == 0) {
      Disconnect(id, /*count_drop=*/true);
      return;
    }
    if (got < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      Disconnect(id, /*count_drop=*/true);
      return;
    }
    read_calls_.fetch_add(1, std::memory_order_relaxed);
    bytes_in_.fetch_add(static_cast<uint64_t>(got),
                        std::memory_order_relaxed);
    p.decoder.Feed(read_buf_.data(), static_cast<size_t>(got));
    while (p.decoder.Next(&rx_frame_)) {
      if (rx_frame_.dst != self_) continue;  // misrouted; drop
      frames_in_.fetch_add(1, std::memory_order_relaxed);
      messages_in_.fetch_add(rx_frame_.messages.size(),
                             std::memory_order_relaxed);
      // Into the local mailbox as one batch — the hop a ThreadWorker
      // already knows how to drain (one lock, at most one wake).
      channel(self_).PushBatch(&rx_frame_.messages);
    }
    if (p.decoder.corrupt()) {
      corrupt_resets_.fetch_add(1, std::memory_order_relaxed);
      Disconnect(id, /*count_drop=*/true);
      return;
    }
    if (static_cast<size_t>(got) < read_buf_.size()) break;
  }
}

// --------------------------------------------------------------------------
// SocketNode: the per-process host
// --------------------------------------------------------------------------

namespace {

uint64_t NodeSeed(uint64_t cluster_seed, NodeId id) {
  // Must match ThreadCluster's per-node seed derivation (one root stream,
  // one draw per node in id order) so a socket run is comparable to the
  // in-process runtimes at the same seed.
  Rng root(cluster_seed);
  uint64_t seed = 0;
  for (NodeId i = 0; i <= id; ++i) seed = root.Next();
  return seed;
}

}  // namespace

SocketNode::SocketNode(SocketNodeConfig config)
    : config_(std::move(config)),
      workload_(config_.ycsb),
      network_(config_.id, config_.cluster.num_nodes) {
  // One knob drives both halves of the batching story: the frame cap at
  // the send site and writev gathering on the wire. The bench ablation
  // turns both off together — its baseline is one syscall per message.
  network_.SetWritevBatching(config_.cluster.coalesce_transport);
  core_metrics_ = RegisterCoreMetrics(&metrics_registry_);
  for (size_t i = 0; i < std::size(kSocketIoGauges); ++i) {
    io_gauges_[i] = metrics_registry_.Gauge(kSocketIoGauges[i].name);
  }
  wal_records_ = metrics_registry_.Gauge("wal_records");
  metrics_registry_.Activate(1);
  const MetricsHandle handle{&metrics_registry_, &core_metrics_, 0};
  node_ = std::make_unique<ThreadNode>(
      config_.id, config_.cluster, &network_, &workload_, &monitor_,
      NodeSeed(config_.cluster.seed, config_.id), handle);
  worker_ = std::make_unique<ThreadWorker>(
      config_.id, config_.cluster.num_nodes, &network_, handle);
  worker_->AddNode(node_.get());
  if (config_.cluster.telemetry.enabled) {
    sampler_ = std::make_unique<TelemetrySampler>(&metrics_registry_,
                                                  config_.cluster.telemetry);
    sampler_->SetPollHook([this] { PollGauges(); });
  }
}

void SocketNode::PollGauges() {
  SetNetworkGauges(network_.stats(), core_metrics_, &metrics_registry_);
  const SocketIoStats io = network_.io_stats();
  for (size_t i = 0; i < std::size(kSocketIoGauges); ++i) {
    metrics_registry_.Set(io_gauges_[i], io.*kSocketIoGauges[i].field);
  }
}

SocketNode::~SocketNode() { Stop(); }

void SocketNode::Start() {
  ECDB_CHECK(!started_);
  started_ = true;
  network_.StartIo();
  node_->Bootstrap();
  if (config_.track_acked) node_->TrackAckedCommits(true);
  if (config_.restarted) {
    // A replacement process over the old WAL: allocate past every logged
    // self-coordinated id, then run the crash/recover pair so the worker's
    // first loop iteration wipes the (empty) volatile state and performs
    // the full WAL recovery analysis + decision-ledger seeding before any
    // traffic is served.
    node_->ReseedTxnIdsFromWal();
    node_->Crash();
    node_->Recover();
  }
  worker_->Start();
  if (sampler_ != nullptr) sampling_.Start(sampler_.get());
}

void SocketNode::Stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  worker_->Stop();
  // The worker is joined: its node's WAL and trace ring may be read. Fold
  // them in ahead of the sampler's final sample.
  PollGauges();
  metrics_registry_.Set(core_metrics_.trace_events_dropped,
                        node_->trace().dropped());
  metrics_registry_.Set(wal_records_, node_->wal().Size());
  if (sampler_ != nullptr) {
    sampling_.Stop();
    if (!config_.telemetry_jsonl.empty()) {
      sampler_->AppendTimeseriesJsonlFile(
          "socket_node" + std::to_string(config_.id),
          config_.telemetry_jsonl);
    }
    if (!config_.telemetry_prom.empty()) {
      sampler_->WritePrometheusTextFile(config_.telemetry_prom);
    }
  }
  network_.StopIo();
  network_.Shutdown();
}

}  // namespace ecdb
