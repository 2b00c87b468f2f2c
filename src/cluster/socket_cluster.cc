#include "cluster/socket_cluster.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>
#include <thread>

namespace ecdb {
namespace {

constexpr const char* kChildFlagPrefix = "--ecdb-socket-node=";

/// Control-plane read timeout. Generous: a child may be mid-quiesce or
/// mid-WAL-replay when interrogated, but a child that takes longer than
/// this is wedged and the supervisor must not hang with it.
constexpr int kCtlTimeoutSec = 30;

int ListenLoopback(uint16_t* port) {
  int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      listen(fd, 64) != 0) {
    close(fd);
    return -1;
  }
  socklen_t len = sizeof(addr);
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    close(fd);
    return -1;
  }
  *port = ntohs(addr.sin_port);
  return fd;
}

int ConnectLoopback(uint16_t port) {
  int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  return fd;
}

void SetRecvTimeout(int fd, int seconds) {
  timeval tv{};
  tv.tv_sec = seconds;
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

bool WriteAll(int fd, const char* data, size_t len) {
  while (len > 0) {
    ssize_t n = write(fd, data, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    len -= static_cast<size_t>(n);
  }
  return true;
}

/// Reads one '\n'-terminated line from a blocking fd, buffering leftovers
/// in `*buf` across calls. False on EOF/timeout/error.
bool ReadLineFd(int fd, std::string* buf, std::string* line) {
  for (;;) {
    size_t nl = buf->find('\n');
    if (nl != std::string::npos) {
      line->assign(*buf, 0, nl);
      buf->erase(0, nl + 1);
      return true;
    }
    char chunk[4096];
    ssize_t n = read(fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buf->append(chunk, static_cast<size_t>(n));
  }
}

std::string ExePath() {
  char buf[4096];
  ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return "";
  buf[n] = '\0';
  return std::string(buf);
}

/// key=value (space-separated) serialization of the fan-out config. Paths
/// go in unquoted: SocketCluster::Start refuses any with whitespace
/// (PathsFitChildConfig).
std::string EncodeChildConfig(const SocketClusterConfig& c, NodeId id,
                              uint16_t ctl_port, bool restarted) {
  std::ostringstream out;
  out << "id=" << id << " n=" << c.num_nodes << " ctl=" << ctl_port
      << " proto=" << static_cast<int>(c.protocol)
      << " clients=" << c.clients_per_node << " coalesce=" << (c.coalesce ? 1 : 0)
      << " timeout=" << c.timeout_us << " termwin=" << c.termination_window_us
      << " seed=" << c.seed << " ol=" << (c.open_loop ? 1 : 0)
      << " rate=" << c.arrivals_per_sec_per_node
      << " inflight=" << c.max_in_flight_per_node
      << " attempts=" << c.max_attempts << " rows=" << c.rows_per_partition
      << " ppt=" << c.partitions_per_txn << " theta=" << c.theta
      << " telem=" << (c.telemetry ? 1 : 0)
      << " restarted=" << (restarted ? 1 : 0);
  if (!c.wal_dir.empty()) out << " waldir=" << c.wal_dir;
  if (!c.telemetry_dir.empty()) out << " tdir=" << c.telemetry_dir;
  return out.str();
}

struct ChildSetup {
  SocketNodeConfig node;
  uint16_t ctl_port = 0;
};

ChildSetup DecodeChildConfig(const std::string& blob) {
  ChildSetup setup;
  SocketClusterConfig c;  // defaults for anything unmentioned
  NodeId id = 0;
  bool restarted = false;
  std::string tdir;
  std::istringstream in(blob);
  std::string kv;
  while (in >> kv) {
    size_t eq = kv.find('=');
    if (eq == std::string::npos) continue;
    const std::string key = kv.substr(0, eq);
    const std::string val = kv.substr(eq + 1);
    if (key == "id") id = static_cast<NodeId>(std::stoul(val));
    else if (key == "n") c.num_nodes = static_cast<uint32_t>(std::stoul(val));
    else if (key == "ctl") setup.ctl_port = static_cast<uint16_t>(std::stoul(val));
    else if (key == "proto") c.protocol = static_cast<CommitProtocol>(std::stoi(val));
    else if (key == "clients") c.clients_per_node = static_cast<uint32_t>(std::stoul(val));
    else if (key == "coalesce") c.coalesce = val != "0";
    else if (key == "timeout") c.timeout_us = std::stoll(val);
    else if (key == "termwin") c.termination_window_us = std::stoll(val);
    else if (key == "seed") c.seed = std::stoull(val);
    else if (key == "ol") c.open_loop = val != "0";
    else if (key == "rate") c.arrivals_per_sec_per_node = std::stod(val);
    else if (key == "inflight") c.max_in_flight_per_node = static_cast<uint32_t>(std::stoul(val));
    else if (key == "attempts") c.max_attempts = static_cast<uint32_t>(std::stoul(val));
    else if (key == "rows") c.rows_per_partition = static_cast<uint32_t>(std::stoul(val));
    else if (key == "ppt") c.partitions_per_txn = static_cast<uint32_t>(std::stoul(val));
    else if (key == "theta") c.theta = std::stod(val);
    else if (key == "telem") c.telemetry = val != "0";
    else if (key == "restarted") restarted = val != "0";
    else if (key == "waldir") c.wal_dir = val;
    else if (key == "tdir") tdir = val;
  }

  SocketNodeConfig& n = setup.node;
  n.id = id;
  n.restarted = restarted;
  n.cluster.num_nodes = c.num_nodes;
  n.cluster.clients_per_node = c.clients_per_node;
  n.cluster.protocol = c.protocol;
  n.cluster.commit.timeout_us = c.timeout_us;
  n.cluster.commit.termination_window_us = c.termination_window_us;
  n.cluster.seed = c.seed;
  n.cluster.coalesce_transport = c.coalesce;
  n.cluster.wal_dir = c.wal_dir;
  n.cluster.open_loop.enabled = c.open_loop;
  n.cluster.open_loop.arrivals_per_sec_per_node = c.arrivals_per_sec_per_node;
  n.cluster.open_loop.max_in_flight_per_node = c.max_in_flight_per_node;
  n.cluster.open_loop.max_attempts = c.max_attempts;
  n.cluster.telemetry.enabled = c.telemetry;
  n.ycsb.num_partitions = c.num_nodes;
  n.ycsb.rows_per_partition = c.rows_per_partition;
  n.ycsb.partitions_per_txn = c.partitions_per_txn;
  n.ycsb.theta = c.theta;
  if (!tdir.empty()) {
    n.telemetry_jsonl = tdir + "/socket_node" + std::to_string(id) + ".jsonl";
    n.telemetry_prom = tdir + "/socket_node" + std::to_string(id) + ".prom";
  }
  return setup;
}

/// A node's STATS reply body: its whole registry snapshot as space-led
/// `name=value` tokens — every counter and gauge, and for each non-empty
/// histogram `name.sum`, `name.min`, `name.max` and one `name@bucket` per
/// non-empty bucket.
std::string FormatSnapshot(const MetricsRegistry& registry) {
  const MetricsSnapshot snap = registry.Snapshot();
  std::ostringstream out;
  for (size_t i = 0; i < snap.counters.size(); ++i) {
    out << ' ' << registry.counter_names()[i] << '=' << snap.counters[i];
  }
  for (size_t i = 0; i < snap.gauges.size(); ++i) {
    out << ' ' << registry.gauge_names()[i] << '=' << snap.gauges[i];
  }
  for (size_t h = 0; h < snap.hist_counts.size(); ++h) {
    if (snap.hist_counts[h] == 0) continue;
    const std::string& name = registry.hist_names()[h];
    out << ' ' << name << ".sum=" << snap.hist_sums[h] << ' ' << name
        << ".min=" << snap.hist_mins[h] << ' ' << name
        << ".max=" << snap.hist_maxes[h];
    for (size_t b = 0; b < snap.hist_buckets[h].size(); ++b) {
      const uint64_t count = snap.hist_buckets[h][b];
      if (count != 0) out << ' ' << name << '@' << b << '=' << count;
    }
  }
  return out.str();
}

/// Inverse of FormatSnapshot's token list.
std::map<std::string, uint64_t> ParseNamed(const std::string& tokens) {
  std::map<std::string, uint64_t> out;
  std::istringstream in(tokens);
  std::string kv;
  while (in >> kv) {
    const size_t eq = kv.find('=');
    if (eq == std::string::npos) continue;
    out[kv.substr(0, eq)] = std::strtoull(kv.c_str() + eq + 1, nullptr, 10);
  }
  return out;
}

/// Node-process command loop: connects back to the supervisor, announces
/// its data port, then serves control commands until STOP.
void RunSocketNodeChild(const std::string& blob) {
  // A peer process dying mid-write raises SIGPIPE; the transport handles
  // the write error, so the default terminate-on-signal must go.
  signal(SIGPIPE, SIG_IGN);

  ChildSetup setup = DecodeChildConfig(blob);
  SocketNode host(setup.node);
  const uint16_t data_port = host.Listen();

  int ctl = ConnectLoopback(setup.ctl_port);
  if (ctl < 0) _exit(3);
  {
    std::ostringstream hello;
    hello << "HELLO " << setup.node.id << " " << data_port << "\n";
    const std::string line = hello.str();
    if (!WriteAll(ctl, line.data(), line.size())) _exit(3);
  }

  bool halted = false;
  std::string rdbuf, line;
  while (ReadLineFd(ctl, &rdbuf, &line)) {
    std::istringstream cmd(line);
    std::string verb;
    cmd >> verb;
    if (verb == "PEERS") {
      for (NodeId i = 0; i < setup.node.cluster.num_nodes; ++i) {
        uint32_t port = 0;
        if (!(cmd >> port)) break;
        if (i != setup.node.id && port != 0) {
          host.SetPeerPort(i, static_cast<uint16_t>(port));
        }
      }
    } else if (verb == "START") {
      host.Start();
      WriteAll(ctl, "READY\n", 6);
    } else if (verb == "QUIESCE") {
      host.Quiesce();
    } else if (verb == "HALT") {
      if (!halted) host.Stop();
      halted = true;
      WriteAll(ctl, "HALTED\n", 7);
    } else if (verb == "STATS") {
      // Live at any time; the node ledgers are folded in by HALT.
      const std::string str = "STATS" + FormatSnapshot(host.metrics()) + "\n";
      WriteAll(ctl, str.data(), str.size());
    } else if (verb == "STOP") {
      WriteAll(ctl, "BYE\n", 4);
      break;
    }
  }
  if (!halted) host.Stop();
  close(ctl);
}

uint64_t Named(const std::map<std::string, uint64_t>& values,
               const std::string& name) {
  auto it = values.find(name);
  return it == values.end() ? 0 : it->second;
}

/// Rebuilds histogram `name` from FormatSnapshot's tokens.
Histogram HistFromNamed(const std::map<std::string, uint64_t>& values,
                        const std::string& name) {
  std::vector<uint64_t> buckets(Histogram::kNumBuckets, 0);
  const std::string prefix = name + "@";
  for (auto it = values.lower_bound(prefix);
       it != values.end() && it->first.compare(0, prefix.size(), prefix) == 0;
       ++it) {
    const size_t b = std::strtoull(it->first.c_str() + prefix.size(),
                                   nullptr, 10);
    if (b < buckets.size()) buckets[b] = it->second;
  }
  return Histogram::FromBuckets(std::move(buckets), Named(values, name + ".sum"),
                                Named(values, name + ".min"),
                                Named(values, name + ".max"));
}

}  // namespace

bool MaybeRunSocketNodeChild(int argc, char** argv) {
  const size_t prefix_len = std::strlen(kChildFlagPrefix);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], kChildFlagPrefix, prefix_len) == 0) {
      RunSocketNodeChild(std::string(argv[i] + prefix_len));
      return true;
    }
  }
  return false;
}

uint64_t SocketRunStats::Sum(uint64_t SocketNodeReport::*field) const {
  uint64_t sum = 0;
  for (const auto& n : nodes) sum += n.*field;
  return sum;
}

SocketIoStats SocketRunStats::Io() const {
  SocketIoStats sum;
  for (const auto& n : nodes) {
    for (const SocketIoGauge& g : kSocketIoGauges) sum.*g.field += n.io.*g.field;
  }
  return sum;
}

SocketCluster::SocketCluster(SocketClusterConfig config)
    : config_(std::move(config)) {
  children_.resize(config_.num_nodes);
}

SocketCluster::~SocketCluster() {
  if (started_ && !stopped_) Stop();
  if (ctl_listen_ >= 0) close(ctl_listen_);
}

bool SocketCluster::Spawn(NodeId id, bool restarted) {
  const std::string exe = ExePath();
  if (exe.empty()) return false;
  const std::string flag =
      kChildFlagPrefix + EncodeChildConfig(config_, id, ctl_port_, restarted);
  pid_t pid = fork();
  if (pid < 0) return false;
  if (pid == 0) {
    // Child: re-exec ourselves with the node marker. execv never returns
    // on success; a fork without exec would carry this process's threads'
    // locks in undefined states, so failure is fatal.
    char* argv[3];
    argv[0] = const_cast<char*>(exe.c_str());
    argv[1] = const_cast<char*>(flag.c_str());
    argv[2] = nullptr;
    execv(exe.c_str(), argv);
    _exit(127);
  }
  Child& c = children_[id];
  c.pid = pid;
  c.ctl = -1;
  c.port = 0;
  c.live = true;
  c.rdbuf.clear();
  return true;
}

bool SocketCluster::AcceptHello(NodeId* out_id) {
  int fd = accept(ctl_listen_, nullptr, nullptr);
  if (fd < 0) return false;
  SetRecvTimeout(fd, kCtlTimeoutSec);
  std::string buf, line;
  if (!ReadLineFd(fd, &buf, &line)) {
    close(fd);
    return false;
  }
  std::istringstream in(line);
  std::string verb;
  uint32_t id = 0, port = 0;
  in >> verb >> id >> port;
  if (verb != "HELLO" || id >= config_.num_nodes || port == 0) {
    close(fd);
    return false;
  }
  Child& c = children_[id];
  if (c.ctl >= 0) close(c.ctl);
  c.ctl = fd;
  c.port = static_cast<uint16_t>(port);
  c.rdbuf = std::move(buf);  // anything the child already pipelined
  *out_id = static_cast<NodeId>(id);
  return true;
}

bool SocketCluster::SendLine(NodeId id, const std::string& line) {
  Child& c = children_[id];
  if (!c.live || c.ctl < 0) return false;
  std::string out = line;
  out.push_back('\n');
  return WriteAll(c.ctl, out.data(), out.size());
}

bool SocketCluster::ReadLine(NodeId id, std::string* line) {
  Child& c = children_[id];
  if (!c.live || c.ctl < 0) return false;
  return ReadLineFd(c.ctl, &c.rdbuf, line);
}

void SocketCluster::BroadcastPeers() {
  std::ostringstream out;
  out << "PEERS";
  for (const Child& c : children_) out << " " << c.port;
  const std::string line = out.str();
  for (NodeId id = 0; id < config_.num_nodes; ++id) {
    if (children_[id].live) SendLine(id, line);
  }
}

void SocketCluster::ReapChild(NodeId id) {
  Child& c = children_[id];
  if (c.ctl >= 0) {
    close(c.ctl);
    c.ctl = -1;
  }
  if (c.pid > 0) {
    waitpid(c.pid, nullptr, 0);
    c.pid = -1;
  }
  c.live = false;
  c.port = 0;
}

bool PathsFitChildConfig(const SocketClusterConfig& config) {
  const auto no_space = [](const std::string& path) {
    return std::none_of(path.begin(), path.end(), [](unsigned char c) {
      return std::isspace(c) != 0;
    });
  };
  return no_space(config.wal_dir) && no_space(config.telemetry_dir);
}

bool SocketCluster::Start() {
  started_ = true;
  if (!PathsFitChildConfig(config_)) return false;
  ctl_listen_ = ListenLoopback(&ctl_port_);
  if (ctl_listen_ < 0) return false;
  SetRecvTimeout(ctl_listen_, kCtlTimeoutSec);  // bounds accept() too
  for (NodeId id = 0; id < config_.num_nodes; ++id) {
    if (!Spawn(id, /*restarted=*/false)) return false;
  }
  // Hellos arrive in whatever order the processes came up.
  for (uint32_t i = 0; i < config_.num_nodes; ++i) {
    NodeId id = 0;
    if (!AcceptHello(&id)) return false;
    SetRecvTimeout(children_[id].ctl, kCtlTimeoutSec);
  }
  BroadcastPeers();
  for (NodeId id = 0; id < config_.num_nodes; ++id) {
    if (!SendLine(id, "START")) return false;
  }
  for (NodeId id = 0; id < config_.num_nodes; ++id) {
    std::string line;
    if (!ReadLine(id, &line) || line != "READY") return false;
  }
  return true;
}

void SocketCluster::RunFor(double seconds) {
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

uint64_t SocketCluster::TotalCommitted() {
  uint64_t sum = 0;
  for (NodeId id = 0; id < config_.num_nodes; ++id) {
    if (!children_[id].live) continue;
    std::string line;
    if (SendLine(id, "STATS") && ReadLine(id, &line) &&
        line.rfind("STATS", 0) == 0) {
      sum += Named(ParseNamed(line.substr(5)), "txns_committed");
    }
  }
  return sum;
}

bool SocketCluster::Kill(NodeId id) {
  Child& c = children_[id];
  if (!c.live || c.pid <= 0) return false;
  kill(c.pid, SIGKILL);
  ReapChild(id);
  return true;
}

bool SocketCluster::Restart(NodeId id) {
  if (children_[id].live) return false;
  if (!Spawn(id, /*restarted=*/true)) return false;
  NodeId got = 0;
  if (!AcceptHello(&got) || got != id) return false;
  SetRecvTimeout(children_[id].ctl, kCtlTimeoutSec);
  // Everyone (including the newcomer) learns the replacement's port; the
  // initiator sides re-dial it on their backoff schedule.
  BroadcastPeers();
  if (!SendLine(id, "START")) return false;
  std::string line;
  return ReadLine(id, &line) && line == "READY";
}

void SocketCluster::Quiesce(double drain_seconds) {
  for (NodeId id = 0; id < config_.num_nodes; ++id) {
    if (children_[id].live) SendLine(id, "QUIESCE");
  }
  RunFor(drain_seconds);
}

SocketRunStats SocketCluster::Stop() {
  SocketRunStats run;
  if (stopped_) return run;
  stopped_ = true;
  for (NodeId id = 0; id < config_.num_nodes; ++id) {
    Child& c = children_[id];
    if (!c.live) continue;
    std::string line;
    if (!SendLine(id, "HALT") || !ReadLine(id, &line) || line != "HALTED") {
      // Wedged child: reap with prejudice, no report.
      if (c.pid > 0) kill(c.pid, SIGKILL);
      ReapChild(id);
      continue;
    }
    SocketNodeReport report;
    report.id = id;
    if (SendLine(id, "STATS") && ReadLine(id, &line) &&
        line.rfind("STATS", 0) == 0) {
      report.metrics = ParseNamed(line.substr(5));
      const auto& m = report.metrics;
      report.committed = Named(m, "txns_committed");
      report.attempts_aborted = Named(m, "txns_aborted");
      report.offered = Named(m, "open_loop_offered");
      report.rejected = Named(m, "open_loop_rejected");
      report.terminal_aborted = Named(m, "open_loop_aborted");
      report.duplicate_decisions_suppressed =
          Named(m, "duplicate_decisions_suppressed");
      report.termination_rounds = Named(m, "termination_rounds");
      // Every group flush goes through the node's FlushWal, which counts
      // exactly the flushes that covered records.
      report.wal_group_flushes = Named(m, "wal_flushes");
      report.wal_records = Named(m, "wal_records");
      for (const SocketIoGauge& g : kSocketIoGauges) {
        report.io.*g.field = Named(m, g.name);
      }
      run.latency.Merge(HistFromNamed(m, "latency_us"));
    }
    if (SendLine(id, "STOP")) {
      ReadLine(id, &line);  // BYE (best effort)
    }
    ReapChild(id);
    run.nodes.push_back(report);
  }
  return run;
}

}  // namespace ecdb
