#include "gateway/tcp_gateway.h"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/log.h"

namespace fsr {

namespace {

/// Per-recv() chunk. Small enough that a thousand idle-ish connections don't
/// pin hundreds of megabytes of receive buffers, large enough to drain a
/// pipelined burst in a few syscalls.
constexpr std::size_t kRecvChunk = 16 * 1024;
constexpr std::size_t kRxChunkDefault = 64 * 1024;

bool write_all(int fd, const std::uint8_t* data, std::size_t n) {
  while (n > 0) {
    ssize_t w = ::send(fd, data, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

bool read_all(int fd, std::uint8_t* data, std::size_t n) {
  while (n > 0) {
    ssize_t r = ::recv(fd, data, n, 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (r == 0) return false;  // EOF
    data += r;
    n -= static_cast<std::size_t>(r);
  }
  return true;
}

}  // namespace

bool gateway_write_frame(int fd, const ClientFrame& frame) {
  Bytes wire = encode_client_frame_with_prefix(frame);
  return write_all(fd, wire.data(), wire.size());
}

std::optional<ClientFrame> gateway_read_frame(int fd) {
  std::uint8_t len[4];
  if (!read_all(fd, len, 4)) return std::nullopt;
  std::uint32_t n = 0;
  for (int i = 0; i < 4; ++i) n |= std::uint32_t{len[i]} << (8 * i);
  if (n == 0 || n > kMaxClientFrameBytes) return std::nullopt;
  auto buf = std::make_shared<Bytes>(n);
  if (!read_all(fd, buf->data(), n)) return std::nullopt;
  try {
    // Decode with the buffer as owner: request envelopes alias it all the
    // way into the broadcast path (the zero-copy contract).
    return decode_client_frame(*buf, buf);
  } catch (const CodecError& e) {
    FSR_WARN("gateway: dropping connection on malformed client frame: %s", e.what());
    return std::nullopt;
  }
}

Bytes encode_client_frame_with_prefix(const ClientFrame& frame) {
  const std::size_t body = client_wire_size(frame);
  Bytes out;
  out.reserve(4 + body);
  std::uint32_t n = static_cast<std::uint32_t>(body);
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(n >> (8 * i)));
  Bytes encoded = encode_client_frame(frame);
  out.insert(out.end(), encoded.begin(), encoded.end());
  return out;
}

// --- EventLoop ---

GatewayServer::EventLoop::EventLoop(GatewayServer& server, std::size_t index)
    : server_(server), index_(index) {
  reactor_.set_iteration_hook([this] {
    reactor_.role().assert_held();  // lambda: runs at the end of each iteration
    flush_replies();
  });
}

void GatewayServer::EventLoop::post_reply(std::uint64_t serial, const ClientReply& r) {
  reactor_.post([this, serial, r]() mutable {
    reactor_.role().assert_held();  // lambda: a posted closure
    replies_.emplace_back(serial, std::move(r));
  });
}

void GatewayServer::EventLoop::listen(int listen_fd) {
  // Single-threaded setup: no loop thread exists yet to contend the role.
  ThreadRoleRegion role(reactor_.role());
  reactor_.watch(listen_fd, [this, listen_fd](std::uint32_t) {
    reactor_.role().assert_held();  // lambda: a reactor handler
    accept_ready(listen_fd);
  });
}

void GatewayServer::EventLoop::accept_ready(int listen_fd) {
  for (int fd; (fd = accept_stream(listen_fd)) >= 0;) {
    const std::uint64_t serial = server_.next_serial_.fetch_add(1);
    const std::size_t target = server_.next_loop_.fetch_add(1) % server_.loops_.size();
    if (target == index_) {
      add_conn(fd, serial);
      continue;
    }
    EventLoop* loop = server_.loops_[target].get();
    loop->reactor_.post([loop, fd, serial] {
      loop->reactor_.role().assert_held();  // lambda: a posted closure
      loop->add_conn(fd, serial);
    });
  }
}

void GatewayServer::EventLoop::add_conn(int fd, std::uint64_t serial) {
  auto conn = std::make_shared<Conn>();
  conn->fd = fd;
  conn->serial = serial;
  conn->rx.set_default_chunk_size(kRxChunkDefault);
  // Replies are written from the iteration hook; EPOLLOUT only matters
  // after a write hit EAGAIN. The handler shares ownership, so a conn it
  // closes stays valid until the reactor frees the handler at the end of
  // the iteration.
  reactor_.watch(fd, [this, c = conn](std::uint32_t events) {
    reactor_.role().assert_held();  // lambda: a reactor handler
    if (events & (EPOLLIN | EPOLLRDHUP | EPOLLERR | EPOLLHUP)) handle_readable(*c, events);
    if (c->fd >= 0 && (events & EPOLLOUT) && !c->send_outbox()) close_conn(*c, true);
  });
  conns_.emplace(serial, std::move(conn));
  open_conns_.fetch_add(1);
}

void GatewayServer::EventLoop::close_conn(Conn& c, bool notify_gateway) {
  if (c.fd < 0) return;
  reactor_.close_fd(c.fd);
  c.fd = -1;
  if (notify_gateway) {
    for (std::uint64_t id : c.clients_seen) {
      server_.io_.post([srv = &server_, id, serial = c.serial] {
        ThreadRoleRegion role(srv->router_.role());
        srv->router_.on_client_disconnect(id, serial);
      });
    }
  }
  open_conns_.fetch_sub(1);
  conns_.erase(c.serial);
}

void GatewayServer::EventLoop::stop() {
  reactor_.stop();  // closes every socket of the shard
  reactor_.post([this] {
    reactor_.role().assert_held();  // lambda: drained inline, the loop is gone
    conns_.clear();
    replies_.clear();
    open_conns_.store(0);
  });
}

void GatewayServer::EventLoop::handle_readable(Conn& c, std::uint32_t events) {
  const bool open = c.receive(kRecvChunk, events & (EPOLLRDHUP | EPOLLHUP | EPOLLERR));
  // Requests that arrived ahead of an EOF still execute: their batch is
  // posted before the disconnect.
  parse_frames(c);
  if (!open) close_conn(c, true);
}

void GatewayServer::EventLoop::parse_frames(Conn& c) {
  std::vector<ClientMsg> batch;
  for (;;) {
    auto data = c.rx.readable();
    if (data.size() < 4) break;
    std::uint32_t len = 0;
    for (int i = 0; i < 4; ++i) len |= std::uint32_t{data[i]} << (8 * i);
    if (len == 0 || len > kMaxClientFrameBytes) {
      close_conn(c, true);
      return;
    }
    if (data.size() < 4 + static_cast<std::size_t>(len)) break;
    try {
      // Decode with the chunk as owner: request envelopes alias the receive
      // buffer all the way into the broadcast path.
      ClientFrame frame = decode_client_frame(data.subspan(4, len), c.rx.owner());
      for (auto& msg : frame.msgs) {
        if (const auto* hello = std::get_if<ClientHello>(&msg)) {
          c.clients_seen.insert(hello->client_id);
        } else if (const auto* req = std::get_if<ClientRequest>(&msg)) {
          c.clients_seen.insert(req->client_id);
        }
        batch.push_back(std::move(msg));
      }
    } catch (const CodecError& e) {
      FSR_WARN("gateway: dropping connection on malformed client frame: %s",
               e.what());
      close_conn(c, true);
      return;
    }
    c.rx.consume(4 + static_cast<std::size_t>(len));
  }
  if (batch.empty()) return;
  // One marshalled closure per socket drain: the whole burst crosses to the
  // I/O thread together and ends in a single coalescing flush, so requests
  // that arrived together leave in one broadcast envelope.
  auto loop = server_.loops_[index_];  // shared: outlives in-flight replies
  auto send = [loop, serial = c.serial](const ClientReply& r) {
    loop->post_reply(serial, r);
  };
  server_.io_.post([srv = &server_, msgs = std::move(batch), send,
                    serial = c.serial]() mutable {
    ShardRouter& rt = srv->router_;
    ThreadRoleRegion role(rt.role());
    rt.begin_drain();
    for (auto& msg : msgs) {
      if (const auto* hello = std::get_if<ClientHello>(&msg)) {
        rt.on_hello(*hello, send, serial);
      } else if (auto* req = std::get_if<ClientRequest>(&msg)) {
        rt.on_request(*req, send, serial);
      } else if (const auto* read = std::get_if<ClientRead>(&msg)) {
        rt.on_read(*read, send);
      }
      // Client-to-server replies are not a thing; ignore them.
    }
    rt.end_drain();
  });
}

void GatewayServer::EventLoop::enqueue_frame(Conn& c, Bytes frame) {
  if (c.outbox_bytes + frame.size() > server_.cfg_.max_outbox_bytes) {
    // Slow loris: the peer stopped reading. Cut it loose rather than hold
    // reply memory hostage; its session state survives for a reconnect.
    FSR_WARN("gateway: conn serial %llu outbox overflow (%zu bytes), dropping",
             (unsigned long long)c.serial, c.outbox_bytes + frame.size());
    close_conn(c, true);
    return;
  }
  c.push(OutChunk{std::move(frame), Payload{}});
}

void GatewayServer::EventLoop::flush_replies() {
  if (replies_.empty()) return;
  std::vector<std::pair<std::uint64_t, ClientReply>> replies;
  replies.swap(replies_);
  // Group per connection, preserving order, and pack each group into as few
  // frames as the codec's per-frame message cap allows.
  constexpr std::size_t kMsgsPerFrame = 1024;  // decode-side kMaxMsgsPerFrame
  std::unordered_map<std::uint64_t, ClientFrame> grouped;
  std::vector<std::uint64_t> order;
  for (auto& [serial, r] : replies) {
    auto [it, fresh] = grouped.try_emplace(serial);
    if (fresh) order.push_back(serial);
    it->second.msgs.emplace_back(std::move(r));
    if (it->second.msgs.size() >= kMsgsPerFrame) {
      auto cit = conns_.find(serial);
      if (cit != conns_.end()) {
        enqueue_frame(*cit->second, encode_client_frame_with_prefix(it->second));
      }
      it->second.msgs.clear();
    }
  }
  for (std::uint64_t serial : order) {
    auto cit = conns_.find(serial);
    if (cit == conns_.end()) continue;  // died; dropped
    std::shared_ptr<Conn> c = cit->second;  // enqueue/close may erase the entry
    ClientFrame& frame = grouped[serial];
    if (!frame.msgs.empty()) enqueue_frame(*c, encode_client_frame_with_prefix(frame));
    if (c->fd >= 0 && !c->send_outbox()) close_conn(*c, true);
  }
}

// --- GatewayServer ---

GatewayServer::GatewayServer(TcpTransport& io, ShardRouter& router,
                             GatewayServerConfig cfg)
    : io_(io), router_(router), cfg_(cfg) {
  if (cfg_.event_loops == 0) cfg_.event_loops = 1;
}

GatewayServer::~GatewayServer() { stop(); }

void GatewayServer::start(std::uint16_t port) {
  Listener l = listen_tcp("127.0.0.1", port, 1024);
  port_ = l.port;
  running_.store(true);
  loops_.reserve(cfg_.event_loops);
  for (std::size_t i = 0; i < cfg_.event_loops; ++i) {
    loops_.push_back(std::make_shared<EventLoop>(*this, i));
  }
  loops_[0]->listen(l.fd);
  for (auto& loop : loops_) loop->reactor().start();
}

void GatewayServer::stop() {
  if (!running_.exchange(false)) return;
  // Loop 0 first: it closes the listener, so no accept hand-off follows.
  // Each loop closes its connection shard on the way out.
  for (auto& loop : loops_) loop->stop();
  loops_.clear();  // reply callbacks still held by the gateway keep their loop alive
}

std::size_t GatewayServer::open_connections() const {
  std::size_t total = 0;
  for (const auto& loop : loops_) total += loop->open_connections();
  return total;
}

// --- TcpGatewayCluster ---

TcpGatewayCluster::TcpGatewayCluster(TcpGatewayClusterConfig config)
    : shards_(config.shards == 0 ? 1 : config.shards) {
  const std::size_t n = config.n;
  // Deferred start: the delivery tap dereferences gateways_, so every
  // gateway must exist before any I/O thread runs.
  cluster_ = std::make_unique<TcpCluster>(
      n, config.group,
      [this](NodeId id, const Delivery& d) {
        Gateway& gw = *gateways_[id][d.group];
        ThreadRoleRegion role(gw.role());
        gw.on_delivery(d);
      },
      /*autostart=*/false, shards_);
  GatewayConfig gw_cfg = config.gateway;
  // Routed shards see gappy per-session seq subsequences.
  gw_cfg.sparse_sessions = shards_ > 1;
  stores_.reserve(n);
  gateways_.resize(n);
  routers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto id = static_cast<NodeId>(i);
    // One KvStore per node shared by its shard gateways: the keyspace
    // partition is disjoint, so each key's commands arrive from exactly one
    // shard's delivery stream and replicas converge key by key.
    stores_.push_back(std::make_unique<KvStore>());
    std::vector<Gateway*> raw;
    for (GroupId g = 0; g < shards_; ++g) {
      gateways_[i].push_back(std::make_unique<Gateway>(
          cluster_->member(id, g), *stores_.back(), gw_cfg,
          [this, id, g](Payload p) {
            cluster_->submit_from_io(id, g, std::move(p));
          }));
      raw.push_back(gateways_[i].back().get());
    }
    routers_.push_back(
        std::make_unique<ShardRouter>(std::move(raw), ShardMap(shards_)));
  }
  cluster_->start_all();
  servers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    servers_.push_back(std::make_unique<GatewayServer>(
        cluster_->transport(static_cast<NodeId>(i)), *routers_[i],
        config.server));
    servers_.back()->start(0);
  }
}

TcpGatewayCluster::~TcpGatewayCluster() {
  for (auto& s : servers_) s->stop();
  // The delivery tap points at gateways_; tear the cluster (and its I/O
  // threads) down before the gateways can go away.
  cluster_.reset();
}

std::vector<GatewayEndpoint> TcpGatewayCluster::endpoints() const {
  std::vector<GatewayEndpoint> out;
  out.reserve(servers_.size());
  for (const auto& s : servers_) out.push_back({"127.0.0.1", s->port()});
  return out;
}

void TcpGatewayCluster::crash(NodeId node) {
  servers_[node]->stop();  // client connections reset first
  cluster_->crash(node);
}

template <typename T, typename Fn>
T TcpGatewayCluster::sum_live(Fn read) const {
  T total{};
  for (std::size_t i = 0; i < stores_.size(); ++i) {
    auto id = static_cast<NodeId>(i);
    if (!cluster_->alive(id)) continue;
    T v{};
    cluster_->transport(id).post_wait([&] { v = read(i); });
    total += v;
  }
  return total;
}

GatewayCounters TcpGatewayCluster::gateway_counters() const {
  return sum_live<GatewayCounters>([this](std::size_t i) {
    ShardRouter& rt = *routers_[i];
    ThreadRoleRegion role(rt.role());
    return rt.counters();
  });
}

GatewayCounters TcpGatewayCluster::gateway_counters(GroupId shard) const {
  return sum_live<GatewayCounters>([this, shard](std::size_t i) {
    ShardRouter& rt = *routers_[i];
    ThreadRoleRegion role(rt.role());
    return rt.shard_counters(shard);
  });
}

std::uint64_t TcpGatewayCluster::total_admitted_bytes() const {
  return sum_live<std::uint64_t>([this](std::size_t i) {
    ShardRouter& rt = *routers_[i];
    ThreadRoleRegion role(rt.role());
    return rt.admitted_bytes();
  });
}

std::uint64_t TcpGatewayCluster::total_owned_sessions() const {
  return sum_live<std::uint64_t>([this](std::size_t i) {
    // A session binds in every shard; count distinct sessions once via
    // shard 0 (hello binds all shards together).
    Gateway& gw = *gateways_[i][0];
    ThreadRoleRegion role(gw.role());
    return gw.owned_sessions();
  });
}

std::vector<std::uint64_t> TcpGatewayCluster::fingerprints() const {
  std::vector<std::uint64_t> out;
  for (std::size_t i = 0; i < stores_.size(); ++i) {
    auto id = static_cast<NodeId>(i);
    if (!cluster_->alive(id)) continue;
    std::uint64_t fp = 0;
    cluster_->transport(id).post_wait([&] { fp = stores_[i]->fingerprint(); });
    out.push_back(fp);
  }
  return out;
}

std::uint64_t TcpGatewayCluster::total_failed_cas() const {
  return sum_live<std::uint64_t>([this](std::size_t i) { return stores_[i]->failed_cas(); });
}

std::uint64_t TcpGatewayCluster::total_applied() const {
  return sum_live<std::uint64_t>(
      [this](std::size_t i) { return stores_[i]->applied_commands(); });
}

}  // namespace fsr
